"""Complex scalar fields through the conjugate sort pairing.

The bracket and star machinery is parameterized over the (primary,
conjugate) pair, so the complex case is an instantiation, not a second
implementation: the holomorphic sort plays the primary role.  This module
adds the change-of-variables equivalence with a real pair; the cubic
Schrodinger equation example is the session config ``configs/nls.json``.
"""

from __future__ import annotations

from .jets import (
    FieldExpr,
    FieldSystem,
    _acc,
    _canon_monomial,
    conjugate_atom,
    real_system,
)
from .kernels import Kernel
from .poisson import bracket_fn
from .rationals import I
from .tensor import TensorExpr


def real_complex_equivalence(P: Kernel, dim: int) -> list:
    """Residuals of the complex basic brackets realized inside the real pair
    phi, pi.

    With psi = phi + i*pi and psibar = phi - i*pi, the real brackets with a
    symmetric kernel give {psi, psibar} = -2i P(x,y) and
    {psi, psi} = {psibar, psibar} = 0.  Returns the three residual
    TensorExprs; the identity is specific to the symmetric class.
    """
    from .kernels import SYMMETRIC

    if P.classify() != SYMMETRIC:
        raise ValueError("the change-of-variables identity needs a symmetric kernel")
    system = real_system(dim)
    u = FieldExpr.jet("phi", (0,) * dim)
    xi = FieldExpr.jet("pi", (0,) * dim)
    psi = u + xi.scale(I)
    psibar = u - xi.scale(I)
    mixed = bracket_fn(psi, psibar, P, system) \
        + TensorExpr.from_kernel(P.scale(I + I), "x", "y")
    holo = bracket_fn(psi, psi, P, system)
    anti = bracket_fn(psibar, psibar, P, system)
    return [mixed, holo, anti]


def conjugation_residual(f: FieldExpr, g: FieldExpr, P: Kernel,
                         system: FieldSystem) -> TensorExpr:
    """Anti-automorphism residual of conjugation: zero on all inputs.

    Conjugation swaps each sort with its partner, conjugates coefficients,
    and reverses the bracket's arguments, each kept at its label (the label
    pair in reverse order), while the kernel transposes and conjugates:

        conj {f@x, g@y}_P = {conj g @y, conj f @x}_{conj P^t}.
    """
    lhs = _conjugate_tensor(bracket_fn(f, g, P, system), system)
    Q = Kernel(P.dim, {gm: c.conjugate() for gm, c in P.transpose().terms.items()})
    rhs = bracket_fn(g.conjugate(system), f.conjugate(system), Q, system,
                     "y", "x")
    return lhs - rhs


def _conjugate_tensor(T: TensorExpr, system: FieldSystem) -> TensorExpr:
    terms: dict = {}
    for (mon, deltas), c in T.terms.items():
        located = _canon_monomial((lab, conjugate_atom(atom, system))
                                  for lab, atom in mon)
        _acc(terms, (located, deltas), c.conjugate())
    return TensorExpr(T.dim, terms)
