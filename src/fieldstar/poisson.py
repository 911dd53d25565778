"""Poisson brackets of functions, densities, and functionals.

The function-level bracket applies the sort-paired bidifferential operator
once, leaving the kernel explicit in the result.  Density-level brackets
are the same algebra under the substitution reading of jet variables.
Functional levels integrate one or both labels out; on request they are
compared with independently computed closed forms, the order-one terms of
the functional star closed forms in ``star``.

The complex field is an instantiation of the one (primary, conjugate) sort
pair, not a second implementation.  Beside Jacobi sit its two identities,
change of variables with a real pair and conjugation; the cubic Schrodinger
equation example is the session config ``configs/nls.json``.
"""

from __future__ import annotations

from .euler_lagrange import variational_derivative
from .jets import ConditionBError, FieldExpr, FieldSystem, real_system
from .kernels import SYMMETRIC, Kernel
from .rationals import I
from .sigma import _check_dims, sigma_terms
from .tensor import TensorExpr


class LabelCollision(ValueError):
    """Two bracket operands were assigned the same point label."""


class ConditionBViolation(ValueError):
    """A functional's density does not vanish at the jet origin."""


def bracket_fn(f: FieldExpr, g: FieldExpr, P: Kernel, system: FieldSystem,
               a: str = "x", b: str = "y") -> TensorExpr:
    """{f@a, g@b}_P: single application of the paired operator."""
    if a == b:
        raise LabelCollision(f"both operands at label {a!r}")
    product = (TensorExpr.from_field(f, a), TensorExpr.from_field(g, b))
    return _first_power([([product], a, b)], P, system)


def _first_power(calls: list, P: Kernel, system: FieldSystem) -> TensorExpr:
    """The operator applied once, summed over ``calls``: the first power
    of ``sigma_terms``, or zero when it yields none."""
    T = next(sigma_terms(calls, P, system), None)
    return TensorExpr(P.dim, {}) if T is None else T


def _tensor_calls(h: FieldExpr, c: str, T: TensorExpr, P: Kernel,
                  system: FieldSystem) -> list:
    """The operator calls of {h@c, T}_P: one per label of T."""
    if c in (labels := T.labels()):
        raise LabelCollision(f"label {c!r} already occurs in the tensor operand")
    H = TensorExpr.from_field(h, c)
    _check_dims([(H, T)], P, system)  # also when T has no label to bracket
    return [([(H, T)], c, l) for l in sorted(labels)]


def bracket_tensor(h: FieldExpr, c: str, T: TensorExpr, P: Kernel,
                   system: FieldSystem) -> TensorExpr:
    """{h@c, T}_P: Leibniz sum of pair brackets over T's labels.

    Existing kernel atoms in T are constants for the bracket; the label c
    must not occur in T.
    """
    return _first_power(_tensor_calls(h, c, T, P, system), P, system)


def jacobi_residual(f: FieldExpr, g: FieldExpr, h: FieldExpr, P: Kernel,
                    system: FieldSystem) -> TensorExpr:
    """{h,{f,g}} + {g,{h,f}} + {f,{g,h}} with fixed labels f@x, g@y, h@z."""
    calls = _tensor_calls(h, "z", bracket_fn(f, g, P, system, "x", "y"), P, system)
    calls += _tensor_calls(g, "y", bracket_fn(h, f, P, system, "z", "x"), P, system)
    calls += _tensor_calls(f, "x", bracket_fn(g, h, P, system, "y", "z"), P, system)
    return _first_power(calls, P, system)


def real_complex_equivalence(P: Kernel, dim: int) -> list:
    """Residuals of the complex basic brackets realized inside the real pair
    phi, pi.

    With psi = phi + i*pi and psibar = phi - i*pi, the real brackets with a
    symmetric kernel give {psi, psibar} = -2i P(x,y) and
    {psi, psi} = {psibar, psibar} = 0.  Returns the three residual
    TensorExprs; the identity is specific to the symmetric class.
    """
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
    lhs = bracket_fn(f, g, P, system).conjugate(system)
    Q = Kernel(P.dim, {gm: c.conjugate() for gm, c in P.transpose().terms.items()})
    rhs = bracket_fn(g.conjugate(system), f.conjugate(system), Q, system,
                     "y", "x")
    return lhs - rhs


# ---------------------------------------------------------------------------
# functionals

class Functional:
    """An integrated density; the integration label is implicit.

    Equality is modulo total divergences, decided by the Euler-operator
    criterion: the difference of densities has vanishing variational
    derivative for every sort and vanishes at the jet origin.
    """

    __slots__ = ("density", "system")

    def __init__(self, density: FieldExpr, system: FieldSystem, check: bool = True):
        if check:
            try:
                value = density.eval_at_origin()
            except ConditionBError as exc:
                raise ConditionBViolation(str(exc)) from exc
            if value:
                raise ConditionBViolation(
                    "density does not vanish at the jet origin")
        self.density = density
        self.system = system

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.density + other.density, self.system, check=False)

    def is_null(self) -> bool:
        """True iff the functional vanishes (density is a total divergence)."""
        return functional_null(self.density, self.system)

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return functional_null(self.density - other.density, self.system)

    def __repr__(self):
        from .render import render_field_expr

        return f"Functional({render_field_expr(self.density)!r})"


def _null_residuals(density: FieldExpr, system: FieldSystem):
    """The Euler criterion as residuals, yielded one at a time: the
    variational derivative by each sort, then the value at the jet origin
    (the density itself where that value is unknown).  All are zero iff the
    density integrates to zero."""
    for sort in system.sort_names():
        yield variational_derivative(density, sort)
    try:
        yield density.eval_at_origin()
    except ConditionBError:
        yield density


def functional_null(density: FieldExpr, system: FieldSystem) -> bool:
    """Euler criterion: the density integrates to zero iff every variational
    derivative vanishes and the density vanishes at the jet origin."""
    return all(r.is_zero() for r in _null_residuals(density, system))


def bracket_functional_density(F: Functional, g: FieldExpr, P: Kernel,
                               system: FieldSystem,
                               cross_check: bool = False) -> FieldExpr:
    """{F, g}_P: the function-level bracket with F's density, integrated
    over F's label.  ``cross_check`` raises if the closed form, the
    order-one term of the star's closed form, differs."""
    T = bracket_fn(F.density, g, P, system, "x", "y")
    result = T.integrate_out("x").to_field_expr("y")
    if cross_check:
        from .star import _density_residuals, _raise_if_nonzero

        _raise_if_nonzero("functional-density bracket", _density_residuals(
            {1: result}, F, g, P, system, 1))
    return result


def bracket_functionals(F: Functional, G: Functional, P: Kernel,
                        system: FieldSystem,
                        cross_check: bool = False) -> Functional:
    """{F, G}_P as a functional: ``bracket_functional_density`` with G's
    density.  ``cross_check`` raises if the closed form, the order-one term
    of the star's closed form, differs modulo total divergence."""
    result = Functional(bracket_functional_density(F, G.density, P, system),
                        system, check=False)
    if cross_check:
        from .star import _functional_residuals, _raise_if_nonzero

        _raise_if_nonzero("functional-functional bracket",
                          _functional_residuals({1: result}, F, G, P, system, 1))
    return result
