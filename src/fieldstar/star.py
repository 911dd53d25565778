"""Star products: the exponential of the paired bidifferential operator.

Series live over a formal deformation parameter; coefficients are tensor
expressions (function/density level) or functionals.  Polynomial inputs
terminate and the series is exact; function symbols generate infinite
series truncated at the configured order.

The commutator comparison uses the swap convention: in g*f the first
factor g is placed at the second label, so both products are expressions
over the same label pair and subtract directly.  For a pure-parity kernel
the first-order commutator equals the bracket with kernel P + P^t
(symmetric case) or P - P^t (antisymmetric case) -- both are 2P.
"""

from __future__ import annotations

from itertools import islice
from math import comb, factorial

from .euler_lagrange import _joint_dual, _partials
from .jets import FieldExpr, FieldSystem, TermDict, _acc
from .kernels import Kernel, bracket_sign
from .poisson import (
    Functional,
    LabelCollision,
    _null_residuals,
    bracket_fn,
    bracket_functional_density,
    bracket_functionals,
)
from .rationals import GRat, I
from .sigma import (_check_dims, _combine, _exp_chain, _Keys, _keys,
                    sigma_terms)
from .tensor import TensorExpr, _apply_by_parts


class HbarSeries(TermDict):
    """A truncated formal power series: TensorExpr coefficients keyed by
    their order in hbar.

    ``order`` is the truncation K: coefficients are reliable for k <= K.
    ``exact`` marks detected termination (valid at every order).
    """

    __slots__ = ("order", "exact")

    def __init__(self, dim: int, coeffs: dict | None = None, order: int = 6,
                 exact: bool = False):
        super().__init__(dim, {k: v for k, v in (coeffs or {}).items() if v})
        self.order = order
        self.exact = exact

    @property
    def coeffs(self) -> dict:
        """``terms`` under its older name, read-only."""
        return self.terms

    def _like(self, terms: dict) -> "HbarSeries":
        return HbarSeries(self.dim, terms, self.order, self.exact)

    def coefficient(self, k: int) -> TensorExpr:
        return self.terms.get(k, TensorExpr.zero(self.dim))

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        # a sum is reliable up to the lower order, and exact if both are
        total = super().__add__(other)
        total.order = min(self.order, other.order)
        total.exact = self.exact and other.exact
        return total

    def scale(self, c) -> "HbarSeries":
        # each coefficient is a TensorExpr, which scales its own terms
        return self._like({k: v.scale(c) for k, v in self.terms.items()})

    def __repr__(self):
        ks = sorted(self.terms)
        return f"HbarSeries(orders={ks}, K={self.order}, exact={self.exact})"


def to_series(f: FieldExpr, label: str, order: int = 6) -> HbarSeries:
    return HbarSeries(f.dim, {0: TensorExpr.from_field(f, label)}, order, True)


def exp_sigma(pairs: list, a: str, b: str, P: Kernel, system: FieldSystem,
              order: int) -> HbarSeries:
    """Apply the exponential of one operator instance on (a, b), through
    ``order``, to the exact series whose only coefficient, at order 0,
    sums the products L (x) R of the (L, R) TensorExpr ``pairs``, L
    holding the atoms at ``a``; they go to ``sigma_terms`` as one call."""
    dim = _check_dims(pairs, P, system)
    coeffs: dict = {}
    for L, R in pairs:
        _acc(coeffs, 0, L * R)
    if order < 0 or not coeffs.get(0):
        bracket_sign(P)  # a mixed kernel is refused, as sigma_terms does
        # a nonzero coefficient cut off leaves the series inexact
        return HbarSeries(dim, {}, order, not coeffs.get(0))
    gen = sigma_terms([(pairs, a, b)], P, system)
    for k, Tk in enumerate(islice(gen, order), 1):
        _acc(coeffs, k, Tk)
    # terminated within the order budget only if nothing is left
    return HbarSeries(dim, coeffs, order, next(gen, None) is None)


def star_fn(f: FieldExpr, g: FieldExpr, P: Kernel, system: FieldSystem,
            a: str = "x", b: str = "y", order: int = 6) -> HbarSeries:
    """f@a * g@b: exp of a single operator instance on the pair f@a (x) g@b."""
    if a == b:
        raise LabelCollision(f"both operands at label {a!r}")
    pair = (TensorExpr.from_field(f, a), TensorExpr.from_field(g, b))
    return exp_sigma([pair], a, b, P, system, order)


# density-level star is the same algebra under substitution
star_density = star_fn


def _grouped(A: HbarSeries, labels_a, B: HbarSeries, labels_b, P: Kernel,
             system: FieldSystem, order: int | None, keys: _Keys) -> tuple:
    """The checks and coefficient products of ``star_grouped``, run through
    ``sigma._exp_chain`` under ``keys``: (real, powers, K, exact)."""
    la, lb = set(labels_a), set(labels_b)
    if la & lb:
        raise LabelCollision(f"groups share labels {sorted(la & lb)}")
    K = min(A.order, B.order) if order is None else order
    swap = len(la) != 1
    (one, c), (other, rest) = ((B, lb), (A, la)) if swap \
        else ((A, la), (B, lb))
    if len(c) != 1 or not rest \
            or any(not T.labels() <= c for T in one.terms.values()) \
            or any(c & T.labels() for T in other.terms.values()):
        raise ValueError("star_grouped needs a group of one label that its "
                         "series keeps to and the other series avoids")
    exact, products = A.exact and B.exact, {}
    for j, L in one.terms.items():
        for l, R in other.terms.items():
            if j + l <= min(A.order, B.order) or exact:  # a series product
                products.setdefault(j + l, []).append((L, R))
    real, powers, more = _exp_chain(products, *c, sorted(rest),
                                    P.transpose() if swap else P, system, K,
                                    bracket_sign(P) if swap else 1, keys)
    return real, powers, K, exact and not more


def star_grouped(A: HbarSeries, labels_a, B: HbarSeries, labels_b, P: Kernel,
                 system: FieldSystem, order: int | None = None) -> HbarSeries:
    """Star of two groups: every cross pair contributes one exp factor,
    applied in canonical (sorted) pair order.  A group has one label c,
    which its series keeps to and the other series avoids, or ValueError
    is raised.  The products of the coefficients go to
    ``sigma._exp_chain`` as they are, L at c, power 0 included; with c in
    B, the pair (x, c) runs as (c, x) with P^t, power k times s^k."""
    keys = _keys()
    *side, K, exact = _grouped(A, labels_a, B, labels_b, P, system, order,
                               keys)
    return HbarSeries(A.dim, _combine([(1, *side)], keys, A.dim), K, exact)


def commutator_semiclassical(f: FieldExpr, g: FieldExpr, P: Kernel,
                             system: FieldSystem) -> HbarSeries:
    """(f*g - g*f) minus the first-order bracket term, through order 3;
    O(hbar^2) contract.

    The comparison kernel is 2P: P + P^t for a symmetric P and P - P^t for
    an antisymmetric one in pure parity (a mixed P raises); the swap places
    g at label y and f at label x in both products.
    """
    fg = star_fn(f, g, P, system, "x", "y", 3)
    gf = star_fn(g, f, P, system, "y", "x", 3)
    br = bracket_fn(f, g, P.scale(2), system, "x", "y")
    return fg - gf - HbarSeries(f.dim, {1: br}, 3, True)


# ---------------------------------------------------------------------------
# functional-level products

class FunctionalSeries:
    """F * g or F * G: a formal product term at order zero, left implicit,
    plus a tail of densities or Functionals keyed by order."""

    __slots__ = ("tail", "order", "exact")

    def __init__(self, tail: dict, order: int, exact: bool):
        self.tail = tail
        self.order = order
        self.exact = exact


def star_functional_density(F: Functional, g: FieldExpr, P: Kernel,
                            system: FieldSystem, order: int = 6,
                            cross_check: bool = False) -> FunctionalSeries:
    """F * g@y: function-level star integrated over F's label.

    With a delta kernel the closed form through dual derivatives is
    available; ``cross_check`` raises if it differs.
    """
    S = star_fn(F.density, g, P, system, "x", "y", order)
    tail = {k: T.integrate_out("x").to_field_expr("y")
            for k, T in S.terms.items() if k >= 1}
    # zero densities are dropped
    result = FunctionalSeries({k: v for k, v in tail.items() if v}, order,
                              S.exact)
    if cross_check:
        _raise_if_nonzero("functional-density star", _density_residuals(
            result.tail, F, g, P, system, order))
    return result


def _closed_tail(F: Functional, P: Kernel, system: FieldSystem, order: int,
                 act) -> dict:
    """The nonzero densities of a closed-form tail for a delta-type kernel.

    At order k, with i conjugate and j = k - i primary partials on the y side
    and their partners on the x side, a term is ``act(y-side sorts,
    paired)`` of weight binom(k, i) * sign^j / k!, where ``paired`` is the
    kernel pairing of the joint dual derivative of F's density by the
    x-side sorts, sum_g c_g (-D)^g of it: jet calculus, not the definitions'
    integration by parts.
    """
    sign = bracket_sign(P)
    p, q = system.primary, system.conjugate
    tail: dict = {}
    for k in range(1, order + 1):
        for i in range(k + 1):
            j = k - i
            fi = _joint_dual(F.density, [q] * j + [p] * i)
            if fi.is_zero():
                continue
            paired = sum((fi.total_derivative_multi(g, negate=True).scale(c)
                          for g, c in P.terms.items()), FieldExpr.zero(fi.dim))
            weight = GRat(comb(k, i) * sign ** j) / factorial(k)
            _acc(tail, k, act([p] * j + [q] * i, paired).scale(weight))
    return {k: v for k, v in tail.items() if v}


def star_functional_density_closed(F: Functional, g: FieldExpr, P: Kernel,
                                   system: FieldSystem,
                                   order: int = 6) -> dict:
    """Closed form of the tail of F * g@y for a delta-type kernel: the
    related operator of g applied to the paired dual derivative of F, that
    is, g's mixed jet partials by the y-side sorts as coefficients of the
    total derivative of ``paired`` by their summed index."""
    def related(ys, paired):
        return sum((partial * paired.total_derivative_multi(index)
                    for partial, index in _partials(g, ys)), FieldExpr.zero(g.dim))
    return _closed_tail(F, P, system, order, related)


def star_functionals(F: Functional, G: Functional, P: Kernel,
                     system: FieldSystem, order: int = 6,
                     cross_check: bool = False) -> FunctionalSeries:
    """F * G: ``star_functional_density`` with G's density; the tail is a
    Functional per order."""
    S = star_functional_density(F, G.density, P, system, order)
    tail = {k: Functional(v, system, check=False) for k, v in S.tail.items()}
    # null functionals, total divergences among them, are dropped
    result = FunctionalSeries({k: v for k, v in tail.items()
                               if not v.is_null()}, order, S.exact)
    if cross_check:
        _raise_if_nonzero("functional-functional star", _functional_residuals(
            result.tail, F, G, P, system, order))
    return result


def star_functionals_closed(F: Functional, G: Functional, P: Kernel,
                            system: FieldSystem, order: int = 6) -> dict:
    """Closed form of the densities of the tail of F * G: the joint dual
    derivative of G's density times the paired dual derivative of F."""
    return _closed_tail(F, P, system, order,
                        lambda ys, paired: _joint_dual(G.density, ys) * paired)


def _density_residuals(tail: dict, F: Functional, g: FieldExpr, P: Kernel,
                       system: FieldSystem, order: int) -> list:
    """Per order, a functional-density tail minus its closed form."""
    closed = star_functional_density_closed(F, g, P, system, order)
    zero = FieldExpr.zero(g.dim)
    return [tail.get(k, zero) - closed.get(k, zero)
            for k in sorted(set(tail) | set(closed))]


def _functional_residuals(tail: dict, F: Functional, G: Functional,
                          P: Kernel, system: FieldSystem, order: int) -> list:
    """Per order, a functional-functional tail minus its closed form: the
    Euler criterion's residuals of the difference of densities."""
    closed = star_functionals_closed(F, G, P, system, order)
    zero = FieldExpr.zero(F.density.dim)
    return [r for k in sorted(set(tail) | set(closed))
            for r in _null_residuals((tail[k].density if k in tail else zero)
                                     - closed.get(k, zero), system)]


def _raise_if_nonzero(form: str, residuals: list) -> None:
    if not all(r.is_zero() for r in residuals):
        raise AssertionError(f"definitional and closed-form {form}s differ")


def closed_form_residuals(F: Functional, G: Functional, g: FieldExpr,
                          P: Kernel, system: FieldSystem,
                          order: int = 6) -> dict:
    """Definition minus closed form of each functional product, keyed by its
    name: the brackets and stars (through ``order``) of F with g and of F
    with G.  Each value is a list of residuals, all zero when the closed
    form holds."""
    return {
        "functional-density bracket": _density_residuals(
            {1: bracket_functional_density(F, g, P, system)},
            F, g, P, system, 1),
        "functional-functional bracket": _functional_residuals(
            {1: bracket_functionals(F, G, P, system)}, F, G, P, system, 1),
        "functional-density star": _density_residuals(
            star_functional_density(F, g, P, system, order).tail,
            F, g, P, system, order),
        "functional-functional star": _functional_residuals(
            star_functionals(F, G, P, system, order).tail,
            F, G, P, system, order),
    }


# ---------------------------------------------------------------------------
# associativity residuals at the five levels

def _integrate_series(S: HbarSeries, labels: list) -> HbarSeries:
    """The series with each label in turn integrated out of every term that
    a delta atom localizes; the others (formal functional factors, and
    coincidence divergences, which cancel in a residual first) stay."""
    coeffs: dict = {}
    for k, Tk in S.terms.items():
        terms = Tk.terms
        for label in labels:
            out: dict = {}
            for key, c in terms.items():
                if not _apply_by_parts(out, *key, c, label):
                    _acc(out, key, c)
            terms = out
        coeffs[k] = TensorExpr(S.dim, terms)
    return S._like(coeffs)


def assoc_residuals(f: FieldExpr, g: FieldExpr, h: FieldExpr, P: Kernel,
                    system: FieldSystem, level: int, order: int = 4) -> list:
    """Residual coefficients of (f*g)*h - f*(g*h) at one of five levels.

    Levels: 1 functions, 2 densities, 3 functional*density*density,
    4 functional*functional*density, 5 three functionals.  Both groupings'
    numerators sum on one key table; higher levels integrate that residual
    over the functional labels (by parts, linear per term).  Returns
    TensorExprs, all of which must be zero.
    """
    if level not in (1, 2, 3, 4, 5):
        raise ValueError(f"unknown associativity level {level}")
    x, y, z = "x", "y", "z"
    keys = _keys()  # one capture: a term of both groupings has one key
    left = _grouped(star_fn(f, g, P, system, x, y, order), [x, y],
                    to_series(h, z, order), [z], P, system, order, keys)
    right = _grouped(to_series(f, x, order), [x],
                     star_fn(g, h, P, system, y, z, order), [y, z], P,
                     system, order, keys)
    residual = HbarSeries(f.dim, _combine(
        [(1, *left[:2]), (-1, *right[:2])], keys, f.dim), order)
    if level > 2:
        residual = _integrate_series(residual, [x] if level == 3 else [y, x])
    return [residual.coefficient(k) for k in sorted(residual.terms)] \
        or [TensorExpr.zero(f.dim)]


# ---------------------------------------------------------------------------
# equations of motion

def equation_of_motion(H: Functional, field: FieldExpr, P: Kernel,
                       system: FieldSystem) -> FieldExpr:
    """Time derivative of a linear field, i * {H, field}_P: the star
    commutator with H is the bracket with the doubled kernel, an identity
    ``eom_residual`` checks."""
    return bracket_functional_density(H, field, P, system).scale(I)


def eom_residual(H: Functional, field: FieldExpr, P: Kernel,
                 system: FieldSystem) -> FieldExpr:
    """The star commutator of H and a field through order 6, integrated over
    H's label, minus twice {H, field}_P; zero exactly when the commutator
    is the bracket with the doubled kernel.  For a linear field the
    commutator ends at order 1, so its orders sum to that coefficient."""
    comm = (star_fn(H.density, field, P, system, "x", "y")
            - star_fn(field, H.density, P, system, "y", "x"))
    bracket = bracket_functional_density(H, field, P, system)
    return sum((T.integrate_out("x").to_field_expr("y")
                for T in comm.terms.values()), -bracket - bracket)
