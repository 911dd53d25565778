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

from math import comb, factorial

from .euler_lagrange import _joint_dual, _partials
from .jets import FieldExpr, FieldSystem, TermDict, _acc
from .kernels import Kernel, bracket_sign
from .poisson import Functional, LabelCollision, bracket_fn
from .rationals import GRat, I
from .sigma import _check_dims, _factor, sigma_terms
from .tensor import TensorExpr


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
        return self._like({k: v.scale(c) for k, v in self.terms.items()})

    def __repr__(self):
        ks = sorted(self.terms)
        return f"HbarSeries(orders={ks}, K={self.order}, exact={self.exact})"


def to_series(f: FieldExpr, label: str, order: int = 6) -> HbarSeries:
    return HbarSeries(f.dim, {0: TensorExpr.from_field(f, label)}, order, True)


def series_mul(A: HbarSeries, B: HbarSeries) -> HbarSeries:
    order = min(A.order, B.order)
    exact = A.exact and B.exact
    coeffs: dict = {}
    for j, Tj in A.terms.items():
        for k, Tk in B.terms.items():
            if j + k <= order or exact:
                _acc(coeffs, j + k, Tj * Tk)
    return HbarSeries(A.dim, coeffs, order, exact)


def exp_sigma(S: HbarSeries | list, a: str, b: str, P: Kernel,
              system: FieldSystem, order: int) -> HbarSeries:
    """Apply the exponential of one operator instance to a series, through
    ``order``.

    ``S`` is an HbarSeries or a list of (L, R) TensorExpr pairs; the list
    stands for the exact series whose only coefficient, at order 0, is the
    sum of the products L (x) R, and goes to ``sigma_terms`` as it is
    (L holds the atoms at ``a``).
    """
    pairs = None
    if not isinstance(S, HbarSeries):
        pairs, start = S, {}
        dim = _check_dims(pairs, P, system)
        for L, R in pairs:
            _acc(start, 0, L * R)
        S = HbarSeries(dim, start, order, True)
    coeffs: dict = {}
    exact = S.exact
    for j, Tj in S.terms.items():
        if j > order:
            continue
        _acc(coeffs, j, Tj)
        gen = sigma_terms(_factor(Tj, a) if pairs is None else pairs,
                          a, b, P, system)
        for k in range(j + 1, order + 1):
            Tk = next(gen, None)
            if Tk is None:
                break
            _acc(coeffs, k, Tk)
        else:
            # terminated within the order budget only if nothing is left
            if next(gen, None) is not None:
                exact = False
    return HbarSeries(S.dim, coeffs, order, exact)


def star_fn(f: FieldExpr, g: FieldExpr, P: Kernel, system: FieldSystem,
            a: str = "x", b: str = "y", order: int = 6) -> HbarSeries:
    """f@a * g@b: exp of a single operator instance on the pair f@a (x) g@b."""
    if a == b:
        raise LabelCollision(f"both operands at label {a!r}")
    pair = (TensorExpr.from_field(f, a), TensorExpr.from_field(g, b))
    return exp_sigma([pair], a, b, P, system, order)


# density-level star is the same algebra under substitution
star_density = star_fn


def star_grouped(A: HbarSeries, labels_a, B: HbarSeries, labels_b, P: Kernel,
                 system: FieldSystem, order: int | None = None) -> HbarSeries:
    """Star of two groups: every cross pair contributes one exp factor,
    applied in canonical (sorted) pair order."""
    la, lb = set(labels_a), set(labels_b)
    if la & lb:
        raise LabelCollision(f"groups share labels {sorted(la & lb)}")
    S = series_mul(A, B)
    K = S.order if order is None else order
    for x in sorted(la):
        for y in sorted(lb):
            S = exp_sigma(S, x, y, P, system, K)
    return S


def commutator_semiclassical(f: FieldExpr, g: FieldExpr, P: Kernel,
                             system: FieldSystem) -> HbarSeries:
    """(f*g - g*f) minus the first-order bracket term, through order 3;
    O(hbar^2) contract.

    The comparison kernel is P + P^t for a symmetric P and P - P^t for an
    antisymmetric one (both equal 2P in pure parity); the swap places g at
    label y and f at label x in both products.
    """
    fg = star_fn(f, g, P, system, "x", "y", 3)
    gf = star_fn(g, f, P, system, "y", "x", 3)
    if bracket_sign(P) < 0:
        Q = P + P.transpose()
    else:
        Q = P - P.transpose()
    br = bracket_fn(f, g, Q, system, "x", "y")
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
    available and asserted on request.
    """
    S = star_fn(F.density, g, P, system, "x", "y", order)
    tail = {k: T.integrate_out("x").to_field_expr("y")
            for k, T in S.terms.items() if k >= 1}
    # zero densities are dropped
    result = FunctionalSeries({k: v for k, v in tail.items() if v}, order,
                              S.exact)
    if cross_check:
        closed = star_functional_density_closed(F, g, P, system, order)
        if result.tail != closed:
            raise AssertionError(
                "definitional and closed-form functional-density stars differ")
    return result


def _pair_with_kernel(expr: FieldExpr, label: str, P: Kernel, other: str) -> FieldExpr:
    """<P(label, other), expr@label> as a field expression at the other label."""
    T = TensorExpr.from_field(expr, label) * TensorExpr.from_kernel(P, label, other)
    return T.integrate_out(label).to_field_expr(other)


def _related_multi(g: FieldExpr, sorts: list, inner: FieldExpr) -> FieldExpr:
    """Related-operator action: the mixed jet partials of g by ``sorts`` as
    coefficients of the total derivative of ``inner`` by their summed index."""
    total = FieldExpr.zero(g.dim)
    for partial, index in _partials(g, sorts):
        total = total + partial * inner.total_derivative_multi(index)
    return total


def _closed_terms(P: Kernel, system: FieldSystem, order: int):
    """Yield (k, x-side sorts, y-side sorts, coefficient) of the closed-form
    tails: order k, i conjugate and j = k - i primary partials on the y
    side, their partners on the x side, weight binom(k, i) * sign^j / k!."""
    sign = bracket_sign(P)
    p, q = system.primary, system.conjugate
    for k in range(1, order + 1):
        for i in range(k + 1):
            j = k - i
            c = GRat(comb(k, i)) / GRat(factorial(k))
            if sign < 0 and j % 2 == 1:
                c = -c
            yield k, [q] * j + [p] * i, [p] * j + [q] * i, c


def star_functional_density_closed(F: Functional, g: FieldExpr, P: Kernel,
                                   system: FieldSystem,
                                   order: int = 6) -> dict:
    """Closed form of the tail of F * g@y for a delta-type kernel: the
    related operator of g applied to the kernel pairing of the joint dual
    derivative of F's density, per term of ``_closed_terms``."""
    tail: dict = {}
    for k, xs, ys, c in _closed_terms(P, system, order):
        fi = _joint_dual(F.density, xs)
        if not fi.is_zero():
            piece = _related_multi(g, ys, _pair_with_kernel(fi, "x", P, "y"))
            _acc(tail, k, piece.scale(c))
    return {k: v for k, v in tail.items() if v}


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
        closed = star_functionals_closed(F, G, P, system, order)
        keys = set(result.tail) | set(closed)
        zero = Functional(FieldExpr.zero(F.density.dim), system, check=False)
        for k in keys:
            if not result.tail.get(k, zero).equivalent(closed.get(k, zero)):
                raise AssertionError(
                    "definitional and closed-form functional stars differ")
    return result


def star_functionals_closed(F: Functional, G: Functional, P: Kernel,
                            system: FieldSystem, order: int = 6) -> dict:
    """Closed form of the tail of F * G: kernel pairings of the joint dual
    derivatives of both densities, per term of ``_closed_terms``."""
    tail: dict = {}
    for k, xs, ys, c in _closed_terms(P, system, order):
        fi = _joint_dual(F.density, xs)
        gi = _joint_dual(G.density, ys)
        if fi.is_zero() or gi.is_zero():
            continue
        T = (TensorExpr.from_field(fi, "x") * TensorExpr.from_field(gi, "y")
             * TensorExpr.from_kernel(P, "x", "y"))
        piece = T.integrate_out("x").to_field_expr("y")
        _acc(tail, k, piece.scale(c))
    return {k: Functional(v, system, check=False)
            for k, v in tail.items() if v}


# ---------------------------------------------------------------------------
# associativity residuals at the five levels

def _split_integrate(T: TensorExpr, label: str) -> tuple[TensorExpr, TensorExpr]:
    """Integrate the delta-localized part over a label; return the
    non-integrable remainder separately (the formal functional factor)."""
    localized: dict = {}
    formal: dict = {}
    for key, c in T.terms.items():
        _mon, deltas = key
        carriers = [atom for atom in deltas if label in atom[:2]]
        if not carriers:
            formal[key] = c
            continue
        # substitution against the first carrier must not collapse another
        # delta atom onto coinciding labels (a coincidence divergence);
        # such terms stay formal and cancel between groupings
        a, b, _ = carriers[0]
        partner = b if a == label else a
        if sum(1 for a2, b2, _g in deltas if {a2, b2} == {label, partner}) > 1:
            formal[key] = c
        else:
            localized[key] = c
    return (TensorExpr(T.dim, localized).integrate_out(label),
            TensorExpr(T.dim, formal))


def _integrate_series(S: HbarSeries, labels: list) -> HbarSeries:
    """The series with each label in turn integrated out wherever a delta
    atom allows it; each coefficient sums its integrated and formal parts."""
    coeffs: dict = {}
    for k, Tk in S.terms.items():
        pieces = [Tk]
        for label in labels:
            nxt = []
            for T in pieces:
                if label in T.labels():
                    loc, form = _split_integrate(T, label)
                    nxt.extend([loc, form])
                else:
                    nxt.append(T)
            pieces = nxt
        for T in pieces:
            _acc(coeffs, k, T)
    return S._like(coeffs)


def assoc_residuals(f: FieldExpr, g: FieldExpr, h: FieldExpr, P: Kernel,
                    system: FieldSystem, level: int, order: int = 4) -> list:
    """Residual coefficients of (f*g)*h - f*(g*h) at one of five levels.

    Levels: 1 functions, 2 densities, 3 functional*density*density,
    4 functional*functional*density, 5 three functionals.  Higher levels
    integrate the function-level groupings over the functional labels.
    Returns a list of TensorExprs, all of which must be zero.
    """
    x, y, z = "x", "y", "z"
    left = star_grouped(star_fn(f, g, P, system, x, y, order), [x, y],
                        to_series(h, z, order), [z], P, system, order)
    right = star_grouped(to_series(f, x, order), [x],
                         star_fn(g, h, P, system, y, z, order), [y, z],
                         P, system, order)
    if level in (1, 2):
        residual = left - right
    elif level in (3, 4, 5):
        labels = [x] if level == 3 else [y, x]
        residual = (_integrate_series(left, labels)
                    - _integrate_series(right, labels))
    else:
        raise ValueError(f"unknown associativity level {level}")
    return [residual.coefficient(k) for k in sorted(residual.terms)] \
        or [TensorExpr.zero(f.dim)]


# ---------------------------------------------------------------------------
# equations of motion

class TruncationError(RuntimeError):
    """A star series did not terminate within the configured order."""


def equation_of_motion(H: Functional, field: FieldExpr, P: Kernel,
                       system: FieldSystem) -> FieldExpr:
    """Time derivative of a linear field from the star commutator with H.

    The commutator equals the bracket with the doubled kernel, so the
    equation of motion is i * {H, field}_P; the star route is computed
    through order 6 as well and the factor-two relation asserted exactly.
    """
    from .poisson import bracket_functional_density

    Hf = star_fn(H.density, field, P, system, "x", "y", 6)
    fH = star_fn(field, H.density, P, system, "y", "x", 6)
    comm = Hf - fH
    if not comm.exact:
        raise TruncationError("star commutator did not terminate within order 6")
    total = FieldExpr.zero(field.dim)
    for k, T in comm.terms.items():
        if k == 0:
            if not T.is_zero():
                raise AssertionError("order-zero commutator term did not cancel")
            continue
        total = total + T.integrate_out("x").to_field_expr("y")
    bracket = bracket_functional_density(H, field, P, system, "y",
                                         cross_check=True)
    if total != bracket + bracket:
        raise AssertionError(
            "star commutator does not equal the bracket with doubled kernel")
    return bracket.scale(I)
