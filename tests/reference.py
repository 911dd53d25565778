"""Reference routes that the tests compare the engine with.

The engine forms every star from factor pairs it holds: ``star_fn`` hands
``exp_sigma`` the pair f@a (x) g@b, and the grouped stars form their
coefficient products inside ``sigma._exp_chain``.  The routes here take a
general sum instead: ``_factor`` splits it into products L (x) R again,
``exp_series`` applies the exponential to every coefficient of a series,
and ``series_mul`` multiplies two series out.
"""

from bisect import bisect_left, bisect_right

from fieldstar.jets import _acc
from fieldstar.rationals import ONE
from fieldstar.star import HbarSeries, exp_sigma
from fieldstar.tensor import TensorExpr, _apply_by_parts, _label


def _factor(T: TensorExpr, a: str) -> list:
    """T as a sum of products L (x) R; a list of (L, R) TensorExprs, where
    L holds the atoms at ``a`` and R the rest, deltas included.

    Terms with equal rest (atoms off ``a`` plus deltas) form a row
    {a-block: c}.  Proportional rows over the same a-blocks, in the same
    order, share one L: the first such row divided by its first
    coefficient.  A product input therefore gives one pair.
    """
    rows: dict = {}
    for (mon, deltas), c in T.terms.items():
        lo = bisect_left(mon, a, key=_label)
        hi = bisect_right(mon, a, lo, key=_label)
        rows.setdefault((mon[:lo] + mon[hi:], deltas), {})[mon[lo:hi]] = c
    pairs = []
    shapes: dict = {}  # a-blocks of a row -> [(ratios to the first, R)]
    for (rest, deltas), row in rows.items():
        blocks = tuple(row)
        values = list(row.values())
        c = values[0]
        for ratios, R in shapes.get(blocks, ()):
            if all(v == r * c for v, r in zip(values[1:], ratios)):
                break
        else:
            ratios = [v / c for v in values[1:]]
            R = {}
            shapes.setdefault(blocks, []).append((ratios, R))
            pairs.append(({(block, ()): r for block, r
                           in zip(blocks, [ONE] + ratios)}, R))
        R[(rest, deltas)] = c
    return [(TensorExpr(T.dim, L), TensorExpr(T.dim, R)) for L, R in pairs]


def series_mul(A: HbarSeries, B: HbarSeries) -> HbarSeries:
    """The product of two series, each coefficient product kept up to the
    lower order unless both are exact: the reference that grouped stars
    are compared with."""
    order = min(A.order, B.order)
    exact = A.exact and B.exact
    coeffs: dict = {}
    for j, Tj in A.terms.items():
        for k, Tk in B.terms.items():
            if j + k <= order or exact:
                _acc(coeffs, j + k, Tj * Tk)
    return HbarSeries(A.dim, coeffs, order, exact)


def exp_series(S: HbarSeries, a: str, b: str, P, system,
               order: int) -> HbarSeries:
    """The exponential of one operator instance on (a, b) applied to a
    series, through ``order``: per coefficient T_j, ``exp_sigma`` on the
    factor pairs of T_j through ``order - j``, shifted by j.  The result
    is exact if S and every part are; a coefficient beyond ``order`` is
    cut off, and leaves it inexact."""
    coeffs: dict = {}
    exact = S.exact
    for j, Tj in S.terms.items():
        part = exp_sigma(_factor(Tj, a), a, b, P, system, order - j)
        exact = exact and part.exact
        for k, Tk in part.terms.items():
            _acc(coeffs, j + k, Tk)
    return HbarSeries(S.dim, coeffs, order, exact)


def total_derivative_at(T: TensorExpr, label: str, index) -> TensorExpr:
    """The total spatial derivative of T by a multi-index at one label:
    ``tensor._apply_by_parts`` per term, Leibniz over the field atoms at
    the label and the delta atoms whose pair contains it."""
    terms: dict = {}
    for (mon, deltas), c in T.terms.items():
        _apply_by_parts(terms, mon, deltas, c, label, tuple(index))
    return TensorExpr(T.dim, terms)
