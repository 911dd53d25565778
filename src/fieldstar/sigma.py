"""The bidifferential operator underlying brackets and star products.

For a label pair (a, b) and a pure-parity kernel P, the operator is

    A + s*B,   A = d_{p,a} d_{q,b},   B = d_{q,a} d_{p,b},

where (p, q) is the system's (primary, conjugate) sort pair, s = -1 for
symmetric kernels and +1 for antisymmetric ones, and each d_{s,l} is the
formal sum over jet partials at label l paired with a spatial derivative.
All spatial derivatives produced by one operator instance act on the single
kernel atom that instance inserts; powers of the operator keep accumulating
derivatives on that same atom.

The a-side partials touch only the atoms at a and the b-side partials only
the rest, and A and B commute, so on a product L (x) R the k-th power is

    sum_i C(k,i) s^(k-i) (d_{p,a}^i d_{q,a}^(k-i) L) (x) (d_{q,b}^i d_{p,b}^(k-i) R).

``sigma_terms`` therefore takes T as a short list of such products (L, R)
of TensorExprs, differentiates each factor on its own and multiplies.
Callers that know the split pass it: the bracket of f@a and g@b is the one
product f@a (x) g@b, and {h@c, T} is h@c (x) T; the star f@a * g@b hands
the same pair to ``exp_sigma``.  ``_factor`` splits a general sum into
products; only the exponential of a series coefficient, as the grouped star
forms it, needs it.  A factor's work terms track the index gamma it adds
to the pending atom.  The atom is d_lo^gamma delta(lo - hi) for the label
pair in order, so derivatives from the hi side, and kernel indices when
a > b, fold in the parity sign (-1)^|index|.

``sigma_terms`` yields sigma^k T / k!, the k-th term of the exponential.
Multiplicities, binomials and parity signs are ints, so when T and P are
real (over Q) every work coefficient is a plain int numerator over one
common denominator per call, and each output key gets one GRat, over that
denominator times k!.  Over Q[i] the work coefficients are GRats, and 1/k!
is folded into each output denominator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb, factorial, lcm

from .jets import FieldSystem, _acc, _partial_mon, mi_add, mi_order, mi_zero
from .kernels import Kernel, bracket_sign
from .rationals import ONE, _make
from .tensor import TensorExpr, _label, _locate


def _works(T: TensorExpr) -> dict:
    """T as operator work terms, each with an empty pending index."""
    zero = mi_zero(T.dim)
    return {(mon, deltas, zero): c for (mon, deltas), c in T.terms.items()}


def _block_partials(block, label: str, sort: str, side: int, dim: int) -> list:
    """Every (new block, index, int factor) that one derivation pass makes
    from the atoms at one label; the factor holds the multiplicity and, on
    the side that carries the parity, the sign (-1)^|index|."""
    indices = set()
    for _lab, atom in block:
        if atom[0] == "j" and atom[1] == sort:
            indices.add(atom[2])
        elif atom[0] == "f" and atom[3] == sort:
            indices.add(mi_zero(dim))
    if not indices:
        return []
    bare = tuple([atom for _lab, atom in block])
    out = []
    for index in sorted(indices):
        sign = -1 if side == 1 and mi_order(index) % 2 == 1 else 1
        for new, mult in _partial_mon(bare, sort, index):
            out.append((_locate(label, new), index, sign * mult))
    return out


def _derive(works: dict, label: str, sort: str, side: int, dim: int,
            memo: dict) -> dict:
    """One paired (jet partial x spatial-on-pending-atom) derivation pass.

    Located monomials sort by label first, so the atoms at ``label`` form
    one block and the derivative of ``pre + block + post`` is
    ``pre + new_block + post``, already canonical.  ``memo`` holds the
    partials of each (block, sort, side) met so far and each gamma + index;
    the two kinds of key differ in length.
    """
    out: dict = {}
    for (mon, deltas, gamma), c in works.items():
        lo = bisect_left(mon, label, key=_label)
        hi = bisect_right(mon, label, lo, key=_label)
        block = mon[lo:hi]
        parts = memo.get((block, sort, side))
        if parts is None:
            parts = _block_partials(block, label, sort, side, dim)
            memo[(block, sort, side)] = parts
        if not parts:
            continue
        pre, post = mon[:lo], mon[hi:]
        for new_block, index, factor in parts:
            new_gamma = memo.get((gamma, index))
            if new_gamma is None:
                new_gamma = memo[(gamma, index)] = mi_add(gamma, index)
            if factor == 1:
                cc = c
            elif factor == -1:
                cc = -c
            else:
                cc = c * factor
            _acc(out, (pre + new_block + post, deltas, new_gamma), cc)
    return out


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


def _numerators(works: dict, real: bool) -> tuple[int, dict]:
    """(d, numerators) with works = numerators / d.

    Over Q, d is the lcm of the denominators and each numerator a plain
    int; over Q[i], d is 1 and the values stay as they are.
    """
    if not real:
        return 1, works
    d = lcm(*[c._d for c in works.values()])
    return d, {key: c._a * (d // c._d) for key, c in works.items()}


def _product(out: dict, X: dict, Y: dict, kernel: list, a: str, canon,
             atoms: dict, memo: dict):
    """Accumulate X (x) Y (x) kernel into ``out``; ``kernel`` lists each
    (gamma, coefficient) with the binomial and parity already folded in,
    and ``canon(deltas, gamma)`` gives the delta part of the output key,
    cached in ``atoms`` per (deltas, alpha, beta + gamma)."""
    kernel = [(g, None if kc == 1 else kc) for g, kc in kernel]
    by_alpha: dict = {}
    for (block, _deltas, alpha), cx in X.items():
        by_alpha.setdefault(alpha, []).append((block, cx))
    for (rest, deltas, beta), cy in Y.items():
        cut = bisect_left(rest, a, key=_label)
        pre, post = rest[:cut], rest[cut:]
        for gamma, kc in kernel:
            bg = memo.get((beta, gamma))
            if bg is None:
                bg = memo[(beta, gamma)] = mi_add(beta, gamma)
            cr = cy if kc is None else cy * kc
            for alpha, entries in by_alpha.items():
                dkey = atoms.get((deltas, alpha, bg))
                if dkey is None:
                    dkey = atoms[(deltas, alpha, bg)] = canon(
                        deltas, mi_add(alpha, bg))
                for block, cx in entries:
                    _acc(out, (pre + block + post, dkey), cx * cr)


def _sort_pair(system: FieldSystem) -> tuple[str, str]:
    primaries = system.primary_sorts()
    if len(primaries) != 1:
        raise ValueError("the operator needs exactly one conjugate sort pair")
    p = primaries[0]
    return p, system.partner(p)


def _check_dims(products: list, P: Kernel, system: FieldSystem) -> int:
    """The dimension of every factor, the kernel and the system alike;
    DimensionMismatch otherwise."""
    L0 = products[0][0]
    for L, R in products:
        L0._check(L)
        L0._check(R)
    L0._check(P)
    L0._check(system)
    return L0.dim


def sigma_terms(products: list, a: str, b: str, P: Kernel,
                system: FieldSystem):
    """Generate the terms sigma^k T / k! of the operator's exponential, for
    k = 1, 2, ..., where T is the sum of the TensorExpr ``products`` L (x) R
    (as ``_factor`` makes them: L holds the atoms at ``a``, R the rest).

    Each yielded TensorExpr has the inserted kernel atom canonicalized.  The
    generator stops as soon as a power vanishes identically; all higher
    powers then vanish as well.  (A power that vanishes only once its
    inserted atom joins an equal delta atom of T is yielded, empty.)  The
    work runs on int numerators when T and P are real, on GRats otherwise.
    Every factor, P and the system share one dimension, or DimensionMismatch
    is raised.
    """
    if a == b:
        raise ValueError(f"operator label pair coincides: {a!r}")
    if not products:
        return
    dim = _check_dims(products, P, system)
    sign = bracket_sign(P)
    p, q = _sort_pair(system)
    lo, hi = sorted((a, b))
    side_a, side_b = (0, 1) if a == lo else (1, 0)
    real = not any(c._b for c in P.terms.values()) \
        and not any(c._b for pair in products for F in pair
                    for c in F.terms.values())
    kd, kernel = _numerators(
        {g: c if side_a == 0 or mi_order(g) % 2 == 0 else -c
         for g, c in P.terms.items()}, real)
    kernel = list(kernel.items())

    def canonical(deltas, gamma):
        return tuple(sorted(deltas + ((lo, hi, gamma),)))

    def pending(deltas, gamma):
        return deltas, gamma

    def power(canon, atoms: dict) -> dict:
        out: dict = {}
        for _start, lines in pairs:
            for j, X, Y in lines:
                f = comb(k, j) * sign ** j
                _product(out, X, Y, kernel if f == 1 else
                         [(g, c * f) for g, c in kernel], a, canon, atoms,
                         memo)
        return out

    def finish(out: dict) -> dict:
        # one GRat per key: the numerator over den * k!
        d = den * factorial(k)
        if real:
            return {key: _make(c, 0, d) for key, c in out.items()}
        if d == 1:
            return out
        return {key: _make(c._a, c._b, c._d * d) for key, c in out.items()}

    def meets() -> bool:
        # the inserted atom can only meet a delta atom of T on its labels,
        # and T's deltas are all in the R factors
        return any(d[0] == lo and d[1] == hi for _L, R in products
                   for _rest, deltas in R.terms for d in deltas)

    memo: dict = {}
    atoms: dict = {}
    # one denominator den for every product: each L is scaled to bring
    # L (x) R (x) kernel over it
    factors = [(_numerators(_works(L), real), _numerators(_works(R), real))
               for L, R in products]
    den = kd * lcm(*[ld * rd for (ld, _L), (rd, _R) in factors])
    # per pair: the current (X, Y) of lineage 0 of the next power, or None
    # once it vanished, and the live lineages (j, X, Y), where j counts the
    # B factors: X = d_{p,a}^i d_{q,a}^j L and Y = d_{q,b}^i d_{p,b}^j R
    pairs = []
    for (ld, L), (rd, R) in factors:
        m = den // (kd * ld * rd)
        if m != 1:
            L = {key: c * m for key, c in L.items()}
        pairs.append(((L, R), [(0, L, R)]))
    k = 0
    while pairs:
        k += 1
        live = []
        for start, lines in pairs:
            new_lines = []
            for j, X, Y in lines:
                X = _derive(X, a, p, side_a, dim, memo)
                Y = _derive(Y, b, q, side_b, dim, memo) if X else None
                if Y:
                    new_lines.append((j, X, Y))
            if start is not None:
                X = _derive(start[0], a, q, side_a, dim, memo)
                Y = _derive(start[1], b, p, side_b, dim, memo) if X else None
                start = (X, Y) if Y else None
                if Y:
                    new_lines.append((k, X, Y))
            if new_lines:
                live.append((start, new_lines))
        pairs = live
        out = power(canonical, atoms)
        # the next power can be nonzero only if this one is before the
        # inserted atom joins the deltas
        if not out and not (meets() and power(pending, {})):
            return
        yield TensorExpr(dim, finish(out))
