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
of TensorExprs, differentiates each factor on its own and multiplies.  It
runs a list of calls, each such a list on its own label pair, and yields
the sum of their powers.  Every caller holds its products: the star
f@a * g@b hands f@a (x) g@b to ``exp_sigma``, as one call; the brackets,
{f@a, g@b} on that pair and {h@c, T} on h@c (x) T once per label of T,
read the first power of all their calls; the grouped star's
``_exp_chain`` forms the products of its two series' coefficients as
power 0, L in the group of one label, and each power goes on to the next
pair as factor pairs of int numerators; ``_combine`` sums signed chains
on one ``_Keys`` (an associativity residual's groupings) and finishes
only the keys that survive.  A factor's work terms track the index gamma
it adds to the pending atom.  The atom is d_lo^gamma delta(lo - hi) for
the label pair in order, so derivatives from the hi side, and kernel
indices when a > b, fold in the parity sign (-1)^|index|.

``sigma_terms`` yields sigma^k T / k!, the k-th term of the exponential.
Multiplicities, binomials and parity signs are ints, so every work
coefficient is a numerator over one common denominator per generator, and
each output key gets one GRat, over that denominator times k!.  When T and P
are real (over Q) a numerator is a plain int; over Q[i] it is a Gaussian
integer, an (re, im) pair of ints, which the loops multiply and add with
int arithmetic.  The jet calculus under the loops (``jets.mi_add`` and
``jets._partial_mon``) is cached process-wide, in ``lru_cache``s of
``jets.RULE_CACHE_SIZE`` entries: the rules are pure, their arguments are
few small tuples, and their values are tuples, which callers cannot mutate.

The loops spend most of their time hashing keys: CPython does not cache
tuple hashes, and a located monomial nests a tuple per atom.  So from
``_works`` to ``_finish`` keys hold int ids of label blocks and delta
parts: a work term's is (block ids in label order, delta-part id, gamma),
and ``_product``, one contribution per (X term, Y term, kernel index),
accumulates under (block ids in label order..., delta-part id).
``_derive`` finds the block at its label among a key's few ids and splices
in the ids of the block's rule.  ``_finish`` turns output keys back into
(located monomial, deltas): it joins each distinct block prefix once per
call, and makes one GRat per distinct numerator, shared by every key that
has it.  Each thread has one ``_Keys`` (``_keys``), which a generator or
chain captures when it starts and keeps to its end, so the small calls of
a verification suite stop interning the same blocks and deriving the same
rules again; a capture that finds more than 4 * ``RULE_CACHE_SIZE``
entries starts a fresh table.  Ids never reach an output: ``_finish``
builds its terms in ``out``'s order.  Each part is interned once, not per
contribution: a factor's blocks and delta parts as it becomes work terms,
a derived block per rule, an inserted atom's delta part per ``atoms``
miss.  Ids of whole blocks keep a key canonical across calls on different
first labels, as the outer brackets of a Jacobi sum and an associativity
residual's groupings are, which must cancel.
"""

from __future__ import annotations

import threading
from itertools import groupby
from math import comb, factorial, lcm

from .jets import (RULE_CACHE_SIZE, FieldExpr, FieldSystem, _acc, _partial_mon,
                   mi_add, mi_order, mi_zero)
from .kernels import Kernel, bracket_sign
from .rationals import ONE, _make
from .tensor import TensorExpr, _label, _locate


def _denominator(F) -> int:
    """The lcm of the denominators of a term dict's coefficients."""
    return lcm(*[c._d for c in F.terms.values()])


def _numerators(items, real: bool, d: int, m: int = 1) -> dict:
    """{key: c * d * m} for each (key, c) of ``items``, where d is a
    multiple of every c's denominator: a plain int over Q, an (re, im)
    pair of ints over Q[i]."""
    if real:
        return {key: c._a * (d // c._d * m) for key, c in items}
    return {key: (c._a * (s := d // c._d * m), c._b * s) for key, c in items}


def _works(T: TensorExpr, real: bool, d: int, keys: _Keys) -> dict:
    """T as operator work terms over d (see ``_numerators``), each keyed
    by (its block ids in label order, its delta part's id, an empty
    pending index) in ``keys``."""
    zero = mi_zero(T.dim)
    return _numerators((((keys.rest(mon), keys.intern(deltas), zero), c)
                        for (mon, deltas), c in T.terms.items()), real, d)


def _pair_acc(out: dict, key, a: int, b: int):
    """``jets._acc`` for the Gaussian-integer numerator a + b*i: the key
    is dropped when both parts of the sum are 0."""
    acc = out.get(key)
    if acc is None:
        out[key] = (a, b)
        return
    a += acc[0]
    b += acc[1]
    if a or b:
        out[key] = (a, b)
    else:
        del out[key]


class _Keys:
    """The ids of one thread's generators and chains: each located label
    block and each delta part gets an int id, and ``atoms`` maps a sorted
    label pair to the ids of its inserted atoms, per (delta id, alpha,
    beta + gamma); ``rules`` holds the blocks' derivation rules."""

    __slots__ = ("ids", "values", "labels", "rests", "rules", "atoms")

    def __init__(self):
        self.ids: dict = {}     # block or delta part -> id
        self.values: list = []  # id -> block or delta part
        self.labels: list = []  # id -> its block's label, None for deltas
        self.rests: dict = {}   # located monomial -> ids of its blocks
        self.rules: dict = {}   # (block id, sort, side, dim) -> rule
        self.atoms: dict = {}   # label pair -> {(did, alpha, bg): id}

    def intern(self, value, label=None) -> int:
        i = self.ids.get(value)
        if i is None:
            i = self.ids[value] = len(self.values)
            self.values.append(value)
            self.labels.append(label)
        return i

    def rest(self, rest) -> tuple:
        """The ids of the blocks of a located monomial, in label order."""
        ids = self.rests.get(rest)
        if ids is None:
            ids = self.rests[rest] = tuple([
                self.intern(tuple(atoms), label)
                for label, atoms in groupby(rest, key=_label)])
        return ids

    def rule(self, bid: int, sort: str, side: int, dim: int) -> tuple:
        """Every (new ids, index, int factor) that one derivation pass makes
        from block ``bid``: the new block's id, or none when the partial
        empties the block; the factor holds the multiplicity and, on the
        side that carries the parity, the sign (-1)^|index|.  A block of
        function atoms has one id in every dimension, so ``dim`` is in the
        key."""
        at = (bid, sort, side, dim)
        rule = self.rules.get(at)
        if rule is None:
            label = self.labels[bid]
            bare = tuple([atom for _lab, atom in self.values[bid]])
            rule = self.rules[at] = tuple([
                ((self.intern(_locate(label, new), label),) if new else (),
                 index, -mult if side == 1 and mi_order(index) % 2 else mult)
                for _sort, index in sorted(
                    FieldExpr(dim, {bare: ONE}).jet_variables(sort))
                for new, mult in _partial_mon(bare, sort, index)])
        return rule


_local = threading.local()


def _keys() -> _Keys:
    """The calling thread's table, replaced by a fresh one once it holds
    more than 4 * ``RULE_CACHE_SIZE`` ids, rests, rules and atom entries."""
    keys = getattr(_local, "keys", None)
    if keys is None or len(keys.ids) + len(keys.rests) + len(keys.rules) \
            + sum(map(len, keys.atoms.values())) > 4 * RULE_CACHE_SIZE:
        keys = _local.keys = _Keys()
    return keys


def _derive(works: dict, label: str, sort: str, side: int, dim: int,
            real: bool, keys: _Keys) -> dict:
    """One paired (jet partial x spatial-on-pending-atom) derivation pass
    on int (``real``) or Gaussian-integer numerators.

    A key's block ids run in label order, so the derivative of the block
    at ``label`` splices the ids of ``keys.rule`` in its place, and the key
    stays canonical; each gamma + index comes from the process-wide cache.
    """
    labels, out = keys.labels, {}
    for (ids, did, gamma), c in works.items():
        i = 0
        for bid in ids:
            if labels[bid] == label:
                break
            i += 1
        else:
            continue
        pre, post = ids[:i], ids[i + 1:]
        for new, index, factor in keys.rule(bid, sort, side, dim):
            key = (pre + new + post, did, mi_add(gamma, index))
            if real:
                _acc(out, key, c * factor)
            else:
                _pair_acc(out, key, c[0] * factor, c[1] * factor)
    return out


def _product(out: dict, X: dict, Y: dict, kernel: list, f: int, a: str,
             pair, atoms: dict, keys: _Keys, real: bool, hand=None):
    """Accumulate f * X (x) Y (x) kernel into ``out``, on int (``real``)
    or Gaussian-integer numerators; ``kernel`` lists each (gamma,
    coefficient) with the parity folded in, and f is an int.  ``out`` is
    keyed by ``keys`` ids: the blocks of X's a-block and of Y's rest, then
    the delta part.  The delta part, its id cached in ``atoms`` per (Y's
    delta id, alpha, beta + gamma), holds the inserted atom (lo, hi, gamma)
    for ``pair`` = (lo, hi); for None it is (deltas, gamma), the atom
    pending.  A list ``hand`` gets the product as factor pairs of work
    terms per pending index alpha of X: X's terms of that index, cleared,
    and f * Y (x) kernel (x) the inserted atom."""
    if real:
        kernel = [(g, None if kc * f == 1 else kc * f) for g, kc in kernel]
    else:
        kernel = [(g, None if kb == 0 and ka * f == 1
                   else (ka * f, kb * f)) for g, (ka, kb) in kernel]
    by_alpha: dict = {}
    for (xid, _did, alpha), cx in X.items():
        by_alpha.setdefault(alpha, []).append((xid, cx))
    rows = None if hand is None else {alpha: {} for alpha in by_alpha}
    labels = keys.labels
    for (ids, ydid, beta), cy in Y.items():
        cut = 0
        while cut < len(ids) and labels[ids[cut]] < a:
            cut += 1
        pre, post = ids[:cut], ids[cut:]
        for gamma, kc in kernel:
            bg = mi_add(beta, gamma)
            if kc is None:
                cr = cy
            elif real:
                cr = cy * kc
            else:
                cr = (cy[0] * kc[0] - cy[1] * kc[1],
                      cy[0] * kc[1] + cy[1] * kc[0])
            for alpha, entries in by_alpha.items():
                did = atoms.get((ydid, alpha, bg))
                if did is None:
                    g, deltas = mi_add(alpha, bg), keys.values[ydid]
                    did = atoms[(ydid, alpha, bg)] = keys.intern(
                        (deltas, g) if pair is None
                        else tuple(sorted(deltas + ((*pair, g),))))
                if rows is not None:
                    key = (ids, did, mi_zero(len(alpha)))
                    if real:
                        _acc(rows[alpha], key, cr)
                    else:
                        _pair_acc(rows[alpha], key, *cr)
                tail = post + (did,)
                if real:
                    for xid, cx in entries:
                        _acc(out, pre + xid + tail, cx * cr)
                    continue
                ra, rb = cr
                for xid, (xa, xb) in entries:
                    _pair_acc(out, pre + xid + tail,
                              xa * ra - xb * rb, xa * rb + xb * ra)
    for alpha, R in (rows or {}).items():
        zero, empty = mi_zero(len(alpha)), keys.intern(())
        hand.append(({(xid, empty, zero): cx for xid, cx in by_alpha[alpha]},
                     R))


def _check_dims(products: list, P: Kernel, system: FieldSystem) -> int:
    """The dimension of every factor, the kernel and the system alike;
    DimensionMismatch otherwise."""
    L0 = products[0][0]
    for F in [F for pair in products for F in pair] + [P, system]:
        L0._check(F)
    return L0.dim


def _setup(calls: list, P: Kernel, system: FieldSystem, keys: _Keys):
    """(real, D, sources) for operator calls, each (products, a, b): one
    real/complex decision for all calls (real when neither P nor any factor
    has an imaginary part; the work then runs on int numerators, otherwise
    on Gaussian-integer ones), D the lcm of the products' denominators
    times the kernel's, and per call the sources of its products, each
    ([(L, R)] as ``keys`` work terms, d, a, b), L (x) R over d.  A product
    that several calls share, as the calls of one {h@c, T} do, becomes work
    terms once."""
    for products, a, b in calls:
        if a == b:
            raise ValueError(f"operator label pair coincides: {a!r}")
        if products:
            _check_dims(products, P, system)
    shared = {(id(L), id(R)): (L, R)
              for products, _a, _b in calls for L, R in products}
    real = not any(c._b for F in [F for LR in shared.values() for F in LR]
                   + [P] for c in F.terms.values())
    shared = {key: ([(_works(L, real, ld := _denominator(L), keys),
                      _works(R, real, rd := _denominator(R), keys))], ld * rd)
              for key, (L, R) in shared.items()}
    D = _denominator(P) * lcm(*[d for _pairs, d in shared.values()])
    return real, D, [[(*shared[id(L), id(R)], a, b) for L, R in products]
                     for products, a, b in calls]


def _finish(out: dict, real: bool, d: int, keys: _Keys) -> dict:
    """The accumulated numerators over d as a term dict, in ``out``'s
    order.  Keys with one block prefix share its located monomial, and
    keys with one numerator share its GRat, which is immutable; both
    tables are this call's own, as d changes with the power."""
    values = keys.values
    mons: dict = {}    # block ids -> located monomial
    coeffs: dict = {}  # numerator -> GRat over d
    result = {}
    for key, c in out.items():
        prefix = key[:-1]
        mon = mons.get(prefix)
        if mon is None:
            mon = mons[prefix] = sum([values[i] for i in prefix], ())
        g = coeffs.get(c)
        if g is None:
            g = coeffs[c] = _make(c, 0, d) if real else _make(*c, d)
        result[mon, values[key[-1]]] = g
    return result


def sigma_terms(calls: list, P: Kernel, system: FieldSystem):
    """Generate the sum over ``calls`` of sigma^k T / k!, the terms of the
    operator's exponential, for k = 1, 2, ....  A call (products, a, b) is
    the operator on the label pair (a, b) and T, the sum of the TensorExpr
    ``products`` L (x) R (L holds the atoms at ``a``, R the rest).

    Each yielded TensorExpr has the inserted kernel atoms canonicalized.  On
    one ordered pair the generator stops at the first power that vanishes
    identically, as all higher powers then do.  (A power that vanishes only
    once its inserted atom joins an equal delta atom of T is yielded,
    empty.)  Power k on (b, a) with kernel P^t is s^k times power k on
    (a, b) with P, and with P itself -s^(k+1) times, so calls on several
    ordered pairs can cancel at one power and not at the next: they run
    until no lineage is left, and yield the vanishing powers, empty.  Every
    factor, P and the system share one dimension, or DimensionMismatch is
    raised.
    """
    keys = _keys()  # captured once, for all calls and powers
    real, D, sources = _setup(calls, P, system, keys)
    for _k, d, out, _pairs in _walk(sum(sources, []), real, D, P,
                                    bracket_sign(P), system, keys):
        yield TensorExpr(P.dim, _finish(out, real, d, keys))


def _walk(sources: list, real: bool, D: int, P: Kernel, sign: int,
          system: FieldSystem, keys: _Keys, orient: int = 1,
          handover: int = 0):
    """The powers of the operator on (a, b) per source (factor pairs of
    work terms, d, a, b), each L (x) R over d, with D a multiple of each d
    times the kernel's denominator and ``sign`` P's ``bracket_sign``: per
    k, (k, D * k!, out, pairs), the sum of the k-th powers times orient^k
    as ``keys``-id numerators over D * k! and, for k <= ``handover``, as
    factor pairs (see ``_product``), else None."""
    dim, kd = P.dim, _denominator(P)
    p, q = system.primary, system.conjugate
    # per product of a call: the call with its table of inserted atom ids,
    # the current (X, Y) of lineage 0 of the next power, or None once it
    # vanished, and the live lineages (j, X, Y), where j counts the B
    # factors: X = d_{p,a}^i d_{q,a}^j L and Y = d_{q,b}^i d_{p,b}^j R
    walks = []
    for factors, d, a, b in sources:
        pair = tuple(sorted((a, b)))
        side_a = 0 if a == pair[0] else 1
        # the kernel's (gamma, numerator) list, the parity folded in and
        # scaled to bring L (x) R (x) kernel over D
        kernel = list(_numerators(
            ((g, c if side_a == 0 or mi_order(g) % 2 == 0 else -c)
             for g, c in P.terms.items()), real, kd, D // (kd * d)).items())
        call = (a, b, pair, side_a, 1 - side_a, kernel,
                keys.atoms.setdefault(pair, {}))
        walks += [(call, (L, R), [(0, L, R)]) for L, R in factors]
    ordered = {(a, b) for *_fd, a, b in sources}

    def derive(F: dict, label: str, sort: str, side: int) -> dict:
        # a factor that several calls share, as the H of one {h@c, T} is,
        # is derived once per (label, sort, side) and power (``walks`` holds
        # each source meanwhile, so no id is reused)
        at = (id(F), label, sort, side)
        out = derived.get(at)
        if out is None:
            out = derived[at] = _derive(F, label, sort, side, dim, real,
                                        keys)
        return out

    def power(pending: bool, pairs=None) -> dict:
        out: dict = {}
        for (a, _b, pair, _sa, _sb, kernel, atoms), _start, lines in walks:
            for j, X, Y in lines:
                _product(out, X, Y, kernel, comb(k, j) * sign ** j
                         * orient ** k, a, None if pending else pair,
                         {} if pending else atoms, keys, real, pairs)
        return out

    def meets() -> bool:
        # the inserted atom can only meet a delta atom of T on its labels,
        # and T's deltas are all in the R factors
        pair = walks[0][0][2]
        return any(d[:2] == pair for factors, *_rest in sources
                   for _L, R in factors for _ids, did, _g in R
                   for d in keys.values[did])

    k = 0
    while walks:
        k += 1
        derived: dict = {}  # (id(source), label, sort, side) -> derivative
        live = []
        for call, start, lines in walks:
            a, b, _pair, side_a, side_b, _kernel, _atoms = call
            new_lines = []
            for j, X, Y in lines:
                X = derive(X, a, p, side_a)
                Y = derive(Y, b, q, side_b) if X else None
                if Y:
                    new_lines.append((j, X, Y))
            if start is not None:
                X = derive(start[0], a, q, side_a)
                Y = derive(start[1], b, p, side_b) if X else None
                start = (X, Y) if Y else None
                if Y:
                    new_lines.append((k, X, Y))
            if new_lines:
                live.append((call, start, new_lines))
        walks = live
        if not walks:
            return
        pairs = [] if k <= handover else None
        out = power(False, pairs)
        # on one ordered pair, the next power can be nonzero only if this
        # one is before the inserted atom joins the deltas
        if not out and len(ordered) == 1 and not (meets() and power(True)):
            return
        yield k, D * factorial(k), out, pairs


def _exp_chain(products: dict, a: str, labels: list, P: Kernel,
               system: FieldSystem, order: int, orient: int, keys: _Keys):
    """The exponentials on (a, b), b in ``labels`` in turn, power k times
    orient^k, of the series whose coefficient at n sums the products
    L (x) R, L at a, of ``products[n]``: (real, powers, more); ``powers``
    maps each order m <= ``order`` to parts (``keys``-id numerators, d),
    power 0 among them, and more is True if a power or uncancelled product
    lies beyond ``order``.  Powers pass on as factor pairs, with no GRat."""
    real, _D, calls = _setup([(pairs, a, labels[0])
                              for pairs in products.values()], P, system,
                             keys)
    zero, stage, powers, more = mi_zero(P.dim), {}, {}, False
    for n, call in zip(products, calls):
        parts = []
        for [(L, R)], d, _a, _b in call:
            out = {}  # power 0: identity kernel, R's delta ids as they are
            _product(out, L, R, [(zero, 1 if real else (1, 0))], 1, a, None,
                     {(did, zero, zero): did for _ids, did, _beta in R},
                     keys, real)
            parts.append((out, d))
        if n > order:  # cut, as exp_sigma does
            more = more or bool(_combine([(1, real, {n: parts})], keys, P.dim))
        else:
            stage[n], powers[n] = [source[:2] for source in call], parts
    sign = bracket_sign(P)  # P's parity, once for all pairs and coefficients
    for b in labels:
        nxt = {n: list(sources) for n, sources in stage.items()}
        for n, sources in stage.items():
            D = _denominator(P) * lcm(*[d for _pairs, d in sources])
            for k, dk, out, handed in _walk(
                    [(*source, a, b) for source in sources], real, D, P,
                    sign, system, keys, orient,
                    order - n if b != labels[-1] else 0):
                if n + k > order:
                    more = True
                    break
                powers.setdefault(n + k, []).append((out, dk))
                if handed is not None:
                    nxt.setdefault(n + k, []).append((handed, dk))
        stage = nxt
    return real, powers, more


def _combine(sides: list, keys: _Keys, dim: int) -> dict:
    """{m: TensorExpr}: per order, the parts of ``sides``, each (sign, real,
    powers from ``_exp_chain``), summed over their lcm denominator, int
    numerators lifted to pairs unless every side is real; only surviving
    keys reach ``_finish``."""
    real, result = all(r for _sign, r, _powers in sides), {}
    for m in sorted({m for *_sr, powers in sides for m in powers}):
        parts = [(sign, r, out, d) for sign, r, powers in sides
                 for out, d in powers.get(m, ())]
        D, total = lcm(*[d for *_sro, d in parts]), {}
        for sign, r, out, d in parts:
            f = sign * (D // d)
            for key, c in out.items():
                if real:
                    _acc(total, key, c * f)
                else:
                    _pair_acc(total, key, *((c * f, 0) if r
                                            else (c[0] * f, c[1] * f)))
        if total:
            result[m] = TensorExpr(dim, _finish(total, real, D, keys))
    return result
