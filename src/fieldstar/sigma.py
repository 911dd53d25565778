"""The bidifferential operator underlying brackets and star products.

For a label pair (a, b) and a pure-parity kernel P, the operator is

    A + s*B,   A = d_{p,a} d_{q,b},   B = d_{q,a} d_{p,b},

where (p, q) is the system's (primary, conjugate) sort pair, s = -1 for
symmetric kernels and +1 for antisymmetric ones, and each d_{s,l} is the
formal sum over jet partials at label l paired with a spatial derivative.
All spatial derivatives produced by one operator instance act on the single
kernel atom that instance inserts; powers of the operator keep accumulating
derivatives on that same atom.

Work terms track the pending kernel atom explicitly as (a, b, gamma) with
gamma counted on the a side; a derivative from the b side folds in with the
parity sign (-1)^|beta|.  The atom is canonicalized only when a power is
finalized into a TensorExpr.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .jets import (
    FieldSystem,
    func_atom,
    jet_atom,
    mi_add,
    mi_order,
    mi_zero,
)
from .kernels import Kernel, bracket_sign
from .rationals import GRat
from .tensor import TensorExpr, _accumulate, _canon_located, delta_atom


_label = itemgetter(0)  # the label of a located atom


def _acc(works: dict, key, c: GRat):
    acc = works.get(key)
    if acc is None:
        works[key] = c
        return
    acc = acc + c
    if acc:
        works[key] = acc
    else:
        del works[key]


def _jet_partial_mon(mon, label: str, sort: str, index):
    """Derivative of a located monomial by one jet variable; list of
    (monomial, int multiplicity) contributions including the chain rule."""
    out = []
    target = (label, jet_atom(sort, index))
    for pos, latom in enumerate(mon):
        if latom == target:
            rest = list(mon)
            del rest[pos]
            out.append((tuple(rest), mon.count(latom)))
            break
    if mi_order(index) == 0:
        for pos, (lab, atom) in enumerate(mon):
            if lab == label and atom[0] == "f" and atom[3] == sort:
                rest = list(mon)
                rest[pos] = (lab, func_atom(atom[1], atom[3], atom[2] + 1, atom[4]))
                out.append((_canon_located(rest), 1))
    return out


def _block_partials(block, label: str, sort: str, side: int, dim: int) -> list:
    """Every (new block, index, int factor) that one derivation pass makes
    from the atoms at one label; the factor holds the multiplicity and, on
    the b side, the parity sign (-1)^|index|."""
    indices = set()
    for _lab, atom in block:
        if atom[0] == "j" and atom[1] == sort:
            indices.add(atom[2])
        elif atom[0] == "f" and atom[3] == sort:
            indices.add(mi_zero(dim))
    out = []
    for index in sorted(indices):
        sign = -1 if side == 1 and mi_order(index) % 2 == 1 else 1
        for new_block, mult in _jet_partial_mon(block, label, sort, index):
            out.append((new_block, index, sign * mult))
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


def _finalize(works: dict, a: str, b: str, dim: int) -> TensorExpr:
    terms: dict = {}
    atoms: dict = {}  # gamma -> (canonical delta atom, whether it flips sign)
    for (mon, deltas, gamma), c in works.items():
        found = atoms.get(gamma)
        if found is None:
            atom, sign = delta_atom(a, b, gamma)
            found = atoms[gamma] = (atom, sign != 1)
        atom, flip = found
        _accumulate(terms, mon, tuple(sorted(deltas + (atom,))),
                    -c if flip else c)
    return TensorExpr(dim, terms)


def _sort_pair(system: FieldSystem) -> tuple[str, str]:
    primaries = system.primary_sorts()
    if len(primaries) != 1:
        raise ValueError("the operator needs exactly one conjugate sort pair")
    p = primaries[0]
    return p, system.partner(p)


def sigma_terms(T: TensorExpr, a: str, b: str, P: Kernel, system: FieldSystem,
                sign: int | None = None):
    """Generate the k-th operator powers applied to T, for k = 1, 2, ...

    Each yielded TensorExpr is the raw k-th power (no 1/k! factor), with the
    inserted kernel atom canonicalized.  The generator stops as soon as a
    power vanishes identically; all higher powers then vanish as well.
    """
    if a == b:
        raise ValueError(f"operator label pair coincides: {a!r}")
    if sign is None:
        sign = bracket_sign(P)
    p, q = _sort_pair(system)
    dim = T.dim
    works: dict = {}
    for (mon, deltas), c in T.terms.items():
        for gamma, cg in P.terms.items():
            cc = c * cg
            if cc:
                _acc(works, (mon, deltas, gamma), cc)
    memo: dict = {}
    while works:
        part_a = _derive(_derive(works, a, p, 0, dim, memo), b, q, 1, dim, memo)
        part_b = _derive(_derive(works, a, q, 0, dim, memo), b, p, 1, dim, memo)
        works = part_a
        for key, c in part_b.items():
            _acc(works, key, c if sign > 0 else -c)
        if not works:
            return
        yield _finalize(works, a, b, dim)
