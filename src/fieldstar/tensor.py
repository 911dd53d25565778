"""Tensor expressions: field content at labeled points times delta kernels.

A term is a pair (located monomial, delta product) with a Gaussian-rational
coefficient.  Located atoms are (label, atom) pairs in tuple order, so the
atoms at one label form one block; delta atoms are canonical triples
(a, b, gamma) standing for d_a^gamma delta(a - b) with a < b in label
order.  Delta products are multisets (sorted tuples).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter

from .jets import (
    RULE_CACHE_SIZE,
    FieldExpr,
    TermDict,
    _acc,
    _canon_monomial,
    _derivative_mon,
    _partial_mon,
    _times,
    mi_add,
    mi_order,
    mi_unit,
)
from .rationals import GRat


class NonIntegrableTerm(ValueError):
    """A label was integrated out of a term no delta atom localizes at it."""


def delta_atom(a: str, b: str, gamma) -> tuple[tuple, int]:
    """Canonicalize d_a^gamma delta(a-b); returns (atom, int sign)."""
    gamma = tuple(gamma)
    if a == b:
        raise ValueError(f"delta atom at coinciding labels {a!r}")
    if a < b:
        return (a, b, gamma), 1
    return (b, a, gamma), -1 if mi_order(gamma) % 2 else 1


_label = itemgetter(0)  # the label of a located atom


def _locate(label: str, mon: tuple) -> tuple:
    return tuple([(label, atom) for atom in mon])


def _delta_leibniz(out: dict, mon: tuple, deltas: tuple, c: GRat,
                   label: str, e):
    """Accumulate the derivative along ``e`` at ``label`` of the delta
    product of one term: d/da of d_a^g delta(a-b) raises g, d/db also
    flips the sign."""
    for pos, (a, b, gamma) in enumerate(deltas):
        if label not in (a, b) or (pos > 0 and deltas[pos] == deltas[pos - 1]):
            continue
        mult = deltas.count(deltas[pos])
        new = deltas[:pos] + ((a, b, mi_add(gamma, e)),) + deltas[pos + 1:]
        _acc(out, (mon, tuple(sorted(new))), _times(c, mult if label == a else -mult))


def _relabel_deltas(deltas: tuple, old: str, new: str) -> tuple[tuple, int]:
    """The delta product with label ``old`` renamed ``new``, re-canonicalized,
    and the product of the orientation signs."""
    moved, sign = [], 1
    for a, b, gamma in deltas:
        atom, s = delta_atom(new if a == old else a, new if b == old else b, gamma)
        moved.append(atom)
        sign *= s
    return tuple(sorted(moved)), sign


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _by_parts(block: tuple, carried: tuple, label: str, gamma) -> tuple | None:
    """D^gamma at ``label`` of a bare block times the delta atoms carrying
    the label, Leibniz over both: (label, ((located block, deltas, int
    multiplicity), ...)).  With ``gamma`` None, integrate the label out by
    parts: d_label^g moves off the first carrier, which pairs the label with
    a partner, onto the rest as (-1)^|g| D^g, and the partner is substituted
    for the label: (partner, rows), or None when another carrier pairs the
    label with the partner too (a coincidence divergence)."""
    partner, sign = label, 1
    if gamma is None:
        (a, b, gamma), carried = carried[0], carried[1:]
        partner = b if a == label else a
        if any(partner in atom[:2] for atom in carried):
            return None
        # the atom is sign * d_label^g delta(label-partner): with parts'
        # (-1)^|g| that leaves -1 when |g| is odd and the label comes first
        sign = -1 if a == label and mi_order(gamma) % 2 else 1
    state = {(block, carried): sign}
    for direction, k in enumerate(gamma, start=1):
        e = mi_unit(len(gamma), direction)
        for _ in range(k):
            work, state = state, {}
            for (blk, dl), m in work.items():
                for new, mult in _derivative_mon(blk, e):
                    _acc(state, (new, dl), m * mult)
                _delta_leibniz(state, blk, dl, m, label, e)
    rows = []
    for (blk, dl), m in state.items():
        dl, s = _relabel_deltas(dl, label, partner)  # the identity on label
        rows.append((_locate(partner, blk), dl, m * s))
    return partner, tuple(rows)


def _apply_by_parts(out: dict, mon: tuple, deltas: tuple, c: GRat,
                    label: str, gamma=None, fields: bool = True) -> bool:
    """Accumulate ``_by_parts`` of one term into ``out``: its new block
    replaces the label's block and joins the partner's, its new deltas join
    the atoms not carrying the label; without ``fields`` the label's block
    is left alone.  False, adding nothing, when the label cannot be
    integrated out of the term."""
    carried = tuple([atom for atom in deltas if label in atom[:2]])
    if not carried and gamma is None:
        return False
    # located monomials sort by label first, so the atoms at one label form
    # one block, and head + merged block + tail is canonical
    lo = bisect_left(mon, label, key=_label)
    hi = bisect_right(mon, label, lo, key=_label) if fields else lo
    rule = _by_parts(tuple([atom for _lab, atom in mon[lo:hi]]),
                     carried, label, gamma)
    if rule is None:
        return False
    partner, rows = rule
    rest = mon[:lo] + mon[hi:]
    lo = bisect_left(rest, partner, key=_label)
    hi = bisect_right(rest, partner, lo, key=_label)
    head, near, tail = rest[:lo], rest[lo:hi], rest[hi:]
    others = tuple([atom for atom in deltas if label not in atom[:2]])
    for new, dl, mult in rows:
        _acc(out, (head + (tuple(sorted(near + new)) if near else new) + tail,
                   tuple(sorted(others + dl)) if others and dl else others + dl),
             _times(c, mult))
    return True


class TensorExpr(TermDict):
    """A sum of (coefficient, located monomial, delta product) terms."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value, dim: int) -> "TensorExpr":
        c = value if isinstance(value, GRat) else GRat(value)
        return cls(dim, {((), ()): c} if c else {})

    @classmethod
    def from_field(cls, expr: FieldExpr, label: str) -> "TensorExpr":
        return cls(expr.dim, {(_locate(label, mon), ()): c
                              for mon, c in expr.terms.items()})

    @classmethod
    def from_kernel(cls, kernel, a: str, b: str) -> "TensorExpr":
        terms: dict = {}
        for gamma, c in kernel.terms.items():
            atom, sign = delta_atom(a, b, gamma)
            _acc(terms, ((), (atom,)), _times(c, sign))
        return cls(kernel.dim, terms)

    # -- ring structure -----------------------------------------------------

    # bound in the class body: perfbench/tracer.py wraps only the methods in
    # a class's own namespace, and counts tensor sums and products there
    __add__ = TermDict.__add__

    def __mul__(self, other: "TensorExpr") -> "TensorExpr":
        self._check(other)
        terms: dict = {}
        for (m1, d1), c1 in self.terms.items():
            for (m2, d2), c2 in other.terms.items():
                # located monomials sort by label first, so factors whose
                # label ranges do not overlap join by concatenation
                if not m1 or not m2 or m1[-1][0] < m2[0][0]:
                    mon = m1 + m2
                elif m2[-1][0] < m1[0][0]:
                    mon = m2 + m1
                else:
                    mon = _canon_monomial(m1 + m2)
                _acc(terms, (mon, tuple(sorted(d1 + d2)) if d1 and d2
                             else d1 + d2), c1 * c2)
        return TensorExpr(self.dim, terms)

    def __repr__(self):
        from .render import render_tensor_expr

        return f"TensorExpr({render_tensor_expr(self)!r})"

    # -- structure queries --------------------------------------------------

    def labels(self) -> set:
        found = set()
        for (mon, deltas) in self.terms:
            for lab, _ in mon:
                found.add(lab)
            for a, b, _ in deltas:
                found.add(a)
                found.add(b)
        return found

    def to_field_expr(self, label: str) -> FieldExpr:
        """Collapse a kernel-free, single-label expression to a FieldExpr."""
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            if deltas:
                raise ValueError("expression still carries delta kernels")
            atoms = []
            for lab, atom in mon:
                if lab != label:
                    raise ValueError(f"unexpected label {lab!r} (want {label!r})")
                atoms.append(atom)
            _acc(terms, _canon_monomial(atoms), c)
        return FieldExpr(self.dim, terms)

    # -- calculus -----------------------------------------------------------

    def jet_partial_at(self, label: str, sort: str, index) -> "TensorExpr":
        """Partial derivative by one jet variable at one label."""
        index = tuple(index)
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            lo = bisect_left(mon, label, key=_label)
            hi = bisect_right(mon, label, lo, key=_label)
            if lo < hi:
                pre, post = mon[:lo], mon[hi:]
                block = tuple([atom for _lab, atom in mon[lo:hi]])
                for new, mult in _partial_mon(block, sort, index):
                    _acc(terms, (pre + _locate(label, new) + post, deltas),
                         _times(c, mult))
        return TensorExpr(self.dim, terms)

    def integrate_out(self, label: str) -> "TensorExpr":
        """Formal integration over one label by parts against a delta atom.

        For each term, all derivatives on one delta atom pairing ``label``
        with a partner are moved onto the remaining label-dependent content
        (sign (-1)^|gamma|, Leibniz distribution), after which the label is
        substituted by the partner.  Only delta-localized content is
        integrable: a term that no atom localizes raises NonIntegrableTerm.
        """
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            if not _apply_by_parts(terms, mon, deltas, c, label):
                raise NonIntegrableTerm(
                    f"no delta atom localizes a term at label {label!r}")
        return TensorExpr(self.dim, terms)
