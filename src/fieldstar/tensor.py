"""Tensor expressions: field content at labeled points times delta kernels.

A term is a pair (located monomial, delta product) with a Gaussian-rational
coefficient.  Located atoms are (label, atom) pairs in tuple order, so the
atoms at one label form one block; delta atoms are canonical triples
(a, b, gamma) standing for d_a^gamma delta(a - b) with a < b in label
order.  Delta products are multisets (sorted tuples).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .jets import (
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
    """A label was integrated out of a term with no delta atom carrying it."""


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

    def _at_label(self, label: str, rule, e=None) -> "TensorExpr":
        """Apply a bare-monomial rule of ``jets`` to the atoms at ``label``
        in every term; given a unit index ``e``, also differentiate the
        delta atoms that carry the label along it."""
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            # located monomials sort by label first, so the atoms at the
            # label form one block, and pre + new block + post is canonical
            lo = bisect_left(mon, label, key=_label)
            hi = bisect_right(mon, label, lo, key=_label)
            if lo < hi:
                pre, post = mon[:lo], mon[hi:]
                for new, mult in rule(tuple([atom for _lab, atom in mon[lo:hi]])):
                    _acc(terms, (pre + _locate(label, new) + post, deltas),
                         _times(c, mult))
            if e is not None and deltas:
                _delta_leibniz(terms, mon, deltas, c, label, e)
        return TensorExpr(self.dim, terms)

    def total_derivative_at(self, label: str, direction: int) -> "TensorExpr":
        """Total spatial derivative in ``direction`` at one point label.

        Leibniz over both the field atoms attached to the label and the
        delta atoms whose pair contains it.
        """
        e = mi_unit(self.dim, direction)
        return self._at_label(label, lambda mon: _derivative_mon(mon, e), e)

    def total_derivative_multi_at(self, label: str, index) -> "TensorExpr":
        result = self
        for direction, k in enumerate(index, start=1):
            for _ in range(k):
                result = result.total_derivative_at(label, direction)
        return result

    def jet_partial_at(self, label: str, sort: str, index) -> "TensorExpr":
        """Partial derivative by one jet variable at one label."""
        index = tuple(index)
        return self._at_label(label, lambda mon: _partial_mon(mon, sort, index))

    def relabel(self, old: str, new: str) -> "TensorExpr":
        """Rename a point label, re-canonicalizing delta atoms."""
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            located = _canon_monomial(
                ((new if lab == old else lab), atom) for lab, atom in mon)
            sign = 1
            new_deltas = []
            for a, b, gamma in deltas:
                a2 = new if a == old else a
                b2 = new if b == old else b
                atom, s = delta_atom(a2, b2, gamma)
                sign *= s
                new_deltas.append(atom)
            _acc(terms, (located, tuple(sorted(new_deltas))), _times(c, sign))
        return TensorExpr(self.dim, terms)

    def integrate_out(self, label: str) -> "TensorExpr":
        """Formal integration over one label by parts against a delta atom.

        For each term, all derivatives on one delta atom pairing ``label``
        with a partner are moved onto the remaining label-dependent content
        (sign (-1)^|gamma|, Leibniz distribution), after which the label is
        substituted by the partner.  Terms without a delta atom in the label
        are rejected: only delta-localized content is integrable.
        """
        groups: dict = {}  # (gamma, partner) -> terms sharing the by-parts step
        for (mon, deltas), c in self.terms.items():
            for pos, (a, b, gamma) in enumerate(deltas):
                if label in (a, b):
                    break
            else:
                raise NonIntegrableTerm(
                    f"term has no delta atom carrying label {label!r}")
            # the chosen atom is sign * d_label^gamma delta(label-partner), and
            # integration by parts gives (-1)^|gamma| D^gamma on the rest: the
            # two signs leave -1 when |gamma| is odd and label is the first slot
            odd = mi_order(gamma) % 2 == 1
            _acc(groups.setdefault((gamma, b if a == label else a), {}),
                 (mon, deltas[:pos] + deltas[pos + 1:]),
                 -c if odd and a == label else c)
        terms: dict = {}
        for (gamma, partner), group in groups.items():
            piece = TensorExpr(self.dim, group).total_derivative_multi_at(label, gamma)
            for key, c in piece.relabel(label, partner).terms.items():
                _acc(terms, key, c)
        return TensorExpr(self.dim, terms)

