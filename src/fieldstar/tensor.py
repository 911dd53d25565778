"""Tensor expressions: field content at labeled points times delta kernels.

A term is a pair (located monomial, delta product) with a Gaussian-rational
coefficient.  Located atoms are (label, atom) pairs; delta atoms are
canonical triples (a, b, gamma) standing for d_a^gamma delta(a - b) with
a < b in label order.  Delta products are multisets (sorted tuples).
"""

from __future__ import annotations

from .jets import (
    DimensionMismatch,
    FieldExpr,
    _accumulate as _acc_field,
    atom_key,
    func_atom,
    jet_atom,
    mi_add,
    mi_order,
    mi_unit,
    mi_zero,
)
from .rationals import GRat, ONE


class NonIntegrableTerm(ValueError):
    """A label was integrated out of a term with no delta atom carrying it."""


def delta_atom(a: str, b: str, gamma) -> tuple[tuple, GRat]:
    """Canonicalize d_a^gamma delta(a-b); returns (atom, sign)."""
    gamma = tuple(gamma)
    if a == b:
        raise ValueError(f"delta atom at coinciding labels {a!r}")
    if a < b:
        return (a, b, gamma), ONE
    sign = ONE if mi_order(gamma) % 2 == 0 else -ONE
    return (b, a, gamma), sign


def _locate_key(latom):
    return (latom[0], atom_key(latom[1]))


def _canon_located(atoms) -> tuple:
    return tuple(sorted(atoms, key=_locate_key))


class TensorExpr:
    """A sum of (coefficient, located monomial, delta product) terms."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "TensorExpr":
        return cls(dim, {})

    @classmethod
    def const(cls, value, dim: int) -> "TensorExpr":
        c = value if isinstance(value, GRat) else GRat(value)
        return cls(dim, {((), ()): c} if c else {})

    @classmethod
    def from_field(cls, expr: FieldExpr, label: str) -> "TensorExpr":
        terms = {}
        for mon, c in expr.terms.items():
            located = tuple((label, atom) for atom in mon)
            terms[(located, ())] = c
        return cls(expr.dim, terms)

    @classmethod
    def from_kernel(cls, kernel, a: str, b: str) -> "TensorExpr":
        terms: dict = {}
        for gamma, c in kernel.terms.items():
            atom, sign = delta_atom(a, b, gamma)
            _accumulate(terms, (), (atom,), c * sign)
        return cls(kernel.dim, terms)

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "TensorExpr"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension {self.dim} != {other.dim}")

    def __add__(self, other: "TensorExpr") -> "TensorExpr":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return TensorExpr(self.dim, terms)

    def __sub__(self, other: "TensorExpr") -> "TensorExpr":
        return self + (-other)

    def __neg__(self) -> "TensorExpr":
        return TensorExpr(self.dim, {k: -c for k, c in self.terms.items()})

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
                    mon = _canon_located(m1 + m2)
                _accumulate(terms, mon, tuple(sorted(d1 + d2)) if d1 and d2
                            else d1 + d2, c1 * c2)
        return TensorExpr(self.dim, terms)

    def scale(self, c) -> "TensorExpr":
        c = c if isinstance(c, GRat) else GRat(c)
        if not c:
            return TensorExpr.zero(self.dim)
        return TensorExpr(self.dim, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorExpr):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

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
            _acc_field(terms, tuple(sorted(atoms, key=atom_key)), c)
        return FieldExpr(self.dim, terms)

    # -- calculus -----------------------------------------------------------

    def total_derivative_at(self, label: str, direction: int) -> "TensorExpr":
        """Total spatial derivative in ``direction`` at one point label.

        Leibniz over both the field atoms attached to the label and the
        delta atoms whose pair contains it.
        """
        e = mi_unit(self.dim, direction)
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            for pos, (lab, atom) in enumerate(mon):
                if lab != label:
                    continue
                if pos > 0 and mon[pos] == mon[pos - 1]:
                    continue
                mult = mon.count((lab, atom))
                if atom[0] == "j":
                    rest = list(mon)
                    rest[pos] = (lab, jet_atom(atom[1], mi_add(atom[2], e)))
                    _accumulate(terms, _canon_located(rest), deltas, c * mult)
                elif atom[0] == "f":
                    rest = list(mon)
                    rest[pos] = (lab, func_atom(atom[1], atom[3], atom[2] + 1, atom[4]))
                    rest.append((lab, jet_atom(atom[3], e)))
                    _accumulate(terms, _canon_located(rest), deltas, c * mult)
            for pos, (a, b, gamma) in enumerate(deltas):
                if pos > 0 and deltas[pos] == deltas[pos - 1]:
                    continue
                if label not in (a, b):
                    continue
                mult = deltas.count((a, b, gamma))
                # d/da of d_a^g delta(a-b) raises g; d/db gives a minus sign
                sign = ONE if label == a else -ONE
                rest = list(deltas)
                rest[pos] = (a, b, mi_add(gamma, e))
                _accumulate(terms, mon, tuple(sorted(rest)), c * sign * mult)
        return TensorExpr(self.dim, terms)

    def total_derivative_multi_at(self, label: str, index, negate: bool = False) -> "TensorExpr":
        result = self
        for direction, k in enumerate(index, start=1):
            for _ in range(k):
                result = result.total_derivative_at(label, direction)
                if negate:
                    result = -result
        return result

    def jet_partial_at(self, label: str, sort: str, index) -> "TensorExpr":
        """Partial derivative by one jet variable at one label."""
        index = tuple(index)
        target = (label, jet_atom(sort, index))
        at_origin = mi_order(index) == 0
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            for pos, latom in enumerate(mon):
                if latom == target:
                    mult = mon.count(latom)
                    rest = list(mon)
                    del rest[pos]
                    _accumulate(terms, tuple(rest), deltas, c * mult)
                    break
            for pos, (lab, atom) in enumerate(mon):
                if lab == label and atom[0] == "f" and atom[3] == sort and at_origin:
                    rest = list(mon)
                    rest[pos] = (lab, func_atom(atom[1], atom[3], atom[2] + 1, atom[4]))
                    _accumulate(terms, _canon_located(rest), deltas, c)
        return TensorExpr(self.dim, terms)

    def relabel(self, old: str, new: str) -> "TensorExpr":
        """Rename a point label, re-canonicalizing delta atoms."""
        terms: dict = {}
        for (mon, deltas), c in self.terms.items():
            located = _canon_located(
                tuple(((new if lab == old else lab), atom) for lab, atom in mon))
            sign = ONE
            new_deltas = []
            for a, b, gamma in deltas:
                a2 = new if a == old else a
                b2 = new if b == old else b
                atom, s = delta_atom(a2, b2, gamma)
                sign = sign * s
                new_deltas.append(atom)
            _accumulate(terms, located, tuple(sorted(new_deltas)), c * sign)
        return TensorExpr(self.dim, terms)

    def integrate_out(self, label: str) -> "TensorExpr":
        """Formal integration over one label by parts against a delta atom.

        For each term, all derivatives on one delta atom pairing ``label``
        with a partner are moved onto the remaining label-dependent content
        (sign (-1)^|gamma|, Leibniz distribution), after which the label is
        substituted by the partner.  Terms without a delta atom in the label
        are rejected: only delta-localized content is integrable.
        """
        result = TensorExpr.zero(self.dim)
        for (mon, deltas), c in self.terms.items():
            chosen = None
            for pos, (a, b, gamma) in enumerate(deltas):
                if label in (a, b):
                    chosen = pos
                    break
            if chosen is None:
                raise NonIntegrableTerm(
                    f"term has no delta atom carrying label {label!r}")
            a, b, gamma = deltas[chosen]
            rest_deltas = deltas[:chosen] + deltas[chosen + 1:]
            partner = b if a == label else a
            # express the chosen atom as sign * d_label^gamma delta(label-partner)
            sign = ONE
            if a != label and mi_order(gamma) % 2 == 1:
                sign = -ONE
            # integration by parts: (-1)^|gamma| D^gamma on the rest
            if mi_order(gamma) % 2 == 1:
                sign = -sign
            piece = TensorExpr(self.dim, {(mon, rest_deltas): c * sign})
            piece = piece.total_derivative_multi_at(label, gamma)
            result = result + piece.relabel(label, partner)
        return result


def _acc(terms: dict, key, c: GRat):
    """Add a nonzero ``c`` at ``key``, dropping the key if it cancels."""
    acc = terms.get(key)
    if acc is None:
        terms[key] = c
        return
    acc = acc + c
    if acc:
        terms[key] = acc
    else:
        del terms[key]


def _accumulate(terms: dict, mon: tuple, deltas: tuple, c: GRat):
    if c:
        _acc(terms, (mon, deltas), c)
