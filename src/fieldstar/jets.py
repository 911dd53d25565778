"""Exact arithmetic and calculus on jet-variable expressions.

A jet variable is a field sort together with a spatial multi-index; an
expression is a polynomial over Gaussian rationals in jet variables,
abstract unary function symbols (U, U', U'', ...) and named constants.

Monomial atoms are plain tuples so that expressions hash and compare fast:

    ("c", name)                          constant symbol
    ("f", name, order, arg_sort, vanishes)  function symbol applied to the
                                            order-zero jet of arg_sort
    ("j", sort, index)                   jet variable

Atoms within a monomial are kept in Python's tuple order: constants, then
function symbols, then jet variables by sort and then lexicographically by
multi-index, so that equal monomials are equal tuples.  Display order is
``render``'s.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .rationals import GRat, ONE

MultiIndex = tuple  # tuple of n naturals

RULE_CACHE_SIZE = 4096  # entries in each process-wide cache of a pure rule


class DimensionMismatch(ValueError):
    pass


class ConditionBError(ValueError):
    """Raised when an unknown function-symbol value at the origin is needed."""


@dataclass(frozen=True)
class FieldSystem:
    """The session's one field and its conjugate: the equal-time pair
    (phi, pi), or (psi, psibar) for a complex field.  Every bracket and star
    pairs the primary sort with its conjugate."""

    dim: int
    primary: str
    conjugate: str

    def __post_init__(self):
        if self.primary == self.conjugate:
            raise ValueError(
                f"field {self.primary!r} cannot be paired with itself")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def partner(self, sort: str) -> str:
        if sort == self.primary:
            return self.conjugate
        if sort == self.conjugate:
            return self.primary
        raise KeyError(sort)

    def sort_names(self) -> list[str]:
        return sorted((self.primary, self.conjugate))


def real_system(dim: int) -> FieldSystem:
    return FieldSystem(dim, "phi", "pi")


def complex_system(dim: int) -> FieldSystem:
    return FieldSystem(dim, "psi", "psibar")


# ---------------------------------------------------------------------------
# multi-index helpers

def mi_zero(dim: int) -> MultiIndex:
    return (0,) * dim


def mi_unit(dim: int, direction: int) -> MultiIndex:
    if not 1 <= direction <= dim:
        raise ValueError(f"direction {direction} out of range 1..{dim}")
    return tuple(1 if i == direction - 1 else 0 for i in range(dim))


@lru_cache(maxsize=RULE_CACHE_SIZE)
def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(operator.add, a, b))


def mi_order(a: MultiIndex) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# atoms

def jet_atom(sort: str, index: MultiIndex) -> tuple:
    return ("j", sort, tuple(index))


def const_atom(name: str) -> tuple:
    return ("c", name)


def func_atom(name: str, arg_sort: str, order: int = 0, vanishes: bool = True) -> tuple:
    return ("f", name, order, arg_sort, vanishes)


def _canon_monomial(atoms) -> tuple:
    """Bare atoms, or located (label, atom) pairs, in tuple order; located
    atoms sort by label first, so the atoms at one label form one block."""
    return tuple(sorted(atoms))


# ---------------------------------------------------------------------------
# calculus on bare-atom monomials, one copy of each rule: a rule returns
# its contributions ((monomial, int multiplicity), ...), cached process-wide

@lru_cache(maxsize=RULE_CACHE_SIZE)
def _partial_mon(mon: tuple, sort: str, index: MultiIndex) -> tuple:
    """Partial derivative by the jet variable sort[index].

    The chain rule promotes U^(k)(s_0) to U^(k+1)(s_0) when differentiating
    by the order-zero jet of its argument sort.
    """
    out = []
    target = ("j", sort, index)
    if target in mon:
        pos = mon.index(target)
        out.append((mon[:pos] + mon[pos + 1:], mon.count(target)))
    if not any(index):
        for pos, atom in enumerate(mon):
            if atom[0] == "f" and atom[3] == sort:
                out.append((_canon_monomial(
                    mon[:pos] + (func_atom(atom[1], sort, atom[2] + 1, atom[4]),)
                    + mon[pos + 1:]), 1))
    return tuple(out)


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _derivative_mon(mon: tuple, e: MultiIndex) -> tuple:
    """Total derivative along the unit index ``e``: Leibniz over the atoms,
    with U^(k)(s_0) prolonged to U^(k+1)(s_0) * s_e."""
    out = []
    for pos, atom in enumerate(mon):
        if pos > 0 and atom == mon[pos - 1]:
            # identical factors contribute equal terms; counted once below
            continue
        if atom[0] == "j":
            new = (jet_atom(atom[1], mi_add(atom[2], e)),)
        elif atom[0] == "f":
            new = (func_atom(atom[1], atom[3], atom[2] + 1, atom[4]),
                   jet_atom(atom[3], e))
        else:  # constants differentiate to zero
            continue
        out.append((_canon_monomial(mon[:pos] + new + mon[pos + 1:]),
                    mon.count(atom)))
    return tuple(out)


def conjugate_atom(atom: tuple, system: FieldSystem) -> tuple:
    """The atom with its sort swapped for the conjugate partner."""
    if atom[0] == "j":
        return jet_atom(system.partner(atom[1]), atom[2])
    if atom[0] == "f":
        return func_atom(atom[1], system.partner(atom[3]), atom[2], atom[4])
    return atom


def _times(c: GRat, k: int) -> GRat:
    """c * k for an int multiplicity, without arithmetic when k is +-1."""
    return c if k == 1 else -c if k == -1 else c * k


def _acc(terms: dict, key, c):
    """Add ``c`` (a coefficient or a TermDict) at ``key``, dropping the key
    if the sum cancels; a zero ``c`` at a new key is stored as it is."""
    acc = terms.get(key)
    if acc is None:
        terms[key] = c
        return
    acc = acc + c
    if acc:
        terms[key] = acc
    else:
        del terms[key]


class TermDict:
    """A finite sum of keyed terms with nonzero Q[i] coefficients.

    ``terms`` maps keys (monomials, multi-indices, ...) to coefficients;
    subclasses give the keys their meaning and their products.  Immutable
    by convention; never mutate ``terms`` after construction.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, dim: int):
        return cls(dim, {})

    def _like(self, terms: dict):
        """A value of the same class and shape with other terms."""
        return type(self)(self.dim, terms)

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension {self.dim} != {other.dim}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return self._like(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = c if isinstance(c, GRat) else GRat(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))


class FieldExpr(TermDict):
    """A commutative polynomial in jet variables over Q[i]."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value, dim: int) -> "FieldExpr":
        c = value if isinstance(value, GRat) else GRat(value)
        return cls(dim, {(): c} if c else {})

    @classmethod
    def jet(cls, sort: str, index: MultiIndex, dim: int | None = None) -> "FieldExpr":
        index = tuple(index)
        d = len(index) if dim is None else dim
        if len(index) != d:
            raise DimensionMismatch(f"index {index} has length != {d}")
        return cls(d, {(jet_atom(sort, index),): ONE})

    @classmethod
    def const_symbol(cls, name: str, dim: int) -> "FieldExpr":
        return cls(dim, {(const_atom(name),): ONE})

    @classmethod
    def function(cls, name: str, arg_sort: str, dim: int, order: int = 0,
                 vanishes: bool = True) -> "FieldExpr":
        return cls(dim, {(func_atom(name, arg_sort, order, vanishes),): ONE})

    # -- ring structure -----------------------------------------------------

    def __mul__(self, other: "FieldExpr") -> "FieldExpr":
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc(terms, _canon_monomial(m1 + m2), c1 * c2)
        return FieldExpr(self.dim, terms)

    def __pow__(self, k: int) -> "FieldExpr":
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = FieldExpr.const(1, self.dim)
        for _ in range(k):
            result = result * self
        return result

    def __repr__(self):
        from .render import render_field_expr

        return f"FieldExpr({render_field_expr(self)!r})"

    # -- calculus -----------------------------------------------------------

    def _each_term(self, rule) -> "FieldExpr":
        """Apply a monomial rule (see ``_partial_mon``) to every term."""
        terms: dict = {}
        for mon, c in self.terms.items():
            for new, mult in rule(mon):
                _acc(terms, new, _times(c, mult))
        return FieldExpr(self.dim, terms)

    def jet_partial(self, sort: str, index: MultiIndex) -> "FieldExpr":
        """Formal partial derivative with respect to one jet variable."""
        index = tuple(index)
        return self._each_term(lambda mon: _partial_mon(mon, sort, index))

    def total_derivative(self, direction: int) -> "FieldExpr":
        """Total spatial derivative: prolongation plus Leibniz over products."""
        e = mi_unit(self.dim, direction)
        return self._each_term(lambda mon: _derivative_mon(mon, e))

    def total_derivative_multi(self, index: MultiIndex, negate: bool = False) -> "FieldExpr":
        """Apply D^index, or (-D)^index when ``negate`` is set."""
        result = self
        for direction, k in enumerate(index, start=1):
            for _ in range(k):
                result = result.total_derivative(direction)
                if negate:
                    result = -result
        return result

    def eval_at_origin(self) -> "FieldExpr":
        """Value with all jet variables set to zero: the polynomial in
        constant symbols that survives there; condition B holds iff it is 0.

        Function symbols flagged as vanishing at the origin contribute zero
        through derivative order two (the o(s^2) growth assumption); an
        unflagged symbol, or a higher derivative, has unknown value.  A
        term vanishes when any factor does; a term with no vanishing factor
        and an unknown one raises ConditionBError.
        """
        terms = {}
        for mon, c in self.terms.items():
            unknown = None
            for atom in mon:
                if atom[0] == "j" or atom[0] == "f" and atom[4] and atom[2] <= 2:
                    break
                if atom[0] == "f" and unknown is None:
                    unknown = atom
            else:
                if unknown is not None:
                    raise ConditionBError(
                        f"value of {unknown[1]} (order {unknown[2]}) at the origin is unknown")
                terms[mon] = c
        return FieldExpr(self.dim, terms)

    # -- structure queries --------------------------------------------------

    def jet_variables(self, sort: str | None = None) -> set:
        """Distinct (sort, index) pairs appearing in the expression."""
        found = set()
        for mon in self.terms:
            for atom in mon:
                if atom[0] == "j" and (sort is None or atom[1] == sort):
                    found.add((atom[1], atom[2]))
                elif atom[0] == "f" and (sort is None or atom[3] == sort):
                    found.add((atom[3], mi_zero(self.dim)))
        return found

    def conjugate(self, system: FieldSystem) -> "FieldExpr":
        """Complex conjugation: swap paired sorts, conjugate coefficients."""
        terms: dict = {}
        for mon, c in self.terms.items():
            _acc(terms, _canon_monomial(conjugate_atom(a, system) for a in mon),
                 c.conjugate())
        return FieldExpr(self.dim, terms)
