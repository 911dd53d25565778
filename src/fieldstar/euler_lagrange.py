"""Operator algebras acting on expression/kernel pairs and on densities.

The primal operators pair a jet partial with a matching spatial derivative
that falls on the kernel factors of a tensor expression; the dual operators
act on densities through signed total derivatives.  Their order-one sums
are the variational (Euler) operators.
"""

from __future__ import annotations

from .jets import FieldExpr, TermDict, _acc, mi_add, mi_zero
from .rationals import ONE
from .tensor import TensorExpr, _apply_by_parts


class ELOperator(TermDict):
    """A polynomial in generators (sort, index), attached to one point label.

    Monomials are sorted tuples of (sort, index) generators; multiplication
    is multiset union of generators (the composition rule: jet partials
    compose and spatial derivative exponents add).
    """

    __slots__ = ("label",)

    def __init__(self, dim: int, label: str, terms: dict | None = None):
        super().__init__(dim, terms)
        self.label = label

    @classmethod
    def zero(cls, dim: int, label: str) -> "ELOperator":
        return cls(dim, label, {})

    @classmethod
    def identity(cls, dim: int, label: str) -> "ELOperator":
        return cls(dim, label, {(): ONE})

    @classmethod
    def generator(cls, sort: str, index, label: str, dim: int | None = None) -> "ELOperator":
        index = tuple(index)
        d = len(index) if dim is None else dim
        return cls(d, label, {((sort, index),): ONE})

    # the label is part of the shape: sums keep it, and labels never mix

    def _like(self, terms: dict) -> "ELOperator":
        return ELOperator(self.dim, self.label, terms)

    def _check(self, other: "ELOperator"):
        if (self.dim, self.label) != (other.dim, other.label):
            raise ValueError("operator label or dimension mismatch")

    def __eq__(self, other):
        if not isinstance(other, ELOperator):
            return NotImplemented
        return (self.dim, self.label, self.terms) == (other.dim, other.label, other.terms)

    def compose(self, other: "ELOperator") -> "ELOperator":
        """Operator product: generator multisets merge, coefficients multiply."""
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc(terms, tuple(sorted(m1 + m2)), c1 * c2)
        return ELOperator(self.dim, self.label, terms)


def apply_el(op: ELOperator, T: TensorExpr) -> TensorExpr:
    """Action on a tensor expression: mixed jet partials on the label's
    field content, then the summed spatial derivative d_label^index on the
    kernel part of every term.  A term whose kernel does not carry the label
    takes it as a total derivative on the label's field content instead (the
    substitution semantics for intermediate groupings without a kernel
    factor)."""
    terms: dict = {}
    for mon, c in op.terms.items():
        piece = T.scale(c)
        total = mi_zero(T.dim)
        for sort, index in mon:
            piece = piece.jet_partial_at(op.label, sort, index)
            total = mi_add(total, index)
        for (m, deltas), cm in piece.terms.items():
            _apply_by_parts(terms, m, deltas, cm, op.label, total, fields=not any(
                op.label in atom[:2] for atom in deltas))
    return TensorExpr(T.dim, terms)


def apply_dual(op: ELOperator, f: FieldExpr) -> FieldExpr:
    """Dual action on densities: mixed jet partials first, then signed
    total derivatives."""
    result = FieldExpr.zero(f.dim)
    for mon, c in op.terms.items():
        piece = f.scale(c)
        total = mi_zero(f.dim)
        for sort, index in mon:
            piece = piece.jet_partial(sort, index)
            total = mi_add(total, index)
        piece = piece.total_derivative_multi(total, negate=True)
        result = result + piece
    return result


def _partials(f: FieldExpr, sorts: list):
    """Yield (mixed partial, summed index) for each ordered tuple of jet
    variables present, one of each sort in ``sorts``, the partial taken
    by all of them; a branch stops at the first zero partial."""
    if f.is_zero():
        return
    if not sorts:
        yield f, mi_zero(f.dim)
        return
    for _s, index in sorted(f.jet_variables(sorts[0])):
        for partial, total in _partials(f.jet_partial(sorts[0], index), sorts[1:]):
            yield partial, mi_add(index, total)


def _joint_dual(f: FieldExpr, sorts: list) -> FieldExpr:
    """All jet partials of ``sorts`` first, then one signed total
    derivative of their summed index."""
    result = FieldExpr.zero(f.dim)
    for partial, index in _partials(f, sorts):
        result = result + partial.total_derivative_multi(index, negate=True)
    return result


def dual_derivative(f: FieldExpr, sort: str, power: int = 1) -> FieldExpr:
    """The dual Euler-Lagrange derivative of order ``power``: the ``power``
    jet partials by ``sort`` jointly, then the signed total derivative of
    their summed index."""
    return _joint_dual(f, [sort] * power)


def variational_derivative(f: FieldExpr, sort: str) -> FieldExpr:
    """Functional derivative of the integral of f with respect to one field."""
    return dual_derivative(f, sort, power=1)


def duality_residual(op: ELOperator, f: FieldExpr, partner: str) -> FieldExpr:
    """Pairing route minus dual route; identically zero by the duality law."""
    from .kernels import Kernel

    T = TensorExpr.from_field(f, op.label) * TensorExpr.from_kernel(
        Kernel.delta(f.dim), op.label, partner)
    lhs = apply_el(op, T).integrate_out(op.label).to_field_expr(partner)
    rhs = apply_dual(op, f)
    return lhs - rhs


def el_power_duality_residual(f: FieldExpr, sort: str, index, power: int,
                              label: str, partner: str) -> FieldExpr:
    """Residual of the duality law for the composed power of one generator:
    (jet partial x spatial derivative)^k against (jet partial x signed total
    derivative)^k."""
    gen = ELOperator.generator(sort, index, label, f.dim)
    op = ELOperator.identity(f.dim, label)
    for _ in range(power):
        op = op.compose(gen)
    return duality_residual(op, f, partner)
