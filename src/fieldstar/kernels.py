"""Constant-coefficient derivative-of-delta kernels and their symmetry.

A kernel P(a, b) is a finite sum over multi-indices gamma of
c_gamma * d_a^gamma delta(a - b).  Only constant coefficients are
supported; symmetry is then decided by the parity of |gamma|.
"""

from __future__ import annotations

from .jets import DimensionMismatch, TermDict, mi_order, mi_zero
from .rationals import GRat

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
MIXED = "mixed"


class Kernel(TermDict):
    """P(a,b) = sum_gamma c_gamma d_a^gamma delta(a-b), labels implicit.

    A kernel is label-free: the labels are supplied when it is inserted
    into a tensor expression.
    """

    __slots__ = ()

    @classmethod
    def delta(cls, dim: int, coeff=1) -> "Kernel":
        c = coeff if isinstance(coeff, GRat) else GRat(coeff)
        return cls(dim, {mi_zero(dim): c} if c else {})

    @classmethod
    def derivative_delta(cls, dim: int, gamma, coeff=1) -> "Kernel":
        gamma = tuple(gamma)
        if len(gamma) != dim:
            raise DimensionMismatch(f"index {gamma} has length != {dim}")
        c = coeff if isinstance(coeff, GRat) else GRat(coeff)
        return cls(dim, {gamma: c} if c else {})

    def __repr__(self):
        from .render import render_kernel

        return f"Kernel({render_kernel(self)!r})"

    def classify(self) -> str:
        """Symmetry class by derivative parity; the zero kernel is symmetric."""
        has_even = any(mi_order(g) % 2 == 0 for g in self.terms)
        has_odd = any(mi_order(g) % 2 == 1 for g in self.terms)
        if has_even and has_odd:
            return MIXED
        if has_odd:
            return ANTISYMMETRIC
        return SYMMETRIC

    def transpose(self) -> "Kernel":
        """P(b,a) expressed on the original label order: c_gamma -> (-1)^|gamma| c_gamma."""
        return Kernel(self.dim, {
            g: (c if mi_order(g) % 2 == 0 else -c) for g, c in self.terms.items()
        })


class MixedKernelError(ValueError):
    """A bracket or star product was requested with a mixed-parity kernel."""


def bracket_sign(kernel: Kernel) -> int:
    """Sign branch selection: -1 for symmetric kernels, +1 for antisymmetric."""
    cls = kernel.classify()
    if cls == SYMMETRIC:
        return -1
    if cls == ANTISYMMETRIC:
        return +1
    raise MixedKernelError(
        "mixed-parity kernel: split into symmetric and antisymmetric parts first")
