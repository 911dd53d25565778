import pytest

from fieldstar.kernels import (
    ANTISYMMETRIC,
    MIXED,
    SYMMETRIC,
    Kernel,
    MixedKernelError,
    bracket_sign,
)
from fieldstar.rationals import GRat, I


def test_classification_by_derivative_parity():
    assert Kernel.delta(1).classify() == SYMMETRIC
    assert Kernel.derivative_delta(1, (2,)).classify() == SYMMETRIC
    assert Kernel.derivative_delta(1, (1,)).classify() == ANTISYMMETRIC
    assert Kernel.derivative_delta(3, (1, 1, 1)).classify() == ANTISYMMETRIC
    mixed = Kernel.delta(1) + Kernel.derivative_delta(1, (1,), GRat(2))
    assert mixed.classify() == MIXED


def test_zero_kernel_is_symmetric_by_convention():
    assert Kernel.zero(2).classify() == SYMMETRIC
    assert Kernel.delta(1) - Kernel.delta(1) == Kernel.zero(1)


def test_bracket_sign_and_mixed_rejection():
    assert bracket_sign(Kernel.delta(1)) == -1
    assert bracket_sign(Kernel.derivative_delta(1, (1,))) == 1
    with pytest.raises(MixedKernelError):
        bracket_sign(Kernel.delta(1) + Kernel.derivative_delta(1, (1,)))


def test_transpose_flips_odd_orders():
    P = Kernel.delta(1) + Kernel.derivative_delta(1, (1,), GRat(3)) \
        + Kernel.derivative_delta(1, (2,), I)
    Pt = P.transpose()
    assert Pt.terms[(0,)] == GRat(1)
    assert Pt.terms[(1,)] == GRat(-3)
    assert Pt.terms[(2,)] == I
    assert Pt.transpose() == P


def test_symmetric_kernels_are_transpose_fixed():
    P = Kernel.delta(2, I) + Kernel.derivative_delta(2, (1, 1))
    assert P.transpose() == P
    A = Kernel.derivative_delta(2, (1, 0))
    assert A.transpose() == A.scale(-1)


def test_linear_structure():
    P = Kernel.delta(1, I)
    assert P.scale(GRat(2)).terms[(0,)] == GRat(0, 2)
    assert (-P + P).is_zero()
