import random
from fractions import Fraction

import pytest

from fieldstar.jets import (
    DimensionMismatch,
    FieldExpr,
    complex_system,
    mi_unit,
    real_system,
)
from fieldstar.kernels import Kernel
from fieldstar.poisson import (
    ConditionBViolation,
    Functional,
    LabelCollision,
    bracket_fn,
    bracket_tensor,
    bracket_functional_density,
    bracket_functionals,
    functional_null,
    jacobi_residual,
)
from fieldstar.randexpr import random_density, random_expr
from fieldstar.rationals import GRat, I
from fieldstar.sigma import sigma_terms
from fieldstar.tensor import TensorExpr
from fieldstar.verify import default_kernels
from reference import _factor


def u(index=(0,), dim=None):
    return FieldExpr.jet("phi", index, dim)


def xi(index=(0,), dim=None):
    return FieldExpr.jet("pi", index, dim)


SYS1 = real_system(1)


def test_basic_brackets_with_delta():
    P = Kernel.delta(1)
    assert bracket_fn(u(), xi(), P, SYS1) == TensorExpr.from_kernel(P, "x", "y")
    assert bracket_fn(xi(), u(), P, SYS1) == TensorExpr.from_kernel(
        P.scale(-1), "x", "y")
    assert bracket_fn(u(), u(), P, SYS1).is_zero()
    assert bracket_fn(xi(), xi(), P, SYS1).is_zero()


def test_basic_brackets_with_imaginary_delta():
    P = Kernel.delta(1, I)
    assert bracket_fn(u(), xi(), P, SYS1) == TensorExpr.from_kernel(P, "x", "y")
    assert bracket_fn(xi(), u(), P, SYS1) == TensorExpr.from_kernel(
        P.scale(-1), "x", "y")


def test_basic_brackets_with_derivative_kernel():
    P = Kernel.derivative_delta(1, (1,))
    # antisymmetric kernel: both orders give +P
    assert bracket_fn(u(), xi(), P, SYS1) == TensorExpr.from_kernel(P, "x", "y")
    assert bracket_fn(xi(), u(), P, SYS1) == TensorExpr.from_kernel(P, "x", "y")


def test_bracket_is_bilinear_and_leibniz_in_each_slot():
    P = Kernel.delta(1)
    f, g, h = u() ** 2, xi(), u() * xi()
    assert bracket_fn(f + g, h, P, SYS1) \
        == bracket_fn(f, h, P, SYS1) + bracket_fn(g, h, P, SYS1)
    lhs = bracket_fn(f * g, h, P, SYS1)
    rhs = TensorExpr.from_field(f, "x") * bracket_fn(g, h, P, SYS1) \
        + TensorExpr.from_field(g, "x") * bracket_fn(f, h, P, SYS1)
    assert lhs == rhs


def _first_power_of_split(T, a, b, P, system):
    for term in sigma_terms([(_factor(T, a), a, b)], P, system):
        return term
    return TensorExpr.zero(T.dim)


def test_brackets_match_the_operator_on_the_split_product():
    # bracket_fn and bracket_tensor hand the operator their one product;
    # splitting the whole product instead must give the same brackets
    rng = random.Random(6)
    for dim in (1, 3):
        system = real_system(dim)
        e1 = (1,) + (0,) * (dim - 1)
        real = [Kernel.delta(dim), Kernel.derivative_delta(dim, e1)]
        for complex_ok, kernels in ((False, real),
                                    (True, default_kernels(dim))):
            for P in kernels:
                f, g, h = (random_expr(system, rng, 3, 1,
                                       complex_ok=complex_ok)
                           for _ in range(3))
                fx, gy = TensorExpr.from_field(f, "x"), \
                    TensorExpr.from_field(g, "y")
                T = bracket_fn(f, g, P, system)
                assert T == _first_power_of_split(fx * gy, "x", "y", P,
                                                  system)
                hT = TensorExpr.from_field(h, "z") * T
                expected = TensorExpr.zero(dim)
                for label in sorted(T.labels()):
                    expected = expected + _first_power_of_split(
                        hT, "z", label, P, system)
                assert not expected.is_zero()
                assert bracket_tensor(h, "z", T, P, system) == expected


def test_label_collision_rejected():
    with pytest.raises(LabelCollision):
        bracket_fn(u(), xi(), Kernel.delta(1), SYS1, "x", "x")


def test_operands_of_different_dimensions_rejected():
    # the operator gets the two factors unmultiplied, so the dimension
    # check that the product made must still happen
    u3 = u((0, 0, 0), 3)
    T3 = TensorExpr.from_field(u3, "y")
    with pytest.raises(DimensionMismatch):
        bracket_fn(u(), xi((0, 0, 0), 3), Kernel.delta(1), SYS1)
    with pytest.raises(DimensionMismatch):
        bracket_fn(u3, xi(), Kernel.delta(1), SYS1)
    with pytest.raises(DimensionMismatch):
        bracket_tensor(xi(), "x", T3, Kernel.delta(1), SYS1)
    with pytest.raises(DimensionMismatch):
        bracket_tensor(xi(), "x", TensorExpr.const(1, 3), Kernel.delta(1),
                       SYS1)
    with pytest.raises(DimensionMismatch):
        bracket_fn(u(), xi(), Kernel.delta(1), real_system(3))


def test_jacobi_identity_exact_on_random_triples():
    rng = random.Random(2)
    for P in default_kernels(1):
        for _ in range(5):
            f, g, h = (random_expr(SYS1, rng, max_degree=3, max_jet_order=1)
                       for _ in range(3))
            assert jacobi_residual(f, g, h, P, SYS1).is_zero()


def test_jacobi_identity_complex_pairing():
    rng = random.Random(4)
    system = complex_system(1)
    for P in default_kernels(1):
        for _ in range(3):
            f, g, h = (random_expr(system, rng, max_degree=3, max_jet_order=1)
                       for _ in range(3))
            assert jacobi_residual(f, g, h, P, system).is_zero()


def test_functional_rejects_condition_b_violation():
    with pytest.raises(ConditionBViolation):
        Functional(u() + FieldExpr.const(GRat(1), 1), SYS1)
    Functional(u() * xi(), SYS1)  # fine


def test_constant_symbols_do_not_vanish_at_the_origin():
    m = FieldExpr.const_symbol("m", 1)
    kappa = FieldExpr.const_symbol("kappa", 1)
    assert not functional_null(m - kappa, SYS1)
    with pytest.raises(ConditionBViolation):
        Functional(m - FieldExpr.const(1, 1), SYS1)
    Functional(m * m * u() ** 2 + xi() ** 2, SYS1)  # fine


def test_functional_equality_modulo_divergence():
    f = u() * u((1,))           # = D(phi^2)/2, a total divergence
    assert functional_null(f, SYS1)
    F = Functional(u() ** 2, SYS1)
    G = Functional(u() ** 2 + f.scale(GRat(3)), SYS1)
    assert F == G
    assert F != Functional(u() ** 2 + xi(), SYS1)


def test_functional_density_bracket_matches_hand_computation():
    # F = int phi*pi, P = delta: {F, pi} = pi, {F, phi} = -phi
    P = Kernel.delta(1)
    F = Functional(u() * xi(), SYS1)
    assert bracket_functional_density(F, xi(), P, SYS1) == xi()
    assert bracket_functional_density(F, u(), P, SYS1) == -u()


def test_functional_density_bracket_closed_form_cross_check():
    rng = random.Random(8)
    for P in default_kernels(1):
        for _ in range(5):
            F = Functional(random_density(SYS1, rng, max_degree=2,
                                          max_jet_order=1, terms=2), SYS1)
            g = random_expr(SYS1, rng, max_degree=2, max_jet_order=1, terms=2)
            bracket_functional_density(F, g, P, SYS1, cross_check=True)


def test_functional_functional_bracket():
    P = Kernel.delta(1)
    F = Functional(u() * xi(), SYS1)
    G = Functional(u() ** 2, SYS1)
    result = bracket_functionals(F, G, P, SYS1)
    assert result == Functional((u() ** 2).scale(-2), SYS1)


def test_antisymmetry_of_functional_bracket():
    rng = random.Random(21)
    for P in default_kernels(1):
        F = Functional(random_density(SYS1, rng, max_degree=2,
                                      max_jet_order=1, terms=2), SYS1)
        G = Functional(random_density(SYS1, rng, max_degree=2,
                                      max_jet_order=1, terms=2), SYS1)
        lhs = bracket_functionals(F, G, P, SYS1, cross_check=False)
        rhs = bracket_functionals(G, F, P, SYS1, cross_check=False)
        assert (lhs + rhs).is_null()


def test_density_functional_bracket_mirrors_functional_density():
    P = Kernel.delta(1)
    F = Functional(u() * xi(), SYS1)
    # {h, F}: the function-level bracket integrated over F's label
    lhs = bracket_fn(xi(), F.density, P, SYS1, "y", "x") \
        .integrate_out("x").to_field_expr("y")
    # {h, F} = -{F, h}
    rhs = -bracket_functional_density(F, xi(), P, SYS1)
    assert lhs == rhs


def test_three_dimensional_basic_bracket():
    sys3 = real_system(3)
    P = Kernel.delta(3, I)
    f = FieldExpr.jet("phi", (0, 0, 0))
    g = FieldExpr.jet("pi", (0, 0, 0))
    assert bracket_fn(f, g, P, sys3) == TensorExpr.from_kernel(P, "x", "y")
