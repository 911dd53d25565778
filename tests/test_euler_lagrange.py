import random

from fieldstar.euler_lagrange import (
    ELOperator,
    apply_dual,
    dual_derivative,
    duality_residual,
    el_power_duality_residual,
    variational_derivative,
)
from fieldstar.jets import FieldExpr, mi_unit, real_system
from fieldstar.randexpr import multi_indices, random_coeff, random_expr
from fieldstar.rationals import GRat


def u(index=(0,), dim=None):
    return FieldExpr.jet("phi", index, dim)


def xi(index=(0,), dim=None):
    return FieldExpr.jet("pi", index, dim)


def test_variational_derivative_of_kg_density():
    from fractions import Fraction

    dim = 1
    h = GRat(Fraction(1, 2))
    m = FieldExpr.const_symbol("m", dim)
    U = FieldExpr.function("U", "phi", dim)
    density = (xi() * xi() + m * m * u() * u() + u((1,)) * u((1,))).scale(h) + U
    grad_phi = variational_derivative(density, "phi")
    U1 = FieldExpr.function("U", "phi", dim, order=1)
    assert grad_phi == m * m * u() + U1 - u((2,))
    assert variational_derivative(density, "pi") == xi()


def test_variational_derivative_kills_total_divergences():
    rng = random.Random(3)
    system = real_system(2)
    for _ in range(10):
        f = random_expr(system, rng, max_degree=3, max_jet_order=1)
        div = f.total_derivative(1) + f.total_derivative(2)
        assert variational_derivative(div, "phi").is_zero()
        assert variational_derivative(div, "pi").is_zero()


def test_dual_operator_applies_signed_total_derivatives():
    dim = 1
    op = ELOperator.generator("phi", (1,), "x", dim)
    f = u() * u((1,))
    # jet partial by u_1 gives u, then -(D u) = -u_1
    assert apply_dual(op, f) == -u((1,))


def test_duality_residual_zero_for_random_operators():
    rng = random.Random(11)
    system = real_system(1)
    indices = multi_indices(1, 2)
    for _ in range(20):
        f = random_expr(system, rng, max_degree=3, max_jet_order=2)
        op = ELOperator.identity(1, "x")
        for _ in range(rng.randint(1, 3)):
            op = op.compose(ELOperator.generator(
                rng.choice(system.sort_names()), rng.choice(indices), "x", 1))
        op = op.scale(random_coeff(rng))
        assert duality_residual(op, f, "y").is_zero()


def test_duality_residual_zero_in_three_dimensions():
    rng = random.Random(12)
    system = real_system(3)
    indices = multi_indices(3, 1)
    for _ in range(5):
        f = random_expr(system, rng, max_degree=2, max_jet_order=1)
        op = ELOperator.generator("phi", rng.choice(indices), "x", 3)
        assert duality_residual(op, f, "y").is_zero()


def test_generator_power_duality():
    rng = random.Random(7)
    system = real_system(1)
    for power in (1, 2, 3):
        for index in ((0,), (1,), (2,)):
            f = random_expr(system, rng, max_degree=3, max_jet_order=2)
            residual = el_power_duality_residual(f, "phi", index, power,
                                                 "x", "y")
            assert residual.is_zero()


def test_dual_derivative_iterates_the_euler_operator():
    f = u() ** 3
    once = dual_derivative(f, "phi")
    assert once == (u() ** 2).scale(3)
    assert dual_derivative(f, "phi", 2) == u().scale(6)


def test_dual_derivative_power_takes_the_partials_jointly():
    # both pi[1]-partials first, then one (-D)^2 of their summed index;
    # applying the Euler operator twice would give 0
    f = u() * xi((1,)) * xi((1,))
    assert dual_derivative(f, "pi", 2) == u((2,)).scale(2)


def test_operator_algebra_composition():
    g1 = ELOperator.generator("phi", (1,), "x", 1)
    g2 = ELOperator.generator("pi", (0,), "x", 1)
    assert g1.compose(g2) == g2.compose(g1)
    assert (g1 + g2) - g2 == g1
