import random

import pytest

from fieldstar.jets import (
    ConditionBError,
    DimensionMismatch,
    FieldExpr,
    FieldSystem,
    complex_system,
    mi_add,
    mi_order,
    mi_unit,
    real_system,
)
from fieldstar.rationals import GRat, I
from fieldstar.randexpr import random_expr


def u(index=(0,), dim=None):
    return FieldExpr.jet("phi", index, dim)


def xi(index=(0,), dim=None):
    return FieldExpr.jet("pi", index, dim)


def test_multi_index_helpers():
    assert mi_unit(3, 2) == (0, 1, 0)
    assert mi_add((1, 0, 2), (0, 1, 0)) == (1, 1, 2)
    assert mi_order((2, 0, 1)) == 3


def test_field_system_is_one_conjugate_pair():
    system = FieldSystem(2, "phi", "pi")
    assert (system.partner("phi"), system.partner("pi")) == ("pi", "phi")
    assert system.sort_names() == ["phi", "pi"]
    assert FieldSystem(1, "pi", "phi").sort_names() == ["phi", "pi"]
    assert complex_system(1).sort_names() == ["psi", "psibar"]
    with pytest.raises(KeyError):
        system.partner("chi")


@pytest.mark.parametrize("args,message", [
    ((1, "phi", "phi"), "field 'phi' cannot be paired with itself"),
    ((0, "phi", "pi"), "dimension must be >= 1"),
])
def test_field_system_refuses_self_pairing_and_dimension_below_one(args,
                                                                   message):
    with pytest.raises(ValueError, match=message):
        FieldSystem(*args)


def test_ring_axioms_on_small_expressions():
    a, b = u(), xi()
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b) ** 2 == a * a + a * b.scale(2) + b * b
    assert a - a == FieldExpr.zero(1)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        u((0,)) * u((0, 0))


def test_jet_partial_selects_exact_variable():
    f = u((1,)) * u((1,)) + u((0,))
    assert f.jet_partial("phi", (1,)) == u((1,)).scale(2)
    assert f.jet_partial("phi", (0,)) == FieldExpr.const(1, 1)
    assert f.jet_partial("pi", (0,)).is_zero()


def test_total_derivative_prolongs_indices():
    f = u((0,)) * u((1,))
    df = f.total_derivative(1)
    expected = u((1,)) * u((1,)) + u((0,)) * u((2,))
    assert df == expected


def test_total_derivative_is_a_derivation():
    rng = random.Random(5)
    system = real_system(2)
    for _ in range(10):
        f = random_expr(system, rng, max_degree=3, max_jet_order=1)
        g = random_expr(system, rng, max_degree=3, max_jet_order=1)
        d = random.choice((1, 2))
        lhs = (f * g).total_derivative(d)
        rhs = f.total_derivative(d) * g + f * g.total_derivative(d)
        assert lhs == rhs


def test_mixed_total_derivatives_commute():
    rng = random.Random(9)
    system = real_system(2)
    for _ in range(5):
        f = random_expr(system, rng, max_degree=3, max_jet_order=2)
        assert f.total_derivative(1).total_derivative(2) \
            == f.total_derivative(2).total_derivative(1)


def test_jet_partial_total_derivative_commutator():
    # [d/du_a, D_i] f = df/du_{a - e_i} (zero when the index cannot shift)
    rng = random.Random(13)
    system = real_system(1)
    for _ in range(10):
        f = random_expr(system, rng, max_degree=3, max_jet_order=2)
        for alpha in ((0,), (1,), (2,)):
            lhs = f.total_derivative(1).jet_partial("phi", alpha) \
                - f.jet_partial("phi", alpha).total_derivative(1)
            shifted = tuple(a - b for a, b in zip(alpha, (1,)))
            expected = f.jet_partial("phi", shifted) if min(shifted) >= 0 \
                else FieldExpr.zero(1)
            assert lhs == expected


def test_function_symbol_chain_rule():
    U = FieldExpr.function("U", "phi", 1)
    dU = U.total_derivative(1)
    U1 = FieldExpr.function("U", "phi", 1, order=1)
    assert dU == U1 * u((1,))
    assert U.jet_partial("phi", (0,)) == U1
    assert U.jet_partial("phi", (1,)).is_zero()


def test_condition_b_evaluation():
    assert (u() * xi()).eval_at_origin().is_zero()
    assert (u() + FieldExpr.const(GRat(2), 1)).eval_at_origin() \
        == FieldExpr.const(2, 1)
    vanishing = FieldExpr.function("U", "phi", 1, order=2)
    assert vanishing.eval_at_origin().is_zero()
    # a constant symbol survives at the origin as a symbol, not as 1
    m = FieldExpr.const_symbol("m", 1)
    assert (m * u() + m - FieldExpr.const(1, 1)).eval_at_origin() \
        == m - FieldExpr.const(1, 1)
    assert not m.eval_at_origin().is_zero()
    unknown = FieldExpr.function("V", "phi", 1, order=0, vanishes=False)
    with pytest.raises(ConditionBError):
        unknown.eval_at_origin()
    deep = FieldExpr.function("U", "phi", 1, order=3)
    with pytest.raises(ConditionBError):
        deep.eval_at_origin()


def test_condition_b_term_vanishes_with_any_vanishing_factor():
    # function atoms sort before jets, so the unknown factor is met first;
    # the term still vanishes at the origin
    deep = FieldExpr.function("U", "phi", 1, order=3)
    assert (deep * u()).eval_at_origin().is_zero()
    assert (u() * deep).eval_at_origin().is_zero()
    # A (unflagged) sorts before U (flagged), and U vanishes
    A = FieldExpr.function("A", "phi", 1, vanishes=False)
    U = FieldExpr.function("U", "phi", 1)
    assert (A * U).eval_at_origin().is_zero()
    # with no vanishing factor, the unknown one is still reported
    m = FieldExpr.const_symbol("m", 1)
    with pytest.raises(ConditionBError, match="value of U"):
        (m * deep + u()).eval_at_origin()


def test_jet_variables_reports_funcsym_argument():
    f = u((1,)) * FieldExpr.function("U", "phi", 1)
    assert ("phi", (1,)) in f.jet_variables("phi")
    assert ("phi", (0,)) in f.jet_variables("phi")


def test_conjugation_swaps_sorts_and_coefficients():
    system = complex_system(1)
    z = FieldExpr.jet("psi", (0,))
    zb = FieldExpr.jet("psibar", (0,))
    f = z.scale(I) + zb * zb
    assert f.conjugate(system) == zb.scale(-I) + z * z


def test_total_derivative_multi_with_negation():
    f = u((0,)) ** 2
    plain = f.total_derivative(1).total_derivative(1)
    assert f.total_derivative_multi((2,)) == plain
    assert f.total_derivative_multi((2,), negate=True) == plain
    assert f.total_derivative_multi((1,), negate=True) == -f.total_derivative(1)


def test_term_dict_values_keep_slots_and_their_class():
    from fieldstar.euler_lagrange import ELOperator
    from fieldstar.kernels import Kernel
    from fieldstar.peierls import TrigPoly
    from fieldstar.star import HbarSeries, star_fn
    from fieldstar.tensor import TensorExpr

    values = [FieldExpr.zero(1), Kernel.zero(1), TensorExpr.zero(1),
              ELOperator.zero(1, "x"), HbarSeries.zero(1), TrigPoly.zero(0)]
    for value in values:
        assert not hasattr(value, "__dict__")
        assert not value
    # equal (empty) terms, but different classes
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and b != a
    assert u() and Kernel.delta(1) and TrigPoly.monomial(a=1)
    # a series keeps its order and exactness through sums
    S = star_fn(u() * u(), xi() * xi(), Kernel.delta(1), real_system(1))
    assert S and S.exact and S.order == 6 and (S - S).is_zero()
    T = HbarSeries(1, {0: S.coefficient(0)}, order=2, exact=False)
    for total in (S + T, T + S):
        assert total.order == 2 and not total.exact
    assert (S + S).exact and (S + S).order == 6
    assert ELOperator.zero(1, "x") != ELOperator.zero(1, "y")
    with pytest.raises(ValueError):
        ELOperator.identity(1, "x") + ELOperator.identity(1, "y")
    with pytest.raises(DimensionMismatch):
        Kernel.delta(1) + Kernel.delta(2)
