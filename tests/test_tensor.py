from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from fieldstar.jets import FieldExpr
from fieldstar.kernels import Kernel
from fieldstar.rationals import GRat, I
from fieldstar.tensor import NonIntegrableTerm, TensorExpr, delta_atom


def u(index=(0,)):
    return FieldExpr.jet("phi", index)


def xi(index=(0,)):
    return FieldExpr.jet("pi", index)


# function atoms that differ only in their argument sort or vanishing flag
FACTORS = (
    FieldExpr.function("U", "phi", 1),
    FieldExpr.function("U", "pi", 1),
    FieldExpr.function("U", "pi", 1, order=1),
    FieldExpr.function("U", "phi", 1, vanishes=False),
    FieldExpr.jet("pi", (1,)) + FieldExpr.const(GRat(1, 2), 1),
)


def test_function_atoms_of_both_sorts_commute():
    U_phi, U_pi = FACTORS[:2]
    assert U_phi * U_pi == U_pi * U_phi
    assert (U_phi * U_pi - U_pi * U_phi).is_zero()


@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4),
       st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4))
def test_products_with_function_atoms_commute_and_cancel(us, vs):
    f, g = reduce(mul, us), reduce(mul, vs)
    assert f * g == g * f
    assert (f * g - g * f).is_zero()
    for a, b in (("x", "x"), ("x", "y"), ("y", "x")):
        F, G = TensorExpr.from_field(f, a), TensorExpr.from_field(g, b)
        assert F * G == G * F
        assert (F * G - G * F).is_zero()


def test_delta_atom_canonicalizes_label_order():
    atom, sign = delta_atom("x", "y", (0,))
    assert atom == ("x", "y", (0,)) and sign == 1
    atom2, sign2 = delta_atom("y", "x", (1,))
    assert atom2 == ("x", "y", (1,)) and sign2 == -1
    atom3, sign3 = delta_atom("y", "x", (2,))
    assert atom3 == ("x", "y", (2,)) and sign3 == 1


def test_coinciding_labels_rejected():
    with pytest.raises(ValueError):
        delta_atom("x", "x", (0,))


def test_product_merges_located_content():
    T = TensorExpr.from_field(u(), "x") * TensorExpr.from_field(xi(), "y")
    ((mon, deltas),) = T.terms
    assert deltas == ()
    assert set(lab for lab, _a in mon) == {"x", "y"}


def test_to_field_expr_requires_single_label():
    T = TensorExpr.from_field(u() * xi(), "x")
    assert T.to_field_expr("x") == u() * xi()
    bad = TensorExpr.from_field(u(), "x") * TensorExpr.from_field(u(), "y")
    with pytest.raises(ValueError):
        bad.to_field_expr("x")


def test_total_derivative_at_differentiates_kernel_with_sign():
    P = Kernel.delta(1)
    T = TensorExpr.from_kernel(P, "x", "y")
    dx = T.total_derivative_at("x", 1)
    dy = T.total_derivative_at("y", 1)
    assert dx == -dy
    assert not dx.is_zero()


def test_relabel_recanonicalizes_deltas():
    T = TensorExpr.from_kernel(Kernel.derivative_delta(1, (1,)), "y", "z")
    moved = T.relabel("z", "a")
    ((mon, deltas),) = moved.terms
    assert deltas[0][:2] == ("a", "y")
    # odd derivative order picks up the orientation sign
    assert moved.terms[(mon, deltas)] == -T.terms[next(iter(T.terms))]


def test_integrate_out_substitutes_partner_label():
    # int dx phi(x) delta(x-y) = phi(y)
    T = TensorExpr.from_field(u(), "x") * TensorExpr.from_kernel(
        Kernel.delta(1), "x", "y")
    result = T.integrate_out("x")
    assert result == TensorExpr.from_field(u(), "y")


def test_integrate_out_applies_parts_sign():
    # int dx phi(x) delta'(x-y) = -(D phi)(y): parts moves the derivative
    T = TensorExpr.from_field(u(), "x") * TensorExpr.from_kernel(
        Kernel.derivative_delta(1, (1,)), "x", "y")
    result = T.integrate_out("x")
    assert result == TensorExpr.from_field(-u().total_derivative(1), "y")


def test_integrate_out_second_slot_orientation():
    # the same integral with the kernel oriented (y, x)
    T = TensorExpr.from_field(u(), "x") * TensorExpr.from_kernel(
        Kernel.derivative_delta(1, (1,)), "y", "x")
    result = T.integrate_out("x")
    assert result == TensorExpr.from_field(u().total_derivative(1), "y")


def test_integrate_out_without_kernel_raises():
    T = TensorExpr.from_field(u(), "x")
    with pytest.raises(NonIntegrableTerm):
        T.integrate_out("x")


def test_jet_partial_at_touches_only_the_label():
    T = TensorExpr.from_field(u() ** 2, "x") * TensorExpr.from_field(u(), "y")
    dT = T.jet_partial_at("x", "phi", (0,))
    expected = TensorExpr.from_field(u().scale(2), "x") \
        * TensorExpr.from_field(u(), "y")
    assert dT == expected


def test_linear_combinations_cancel_exactly():
    T = TensorExpr.from_field(u(), "x").scale(I)
    assert (T - T).is_zero()
    assert (T + T) == T.scale(GRat(2))
