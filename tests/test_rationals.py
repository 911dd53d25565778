import operator
import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, strategies as st
from sympy.polys.domains import QQ, QQ_I

import fieldstar
from fieldstar.rationals import GRat, I, ONE, ZERO

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
grats = st.builds(GRat, rationals, rationals)
# wider parts, so that sums and products have common factors to cancel
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                              max_denominator=10**4)
wide_grats = st.builds(GRat, wide_rationals, wide_rationals | st.just(0))


def fields(z: GRat) -> tuple:
    return (z._a, z._b, z._d)


def assert_normalized(z: GRat):
    a, b, d = fields(z)
    assert d > 0 and gcd(a, b, d) == 1


def to_qq_i(z: GRat):
    return QQ_I(QQ(z.re.numerator, z.re.denominator),
                QQ(z.im.numerator, z.im.denominator))


def from_qq_i(q) -> GRat:
    return GRat(Fraction(int(q.x.numerator), int(q.x.denominator)),
                Fraction(int(q.y.numerator), int(q.y.denominator)))


def test_constructor_coerces_ints_and_fractions():
    assert GRat(3) == 3
    assert GRat(Fraction(1, 2)).re == Fraction(1, 2)
    assert GRat(1, 2) == GRat(Fraction(1), Fraction(2))


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == GRat(-1)


def test_field_operations():
    a = GRat(Fraction(1, 2), Fraction(3, 4))
    b = GRat(Fraction(-2), Fraction(1, 3))
    assert a + b == GRat(Fraction(-3, 2), Fraction(13, 12))
    assert a - a == ZERO
    assert a * ONE == a
    assert (a / b) * b == a


def test_conjugate_and_abs_square():
    a = GRat(2, 3)
    assert a.conjugate() == GRat(2, -3)
    assert a * a.conjugate() == GRat(13)


def test_truthiness_and_zero():
    assert not ZERO
    assert bool(I)
    assert GRat(0, 1) != ZERO


def test_complex_coercion():
    assert complex(GRat(Fraction(1, 2), Fraction(-3))) == 0.5 - 3j


@given(grats, grats, grats)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(grats)
def test_additive_inverse(a):
    assert a + (-a) == ZERO


@given(grats, grats)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_hash_consistent_with_equality():
    assert hash(GRat(2)) == hash(2)
    assert len({GRat(1, 0), GRat(Fraction(1)), 1}) == 1


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@given(wide_grats, wide_grats)
def test_field_operations_match_sympy_gaussian_rationals(op, a, b):
    assume(op is not operator.truediv or b)
    result = op(a, b)
    assert result == from_qq_i(op(to_qq_i(a), to_qq_i(b)))
    assert_normalized(result)


@given(wide_grats)
def test_negation_and_conjugate_match_sympy(a):
    assert -a == from_qq_i(-to_qq_i(a))
    conj = sympy.conjugate(QQ_I.to_sympy(to_qq_i(a)))
    assert a.conjugate() == from_qq_i(QQ_I.from_sympy(conj))
    assert_normalized(-a)
    assert_normalized(a.conjugate())


@given(wide_grats, st.sampled_from((0, 1, -1)) | st.integers(-10**6, 10**6))
def test_int_product_equals_grat_product_in_normal_form(a, k):
    for product in (a * k, k * a):
        assert fields(product) == fields(a * GRat(k))
        assert_normalized(product)


@given(wide_grats, wide_grats)
def test_equal_values_have_identical_fields_and_hashes(a, b):
    assume(b)
    for same in (a + b - b, a * b / b, (a / b) * b, -(-a),
                 a.conjugate().conjugate(), GRat(a.re, a.im)):
        assert fields(same) == fields(a)
        assert hash(same) == hash(a)


@given(wide_rationals)
def test_hash_matches_the_fraction_it_equals(q):
    assert GRat(q) == q and hash(GRat(q)) == hash(q)
    assert hash(GRat(q.numerator)) == hash(q.numerator)
    other = Fraction(q.numerator, q.denominator + 1)
    assert (GRat(q) == other) == (q == other)
    assert (GRat(q) == q.numerator) == (q == q.numerator)
    assert GRat(q, 1) != q


MODULUS = sys.hash_info.modulus


@pytest.mark.parametrize("x", [
    0, 1, -1, -2, 10**30, -10**30, Fraction(-1, 1), Fraction(-7, 3),
    Fraction(1, MODULUS), Fraction(-1, MODULUS), Fraction(3, 2 * MODULUS),
    Fraction(-5, 7 * MODULUS), Fraction(MODULUS - 1, MODULUS + 1),
    Fraction(-(MODULUS + 2), MODULUS - 1), Fraction(-(MODULUS + 2), 2)])
def test_hash_follows_the_numeric_hash_at_its_edges(x):
    # -1 hashes to -2 (as -(P + 2)/2 would), and a denominator that is a
    # multiple of the modulus has no inverse modulo it
    assert hash(GRat(x)) == hash(x)


@given(wide_grats)
def test_equal_complex_values_hash_equal(z):
    assume(z._b)
    assert hash(GRat(z.re, z.im)) == hash(z * GRat(0, 1) * GRat(0, -1))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_fraction_parts_equal_the_value_built_from_ints(p, q, r, s):
    from_fractions = GRat(Fraction(p, q), Fraction(r, s))
    from_ints = GRat(p) / GRat(q) + GRat(0, r) / GRat(s)
    assert fields(from_fractions) == fields(from_ints)
    assert from_fractions.re == Fraction(p, q)
    assert from_fractions.im == Fraction(r, s)


def test_constructor_accepts_strings():
    assert GRat("3/6", "-2") == GRat(Fraction(1, 2), -2)


def test_division_by_zero_raises():
    a = GRat(2, 3)
    with pytest.raises(ZeroDivisionError):
        a / ZERO
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(ZeroDivisionError):
        ONE / GRat(Fraction(0), Fraction(0))


def test_attributes_cannot_be_assigned():
    a = GRat(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
    with pytest.raises(AttributeError):
        del a._d
    assert fields(a) == (1, 2, 1)


@pytest.fixture
def fraction_calls(monkeypatch):
    """Records every Fraction constructed while the fixture is active."""
    calls = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return calls


def test_arithmetic_creates_no_fraction(fraction_calls):
    a, b = GRat(Fraction(1, 2), Fraction(-3, 4)), GRat(5, 7)
    fraction_calls.clear()
    z = (a + b) * (a - b) / (-b) + 3 - a.conjugate() * 2
    assert z and z != a and GRat(7, -2) == GRat(7, -2)
    assert len({a, b, z, a.conjugate(), GRat(5, 7) / 3}) == 5
    assert fraction_calls == []


def test_star_products_create_no_fraction(fraction_calls):
    # sigma_terms folds 1/k! into its coefficients, and both closed-form
    # tails scale by binom(k, i)/k!
    system = fieldstar.real_system(1)
    phi = fieldstar.FieldExpr.jet("phi", (0,))
    pi = fieldstar.FieldExpr.jet("pi", (0,))
    dphi = fieldstar.FieldExpr.jet("phi", (1,))
    P = fieldstar.Kernel.delta(1)
    series = fieldstar.star_fn(phi * phi * phi + dphi, pi * pi * phi, P,
                               system, order=6)
    F = fieldstar.Functional(phi * phi + dphi * pi, system)
    G = fieldstar.Functional(pi * pi, system)
    fieldstar.star_functional_density(F, pi * pi, P, system, order=4,
                                      cross_check=True)
    fieldstar.star_functionals(F, G, P, system, order=4, cross_check=True)
    assert series.exact and fraction_calls == []
