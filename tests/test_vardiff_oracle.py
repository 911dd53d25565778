"""``variational_derivative`` against sympy's ``euler_equations``.

On random 1-D polynomial densities in phi/pi with jets up to order 2, the
variational derivative by u must equal the Euler-Lagrange expression
dL/du - D dL/du' + D^2 dL/du''.  ``euler_equations`` drops an equation that
reduces to a constant (for 2*phi[1]*phi[2] + 3*pi[1] + 3*phi it gives []
for phi, although the answer is 3), so the oracle adds u*g(x), with g an
undefined function, and subtracts g(x) from the equation it returns.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.calculus.euler import euler_equations

from fieldstar.euler_lagrange import variational_derivative
from fieldstar.jets import FieldExpr
from fieldstar.rationals import GRat

SORTS = ("phi", "pi")
x = sympy.Symbol("x")
g = sympy.Function("g")(x)
FIELDS = {s: sympy.Function(s)(x) for s in SORTS}


def _jet_sympy(sort: str, order: int):
    return sympy.diff(FIELDS[sort], x, order) if order else FIELDS[sort]


def _coeff_sympy(c: GRat):
    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _to_sympy(expr: FieldExpr):
    total = sympy.Integer(0)
    for mon, c in expr.terms.items():
        term = _coeff_sympy(c)
        for _kind, sort, (order,) in mon:
            term *= _jet_sympy(sort, order)
        total += term
    return total


coefficients = st.builds(
    GRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)]))
jets = st.tuples(st.sampled_from(SORTS), st.integers(0, 2))
terms = st.tuples(coefficients, st.lists(jets, max_size=3))


def _density(spec) -> FieldExpr:
    density = FieldExpr.zero(1)
    for c, atoms in spec:
        term = FieldExpr.const(c, 1)
        for sort, order in atoms:
            term = term * FieldExpr.jet(sort, (order,))
        density = density + term
    return density


@settings(max_examples=60, deadline=None)
@given(st.lists(terms, min_size=1, max_size=5), st.sampled_from(SORTS))
def test_variational_derivative_matches_euler_equations(spec, sort):
    density = _density(spec)
    u = FIELDS[sort]
    (equation,) = euler_equations(_to_sympy(density) + u * g, [u], [x])
    expected = equation.lhs - equation.rhs - g
    ours = _to_sympy(variational_derivative(density, sort))
    assert sympy.expand(ours - expected) == 0


def test_constant_equation_is_kept_by_the_oracle():
    phi = FieldExpr.jet("phi", (0,))
    d1, d2 = FieldExpr.jet("phi", (1,)), FieldExpr.jet("phi", (2,))
    density = (d1 * d2).scale(2) + FieldExpr.jet("pi", (1,)).scale(3) \
        + phi.scale(3)
    assert variational_derivative(density, "phi") == FieldExpr.const(3, 1)
    u = FIELDS["phi"]
    assert euler_equations(_to_sympy(density), [u], [x]) == []
    (equation,) = euler_equations(_to_sympy(density) + u * g, [u], [x])
    assert sympy.expand(equation.lhs - equation.rhs - g) == 3
