"""``star_fn`` and ``bracket_fn`` against a model built in sympy alone.

Jets at the labels x and y become sympy symbols, and the kernel atom
d_x^g delta(x - y) of an operator power becomes the monomial t^g, with
t = (t1..t_dim).  For the pair (p, q) of the system the operator is

    D = sum over alpha, beta of (-1)^|beta| t^(alpha + beta)
          (d/dp_alpha(x) d/dq_beta(y) + s d/dq_alpha(x) d/dp_beta(y)),

where s is -1 for a kernel of even parity and +1 for one of odd parity,
and the sign (-1)^|beta| moves a derivative from y onto the x of the atom.
The coefficient of f * g at hbar^k (k >= 1) is P(t) D^k(f(x) g(y)) / k!
with P(t) the sum of c_g t^g; at hbar^0 it is f(x) g(y), and the bracket
is the hbar^1 coefficient.  The engine's outputs translate back by the
same map, each delta atom (x, y, g) to t^g.  Nothing here calls the
engine's sign or parity rules.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
import sympy

from fieldstar.jets import FieldExpr, complex_system, real_system
from fieldstar.kernels import Kernel
from fieldstar.poisson import bracket_fn
from fieldstar.rationals import GRat
from fieldstar.star import star_fn

ORDER = 3  # hbar^0..3; inputs of degree <= 2 end at hbar^2
KINDS = ("even", "i*even", "odd")


def _t(dim: int) -> list:
    return sympy.symbols(f"t1:{dim + 1}")


def _symbol(sort: str, index: tuple, label: str):
    return sympy.Symbol(f"{sort}_{'_'.join(map(str, index))}_{label}")


def _number(c: GRat):
    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _t_power(t: list, index: tuple):
    return sympy.Mul(*[ti ** n for ti, n in zip(t, index)])


def _indices(dim: int, top: int) -> list:
    return [i for i in product(range(top + 1), repeat=dim) if sum(i) <= top]


def _draw(rng: random.Random, i: int):
    """Trial i: (kind, dim, system, kernel as [(index, GRat)], s, f, g),
    with f and g as lists of (GRat, [(sort, index)]), jets of order <= 2
    and degree <= 2.  The trials take turns over dims 1 and 3, real and
    complex pairs and the three kinds of kernel.  The first term of f and
    of g holds one jet of each sort, so that hbar^2 can be nonzero."""
    kind, dim, complex_pair = KINDS[i % 3], (1, 3)[i % 2], bool(i // 2 % 2)
    system = complex_system(dim) if complex_pair else real_system(dim)
    sorts = (system.primary, system.conjugate)
    indices = _indices(dim, 2)

    def part():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))

    def number():
        return GRat(part(), part() if complex_pair else 0)

    def poly():
        jets = [(sort, rng.choice(indices)) for sort in sorts]
        terms = [(number(), jets)]
        for _ in range(rng.randint(0, 2)):
            terms.append((number(), [(rng.choice(sorts), rng.choice(indices))
                                     for _ in range(rng.randint(1, 2))]))
        return terms

    if kind == "odd":
        kernel = [((0,) * (dim - 1) + (1,), GRat(part()))]
    else:
        kernel = [((0,) * dim, GRat(part())),
                  ((2,) + (0,) * (dim - 1), GRat(part()))]
        if kind == "i*even":
            kernel = [(g, c * GRat(0, 1)) for g, c in kernel]
    s = 1 if kind == "odd" else -1
    return kind, dim, system, kernel, s, poly(), poly()


RNG = random.Random(2018)
TRIALS = [_draw(RNG, i) for i in range(10)]


def _field(spec, dim: int) -> FieldExpr:
    total = FieldExpr.zero(dim)
    for c, jets in spec:
        term = FieldExpr.const(c, dim)
        for sort, index in jets:
            term = term * FieldExpr.jet(sort, index, dim)
        total = total + term
    return total


def _model(spec, label: str):
    return sympy.Add(*[_number(c) * sympy.Mul(*[_symbol(sort, index, label)
                                                for sort, index in jets])
                       for c, jets in spec])


def _engine(T, t: list):
    """A TensorExpr in sympy: each delta atom (x, y, g) as t^g."""
    total = sympy.Integer(0)
    for (mon, deltas), c in T.terms.items():
        term = _number(c)
        for label, (_kind, sort, index) in mon:
            term *= _symbol(sort, index, label)
        for lo, hi, g in deltas:
            assert (lo, hi) == ("x", "y")
            term *= _t_power(t, g)
        total += term
    return total


def _operator(expr, p: str, q: str, s: int, dim: int, t: list):
    """D applied once, over the jets of order <= 2 that D^k can meet."""
    indices = _indices(dim, 2)
    out = sympy.Integer(0)
    for alpha in indices:
        for beta in indices:
            pair = sympy.diff(expr, _symbol(p, alpha, "x"),
                              _symbol(q, beta, "y")) \
                + s * sympy.diff(expr, _symbol(q, alpha, "x"),
                                 _symbol(p, beta, "y"))
            if pair != 0:
                out += (-1) ** sum(beta) * _t_power(t, alpha) \
                    * _t_power(t, beta) * pair
    return sympy.expand(out)


@pytest.mark.parametrize("trial", TRIALS, ids=[
    f"{i}-dim{trial[1]}-{trial[2].primary}-{trial[0]}"
    for i, trial in enumerate(TRIALS)])
def test_star_and_bracket_match_the_sympy_model(trial):
    _kind, dim, system, kernel, s, f_spec, g_spec = trial
    t = _t(dim)
    P = Kernel.zero(dim)
    for gamma, c in kernel:
        P = P + Kernel.derivative_delta(dim, gamma, c)
    f, g = _field(f_spec, dim), _field(g_spec, dim)
    P_t = sympy.Add(*[_number(c) * _t_power(t, gamma) for gamma, c in kernel])

    series = star_fn(f, g, P, system, "x", "y", ORDER)
    power = sympy.expand(_model(f_spec, "x") * _model(g_spec, "y"))
    assert sympy.expand(_engine(series.coefficient(0), t) - power) == 0
    for k in range(1, ORDER + 1):
        power = _operator(power, system.primary, system.conjugate, s, dim, t)
        expected = sympy.expand(P_t * power / factorial(k))
        assert sympy.expand(_engine(series.coefficient(k), t) - expected) == 0
        if k == 1:
            assert sympy.expand(
                _engine(bracket_fn(f, g, P, system), t) - expected) == 0
