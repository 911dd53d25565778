"""``star_fn``, ``bracket_fn`` and ``bracket_tensor`` against a model built
in sympy alone.

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
same map, each delta atom (x, y, g) to t^g.

The nested bracket {h@z, {f@x, g@y}} takes one t vector per label pair,
t_xy, t_xz and t_yz.  The atom d_a^g delta(a - b) is u_ab^g, where u_ab
is t_ab for a pair in label order and -t_ba for one in reverse order,
which is the parity sign (-1)^|g|; the sign (-1)^|beta| of a derivative
from b is then u_ba^beta.  The outer bracket applies the operator on
(z, l) once for each label l of the inner one, whose t_xy atoms are
constants for it.  The grouped stars (f * g) * h and f * (g * h) take the
same vectors: each cross pair (a, b) of the two groups applies its own
exponential, whose power k carries one atom P(u_ab) and D on (a, b) k
times, over k!.  Nothing here calls the engine's sign or parity rules.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest
import sympy

from fieldstar.jets import FieldExpr, complex_system, real_system
from fieldstar.kernels import Kernel
from fieldstar.poisson import bracket_fn, bracket_tensor
from fieldstar.rationals import GRat
from fieldstar.star import star_fn, star_grouped, to_series

ORDER = 3  # hbar^0..3; inputs of degree <= 2 end at hbar^2
KINDS = ("even", "i*even", "odd")


def _vectors(dim: int, labels: str) -> tuple:
    """(t, u): the t vector of each label pair in order, and u_ab of each
    ordered pair, -t_ba in reverse order."""
    t, u = {}, {}
    for a, b in combinations(labels, 2):
        t[a, b] = u[a, b] = sympy.symbols(f"t{a}{b}_1:{dim + 1}")
        u[b, a] = [-ti for ti in t[a, b]]
    return t, u


def _symbol(sort: str, index: tuple, label: str):
    return sympy.Symbol(f"{sort}_{'_'.join(map(str, index))}_{label}")


def _number(c: GRat):
    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _t_power(t: list, index: tuple):
    return sympy.Mul(*[ti ** n for ti, n in zip(t, index)])


def _indices(dim: int, top: int) -> list:
    return [i for i in product(range(top + 1), repeat=dim) if sum(i) <= top]


def _draw(rng: random.Random, i: int, count: int = 2):
    """Trial i: (kind, dim, system, kernel as [(index, GRat)], s, and
    ``count`` polynomials f, g, ...), each a list of (GRat, [(sort,
    index)]), with jets of order <= 2 and degree <= 2.  The trials take
    turns over dims 1 and 3, real and complex pairs and the three kinds of
    kernel.  The first term of each polynomial holds one jet of each sort,
    so that hbar^2 can be nonzero."""
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
    return (kind, dim, system, kernel, s, *[poly() for _ in range(count)])


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


def _kernel(kernel, dim: int) -> Kernel:
    P = Kernel.zero(dim)
    for gamma, c in kernel:
        P = P + Kernel.derivative_delta(dim, gamma, c)
    return P


def _kernel_model(kernel, u: list):
    """The kernel's atom on an ordered pair: the sum of c_g u^g."""
    return sympy.Add(*[_number(c) * _t_power(u, gamma) for gamma, c in kernel])


def _engine(T, t: dict):
    """A TensorExpr in sympy: each delta atom (lo, hi, g) as t_lohi^g."""
    total = sympy.Integer(0)
    for (mon, deltas), c in T.terms.items():
        term = _number(c)
        for label, (_kind, sort, index) in mon:
            term *= _symbol(sort, index, label)
        for lo, hi, g in deltas:
            term *= _t_power(t[lo, hi], g)
        total += term
    return total


def _operator(expr, a: str, b: str, p: str, q: str, s: int, dim: int,
              u: dict):
    """D on the pair (a, b) applied once, over the jets of order <= 2 that
    D^k can meet, to an expression or to a sympy Poly whose generators
    include every jet and t symbol (which keeps products of three factors
    cheap)."""
    poly = isinstance(expr, sympy.Poly)
    jets = set(expr.gens) if poly else expr.free_symbols
    indices = _indices(dim, 2)
    out = expr * 0
    for sort_a, sort_b, c in ((p, q, 1), (q, p, s)):
        for alpha in indices:
            if (x := _symbol(sort_a, alpha, a)) not in jets:
                continue
            dx = expr.diff(x) * (c * _t_power(u[a, b], alpha))
            for beta in indices:
                if (y := _symbol(sort_b, beta, b)) in jets:
                    out += dx.diff(y) * _t_power(u[b, a], beta)
    return out if poly else sympy.expand(out)


@pytest.mark.parametrize("trial", TRIALS, ids=[
    f"{i}-dim{trial[1]}-{trial[2].primary}-{trial[0]}"
    for i, trial in enumerate(TRIALS)])
def test_star_and_bracket_match_the_sympy_model(trial):
    _kind, dim, system, kernel, s, f_spec, g_spec = trial
    t, u = _vectors(dim, "xy")
    P = _kernel(kernel, dim)
    f, g = _field(f_spec, dim), _field(g_spec, dim)
    P_t = _kernel_model(kernel, u["x", "y"])

    series = star_fn(f, g, P, system, "x", "y", ORDER)
    power = sympy.expand(_model(f_spec, "x") * _model(g_spec, "y"))
    assert sympy.expand(_engine(series.coefficient(0), t) - power) == 0
    for k in range(1, ORDER + 1):
        power = _operator(power, "x", "y", system.primary,
                          system.conjugate, s, dim, u)
        expected = sympy.expand(P_t * power / factorial(k))
        assert sympy.expand(_engine(series.coefficient(k), t) - expected) == 0
        if k == 1:
            assert sympy.expand(
                _engine(bracket_fn(f, g, P, system), t) - expected) == 0


NESTED_RNG = random.Random(1958)
NESTED = [_draw(NESTED_RNG, i, 3) for i in range(6)]


@pytest.mark.parametrize("trial", NESTED, ids=[
    f"{i}-dim{trial[1]}-{trial[2].primary}-{trial[0]}"
    for i, trial in enumerate(NESTED)])
def test_nested_bracket_matches_the_sympy_model(trial):
    _kind, dim, system, kernel, s, f_spec, g_spec, h_spec = trial
    t, u = _vectors(dim, "xyz")
    P = _kernel(kernel, dim)
    p, q = system.primary, system.conjugate
    inner = sympy.expand(_kernel_model(kernel, u["x", "y"]) * _operator(
        _model(f_spec, "x") * _model(g_spec, "y"), "x", "y", p, q, s, dim, u))
    H = _model(h_spec, "z") * inner
    outer = sympy.Add(*[
        _kernel_model(kernel, u["z", l]) * _operator(H, "z", l, p, q, s, dim, u)
        for l in "xy"])

    T = bracket_fn(_field(f_spec, dim), _field(g_spec, dim), P, system)
    assert sympy.expand(_engine(T, t) - inner) == 0
    nested = bracket_tensor(_field(h_spec, dim), "z", T, P, system)
    assert not nested.is_zero()
    assert sympy.expand(_engine(nested, t) - outer) == 0


GROUPED_RNG = random.Random(1954)
GROUPED = [_draw(GROUPED_RNG, i, 3) for i in range(4)]
GROUPED_ORDER = 2


@pytest.mark.parametrize("trial", GROUPED, ids=[
    f"{i}-dim{trial[1]}-{trial[2].primary}-{trial[0]}"
    for i, trial in enumerate(GROUPED)])
def test_grouped_stars_match_the_sympy_model(trial):
    _kind, dim, system, kernel, s, f_spec, g_spec, h_spec = trial
    t, u = _vectors(dim, "xyz")
    P = _kernel(kernel, dim)
    p, q = system.primary, system.conjugate
    f, g, h = (_field(spec, dim) for spec in (f_spec, g_spec, h_spec))
    fx, gy, hz = (_model(spec, label)
                  for spec, label in zip((f_spec, g_spec, h_spec), "xyz"))
    gens = sorted((fx * gy * hz).free_symbols, key=str) \
        + [ti for pair in sorted(t) for ti in t[pair]]

    def poly(expr):
        return sympy.Poly(expr, *gens, domain="QQ_I")

    def exp(series: dict, a: str, b: str) -> dict:
        # the exponential on the pair (a, b) of a series {n: coefficient}
        atom = poly(_kernel_model(kernel, u[a, b]))
        out: dict = {}
        for n, power in series.items():
            for k in range(GROUPED_ORDER - n + 1):
                if k:
                    power = _operator(power, a, b, p, q, s, dim, u)
                    term = atom * power * sympy.Rational(1, factorial(k))
                else:
                    term = power
                out[n + k] = out[n + k] + term if n + k in out else term
        return out

    fg = exp({0: poly(fx * gy)}, "x", "y")
    left = exp(exp({n: c * poly(hz) for n, c in fg.items()}, "x", "z"),
               "y", "z")
    gh = exp({0: poly(gy * hz)}, "y", "z")
    right = exp(exp({n: poly(fx) * c for n, c in gh.items()}, "x", "y"),
                "x", "z")
    K = GROUPED_ORDER
    engine_left = star_grouped(star_fn(f, g, P, system, "x", "y", K),
                               ["x", "y"], to_series(h, "z", K), ["z"],
                               P, system)
    engine_right = star_grouped(to_series(f, "x", K), ["x"],
                                star_fn(g, h, P, system, "y", "z", K),
                                ["y", "z"], P, system)
    for engine, model in ((engine_left, left), (engine_right, right)):
        assert not engine.coefficient(1).is_zero()
        for n in range(K + 1):
            assert poly(_engine(engine.coefficient(n), t)) == model[n]
