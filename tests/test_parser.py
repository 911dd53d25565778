import random
from itertools import permutations

import pytest

from fieldstar.jets import FieldExpr, complex_system, real_system
from fieldstar.kernels import MIXED, Kernel
from fieldstar.parser import ParseError, parse_expr, parse_kernel
from fieldstar.randexpr import random_expr
from fieldstar.rationals import GRat, I
from fieldstar.render import (
    dumps_canonical,
    render_field_expr,
    render_kernel,
    to_json,
)
from fieldstar.session import SessionConfig

CFG1 = SessionConfig(real_system(1))
CFG3 = SessionConfig(real_system(3))


def test_jet_shorthand_and_indexed_forms():
    assert parse_expr("phi", CFG3) == FieldExpr.jet("phi", (0, 0, 0))
    assert parse_expr("phi[0,0,1]", CFG3) == FieldExpr.jet("phi", (0, 0, 1))


def test_kg_density_parses():
    f = parse_expr("1/2*(pi^2 + d1(phi)^2 + m^2*phi^2) + U(phi)", CFG1)
    assert f.eval_at_origin().is_zero()
    assert ("phi", (1,)) in f.jet_variables("phi")


def test_derivative_and_laplacian_sugar():
    assert parse_expr("d1(phi)", CFG1) == FieldExpr.jet("phi", (1,))
    lap = parse_expr("laplacian(phi)", CFG3)
    expected = sum((FieldExpr.jet("phi", idx)
                    for idx in ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
                   FieldExpr.zero(3))
    assert lap == expected


def test_function_symbols_with_primes():
    assert parse_expr("U'(phi)", CFG1) \
        == FieldExpr.function("U", "phi", 1, order=1)
    assert parse_expr("U''(phi)", CFG1) \
        == FieldExpr.function("U", "phi", 1, order=2)


def test_imaginary_unit_and_rationals():
    e = parse_expr("i*phi + 3/2", CFG1)
    assert e == FieldExpr.jet("phi", (0,)).scale(I) \
        + FieldExpr.const(GRat(3) / GRat(2), 1)


def test_kernel_grammar():
    assert parse_kernel("delta", CFG1) == Kernel.delta(1)
    assert parse_kernel("d1 delta", CFG1) == Kernel.derivative_delta(1, (1,))
    mixed = parse_kernel("delta + 2*d1 delta", CFG1)
    assert mixed.classify() == MIXED
    assert parse_kernel("i*delta", CFG1) == Kernel.delta(1, I)
    assert parse_kernel("d1^2 d3 delta", CFG3) \
        == Kernel.derivative_delta(3, (2, 0, 1))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_expr("phi +", CFG1)
    with pytest.raises(ParseError):
        parse_expr("unknown_name", CFG1)
    with pytest.raises(ParseError):
        parse_expr("phi[0", CFG1)
    with pytest.raises(ParseError):
        parse_expr("d9(phi)", CFG1)


# one digit past Python's 4,300-digit limit on int() of a string
LONG = "1" * 4301


@pytest.mark.parametrize("text", [
    LONG + "*phi",
    "1/" + LONG + "*phi",
    "phi[" + LONG + "]",
    "d" + LONG + "(phi)",
])
def test_literal_past_the_int_digit_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="number is too long"):
        parse_expr(text, CFG1)


@pytest.mark.parametrize("text", [LONG + "*delta", "d" + LONG + " delta"])
def test_kernel_literal_past_the_int_digit_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="number is too long"):
        parse_kernel(text, CFG1)


@pytest.mark.parametrize("text", ["0", "2*", "d1", "delta +"])
def test_kernel_term_without_delta_says_so(text):
    with pytest.raises(ParseError, match="kernel term must end in 'delta'"):
        parse_kernel(text, CFG1)


# 150 jet variables: their square has C(151, 2) = 11,325 terms
WIDE = "+".join(f"phi[{j}]" for j in range(150))


@pytest.mark.parametrize("text", [
    "(phi+pi+phi[1]+pi[1])^100",
    "(phi+pi)^100*(phi+pi)^100",
    f"({WIDE})^2",
    f"({WIDE})*({WIDE})",
])
def test_expansion_past_the_term_bound_is_a_parse_error(text):
    with pytest.raises(ParseError, match="expansion exceeds 10000 terms"):
        parse_expr(text, CFG1)


def test_expansion_at_the_term_bound_parses():
    # 100 x 100 terms bound the product; it has 199
    assert len(parse_expr("(phi+pi)^99*(phi+pi)^99", CFG1).terms) == 199


def test_library_power_is_not_bounded():
    base = parse_expr(WIDE, CFG1)
    assert len((base ** 2).terms) == 11_325


def test_render_parse_round_trip_on_random_corpus():
    rng = random.Random(23)
    for dim, cfg in ((1, CFG1), (3, CFG3)):
        system = real_system(dim)
        for _ in range(50):
            expr = random_expr(system, rng, max_degree=3, max_jet_order=2,
                               terms=4, constants=("m", "kappa"),
                               functions=(("U", "phi"),))
            text = render_field_expr(expr)
            assert parse_expr(text, cfg) == expr


def test_render_parse_round_trip_complex_sorts():
    rng = random.Random(29)
    system = complex_system(2)
    cfg = SessionConfig(system)
    for _ in range(30):
        expr = random_expr(system, rng, max_degree=3, max_jet_order=1, terms=3)
        assert parse_expr(render_field_expr(expr), cfg) == expr


def test_kernel_render_round_trip():
    rng = random.Random(31)
    from fieldstar.randexpr import multi_indices, random_coeff

    for _ in range(30):
        P = Kernel.zero(2)
        for _ in range(rng.randint(1, 3)):
            P = P + Kernel.derivative_delta(2, rng.choice(multi_indices(2, 3)),
                                            random_coeff(rng))
        if P.is_zero():
            continue
        assert parse_kernel(render_kernel(P), SessionConfig(real_system(2))) == P


def test_canonical_json_is_deterministic():
    f = parse_expr("i*phi^2 + 1/2*pi", CFG1)
    g = parse_expr("1/2*pi + i*phi^2", CFG1)
    assert dumps_canonical(to_json(f)) == dumps_canonical(to_json(g))
    assert '"kind":"expr"' in dumps_canonical(to_json(f))


def test_rendering_does_not_depend_on_term_order():
    # phi[2,0,0]*pi[2,0,0] completes both the laplacian(pi) group of
    # phi[2,0,0] and the laplacian(phi) group of pi[2,0,0]
    f = parse_expr("phi[2,0,0]*(pi[2,0,0]+pi[0,2,0]+pi[0,0,2])"
                   " + (phi[0,2,0]+phi[0,0,2])*pi[2,0,0]", CFG3)
    items = list(f.terms.items())
    assert len(items) == 5
    rendered = {render_field_expr(FieldExpr(3, dict(order)))
                for order in permutations(items)}
    assert rendered == {"phi[2,0,0]*laplacian(pi) + phi[0,0,2]*pi[2,0,0]"
                        " + phi[0,2,0]*pi[2,0,0]"}


def test_zero_renders_as_zero():
    assert render_field_expr(FieldExpr.zero(1)) == "0"
    assert render_kernel(Kernel.zero(1)) == "0"
