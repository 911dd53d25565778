import random
from fractions import Fraction
from functools import lru_cache

import pytest

import fieldstar.sigma
import fieldstar.star
import fieldstar.tensor
from fieldstar.jets import (
    DimensionMismatch,
    FieldExpr,
    complex_system,
    mi_unit,
    real_system,
)
from fieldstar.kernels import Kernel, MixedKernelError
from fieldstar.poisson import Functional, bracket_fn
from fieldstar.randexpr import random_density, random_expr
from fieldstar.rationals import GRat, I
from fieldstar.star import (
    HbarSeries,
    assoc_residuals,
    closed_form_residuals,
    commutator_semiclassical,
    equation_of_motion,
    exp_sigma,
    star_fn,
    star_functional_density,
    star_functionals,
    star_grouped,
    to_series,
)
from fieldstar.tensor import TensorExpr
from fieldstar.verify import default_kernels, verify_assoc
from reference import exp_series, series_mul


def u(index=(0,), dim=None):
    return FieldExpr.jet("phi", index, dim)


def xi(index=(0,), dim=None):
    return FieldExpr.jet("pi", index, dim)


SYS1 = real_system(1)


def test_star_of_conjugate_pair_terminates_exactly():
    P = Kernel.delta(1)
    series = star_fn(u(), xi(), P, SYS1)
    assert series.exact
    assert series.coefficient(0) == TensorExpr.from_field(u(), "x") \
        * TensorExpr.from_field(xi(), "y")
    assert series.coefficient(1) == TensorExpr.from_kernel(P, "x", "y")
    assert series.coefficient(2).is_zero()


def test_star_truncation_keeps_only_orders_up_to_k():
    P = Kernel.delta(1)
    series = star_fn(u(), xi(), P, SYS1, order=0)
    assert sorted(series.terms) == [0] and not series.exact
    # the nonzero u(x)*xi(y) at hbar^0 is cut off, so the series is not exact
    series = star_fn(u(), xi(), P, SYS1, order=-1)
    assert series.is_zero() and not series.exact


def test_truncated_grouped_star_is_not_exact():
    # phi^2 * pi^2 has a nonzero hbar^2 coefficient; a grouped star cut at
    # order 1 drops it, so its result no longer holds at every order
    P = Kernel.delta(1)
    fg = star_fn(u() ** 2, xi() ** 2, P, SYS1, "x", "y", 6)
    assert fg.exact and not fg.coefficient(2).is_zero()
    m = to_series(FieldExpr.const_symbol("m", 1), "z", 6)
    series = star_grouped(fg, ["x", "y"], m, ["z"], P, SYS1, order=1)
    assert sorted(series.terms) == [0, 1]
    assert series.coefficient(2).is_zero() and not series.exact
    # cut at the top order it keeps everything, and stays exact
    assert star_grouped(fg, ["x", "y"], m, ["z"], P, SYS1, order=2).exact


@pytest.mark.parametrize("order", [6, 1])
def test_scaling_a_series_scales_every_order(order):
    P = Kernel.delta(1)
    S = star_fn((u() + xi()) ** 2, (u() - xi()) ** 2, P, SYS1, order=order)
    assert len(S.terms) == min(order, 2) + 1 and S.exact == (order == 6)
    assert S.scale(2) == S + S
    scaled = S.scale(I)
    assert sorted(scaled.terms) == sorted(S.terms)
    for k in S.terms:
        assert scaled.coefficient(k) == S.coefficient(k).scale(I)
    for c in (2, I, 0):
        assert (S.scale(c).order, S.scale(c).exact) == (S.order, S.exact)
    assert S.scale(0).is_zero()


def test_star_reversed_pair_uses_the_sign():
    P = Kernel.delta(1)
    series = star_fn(xi(), u(), P, SYS1)
    assert series.coefficient(1) == TensorExpr.from_kernel(P.scale(-1), "x", "y")


def test_zeroth_order_is_plain_product():
    rng = random.Random(1)
    for P in default_kernels(1):
        f = random_expr(SYS1, rng, max_degree=3, max_jet_order=1)
        g = random_expr(SYS1, rng, max_degree=3, max_jet_order=1)
        series = star_fn(f, g, P, SYS1)
        assert series.coefficient(0) == TensorExpr.from_field(f, "x") \
            * TensorExpr.from_field(g, "y")


def test_semiclassical_commutator_structure():
    rng = random.Random(6)
    for P in default_kernels(1):
        for _ in range(5):
            f = random_expr(SYS1, rng, max_degree=3, max_jet_order=1)
            g = random_expr(SYS1, rng, max_degree=3, max_jet_order=1)
            residual = commutator_semiclassical(f, g, P, SYS1)
            assert residual.coefficient(0).is_zero()
            assert residual.coefficient(1).is_zero()


def test_associativity_all_five_levels():
    rng = random.Random(10)
    for P in default_kernels(1):
        f, g, h = (random_density(SYS1, rng, max_degree=2, max_jet_order=1,
                                  terms=2) for _ in range(3))
        for level in (1, 2, 3, 4, 5):
            for residual in assoc_residuals(f, g, h, P, SYS1, level, order=3):
                assert residual.is_zero()


def _track_star_fn(monkeypatch) -> list:
    """A list that is not empty while a star_fn call made by star runs."""
    star, running = fieldstar.star.star_fn, []

    def tracked(*args):
        running.append(None)
        try:
            return star(*args)
        finally:
            running.pop()

    monkeypatch.setattr(fieldstar.star, "star_fn", tracked)
    return running


def test_a_fault_in_a_grouping_shows_at_every_level(monkeypatch):
    # the right grouping f*(g*h), whose chain runs from label x, gains
    # phi{x}*phi{y}*d1 delta{x,y} at hbar^1 as one more part of its powers
    mon = (("x", ("j", "phi", (0,))), ("y", ("j", "phi", (0,))))
    deltas = (("x", "y", (1,)),)
    fault = TensorExpr(1, {(mon, deltas): GRat(1)})
    chain = fieldstar.star._exp_chain

    def faulty(products, a, labels, P, system, order, orient, keys):
        real, powers, more = chain(products, a, labels, P, system, order,
                                   orient, keys)
        if a == "x":
            key = (keys.intern(mon[:1]), keys.intern(mon[1:]),
                   keys.intern(deltas))
            powers.setdefault(1, []).append(({key: 1 if real else (1, 0)}, 1))
        return real, powers, more

    monkeypatch.setattr(fieldstar.star, "_exp_chain", faulty)
    rng = random.Random(2325)
    P = default_kernels(1)[0]
    f, g, h = (random_density(SYS1, rng, max_degree=2, max_jet_order=1,
                              terms=2) for _ in range(3))
    missing = HbarSeries(1, {1: -fault})
    for level in (1, 2):
        assert assoc_residuals(f, g, h, P, SYS1, level, 3) == [-fault]
    for level, labels in ((3, ["x"]), (4, ["y", "x"]), (5, ["y", "x"])):
        integrated = fieldstar.star._integrate_series(missing, labels)
        assert integrated.coefficient(1)
        assert assoc_residuals(f, g, h, P, SYS1, level, 3) \
            == [integrated.coefficient(1)]


def test_assoc_residuals_sum_an_int_and_a_gaussian_grouping(monkeypatch):
    # f*g = -phi*pi[1]*pi*phi is real while g*h is not, so the left
    # grouping runs on int numerators and the right one on Gaussian pairs,
    # which the residual's one sum must bring together
    f = (u() * xi((1,))).scale(I)
    g = (xi() * u()).scale(I)
    h = u() ** 2 + xi((1,))
    chain = fieldstar.star._exp_chain
    reals = []

    def recording(*args):
        real, powers, more = chain(*args)
        reals.append(real)
        return real, powers, more

    monkeypatch.setattr(fieldstar.star, "_exp_chain", recording)
    for P in (Kernel.delta(1), Kernel.derivative_delta(1, (1,))):
        for level in (1, 2, 3, 4, 5):
            residuals = assoc_residuals(f, g, h, P, SYS1, level)
            assert all(r.is_zero() for r in residuals)
    assert reals == [True, False] * 10


def test_an_associative_input_finishes_and_subtracts_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the residual subtracted two series")

    finish, running = fieldstar.sigma._finish, _track_star_fn(monkeypatch)
    finished = {True: 0, False: 0}  # keys, by whether star_fn is running

    def counting_finish(out, *args):
        finished[bool(running)] += len(out)
        return finish(out, *args)

    monkeypatch.setattr(HbarSeries, "__sub__", refuse)
    monkeypatch.setattr(fieldstar.sigma, "_finish", counting_finish)
    rng = random.Random(2326)
    for system in (SYS1, complex_system(1)):
        for P in default_kernels(1):
            f, g, h = (random_density(system, rng, max_degree=2,
                                      max_jet_order=1, terms=2)
                       for _ in range(3))
            for level in (1, 2, 3, 4, 5):
                residuals = assoc_residuals(f, g, h, P, system, level, 3)
                assert all(r.is_zero() for r in residuals)
    # the two star_fn calls finish their own series; the sum of the
    # groupings cancels before any key reaches _finish
    assert finished[True] > 0 and finished[False] == 0


def test_assoc_residuals_check_the_level_first(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a star was formed for an unknown level")

    monkeypatch.setattr(fieldstar.star, "star_fn", refuse)
    for level in (0, 6):
        with pytest.raises(ValueError):
            assoc_residuals(u(), xi(), u(), Kernel.delta(1), SYS1, level)


def test_exp_factor_application_order_is_immaterial():
    rng = random.Random(14)
    P = default_kernels(1)[0]
    f, g, h = (random_density(SYS1, rng, max_degree=2, max_jet_order=1,
                              terms=2) for _ in range(3))
    S = series_mul(star_fn(f, g, P, SYS1, "x", "y", 3), to_series(h, "z", 3))
    grouped = []
    for pairs in ((("x", "z"), ("y", "z")), (("y", "z"), ("x", "z"))):
        T = S
        for a, b in pairs:
            T = exp_series(T, a, b, P, SYS1, 3)
        grouped.append(T)
    assert (grouped[0] - grouped[1]).is_zero()


def _series_route(f, g, P, system, a, b, order):
    """The star through a series input: the product f@a (x) g@b as the
    one coefficient, which exp_series splits into factor pairs again."""
    T = TensorExpr.from_field(f, a) * TensorExpr.from_field(g, b)
    return exp_series(HbarSeries(f.dim, {0: T}, order, True), a, b, P, system,
                      order)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("complex_ok", [False, True])
def test_star_fn_equals_the_series_route(dim, complex_ok):
    system = real_system(dim)
    rng = random.Random(31 + dim + 10 * complex_ok)
    if complex_ok:
        kernels = default_kernels(dim)
    else:
        e1 = (1,) + (0,) * (dim - 1)
        kernels = [Kernel.delta(dim), Kernel.derivative_delta(dim, e1)]
    exactness = set()
    for P in kernels:  # one symmetric, one antisymmetric
        for a, b in (("x", "y"), ("y", "x")):
            for order in (1, 4):
                f, g = (random_expr(system, rng, max_degree=3,
                                    max_jet_order=1, complex_ok=complex_ok)
                        for _ in range(2))
                star = star_fn(f, g, P, system, a, b, order)
                series = _series_route(f, g, P, system, a, b, order)
                assert star.terms == series.terms
                assert (star.order, star.exact) == (series.order,
                                                    series.exact)
                exactness.add(star.exact)
    assert exactness == {False, True}


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("complex_ok", [False, True], ids=["Q", "Q[i]"])
def test_exp_series_of_one_coefficient_equals_exp_sigma_on_its_pairs(
        dim, complex_ok):
    # the reference splits the sum of two products into pairs of its own;
    # at order j it runs exp_sigma through order - j and shifts by j, so
    # order -1 cuts the coefficient off and leaves the series inexact
    system = real_system(dim)
    rng = random.Random(47 + dim + 10 * complex_ok)
    e1 = (1,) + (0,) * (dim - 1)
    kernels = default_kernels(dim) if complex_ok else \
        [Kernel.delta(dim), Kernel.derivative_delta(dim, e1)]
    exactness = set()
    for P in kernels:
        for a, b in (("x", "y"), ("y", "x")):
            f1, g1, f2, g2 = (random_expr(system, rng, max_degree=3,
                                          max_jet_order=1,
                                          complex_ok=complex_ok)
                              for _ in range(4))
            pairs = [(TensorExpr.from_field(f, a), TensorExpr.from_field(g, b))
                     for f, g in ((f1, g1), (f2, g2))]
            T = pairs[0][0] * pairs[0][1] + pairs[1][0] * pairs[1][1]
            for order in (-1, 0, 1, 4):
                for j in (0, 1):
                    series = exp_series(HbarSeries(dim, {j: T}, order, True),
                                        a, b, P, system, order)
                    star = exp_sigma(pairs, a, b, P, system, order - j)
                    assert series.terms == {j + k: Tk for k, Tk
                                            in star.terms.items()}
                    assert (series.order, series.exact) == (order,
                                                            star.exact)
                    exactness.add(star.exact)
            assert not exp_sigma(pairs, a, b, P, system, -1).exact
    assert exactness == {False, True}


def test_star_fn_does_not_split_its_product(monkeypatch):
    # the engine has no splitter of a general sum into factor pairs, and
    # star_fn multiplies its pair f@a (x) g@b once, for the order-0 term
    assert not hasattr(fieldstar.sigma, "_factor")
    assert not hasattr(fieldstar.star, "_factor")
    mul, products = TensorExpr.__mul__, []

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(TensorExpr, "__mul__", counting_mul)
    f, g = u() * xi(), xi() ** 2
    series = star_fn(f, g, Kernel.delta(1), SYS1)
    assert series.exact and sorted(series.terms) == [0, 1]
    assert products == [(TensorExpr.from_field(f, "x"),
                         TensorExpr.from_field(g, "y"))]


def _public_route(A, labels_a, B, labels_b, P, system, order):
    """The grouped star through the public steps: the product of the two
    series, then the exponential on each cross pair in sorted order."""
    S = series_mul(A, B)
    for x in sorted(labels_a):
        for y in sorted(labels_b):
            S = exp_series(S, x, y, P, system,
                           S.order if order is None else order)
    return S


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("complex_pair", [False, True])
def test_star_grouped_equals_the_public_route(dim, complex_pair):
    rng = random.Random(2323 + dim + 10 * complex_pair)
    system = complex_system(dim) if complex_pair else real_system(dim)
    exactness = set()
    for P in default_kernels(dim):
        f, g, h = (random_density(system, rng, max_degree=2, max_jet_order=1,
                                  terms=2, complex_ok=complex_pair)
                   for _ in range(3))
        for K, order in ((3, None), (3, 1), (4, 2)):
            left = (star_fn(f, g, P, system, "x", "y", K), ["x", "y"],
                    to_series(h, "z", K), ["z"])
            right = (to_series(f, "x", K), ["x"],
                     star_fn(g, h, P, system, "y", "z", K), ["y", "z"])
            for A, la, B, lb in (left, right):
                grouped = star_grouped(A, la, B, lb, P, system, order)
                public = _public_route(A, la, B, lb, P, system, order)
                assert grouped.terms == public.terms
                assert (grouped.order, grouped.exact) == (public.order,
                                                          public.exact)
                exactness.add(grouped.exact)
    assert exactness == {False, True}


def test_star_grouped_needs_a_group_of_one_label():
    P = Kernel.delta(1)
    fg = star_fn(u(), xi(), P, SYS1, "x", "y", 2)
    hk = star_fn(xi(), u(), P, SYS1, "z", "w", 2)
    f = to_series(u(), "x", 2)
    cases = [
        (fg, ["x", "y"], hk, ["z", "w"]),  # no group of one label
        (fg, ["x"], to_series(xi(), "z", 2), ["z"]),  # A strays from x
        (f, ["x"], star_fn(xi(), u(), P, SYS1, "x", "z", 2), ["y", "z"]),
        (f, ["x"], to_series(xi(), "z", 2), []),  # nothing to pair with
    ]
    for A, la, B, lb in cases:
        with pytest.raises(ValueError):
            star_grouped(A, la, B, lb, P, SYS1)


def test_assoc_residuals_neither_multiply_out_nor_split(monkeypatch):
    # the groupings' chains form the coefficient products as power 0, so
    # the only TensorExpr products are the two star_fn calls' own, and the
    # engine has no splitter of a general sum into factor pairs
    assert not hasattr(fieldstar.sigma, "_factor")
    assert not hasattr(fieldstar.star, "_factor")
    mul, running, outside = TensorExpr.__mul__, _track_star_fn(monkeypatch), []

    def counting_mul(self, other):
        if not running:
            outside.append(None)
        return mul(self, other)

    monkeypatch.setattr(TensorExpr, "__mul__", counting_mul)
    rng = random.Random(2324)
    for system in (SYS1, complex_system(1)):
        for P in default_kernels(1):
            f, g, h = (random_density(system, rng, max_degree=2,
                                      max_jet_order=1, terms=2)
                       for _ in range(3))
            for level in (1, 2, 3, 4, 5):
                residuals = assoc_residuals(f, g, h, P, system, level, 3)
                assert all(r.is_zero() for r in residuals)
    assert not outside


def test_assoc_residuals_classify_the_kernel_once_per_operator_run(
        monkeypatch):
    # the parity sign is computed once per sigma_terms generator (one per
    # star_fn) and once per chain (one per grouping), not once per walk,
    # plus once for the orientation of the grouping whose pair is swapped
    classify, calls = Kernel.classify, []

    def counting_classify(self):
        calls.append(self)
        return classify(self)

    monkeypatch.setattr(Kernel, "classify", counting_classify)
    rng = random.Random(2327)
    for system in (SYS1, complex_system(1)):
        for P in default_kernels(1):
            f, g, h = (random_density(system, rng, max_degree=2,
                                      max_jet_order=1, terms=2)
                       for _ in range(3))
            for level in (1, 2, 3, 4, 5):
                calls.clear()
                residuals = assoc_residuals(f, g, h, P, system, level, 3)
                assert all(r.is_zero() for r in residuals)
                assert len(calls) == 5


def test_integration_keeps_a_coincident_term_formal():
    # the first term's second delta would join x and y again once x is
    # substituted by y (a coincidence divergence): it stays formal, while
    # the second term integrates to -(D phi)(y)
    phi_x = (("x", ("j", "phi", (0,))),)
    coincident = (phi_x, (("x", "y", (0,)), ("x", "y", (1,))))
    integrable = (phi_x, (("x", "y", (1,)),))
    S = HbarSeries(1, {1: TensorExpr(1, {coincident: GRat(3),
                                         integrable: GRat(1)})}, 2, True)
    result = fieldstar.star._integrate_series(S, ["x"])
    expected = TensorExpr(1, {coincident: GRat(3)}) \
        + TensorExpr.from_field(-u().total_derivative(1), "y")
    assert result.terms == {1: expected}
    assert (result.order, result.exact) == (2, True)


@pytest.mark.parametrize("system", [real_system(3), complex_system(1)],
                         ids=["real-dim3", "complex-dim1"])
def test_associativity_beyond_dim_1_over_q(system):
    rng = random.Random(2325)
    for P in default_kernels(system.dim):
        report = verify_assoc(system, P, 4, rng)
        assert report.ok, report.line()


def test_star_of_another_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        star_fn(FieldExpr.zero(1), u(), Kernel.delta(3), SYS1)
    with pytest.raises(DimensionMismatch):
        star_fn(FieldExpr.zero(1), u(), Kernel.delta(1), real_system(3))
    with pytest.raises(DimensionMismatch):
        star_fn(u(), xi(), Kernel.delta(1), real_system(3))


def test_star_with_a_zero_operand_refuses_a_mixed_kernel():
    # the parity is checked before the empty series of a zero product is
    # returned, as bracket_fn and a nonzero star_fn refuse the kernel
    mixed = Kernel.delta(1) + Kernel.derivative_delta(1, (1,))
    zero = FieldExpr.zero(1)
    for f, g, order in ((zero, u(), 6), (u(), zero, 6), (zero, zero, 0),
                        (u(), xi(), -1), (xi(), u(), 6)):
        with pytest.raises(MixedKernelError):
            star_fn(f, g, mixed, SYS1, order=order)
    with pytest.raises(MixedKernelError):
        bracket_fn(zero, u(), mixed, SYS1)
    # a pure kernel still gives the empty, exact series
    series = star_fn(zero, u(), Kernel.derivative_delta(1, (1,)), SYS1)
    assert not series.terms and series.exact


def test_functional_density_star_tail():
    # F = int phi*pi, P = delta: F * phi has hbar^1 tail -phi
    P = Kernel.delta(1)
    F = Functional(u() * xi(), SYS1)
    series = star_functional_density(F, u(), P, SYS1, cross_check=True)
    assert series.tail[1] == -u()
    assert all(series.tail[k].is_zero() for k in series.tail if k >= 2)


def test_functional_functional_star_tail():
    P = Kernel.delta(1)
    F = Functional(u() * xi(), SYS1)
    G = Functional(u() ** 2, SYS1)
    series = star_functionals(F, G, P, SYS1, cross_check=True)
    assert series.tail[1] == Functional((u() ** 2).scale(-2), SYS1)


def test_functional_star_tails_drop_vanishing_orders():
    # int phi^2 * pi*pi[1]: the order-2 density is zero and is dropped
    P = Kernel.delta(1)
    F = Functional(u() ** 2, SYS1)
    density = star_functional_density(F, xi() * xi((1,)), P, SYS1,
                                      cross_check=True)
    two = GRat(2)
    assert density.tail == {
        1: (u() * xi((1,))).scale(two) + (u((1,)) * xi()).scale(two)}
    assert density.exact
    # int phi^2 * int pi*pi[1]: the order-1 functional is the divergence
    # D(2*phi*pi), a null functional, and is dropped
    functionals = star_functionals(F, Functional(xi() * xi((1,)), SYS1), P,
                                   SYS1, cross_check=True)
    assert functionals.tail == {}
    assert functionals.exact


def test_star_closed_forms_cross_check_random():
    rng = random.Random(17)
    for P in default_kernels(1):
        for _ in range(3):
            F = Functional(random_density(SYS1, rng, max_degree=2,
                                          max_jet_order=1, terms=2), SYS1)
            G = Functional(random_density(SYS1, rng, max_degree=2,
                                          max_jet_order=1, terms=2), SYS1)
            g = random_expr(SYS1, rng, max_degree=2, max_jet_order=1, terms=2)
            star_functional_density(F, g, P, SYS1, cross_check=True)
            star_functionals(F, G, P, SYS1, cross_check=True)


def test_closed_forms_catch_a_negated_integration_by_parts(monkeypatch):
    # the closed forms pair the kernel with jet calculus alone, so a sign
    # error in the by-parts rule of the definitions shows as a residual
    rng = random.Random(29)
    F, G = (Functional(random_density(SYS1, rng, max_degree=2,
                                      max_jet_order=1, terms=2), SYS1)
            for _ in range(2))
    g = random_expr(SYS1, rng, max_degree=2, max_jet_order=1, terms=2)
    P = Kernel.delta(1)
    forms = closed_form_residuals(F, G, g, P, SYS1, order=2)
    assert all(r.is_zero() for rs in forms.values() for r in rs)
    by_parts = fieldstar.tensor._by_parts.__wrapped__

    @lru_cache(maxsize=None)
    def negated(block, carried, label, gamma):
        rule = by_parts(block, carried, label, gamma)
        if gamma is not None or rule is None:
            return rule
        partner, rows = rule
        return partner, tuple([(blk, dl, -m) for blk, dl, m in rows])

    monkeypatch.setattr(fieldstar.tensor, "_by_parts", negated)
    forms = closed_form_residuals(F, G, g, P, SYS1, order=2)
    assert {name: any(not r.is_zero() for r in rs)
            for name, rs in forms.items()} == dict.fromkeys(forms, True)


def test_functional_star_of_densities_nonlinear_in_derivatives():
    # int phi^3 * int phi*pi[1]^2: the order-2 tail is 6*phi*laplacian(phi),
    # which the closed form reaches only through the joint dual derivative
    F = Functional(u() ** 3, SYS1)
    G = Functional(u() * xi((1,)) ** 2, SYS1)
    series = star_functionals(F, G, Kernel.delta(1), SYS1, order=3,
                              cross_check=True)
    assert series.tail[2] == Functional((u() * u((2,))).scale(6), SYS1)


def _cross_check_cubic_stars(system, P, rng) -> tuple:
    """Both functional stars of one draw, cross-checked; their tails' orders."""
    F, G = (Functional(random_density(system, rng, max_degree=3,
                                      max_jet_order=2, terms=2),
                       system) for _ in range(2))
    g = random_expr(system, rng, max_degree=3, max_jet_order=2, terms=2)
    density = star_functional_density(F, g, P, system, order=4, cross_check=True)
    functionals = star_functionals(F, G, P, system, order=4, cross_check=True)
    return set(density.tail), set(functionals.tail)


def test_star_closed_forms_cross_check_cubic_second_order_jets():
    rng = random.Random(23)
    for dim in (1, 3):
        system = real_system(dim)
        for P in (Kernel.delta(dim), Kernel.delta(dim, I)):
            for _ in range(4):
                _cross_check_cubic_stars(system, P, rng)
    # an antisymmetric kernel, drawn from a stream of its own so that the
    # draws above stay where they are; the closed forms' weights past order
    # 1 depend on the kernel's parity, so each star must reach order 2
    rng = random.Random(23)
    reached = [False, False]
    for dim in (1, 3):
        system = real_system(dim)
        P = Kernel.derivative_delta(dim, mi_unit(dim, 1))
        for _ in range(4):
            orders = _cross_check_cubic_stars(system, P, rng)
            reached = [seen or 2 in tail for seen, tail in zip(reached, orders)]
    assert reached == [True, True]


def _kg_hamiltonian(dim: int):
    h = GRat(Fraction(1, 2))
    m = FieldExpr.const_symbol("m", dim)
    U = FieldExpr.function("U", "phi", dim)
    u0 = FieldExpr.jet("phi", (0,) * dim)
    xi0 = FieldExpr.jet("pi", (0,) * dim)
    density = (xi0 * xi0 + m * m * u0 * u0).scale(h) + U
    for i in range(1, dim + 1):
        g = FieldExpr.jet("phi", mi_unit(dim, i))
        density = density + (g * g).scale(h)
    return Functional(density, real_system(dim))


def test_wave_equation_equations_of_motion():
    dim = 3
    system = real_system(dim)
    H = _kg_hamiltonian(dim)
    P = Kernel.delta(dim, I)
    u0 = FieldExpr.jet("phi", (0,) * dim)
    xi0 = FieldExpr.jet("pi", (0,) * dim)
    pidot = equation_of_motion(H, xi0, P, system)
    m = FieldExpr.const_symbol("m", dim)
    U1 = FieldExpr.function("U", "phi", dim, order=1)
    laplacian = FieldExpr.zero(dim)
    for index in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        laplacian = laplacian + FieldExpr.jet("phi", index)
    assert pidot == laplacian - m * m * u0 - U1
    assert equation_of_motion(H, u0, P, system) == xi0


def test_complex_pairing_star_example():
    system = complex_system(1)
    P = Kernel.delta(1)
    z = FieldExpr.jet("psi", (0,))
    zb = FieldExpr.jet("psibar", (0,))
    series = star_fn(z, zb, P, system)
    assert series.coefficient(1) == TensorExpr.from_kernel(P, "x", "y")
    assert series.coefficient(2).is_zero()
