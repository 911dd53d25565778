import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from fieldstar.jets import FieldExpr, func_atom, jet_atom
from fieldstar.kernels import Kernel
from fieldstar.rationals import GRat, I
from fieldstar.star import HbarSeries, _integrate_series
from fieldstar.tensor import NonIntegrableTerm, TensorExpr, delta_atom
from reference import total_derivative_at


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
    # the by-parts rule with a multi-index, applied per term
    P = Kernel.delta(1)
    T = TensorExpr.from_kernel(P, "x", "y")
    dx = total_derivative_at(T, "x", (1,))
    dy = total_derivative_at(T, "y", (1,))
    assert dx == -dy
    assert not dx.is_zero()


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


# ---------------------------------------------------------------------------
# integration by parts against a reference that differentiates term by term

def _ref_unit_derivative(terms: dict, label: str, e: tuple) -> dict:
    """D_e at ``label``: Leibniz over the located atoms at the label (a
    function atom prolongs to U^(k+1)(s) * s_e) and over the delta atoms
    carrying it (d/da raises gamma, d/db also flips the sign)."""
    out: dict = {}

    def add(mon, deltas, c):
        key = (tuple(sorted(mon)), tuple(sorted(deltas)))
        out[key] = out.get(key, GRat(0)) + c

    for (mon, deltas), c in terms.items():
        for pos, (lab, atom) in enumerate(mon):
            if lab != label or atom[0] == "c":
                continue
            rest = mon[:pos] + mon[pos + 1:]
            if atom[0] == "j":
                idx = tuple(i + j for i, j in zip(atom[2], e))
                add(rest + ((lab, jet_atom(atom[1], idx)),), deltas, c)
            else:
                _f, name, order, sort, vanishes = atom
                add(rest + ((lab, func_atom(name, sort, order + 1, vanishes)),
                            (lab, jet_atom(sort, e))), deltas, c)
        for pos, (a, b, gamma) in enumerate(deltas):
            if label not in (a, b):
                continue
            raised = (a, b, tuple(i + j for i, j in zip(gamma, e)))
            add(mon, deltas[:pos] + (raised,) + deltas[pos + 1:],
                c if label == a else -c)
    return {key: c for key, c in out.items() if c}


def _ref_derivative(terms: dict, label: str, gamma: tuple) -> dict:
    for direction, k in enumerate(gamma):
        e = tuple(int(i == direction) for i in range(len(gamma)))
        for _ in range(k):
            terms = _ref_unit_derivative(terms, label, e)
    return terms


def _ref_integrate(terms: dict, label: str) -> dict:
    """Per term: take the first delta atom carrying the label off, apply
    (-1)^|gamma| D^gamma (with the orientation sign of the atom), then
    substitute the partner for the label by hand."""
    out: dict = {}
    for (mon, deltas), c in terms.items():
        pos = next(i for i, (a, b, _g) in enumerate(deltas) if label in (a, b))
        a, b, gamma = deltas[pos]
        partner = b if a == label else a
        if label == a and sum(gamma) % 2:
            c = -c
        moved = _ref_derivative({(mon, deltas[:pos] + deltas[pos + 1:]): c},
                                label, gamma)
        for (mon2, deltas2), c2 in moved.items():
            located = tuple(sorted((partner if lab == label else lab, atom)
                                   for lab, atom in mon2))
            new = []
            for a2, b2, g2 in deltas2:
                a2, b2 = (partner if a2 == label else a2,
                          partner if b2 == label else b2)
                if a2 == b2:
                    raise ValueError("coinciding labels")
                if a2 > b2:
                    a2, b2 = b2, a2
                    if sum(g2) % 2:
                        c2 = -c2
                new.append((a2, b2, g2))
            key = (located, tuple(sorted(new)))
            out[key] = out.get(key, GRat(0)) + c2
    return {key: c for key, c in out.items() if c}


def _random_index(rng, dim, top):
    return tuple(rng.randint(0, top) for _ in range(dim))


def _random_by_parts_terms(rng, dim: int, label: str) -> dict:
    """1-3 terms, each with 1-3 delta atoms carrying ``label``, none of which
    pairs it again with the first one's partner, plus atoms and deltas
    elsewhere; coefficients in Q or Q[i]."""
    others = ["a", "w", "y", "z"]  # "a", "w" sort before "x", "y", "z" after
    atoms = [jet_atom("phi", (0,) * dim), jet_atom("pi", (0,) * dim),
             func_atom("U", "phi"), func_atom("U", "pi", 1), ("c", "m")]
    terms: dict = {}
    count = rng.randint(1, 3)
    while len(terms) < count:
        carriers = []
        for _ in range(rng.randint(1, 3)):
            z = rng.choice(others)
            gamma = _random_index(rng, dim, 3 if dim == 1 else 1)
            carriers.append((min(label, z), max(label, z), gamma))
        deltas = sorted(carriers)
        a, b, _g = deltas[0]
        partner = b if a == label else a
        if any(partner in d[:2] for d in deltas[1:]):
            continue
        if rng.random() < 0.5:
            p, q = rng.sample(others, 2)
            deltas = sorted(deltas + [(min(p, q), max(p, q),
                                       _random_index(rng, dim, 1))])
        mon = []
        for lab in [label, label, partner, rng.choice(others)]:
            if rng.random() < 0.7:
                atom = rng.choice(atoms + [jet_atom(
                    "phi", _random_index(rng, dim, 1))])
                mon.append((lab, atom))
        c = GRat(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)),
                 rng.choice([0, 0, Fraction(rng.randint(1, 3), 2)]))
        terms[(tuple(sorted(mon)), tuple(deltas))] = c
    return terms


@pytest.mark.parametrize("dim", [1, 3])
def test_integration_by_parts_matches_a_term_by_term_reference(dim):
    rng = random.Random(f"by-parts:{dim}")
    slots = set()
    for _ in range(60):
        terms = _random_by_parts_terms(rng, dim, "x")
        T = TensorExpr(dim, dict(terms))
        for (_mon, deltas) in terms:
            first = next(d for d in deltas if "x" in d[:2])
            slots.add(first[0] == "x")
        assert T.integrate_out("x").terms == _ref_integrate(terms, "x")
        gamma = _random_index(rng, dim, 3 if dim == 1 else 1)
        assert total_derivative_at(T, "x", gamma).terms \
            == _ref_derivative(terms, "x", gamma)
    assert slots == {True, False}  # the label in the first and second slot


def test_integrate_out_refuses_a_second_delta_on_the_same_pair():
    T = TensorExpr(1, {((), (("x", "y", (0,)), ("x", "y", (1,)))): GRat(1)})
    with pytest.raises(ValueError):
        T.integrate_out("x")


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q[i]"])
@pytest.mark.parametrize("labels", [["x"], ["y", "x"]], ids=["x", "y,x"])
def test_integration_of_a_series_is_linear(dim, gaussian, labels):
    # associativity levels 3-5 integrate the difference of the groupings
    # once, which equals the difference of the integrated groupings
    rng = random.Random(f"linear:{dim}:{gaussian}:{labels}")
    phi_x = (("x", jet_atom("phi", (0,) * dim)),)
    e1 = (1,) + (0,) * (dim - 1)
    # a second delta joins x and y again once one is substituted for the
    # other (a coincidence), and no delta carries x or y: both stay formal
    coincident = (phi_x, (("x", "y", (0,) * dim), ("x", "y", e1)))
    no_carrier = (phi_x, (("w", "z", e1),))
    integrable = (phi_x, (("x", "z", e1),))
    A = HbarSeries(dim, {1: TensorExpr(dim, {
        coincident: GRat(3), no_carrier: GRat(1), integrable: GRat(2)})})
    B = HbarSeries(dim, {1: TensorExpr(dim, {
        coincident: GRat(1), no_carrier: GRat(Fraction(1, 2))})})
    residual = _integrate_series(A - B, labels).coefficient(1).terms
    assert residual[coincident] == GRat(2)
    assert residual[no_carrier] == GRat(Fraction(1, 2))
    assert integrable not in residual
    pairs = [(A, B)]

    def random_series():
        coeffs = {}
        for k in range(rng.randint(1, 3)):
            terms = _random_by_parts_terms(rng, dim, "x")
            coeffs[k] = TensorExpr(dim, {key: c if gaussian else GRat(c.re)
                                         for key, c in terms.items()})
        return HbarSeries(dim, coeffs)

    for _ in range(40):
        A, B = random_series(), random_series()
        # B shares some of A's terms, and the equal ones cancel in A - B
        for k, T in A.terms.items():
            shared = {key: c if rng.random() < 0.5 else c * GRat(2)
                      for key, c in T.terms.items() if rng.random() < 0.5}
            B = B + HbarSeries(dim, {k: TensorExpr(dim, shared)})
        pairs.append((A, B))
    for A, B in pairs:
        assert _integrate_series(A, labels) - _integrate_series(B, labels) \
            == _integrate_series(A - B, labels)
