"""The factored operator kernel against the per-monomial reference.

``sigma_terms`` runs on T as a list of products L (x) R, differentiates
each factor on its own and multiplies, and yields the k-th power over k!.
A general T reaches it through the reference ``_factor`` of
tests/reference.py; a caller that knows its product passes the pair, and
both routes must agree.  The reference below is a
per-monomial derivation of the whole product on GRats, so that every power
can be compared term by term.  Powers are compared as values (term dicts);
rendering does not depend on insertion order (tests/test_parser.py).
"""

import random
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from fieldstar import sigma
from fieldstar.jets import (
    DimensionMismatch,
    FieldExpr,
    _canon_monomial,
    complex_system,
    const_atom,
    func_atom,
    jet_atom,
    mi_add,
    mi_order,
    mi_zero,
    real_system,
)
from fieldstar.kernels import Kernel, bracket_sign
from fieldstar.poisson import (_first_power, _tensor_calls, bracket_fn,
                               jacobi_residual)
from fieldstar.randexpr import multi_indices, random_expr
from fieldstar.rationals import GRat, I, ONE, ZERO
from fieldstar.render import dumps_canonical, to_json
from fieldstar.sigma import _setup, sigma_terms
from fieldstar.star import star_fn
from fieldstar.tensor import TensorExpr, delta_atom
from fieldstar.verify import default_kernels
from reference import _factor

POWERS = 3


# -- reference: the per-monomial derivation ---------------------------------

def _ref_acc(works: dict, key, c: GRat):
    if not c:
        return
    acc = works.get(key, ZERO) + c
    if acc:
        works[key] = acc
    else:
        del works[key]


def _ref_indices_at(mon, label: str, sort: str, dim: int):
    found = set()
    for lab, atom in mon:
        if lab != label:
            continue
        if atom[0] == "j" and atom[1] == sort:
            found.add(atom[2])
        elif atom[0] == "f" and atom[3] == sort:
            found.add(mi_zero(dim))
    return sorted(found)


def _ref_jet_partial_mon(mon, label: str, sort: str, index):
    out = []
    target = (label, jet_atom(sort, index))
    for pos, latom in enumerate(mon):
        if latom == target:
            mult = mon.count(latom)
            rest = list(mon)
            del rest[pos]
            out.append((tuple(rest), GRat(mult)))
            break
    if mi_order(index) == 0:
        for pos, (lab, atom) in enumerate(mon):
            if lab == label and atom[0] == "f" and atom[3] == sort:
                rest = list(mon)
                rest[pos] = (lab, func_atom(atom[1], atom[3], atom[2] + 1, atom[4]))
                out.append((_canon_monomial(rest), ONE))
    return out


def _ref_derive(works: dict, label: str, sort: str, side: int, dim: int) -> dict:
    out: dict = {}
    for (mon, deltas, gamma), c in works.items():
        for index in _ref_indices_at(mon, label, sort, dim):
            cc = -c if (side == 1 and mi_order(index) % 2 == 1) else c
            for new_mon, mult in _ref_jet_partial_mon(mon, label, sort, index):
                _ref_acc(out, (new_mon, deltas, mi_add(gamma, index)), cc * mult)
    return out


def _ref_finalize(works: dict, a: str, b: str) -> dict:
    terms: dict = {}
    for (mon, deltas, gamma), c in works.items():
        atom, sign = delta_atom(a, b, gamma)
        key = (mon, tuple(sorted(deltas + (atom,))))
        acc = terms.get(key, ZERO) + c * sign
        if acc:
            terms[key] = acc
        else:
            del terms[key]
    return terms


def reference_powers(T, a, b, P, system, count: int) -> list:
    """The term dicts of the first ``count`` nonzero operator powers, power
    k divided by k! (the k-th term of the exponential)."""
    sign = bracket_sign(P)
    p, q = system.primary, system.conjugate
    dim = T.dim
    works: dict = {}
    for (mon, deltas), c in T.terms.items():
        for gamma, cg in P.terms.items():
            _ref_acc(works, (mon, deltas, gamma), c * cg)
    out = []
    while works and len(out) < count:
        part_a = _ref_derive(_ref_derive(works, a, p, 0, dim), b, q, 1, dim)
        part_b = _ref_derive(_ref_derive(works, a, q, 0, dim), b, p, 1, dim)
        works = part_a
        for key, c in part_b.items():
            _ref_acc(works, key, c if sign > 0 else -c)
        if works:
            k_factorial = GRat(factorial(len(out) + 1))
            out.append({key: c / k_factorial for key, c
                        in _ref_finalize(works, a, b).items()})
    return out


# -- random tensor expressions -----------------------------------------------

LABELS = ("x", "y", "z")


@st.composite
def cases(draw):
    """(dim, pairing, kernel index, operator labels, term specs).

    A term spec is (coefficient parts, {label: atoms}, deltas), where an
    atom is ("j", sort index, multi-index), ("f", arg sort index, order) or
    ("c",) and a delta is (label, label, multi-index).  Any label may carry
    no atoms, which leaves an empty block.
    """
    dim = draw(st.sampled_from((1, 3)))
    indices = multi_indices(dim, 2)
    labels = LABELS[:draw(st.integers(2, 3))]
    a, b = draw(st.permutations(labels))[:2]
    jet = st.tuples(st.just("j"), st.integers(0, 1), st.sampled_from(indices))
    # mostly jets, so that most draws reach a nonzero power
    atom = st.one_of(
        jet, jet, jet,
        st.tuples(st.just("f"), st.integers(0, 1), st.integers(0, 1)),
        st.just(("c",)),
    )
    delta = st.tuples(st.sampled_from(labels), st.sampled_from(labels),
                      st.sampled_from(indices)).filter(lambda d: d[0] != d[1])
    # coefficient parts over denominators 1, 2 and 3, so that a common
    # denominator above 1 is drawn over Q and over Q[i]
    den = st.sampled_from((1, 1, 2, 3))
    term = st.tuples(
        st.tuples(st.builds(Fraction, st.integers(-3, 3), den),
                  st.builds(Fraction, st.integers(-2, 2), den)),
        st.fixed_dictionaries({lab: st.lists(atom, max_size=5)
                               for lab in labels}),
        st.lists(delta, max_size=1),
    )
    return (dim, draw(st.sampled_from(("real", "complex"))),
            draw(st.integers(0, 1)), (a, b),
            draw(st.lists(term, min_size=1, max_size=3)))


def build(case):
    dim, pairing, kernel, (a, b), specs = case
    system = real_system(dim) if pairing == "real" else complex_system(dim)
    sorts = (system.primary, system.conjugate)
    terms: dict = {}
    for (re, im), by_label, deltas in specs:
        located = []
        for lab, atoms in by_label.items():
            for atom in atoms:
                if atom[0] == "j":
                    located.append((lab, jet_atom(sorts[atom[1]], atom[2])))
                elif atom[0] == "f":
                    located.append((lab, func_atom("U", sorts[atom[1]], atom[2])))
                else:
                    located.append((lab, const_atom("m")))
        delta_atoms = tuple(sorted(delta_atom(l1, l2, g)[0]
                                   for l1, l2, g in deltas))
        _ref_acc(terms, (_canon_monomial(located), delta_atoms), GRat(re, im))
    T = TensorExpr(dim, terms)
    return T, a, b, default_kernels(dim)[kernel], system


# three labels: y carries no atoms in the first term, z none in the second;
# phi twice at z and U(phi) twice at x exercise the multiplicities
EMPTY_BLOCKS = (3, "real", 1, ("z", "x"), [
    ((2, 1), {"x": [("j", 1, (1, 0, 0)), ("j", 1, (0, 0, 0)),
                    ("f", 0, 0), ("f", 0, 0)],
              "y": [],
              "z": [("j", 0, (0, 0, 0)), ("j", 0, (0, 0, 0)),
                    ("j", 1, (0, 2, 0)), ("j", 1, (0, 0, 0))]},
     [("x", "y", (1, 0, 0))]),
    ((-1, 0), {"x": [("j", 0, (0, 0, 1))], "y": [("j", 1, (0, 0, 0))],
               "z": []}, [("y", "z", (0, 1, 0))]),
])


# Q[i] coefficients over denominators 2 and 3 under the complex kernel of
# default_kernels, (1 + i)*d1 delta: Gaussian-integer numerators over
# D = 6, not 1
MIXED_DENOMINATORS = (1, "complex", 1, ("y", "x"), [
    ((Fraction(1, 2), Fraction(-2, 3)),
     {"x": [("j", 0, (0,)), ("j", 1, (1,)), ("j", 1, (0,))],
      "y": [("j", 1, (0,)), ("j", 0, (2,)), ("j", 0, (0,))]}, []),
    ((Fraction(-3, 2), Fraction(1, 3)),
     {"x": [("j", 1, (0,)), ("j", 1, (0,)), ("j", 0, (1,))],
      "y": [("j", 0, (1,)), ("f", 0, 0), ("j", 1, (0,))]},
     [("x", "y", (1,))]),
])


@settings(max_examples=150, deadline=None)
@example(EMPTY_BLOCKS)
@example(MIXED_DENOMINATORS)
@given(cases())
def test_powers_match_per_monomial_reference(case):
    T, a, b, P, system = build(case)
    powers = list(islice(sigma_terms([(_factor(T, a), a, b)], P, system),
                         POWERS))
    reference = reference_powers(T, a, b, P, system, POWERS)
    assert [power.terms for power in powers] == reference
    assert all(power.dim == T.dim for power in powers)
    # the first power as the brackets read it, against the reference too
    assert _first_power([(_factor(T, a), a, b)], P, system).terms \
        == (reference[0] if reference else {})


def _gaussian_integer_path(T, a, b, P, system) -> bool:
    """Whether the operator on T over (a, b) runs on Gaussian-integer
    numerators over a common denominator above 1."""
    real, D, _setups = _setup([(_factor(T, a), a, b)], P, system,
                              sigma._keys())
    return not real and D > 1


def test_mixed_denominators_case_runs_on_gaussian_integers():
    T, a, b, P, system = build(MIXED_DENOMINATORS)
    assert _gaussian_integer_path(T, a, b, P, system)
    assert len(reference_powers(T, a, b, P, system, POWERS)) == POWERS


def test_empty_blocks_case_reaches_three_powers():
    T, a, b, P, system = build(EMPTY_BLOCKS)
    assert len(reference_powers(T, a, b, P, system, POWERS)) == POWERS


# -- work terms keyed by the ids of one table ---------------------------------

def _three_label_case(rng, dim: int, gaussian: bool):
    """A ``build`` case on three labels: jets, U(sort) and constants at
    each label, one term with no atom, one with a repeated delta atom, and
    Q[i] coefficients when ``gaussian``."""
    indices = multi_indices(dim, 2)

    def atom():
        kind = rng.choice("jjjfc")
        if kind == "j":
            return ("j", rng.randint(0, 1), rng.choice(indices))
        return ("f", rng.randint(0, 1), rng.randint(0, 1)) if kind == "f" \
            else ("c",)

    def delta():
        return (*rng.sample(LABELS, 2), rng.choice(indices))

    specs = []
    for n in range(6):
        re = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        im = Fraction(int(n == 0) or rng.randint(-2, 2), 2) if gaussian else 0
        atoms = {lab: [atom() for _ in range(rng.randint(0, 3) if n else 0)]
                 for lab in LABELS}
        deltas = [delta()] * 2 if n == 1 \
            else [delta() for _ in range(rng.randint(0, 2))]
        specs.append(((re, im), atoms, deltas))
    return (dim, "real", 0, ("x", "y"), specs)


def _decoded(works: dict, keys, real: bool, d: int) -> dict:
    """Work terms as {(located monomial, deltas, gamma): GRat}."""
    return {(sum([keys.values[i] for i in ids], ()), keys.values[did], gamma):
            GRat(Fraction(c, d)) if real
            else GRat(Fraction(c[0], d), Fraction(c[1], d))
            for (ids, did, gamma), c in works.items()}


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("gaussian", [False, True])
def test_work_terms_decode_through_the_key_table(dim, gaussian):
    rng = random.Random(f"work-keys:{dim}:{gaussian}")
    for _ in range(4):
        T, _a, _b, _P, system = build(_three_label_case(rng, dim, gaussian))
        assert any(not mon for mon, _deltas in T.terms)
        assert any(len(set(deltas)) < len(deltas) for _mon, deltas in T.terms)
        real, d, keys = not gaussian, sigma._denominator(T), sigma._Keys()
        assert real == all(not c._b for c in T.terms.values())
        works = sigma._works(T, real, d, keys)
        zero = mi_zero(dim)
        assert _decoded(works, keys, real, d) \
            == {(mon, deltas, zero): c for (mon, deltas), c in T.terms.items()}
        for ids, did, _gamma in works:
            labels = [keys.labels[i] for i in ids]
            assert labels == sorted(set(labels)) and None not in labels
            assert all(lab == keys.labels[i] for i in ids
                       for lab, _atom in keys.values[i])
            assert keys.labels[did] is None
        # a pass splices the rule's block ids into the key: it decodes to
        # the reference derivation, and each block a rule reached has the
        # id that rest() reads for it
        for label in LABELS:
            for sort in (system.primary, system.conjugate):
                for side in (0, 1):
                    out = sigma._derive(works, label, sort, side, dim, real,
                                        keys)
                    assert _decoded(out, keys, real, d) == _ref_derive(
                        _decoded(works, keys, real, d), label, sort, side, dim)
                    for ids, _did, _gamma in out:
                        mon = sum([keys.values[i] for i in ids], ())
                        assert keys.rest(mon) == ids


# -- fixed cases: how T splits into products ----------------------------------

def jet(sort, index, c=1):
    return FieldExpr.jet(sort, index).scale(c)


def at(f, label):
    return TensorExpr.from_field(f, label)


F = jet("phi", (1,)) * jet("phi", (0,)) * jet("pi", (0,), GRat(2, 1)) \
    + jet("phi", (0,)) ** 3 + jet("pi", (2,), -3) * jet("phi", (1,))
G = jet("pi", (1,)) * jet("pi", (0,)) ** 2 \
    + jet("phi", (1,), GRat(0, 1)) * jet("pi", (0,))
SYSTEM = real_system(1)


def check_powers(T, a, b, P, count=POWERS):
    """Compare the first powers with the reference; return how many
    products the kernel split T into."""
    powers = [power.terms for power in islice(
        sigma_terms([(_factor(T, a), a, b)], P, SYSTEM), count)]
    assert powers == reference_powers(T, a, b, P, SYSTEM, count)
    assert len(powers) == count
    return len(_factor(T, a))


def test_product_is_one_pair_on_either_side():
    for P in default_kernels(1):
        assert check_powers(at(F, "x") * at(G, "y"), "x", "y", P) == 1
        assert check_powers(at(F, "x") * at(G, "y"), "y", "x", P) == 1


def test_proportional_rows_with_different_scalars_are_one_pair():
    # the rows at G's two terms are F scaled by 1 and by i, and the
    # row at z (with its own delta) is F scaled by -1/2
    T = at(F, "x") * at(G, "y") \
        + at(F.scale(GRat(-1, 2)), "x") * at(jet("phi", (0,)), "z") \
        * TensorExpr.from_kernel(Kernel.delta(1), "y", "z")
    for P in default_kernels(1):
        assert check_powers(T, "x", "y", P) == 1


def test_non_proportional_rows_fall_back_to_one_pair_each():
    # (phi + pi)*phi and (phi - pi)*phi share their blocks but not their
    # ratio; phi[1]*phi has other blocks
    phi, pi = jet("phi", (0,)), jet("pi", (0,))
    T = at((phi + pi) * phi, "x") * at(G, "y") \
        + at((phi - pi) * phi, "x") * at(pi * pi, "y") \
        + at(jet("phi", (1,)) * phi, "x") * at(F, "y")
    for P in default_kernels(1):
        assert check_powers(T, "x", "y", P, 2) == 3


def test_block_with_function_atoms_of_both_sorts():
    U_phi = FieldExpr.function("U", "phi", 1)
    U_pi = FieldExpr.function("U", "pi", 1)
    T = at(U_phi * U_pi * jet("pi", (1,)), "x") * at(U_pi * U_phi + G, "y")
    for P in default_kernels(1):
        assert check_powers(T, "x", "y", P) == 1
        assert check_powers(T, "y", "x", P) == 1


def test_power_cancelled_by_an_equal_delta_atom_is_yielded_empty():
    # at power one, pi[1]@x*phi@y*delta{x,y} with d1 delta inserted meets
    # phi@x*pi@y*d1 delta{x,y} with delta inserted, and the two cancel;
    # the reference works before the atom joins, so it yields {} and stops
    T, a, b, _P, _system = build((1, "real", 0, ("x", "y"), [
        ((1, 0), {"x": [("j", 1, (1,))], "y": [("j", 0, (0,))]},
         [("x", "y", (0,))]),
        ((1, 0), {"x": [("j", 0, (0,))], "y": [("j", 1, (0,))]},
         [("x", "y", (1,))]),
    ]))
    powers = list(sigma_terms([(_factor(T, a), a, b)], Kernel.delta(1),
                              SYSTEM))
    assert [power.terms for power in powers] == [{}] \
        == reference_powers(T, a, b, Kernel.delta(1), SYSTEM, POWERS)


# -- caller-given products against the split of their product ----------------

def _seeded_products():
    """Seeded (L, R, a, b, P, system) over Q and Q[i], in dims 1 and 3, with
    a symmetric and an antisymmetric kernel: f@a (x) g@b on either label
    order, and f@a (x) g@b*h@z*K(a, b), whose R carries delta atoms on the
    operator's own label pair.  Over Q[i] only f and h draw imaginary
    parts and one kernel is real, so that either factor alone can take
    the operator off the int path."""
    rng = random.Random(8)
    for dim in (1, 3):
        system = real_system(dim)
        e1 = (1,) + (0,) * (dim - 1)
        sym = Kernel.delta(dim) + Kernel.derivative_delta(
            dim, mi_add(e1, e1), Fraction(1, 2))
        for gaussian, kernels in (
                (False, [sym, Kernel.derivative_delta(dim, e1)]),
                (True, [sym, default_kernels(dim)[1]])):
            for P in kernels:
                for _ in range(3):
                    f, g, h = (random_expr(system, rng, 3, 1,
                                           complex_ok=gaussian and c)
                               for c in (True, False, True))
                    for a, b in (("x", "y"), ("y", "x")):
                        yield at(f, a), at(g, b), a, b, P, system
                    yield at(f, "x"), at(g, "y") * at(h, "z") \
                        * TensorExpr.from_kernel(sym, "x", "y"), \
                        "x", "y", P, system


def test_given_product_matches_the_split_of_the_product():
    reached = 0
    for L, R, a, b, P, system in _seeded_products():
        given = [power.terms for power in islice(sigma_terms(
            [([(L, R)], a, b)], P, system), POWERS)]
        T = L * R
        split = [power.terms for power in islice(sigma_terms(
            [(_factor(T, a), a, b)], P, system), POWERS)]
        assert given == split == reference_powers(T, a, b, P, system, POWERS)
        reached += len(given) == POWERS
    assert reached >= 20


def test_given_products_read_the_deltas_of_r():
    # the cancelling T above as two given products: the deltas on (x, y)
    # are in the R factors, and the empty first power is still yielded
    phi, pi, pi1 = jet("phi", (0,)), jet("pi", (0,)), jet("pi", (1,))
    products = [
        (at(pi1, "x"), at(phi, "y")
         * TensorExpr.from_kernel(Kernel.delta(1), "x", "y")),
        (at(phi, "x"), at(pi, "y")
         * TensorExpr.from_kernel(Kernel.derivative_delta(1, (1,)), "x", "y")),
    ]
    powers = list(sigma_terms([(products, "x", "y")], Kernel.delta(1),
                              SYSTEM))
    assert [power.terms for power in powers] == [{}]


# -- fixed cases: int numerators over Q, Gaussian integers over Q[i] ---------

PHI, PI = jet("phi", (0,)), jet("pi", (0,))
# degree 4 at both labels, so that four powers are nonzero; the two rows
# at x are not proportional, so T splits into two products with different
# denominators
REAL_T = at(jet("phi", (1,), Fraction(1, 3)) * PHI ** 2 * PI
            + jet("phi", (0,), Fraction(2, 5)) * PHI ** 3, "x") \
    * at(jet("pi", (1,), Fraction(7, 4)) * PI ** 3 + PHI ** 2 * PI ** 2, "y") \
    + at(PHI ** 2 * PI ** 2 + jet("pi", (2,), Fraction(2, 5)) * PHI ** 3,
         "x") * at(PI ** 4, "y")


def test_real_input_runs_on_int_numerators_over_a_common_denominator():
    P = Kernel.delta(1) + Kernel.derivative_delta(1, (2,), Fraction(1, 2))
    assert len(_factor(REAL_T, "x")) == 2
    for a, b in (("x", "y"), ("y", "x")):
        check_powers(REAL_T, a, b, P, 4)
    powers = list(islice(sigma_terms([(_factor(REAL_T, "x"), "x", "y")], P,
                                     SYSTEM), 4))
    assert all(not c._b for power in powers for c in power.terms.values())
    assert any(c._d > 1 for power in powers for c in power.terms.values())


def test_imaginary_kernel_puts_real_input_on_gaussian_integers():
    P = Kernel.delta(1, I)
    assert _gaussian_integer_path(REAL_T, "x", "y", P, SYSTEM)
    check_powers(REAL_T, "x", "y", P, 4)


def test_complex_input_runs_on_gaussian_integers():
    T = REAL_T + at(jet("phi", (1,), GRat(Fraction(1, 3), 2)) * PI ** 3,
                    "x") * at(PHI * PI ** 3, "y")
    P = Kernel.derivative_delta(1, (1,))
    assert _gaussian_integer_path(T, "x", "y", P, SYSTEM)
    check_powers(T, "x", "y", P, 4)


def test_kernel_of_another_dimension_is_rejected():
    # a 3-dim kernel index would be truncated to the operands' one entry
    system = real_system(1)
    with pytest.raises(DimensionMismatch):
        bracket_fn(jet("phi", (1,)), PI, Kernel.derivative_delta(3, (0, 0, 1)),
                   system)
    with pytest.raises(DimensionMismatch):
        star_fn(PHI, PI, Kernel.delta(3), system)


# -- the first power of many calls, accumulated in one pass --------------------

def first_terms(calls, P, system):
    """The reference for the first power of many calls: the sum of each
    call's first ``sigma_terms`` term, each formed on its own."""
    total = TensorExpr.zero(P.dim)
    for products, a, b in calls:
        total = total + next(sigma_terms([(products, a, b)], P, system),
                             TensorExpr.zero(P.dim))
    return total


def _seeded_calls():
    """Seeded (calls, P, system, real) in dims 1 and 3, with a symmetric
    and an antisymmetric real kernel and the antisymmetric kernel of
    ``default_kernels``, which has an imaginary part; the factors are over
    Q, over Q except for the one call at z, or over Q[i].  The calls take
    both label orders, an R with a delta atom on the call's own label
    pair, a zero factor and a call without products."""
    rng = random.Random(11)
    for dim in (1, 3):
        system = real_system(dim)
        e1 = (1,) + (0,) * (dim - 1)
        sym = Kernel.delta(dim) + Kernel.derivative_delta(
            dim, mi_add(e1, e1), Fraction(1, 2))
        K = TensorExpr.from_kernel(sym, "x", "y")
        for P, real_kernel in ((sym, True),
                               (Kernel.derivative_delta(dim, e1), True),
                               (default_kernels(dim)[1], False)):
            for mix in ("real", "one call complex", "complex"):
                f, g, k = (random_expr(system, rng, 3, 1,
                                       complex_ok=mix == "complex")
                           for _ in range(3))
                h = random_expr(system, rng, 3, 1, complex_ok=False)
                if mix != "real":
                    h = h.scale(GRat(1, 1))
                calls = [
                    ([(at(f, "x"), at(g, "y"))], "x", "y"),
                    ([(at(g, "y"), at(f, "x"))], "y", "x"),
                    ([(at(h, "z"), at(f, "x") * at(g, "y") * K)], "z", "x"),
                    ([(at(f, "x"), at(g, "y") * at(k, "z") * K)], "x", "y"),
                    ([(TensorExpr.zero(dim), at(g, "y"))], "x", "y"),
                    ([], "y", "z"),
                ]
                yield calls, P, system, real_kernel and mix == "real"


def test_first_power_of_many_calls_matches_their_sum():
    nonzero = 0
    for calls, P, system, real in _seeded_calls():
        result = _first_power(calls, P, system)
        assert result == first_terms(calls, P, system)
        assert result.dim == P.dim
        if real:
            assert all(not c._b for c in result.terms.values())
        nonzero += not result.is_zero()
        # each call on its own, too
        for call in calls:
            assert _first_power([call], P, system) \
                == first_terms([call], P, system)
    assert nonzero >= 15


def test_first_power_keeps_the_cancellation_on_a_delta_of_r():
    # the two products of test_given_products_read_the_deltas_of_r cancel
    # once the inserted atom joins the delta atoms of R; another call's
    # term is unaffected
    phi, pi, pi1 = jet("phi", (0,)), jet("pi", (0,)), jet("pi", (1,))
    meets = ([
        (at(pi1, "x"), at(phi, "y")
         * TensorExpr.from_kernel(Kernel.delta(1), "x", "y")),
        (at(phi, "x"), at(pi, "y")
         * TensorExpr.from_kernel(Kernel.derivative_delta(1, (1,)), "x", "y")),
    ], "x", "y")
    other = ([(at(phi, "z"), at(pi, "y"))], "z", "y")
    P = Kernel.delta(1)
    assert _first_power([meets], P, SYSTEM).is_zero()
    assert _first_power([meets, other], P, SYSTEM) \
        == _first_power([other], P, SYSTEM) \
        == first_terms([other], P, SYSTEM)
    assert not _first_power([other], P, SYSTEM).is_zero()


def test_first_power_rejects_a_coinciding_label_pair():
    with pytest.raises(ValueError):
        _first_power([([(at(PHI, "x"), at(PI, "y"))], "x", "x")],
                     Kernel.delta(1), SYSTEM)
    with pytest.raises(ValueError):
        _first_power([([], "x", "x")], Kernel.delta(1), SYSTEM)


def test_calls_on_reverse_pairs_run_until_no_lineage_is_left():
    # for the symmetric delta, power k on (y, x) is (-1)^k times power k
    # on (x, y), so f@x (x) g@y on (x, y) and g@y (x) f@x on (y, x) cancel
    # at powers 1 and 3 but not at 2: the generator over both must not stop
    # at an empty power
    f, g = PHI ** 2 * PI, PI ** 2 * PHI
    P = Kernel.delta(1)
    calls = [([(at(f, "x"), at(g, "y"))], "x", "y"),
             ([(at(g, "y"), at(f, "x"))], "y", "x")]
    alone = [list(sigma_terms([call], P, SYSTEM)) for call in calls]
    assert [len(powers) for powers in alone] == [3, 3]
    both = list(sigma_terms(calls, P, SYSTEM))
    assert both == [X + Y for X, Y in zip(*alone)]
    assert [len(T.terms) for T in both] == [0, 2, 0]
    # calls on one ordered pair still stop at their first empty power
    minus = ([(at(f.scale(-1), "x"), at(g, "y"))], "x", "y")
    assert list(sigma_terms([calls[0], minus], P, SYSTEM)) == []


def _old_bracket_tensor(h, c, T, P, system):
    """{h@c, T}_P as the sum over T's labels of each label's own first
    ``sigma_terms`` term."""
    H = TensorExpr.from_field(h, c)
    return first_terms([([(H, T)], c, l) for l in sorted(T.labels())],
                       P, system)


def test_jacobi_residual_matches_three_separate_brackets():
    # each outer bracket is nonzero, so the zero sum is a cancellation
    # that both routes must reach
    rng = random.Random(12)
    for dim, pairing in ((1, "real"), (1, "complex"), (3, "real")):
        system = real_system(dim) if pairing == "real" \
            else complex_system(dim)
        for P in default_kernels(dim):
            f, g, h = (random_expr(system, rng, 3, 1) for _ in range(3))
            outer = [
                _old_bracket_tensor(h, "z", bracket_fn(f, g, P, system),
                                    P, system),
                _old_bracket_tensor(g, "y", bracket_fn(h, f, P, system,
                                                       "z", "x"), P, system),
                _old_bracket_tensor(f, "x", bracket_fn(g, h, P, system,
                                                       "y", "z"), P, system),
            ]
            assert all(not term.is_zero() for term in outer)
            assert jacobi_residual(f, g, h, P, system) \
                == outer[0] + outer[1] + outer[2]


# -- output keys interned per invocation ----------------------------------------

def _json(T) -> str:
    return dumps_canonical(to_json(T))


def _jacobi_kernels(dim: int, gaussian: bool) -> list:
    """A symmetric and an antisymmetric kernel: real ones, or those of
    ``default_kernels``, which have imaginary parts."""
    if gaussian:
        return default_kernels(dim)
    e1 = (1,) + (0,) * (dim - 1)
    return [Kernel.delta(dim) + Kernel.derivative_delta(
        dim, mi_add(e1, e1), Fraction(1, 2)), Kernel.derivative_delta(dim, e1)]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("gaussian", [False, True])
def test_keys_merge_across_first_labels(dim, gaussian):
    # the six calls of a Jacobi triple have first labels z, y and x; one
    # generator over any run of them must merge equal output keys of calls
    # on different first labels, as the separate sums do
    rng = random.Random(f"merge:{dim}:{gaussian}")
    system = real_system(dim)
    for P in _jacobi_kernels(dim, gaussian):
        f, g, h = (random_expr(system, rng, 3, 1, complex_ok=gaussian)
                   for _ in range(3))
        calls = _tensor_calls(h, "z", bracket_fn(f, g, P, system, "x", "y"),
                              P, system)
        calls += _tensor_calls(g, "y", bracket_fn(h, f, P, system, "z", "x"),
                               P, system)
        calls += _tensor_calls(f, "x", bracket_fn(g, h, P, system, "y", "z"),
                               P, system)
        assert [a for _products, a, _b in calls] == ["z", "z", "y", "y",
                                                     "x", "x"]
        separate = TensorExpr.zero(dim)
        for n, call in enumerate(calls, 1):
            separate = separate + _first_power([call], P, system)
            assert _json(_first_power(calls[:n], P, system)) \
                == _json(separate)
        assert separate.is_zero()  # the Jacobi identity
        assert not _first_power(calls[:4], P, system).is_zero()


def test_tables_belong_to_one_generator():
    # two generators on different inputs, advanced in alternation, each
    # yield what they yield when run alone
    rng = random.Random(14)
    system = real_system(1)
    inputs = []
    for gaussian, (a, b) in ((False, ("x", "y")), (True, ("y", "x"))):
        f, g = (random_expr(system, rng, 4, 2, complex_ok=gaussian)
                for _ in range(2))
        inputs.append(([(at(f, a), at(g, b))], a, b,
                       _jacobi_kernels(1, gaussian)[0]))
    alone = [[_json(T) for T in islice(sigma_terms([(products, a, b)], P,
                                                   system), POWERS + 2)]
             for products, a, b, P in inputs]
    assert all(len(powers) >= POWERS for powers in alone)
    gens = [sigma_terms([(products, a, b)], P, system)
            for products, a, b, P in inputs]
    alternated = [[], []]
    for _ in range(POWERS + 2):
        for gen, powers in zip(gens, alternated):
            T = next(gen, None)
            if T is not None:
                powers.append(_json(T))
    assert alternated == alone


@pytest.mark.parametrize("c", ["w", "z"])
def test_shared_factor_is_derived_once_per_sort(c, monkeypatch):
    # {h@c, T} on a two-label T makes one call per label of T, and c sorts
    # on the same side of both, so H's two passes (one per sort) serve
    # both calls
    derive = sigma._derive
    passes = []

    def counting(works, label, sort, side, dim, real, keys):
        passes.append((label, sort, side))
        return derive(works, label, sort, side, dim, real, keys)

    f, g, h = F, G, jet("phi", (1,)) * jet("pi", (0,)) ** 2
    for P in default_kernels(1):
        T = bracket_fn(f, g, P, SYSTEM)
        expected = _old_bracket_tensor(h, c, T, P, SYSTEM)
        passes.clear()
        with monkeypatch.context() as patched:
            patched.setattr(sigma, "_derive", counting)
            result = _first_power(_tensor_calls(h, c, T, P, SYSTEM), P,
                                  SYSTEM)
        assert result == expected
        at_c = [p for p in passes if p[0] == c]
        assert len(at_c) == len(set(at_c)) == 2
        assert len(passes) == 2 + 4  # and two per label of T


# -- output terms built from shared parts -------------------------------------

def _linear_power(coeffs, jets, e):
    """(c1 j1 + c2 j2 + c3 j3)^e over the jets (sort, index)."""
    total = FieldExpr.zero(1)
    for c, (sort, index) in zip(coeffs, jets):
        total = total + jet(sort, index, c)
    return total ** e


def _star_degree_inputs():
    """star-degree's input shape at e = 3, f = (a1 phi[1] + a2 pi[1] +
    a3 phi)^3 and g = (b1 phi[2] + b2 pi + b3 pi[1])^3, with coefficients
    1, 2 and 1/2 up to sign, or with a1 and b2 off the real line, under
    delta and d1 delta."""
    half = Fraction(1, 2)
    for a1, b2 in ((1, -2), (GRat(1, 2), GRat(half, -1))):
        f = _linear_power([a1, -2, half],
                          [("phi", (1,)), ("pi", (1,)), ("phi", (0,))], 3)
        g = _linear_power([half, b2, 1],
                          [("phi", (2,)), ("pi", (0,)), ("pi", (1,))], 3)
        for P in (Kernel.delta(1), Kernel.derivative_delta(1, (1,))):
            yield f, g, P


def test_star_degree_shape_matches_the_reference():
    # keys of one power share block prefixes and numerators there; the
    # denominator grows with k!, so a numerator's GRat belongs to one power
    shared = 0
    for f, g, P in _star_degree_inputs():
        L, R = at(f, "x"), at(g, "y")
        powers = [power.terms for power in islice(
            sigma_terms([([(L, R)], "x", "y")], P, SYSTEM), 8)]
        assert powers == reference_powers(L * R, "x", "y", P, SYSTEM, 8)
        assert len(powers) == 3
        for terms in powers:
            values = list(terms.values())
            # one GRat per distinct numerator, shared by the keys that have it
            assert len({id(c) for c in values}) == len(set(values))
            shared += len(set(values)) < len(values)
    assert shared >= 8


def test_one_label_factor_and_two_label_factor_match_the_reference(
        monkeypatch):
    # L's atoms are all at its label, so _derive takes each of its keys
    # whole, one block id; R = g@b * h@z * K(b, z) has atoms at two labels
    # and a delta atom, so _derive scans R's keys for the block at b among
    # several ids (the labels of the passes that meet such keys are counted)
    derive = sigma._derive
    calls = []

    def counting(works, label, *args):
        if any(len(ids) > 1 for ids, _did, _gamma in works):
            calls.append(label)
        return derive(works, label, *args)

    monkeypatch.setattr(sigma, "_derive", counting)
    K = Kernel.delta(1) + Kernel.derivative_delta(1, (1,), Fraction(1, 3))
    h = jet("phi", (1,), 2) * jet("pi", (0,)) + jet("pi", (2,), GRat(0, 1))
    for P in default_kernels(1):
        for a, b in (("x", "y"), ("y", "x")):
            L, R = at(F, a), at(G, b) * at(h, "z") \
                * TensorExpr.from_kernel(K, b, "z")
            calls.clear()
            powers = [power.terms for power in islice(
                sigma_terms([([(L, R)], a, b)], P, SYSTEM), POWERS)]
            assert powers == reference_powers(L * R, a, b, P, SYSTEM, POWERS)
            assert len(powers) == POWERS
            assert set(calls) == {b}
            # a product of two one-label factors has no key of several blocks
            calls.clear()
            assert [power.terms for power in islice(
                sigma_terms([([(L, at(G, b))], a, b)], P, SYSTEM), POWERS)] \
                == reference_powers(L * at(G, b), a, b, P, SYSTEM, POWERS)
            assert calls == []


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("complex_pair", [False, True])
def test_reversed_pair_is_the_forward_pair_times_an_orientation_sign(
        dim, complex_pair):
    # with s = bracket_sign(P), power k on (y, x) with P^t is s^k times
    # power k on (x, y) with P, and with P itself -s^(k+1) times: not s
    # times at every k
    rng = random.Random(2323 + dim + 10 * complex_pair)
    system = complex_system(dim) if complex_pair else real_system(dim)
    longest = 0
    for P in default_kernels(dim):  # one symmetric, one antisymmetric
        s = bracket_sign(P)
        for _ in range(2):
            f, g = (at(random_expr(system, rng, max_degree=3,
                                   max_jet_order=1, complex_ok=complex_pair),
                       label) for label in "xy")
            forward = list(islice(
                sigma_terms([([(f, g)], "x", "y")], P, system), 5))
            longest = max(longest, len(forward))
            for Q, sign in ((P.transpose(), lambda k: s ** k),
                            (P, lambda k: -s ** (k + 1))):
                reverse = list(islice(
                    sigma_terms([([(g, f)], "y", "x")], Q, system), 5))
                assert len(reverse) == len(forward)
                for k, (T, U) in enumerate(zip(forward, reverse), 1):
                    assert U == T.scale(sign(k))
    assert longest >= 2  # an odd and an even power
