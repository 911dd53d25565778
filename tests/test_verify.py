"""The verification suites' trial loops, with every residual stubbed.

Each residual function a suite calls is replaced by one that records its
rendered arguments and returns zero.  Run on the acceptance tests' seeds and
trial counts, the suites must draw exactly the recorded inputs (pinned by
their sha256) and print the same report lines, so a change to a suite's loop
cannot move an RNG stream, a trial count or a report text unnoticed.
"""

import hashlib
import random

import pytest

import fieldstar.peierls
import fieldstar.verify as V
from fieldstar.euler_lagrange import ELOperator
from fieldstar.jets import FieldExpr, FieldSystem, complex_system, real_system
from fieldstar.kernels import Kernel
from fieldstar.poisson import Functional
from fieldstar.rationals import GRat, I
from fieldstar.render import render_field_expr
from fieldstar.tensor import TensorExpr
import numeric_oracle

# every residual function the suites look up in fieldstar.verify's namespace,
# the two complex-field identities among them, apart from
# closed_form_residuals, which _closed_forms_recording stubs
VERIFY_RESIDUALS = (
    "jacobi_residual", "duality_residual", "el_power_duality_residual",
    "assoc_residuals", "commutator_semiclassical",
    "conjugation_residual", "real_complex_equivalence",
)
CLOSED_FORMS = ("functional-density bracket", "functional-functional bracket",
                "functional-density star", "functional-functional star")

# sha256 of the recorded inputs, one line per residual call, taken from the
# suites' loops before they shared one
INPUTS_SHA256 = "a4643cf6d8f9902fd26da9745b39f052cea349dc0808b5718fa0926ea35675b8"
INPUTS_COUNT = 1424

SYM1, ANTI1 = "delta + (1 + i)*d1^2 delta", "(1 + i)*d1 delta"
SYM3, ANTI3 = "delta + (1 + i)*d1^2 delta", "i*d3 delta + d1 delta"
REPORT_LINES = (
    [f"PASS jacobi [{P}]: 50/50 checks" for P in (SYM1, ANTI1, SYM3, ANTI3)]
    + [f"PASS assoc [{P}]: 125/125 checks" for P in (SYM1, ANTI1)]
    + ["PASS duality: 50/50 checks"]
    + [f"PASS closed-forms [{P}]: 52/52 checks" for P in (SYM1, ANTI1)]
    + [f"PASS semiclassical [{P}]: 50/50 checks" for P in (SYM1, ANTI1)]
    + [f"PASS jacobi [{P}]: 50/50 checks" for P in (SYM1, ANTI1)]
    + [f"PASS jacobi [{P}]: 25/25 checks" for P in (SYM3, ANTI3)]
    + ["PASS duality: 50/50 checks"]
    + [line for P in (SYM1, ANTI1)
       for line in (f"PASS assoc [{P}]: 125/125 checks",
                    f"PASS semiclassical [{P}]: 50/50 checks",
                    f"PASS closed-forms [{P}]: 52/52 checks")]
    + ["PASS complex-equiv: 23/23 checks"] * 2
    + ["PASS variational-oracle: 20/20 checks"]
)


class _Zero:
    """A zero residual of every shape the suites read: a single residual, a
    series whose coefficients are zero, or an empty list of residuals."""

    def is_zero(self):
        return True

    def coefficient(self, _k):
        return self

    def __iter__(self):
        return iter(())


def _render(value) -> str:
    if isinstance(value, FieldExpr):
        return render_field_expr(value)
    if isinstance(value, Functional):
        return f"int {render_field_expr(value.density)}"
    if isinstance(value, ELOperator):
        return f"op@{value.label} {sorted(value.terms.items())!r}"
    if isinstance(value, FieldSystem):
        return f"system{value.dim} {value.sort_names()}"
    if isinstance(value, (Kernel, str, int, float, tuple, bool)):
        return repr(value)
    return type(value).__name__


def _recording(records: list, name: str, result):
    def residual(*args, **kwargs):
        rendered = [_render(a) for a in args]
        rendered += [f"{k}={_render(v)}" for k, v in sorted(kwargs.items())]
        records.append(f"{name}({', '.join(rendered)})")
        return result
    return residual


def _closed_forms(bad: dict | None = None) -> dict:
    """closed_form_residuals' shape: a list of residuals per closed form,
    empty (zero) except for the forms in ``bad``."""
    return {name: (bad or {}).get(name, []) for name in CLOSED_FORMS}


def _closed_forms_recording(records: list):
    """closed_form_residuals compares the four functional products; it is
    recorded as the four product calls with cross_check=True that the suite
    made before it had one residual function, so the pinned digest still
    covers the same drawn inputs."""
    def residual(F, G, g, P, system, order):
        F, G, g, P, system = (_render(v) for v in (F, G, g, P, system))
        records.extend([
            f"bracket_functional_density({F}, {g}, {P}, {system}, cross_check=True)",
            f"bracket_functionals({F}, {G}, {P}, {system}, cross_check=True)",
            f"star_functional_density({F}, {g}, {P}, {system}, "
            f"cross_check=True, order={order})",
            f"star_functionals({F}, {G}, {P}, {system}, "
            f"cross_check=True, order={order})",
        ])
        return _closed_forms()
    return residual


def _stub_residuals(monkeypatch) -> list:
    records: list = []
    for name in VERIFY_RESIDUALS:
        monkeypatch.setattr(V, name, _recording(records, name, _Zero()))
    monkeypatch.setattr(V, "closed_form_residuals",
                        _closed_forms_recording(records))
    monkeypatch.setattr(numeric_oracle, "variational_oracle_error",
                        _recording(records, "variational_oracle_error", 0.0))
    return records


def _run_suites() -> list:
    """The acceptance tests' suite calls, with their seeds and counts, and
    the CLI's default complex-equiv run (seed 0, 10 trials) in dims 1 and 3."""
    reports = []
    rng = random.Random(2024)
    for dim in (1, 3):
        for P in V.default_kernels(dim):
            reports.append(V.verify_jacobi(real_system(dim), P, 50, rng))
    rng = random.Random(303)
    for P in V.default_kernels(1):
        reports.append(V.verify_assoc(real_system(1), P, 25, rng))
    reports.append(V.verify_duality(real_system(1), 50, random.Random(404)))
    rng = random.Random(505)
    for P in V.default_kernels(1):
        reports.append(V.verify_closed_forms(real_system(1), P, 13, rng))
    rng = random.Random(606)
    for P in V.default_kernels(1):
        reports.append(V.verify_semiclassical(real_system(1), P, 50, rng))
    rng = random.Random(909)
    for dim in (1, 3):
        for P in V.default_kernels(dim):
            reports.append(V.verify_jacobi(complex_system(dim), P,
                                           50 if dim == 1 else 25, rng))
    system = complex_system(1)
    reports.append(V.verify_duality(system, 50, rng))
    for P in V.default_kernels(1):
        reports.append(V.verify_assoc(system, P, 25, rng))
        reports.append(V.verify_semiclassical(system, P, 50, rng))
        reports.append(V.verify_closed_forms(system, P, 13, rng))
    rng = random.Random(0)
    for dim in (1, 3):
        reports.append(V.verify_complex_equiv(dim, 10, rng))
    reports.append(numeric_oracle.verify_variational_oracle(seed=1111))
    return reports


def test_suites_draw_the_pinned_inputs_and_print_the_pinned_lines(monkeypatch):
    records = _stub_residuals(monkeypatch)
    lines = [report.line() for report in _run_suites()]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == (INPUTS_COUNT, INPUTS_SHA256)
    assert lines == REPORT_LINES


# nonzero residuals: the first of two terms is kept in a report's detail
TWO_TERMS = TensorExpr.from_kernel(Kernel.delta(1) + Kernel.derivative_delta(1, (1,)),
                                   "x", "y")
ONE_TERM = TensorExpr.from_kernel(Kernel.delta(1, I), "x", "y")
ZERO = TensorExpr(1, {})
# a complex leading coefficient: its " + " does not end the first term
COMPLEX_FIRST = FieldExpr.jet("phi", (0,)).scale(GRat(1, 2)) + FieldExpr.jet("pi", (0,))


class _Series:
    def __init__(self, coeffs):
        self.coeffs = coeffs

    def coefficient(self, k):
        return self.coeffs.get(k, ZERO)


def _nonzero_at(bad: dict, zero):
    """A residual that is zero except at the (1-based) calls in ``bad``,
    where it returns the given value."""
    calls = []

    def residual(*_args, **_kwargs):
        calls.append(None)
        return bad.get(len(calls), zero)
    return residual


SYM1 = V.default_kernels(1)[0]
FAILING = {
    "jacobi": (
        lambda: V.verify_jacobi(real_system(1), SYM1, 10, random.Random(0)),
        [(V, "jacobi_residual", {3: TWO_TERMS, 5: ONE_TERM}, ZERO)],
        2, "FAIL jacobi [delta + (1 + i)*d1^2 delta]: 8/10 checks (first nonzero term: delta{x,y})"),
    "duality": (
        lambda: V.verify_duality(real_system(1), 4, random.Random(0)),
        [(V, "duality_residual", {}, ZERO),
         (V, "el_power_duality_residual",
          {1: FieldExpr.jet("phi", (0,)) + FieldExpr.jet("pi", (0,))}, ZERO)],
        1, "FAIL duality: 3/4 checks (first nonzero term: phi)"),
    "assoc": (
        lambda: V.verify_assoc(real_system(1), SYM1, 2, random.Random(0)),
        [(V, "assoc_residuals", {4: [ZERO, TWO_TERMS], 7: [ONE_TERM]}, [])],
        2, "FAIL assoc [delta + (1 + i)*d1^2 delta]: 8/10 checks (level 2, first nonzero term: delta{x,y})"),
    "semiclassical": (
        lambda: V.verify_semiclassical(real_system(1), SYM1, 5,
                                       random.Random(0)),
        [(V, "commutator_semiclassical",
          {2: _Series({1: TWO_TERMS}), 4: _Series({0: ONE_TERM})},
          _Series({}))],
        2, "FAIL semiclassical [delta + (1 + i)*d1^2 delta]: 3/5 checks (hbar^1 term: delta{x,y})"),
    "closed-forms": (
        lambda: V.verify_closed_forms(real_system(1), SYM1, 2,
                                      random.Random(0)),
        [(V, "closed_form_residuals", {
            1: _closed_forms({"functional-functional star": [ZERO, COMPLEX_FIRST]}),
            2: _closed_forms({"functional-functional bracket": [ONE_TERM]})},
          _closed_forms())],
        2, "FAIL closed-forms [delta + (1 + i)*d1^2 delta]: 6/8 checks (functional-functional star, "
           "first nonzero term: (1 + 2*i)*phi)"),
    "complex-equiv": (
        lambda: V.verify_complex_equiv(1, 2, random.Random(0)),
        [(V, "real_complex_equivalence", {2: [ZERO, TWO_TERMS]}, []),
         (V, "conjugation_residual", {3: ONE_TERM}, ZERO)],
        2, "FAIL complex-equiv: 5/7 checks (equivalence term: delta{x,y})"),
    "peierls": (
        lambda: V.verify_peierls(),
        [(fieldstar.peierls, "peierls_bracket_residual", {1: ONE_TERM}, ZERO),
         (fieldstar.peierls, "energy_drift", {2: 1.0}, 0.0)],
        2, "FAIL peierls: 5/7 checks (symbolic bracket != -G(t-s))"),
    "variational-oracle": (
        lambda: numeric_oracle.verify_variational_oracle(),
        [(numeric_oracle, "variational_oracle_error",
          {2: 2.5e-3, 4: 1.0}, 0.0)],
        2, "FAIL variational-oracle: 18/20 checks (relative error 2.50e-03)"),
}


@pytest.mark.parametrize("suite", sorted(FAILING))
def test_a_failing_suite_counts_its_failures_and_keeps_the_first_detail(
        monkeypatch, suite):
    run, patches, failures, line = FAILING[suite]
    for module, name, bad, zero in patches:
        monkeypatch.setattr(module, name, _nonzero_at(bad, zero))
    report = run()
    assert (report.failures, report.ok) == (failures, False)
    assert report.line() == line
