"""Equations of motion: one bracket on the call path, and the identity that
the star commutator is twice that bracket checked as a residual."""

import dataclasses
import json
from contextlib import nullcontext
from pathlib import Path

import pytest

import fieldstar.poisson
import fieldstar.star
from fieldstar.jets import FieldExpr, mi_zero, real_system
from fieldstar.kernels import Kernel
from fieldstar.poisson import Functional
from fieldstar.render import render_field_expr
from fieldstar.session import load_config_file
from fieldstar.star import closed_form_residuals, eom_residual, equation_of_motion

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_outputs.json").read_text(encoding="utf-8"))


def _flag(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


# the (config, field) of every eom case in the golden corpus
EOM_CASES = sorted({(_flag(c["argv"], "--config"), _flag(c["argv"], "--field"))
                    for c in GOLDEN if c["argv"][0] == "eom"})
KERNELS = ("i*delta", "delta", "d1 delta")


def _case(config: str, field: str, kernel: str) -> tuple:
    cfg = dataclasses.replace(load_config_file(str(ROOT / config)),
                              kernel_text=kernel)
    jet = FieldExpr.jet(field, mi_zero(cfg.dim), cfg.dim)
    return cfg.hamiltonian(), jet, cfg.kernel(), cfg.system


def test_the_golden_corpus_has_four_eom_cases():
    assert EOM_CASES == [("configs/kg.json", "phi"), ("configs/kg.json", "pi"),
                         ("configs/nls.json", "psi"),
                         ("configs/nls.json", "psibar")]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("config, field", EOM_CASES)
def test_eom_residual_is_zero_on_the_golden_eom_cases(config, field, kernel):
    H, jet, P, system = _case(config, field, kernel)
    assert not equation_of_motion(H, jet, P, system).is_zero()
    assert eom_residual(H, jet, P, system).is_zero()


def test_eom_residual_sees_a_bracket_off_by_one_term(monkeypatch):
    H, jet, P, system = _case("configs/kg.json", "pi", "i*delta")
    extra = FieldExpr.jet("phi", (0, 0, 0))
    bracket = fieldstar.star.bracket_functional_density
    monkeypatch.setattr(fieldstar.star, "bracket_functional_density",
                        lambda *args: bracket(*args) + extra)
    assert eom_residual(H, jet, P, system) == -(extra + extra)


def _count_calls(monkeypatch, module, name: str, calls: dict) -> None:
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_equation_of_motion_forms_one_bracket_and_no_star(monkeypatch):
    H, jet, P, system = _case("configs/kg.json", "pi", "i*delta")
    calls = {"star_fn": 0}
    _count_calls(monkeypatch, fieldstar.star, "star_fn", calls)
    _count_calls(monkeypatch, fieldstar.poisson, "bracket_fn", calls)
    rhs = equation_of_motion(H, jet, P, system)
    assert calls == {"star_fn": 0, "bracket_fn": 1}
    assert render_field_expr(rhs) == "laplacian(phi) - m^2*phi - U'(phi)"


# closed forms: a functional-functional difference counts modulo divergence

SYS1 = real_system(1)
PHI, PI = FieldExpr.jet("phi", (0,)), FieldExpr.jet("pi", (0,))


@pytest.mark.parametrize("extra, zero", [
    ((PHI * PI).total_derivative(1), True),  # a total divergence
    (FieldExpr.const(1, 1), False),  # a constant: no variational derivative
    (PHI, False),
])
def test_closed_form_residuals_compare_functionals_by_the_euler_criterion(
        monkeypatch, extra, zero):
    F, G = Functional(PHI * PI, SYS1), Functional(PHI * PHI, SYS1)
    P = Kernel.delta(1)
    forms = closed_form_residuals(F, G, PI, P, SYS1, 2)
    assert list(forms) == ["functional-density bracket",
                           "functional-functional bracket",
                           "functional-density star",
                           "functional-functional star"]
    assert all(r.is_zero() for rs in forms.values() for r in rs)
    closed = fieldstar.star.star_functionals_closed

    def shifted(*args):
        tail = closed(*args)
        tail[1] = tail.get(1, FieldExpr.zero(1)) + extra
        return tail
    monkeypatch.setattr(fieldstar.star, "star_functionals_closed", shifted)
    forms = closed_form_residuals(F, G, PI, P, SYS1, 2)
    for name in ("functional-functional bracket", "functional-functional star"):
        assert all(r.is_zero() for r in forms[name]) == zero
    with nullcontext() if zero else pytest.raises(AssertionError):
        fieldstar.star.star_functionals(F, G, P, SYS1, 2, cross_check=True)
