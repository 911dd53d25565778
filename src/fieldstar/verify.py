"""Randomized zero-residual verification suites.

Each randomized suite yields, per check, None or a failure's detail; one
loop (`_report`) counts them into a VerifyReport that keeps the first detail
for diagnostics; a check is one residual.  All symbolic suites demand exact
zero; only the spectral suites use tolerances.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .euler_lagrange import (
    ELOperator,
    duality_residual,
    el_power_duality_residual,
)
from .jets import FieldSystem, complex_system
from .kernels import Kernel
from .poisson import (Functional, conjugation_residual, jacobi_residual,
                      real_complex_equivalence)
from .randexpr import multi_indices, random_coeff, random_density, random_expr
from .rationals import GRat, I
from .render import render_kernel, to_text
from .star import assoc_residuals, closed_form_residuals, commutator_semiclassical

# the truncation order of the associativity and closed-form suites, and the
# spectral suite's mode cutoff and its tolerance on mode-wise residuals
ORDER = 4
MODES = 64
MODE_TOL = 1e-10


@dataclass
class VerifyReport:
    name: str
    checks: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{status} {self.name}: {self.checks - self.failures}/{self.checks} checks{extra}"


def default_kernels(dim: int) -> list[Kernel]:
    """One symmetric and one antisymmetric representative."""
    sym = Kernel.delta(dim) + Kernel.derivative_delta(dim, (2,) + (0,) * (dim - 1),
                                                      GRat(1, 1))
    anti = Kernel.derivative_delta(dim, (1,) + (0,) * (dim - 1)) \
        + Kernel.derivative_delta(dim, (0,) * (dim - 1) + (1,), I)
    return [sym, anti]


def _report(name: str, checks, P: Kernel | None = None) -> VerifyReport:
    """Run a suite's checks, a generator that yields per check None (pass)
    or a detail string (fail), keeping the first detail; P names the kernel."""
    outcomes = list(checks)
    failed = [detail for detail in outcomes if detail is not None]
    name = name if P is None else f"{name} [{render_kernel(P)}]"
    return VerifyReport(name, len(outcomes), len(failed), failed[0] if failed else "")


def _first_nonzero(residuals, prefix: str) -> str | None:
    """None if every residual is zero, else the first rendered term of the
    first nonzero one, after ``prefix``; a complex coefficient's " + "
    inside parentheses does not end the term."""
    bad = next((r for r in residuals if not r.is_zero()), None)
    if bad is None:
        return None
    return prefix + re.split(r" \+ (?![^()]*\))", to_text(bad))[0]


def verify_jacobi(system: FieldSystem, P: Kernel, trials: int,
                  rng: random.Random) -> VerifyReport:
    def checks():
        for _ in range(trials):
            f, g, h = (random_expr(system, rng, max_degree=3, max_jet_order=1)
                       for _ in range(3))
            yield _first_nonzero([jacobi_residual(f, g, h, P, system)],
                                 "first nonzero term: ")
    return _report("jacobi", checks(), P)


def verify_duality(system: FieldSystem, trials: int,
                   rng: random.Random) -> VerifyReport:
    dim = system.dim
    sorts = system.sort_names()
    indices = multi_indices(dim, 2)

    def checks():
        for trial in range(trials):
            f = random_expr(system, rng, max_degree=3, max_jet_order=2,
                            functions=(("U", sorts[0]),) if rng.random() < 0.3 else ())
            sort = rng.choice(sorts)
            if trial % 2 == 0:
                op = ELOperator.identity(dim, "x")
                for _ in range(rng.randint(1, 2)):
                    gen = ELOperator.generator(rng.choice(sorts), rng.choice(indices),
                                               "x", dim)
                    op = op.compose(gen)
                op = op.scale(random_coeff(rng))
                residual = duality_residual(op, f, "y")
            else:
                power = rng.randint(1, 3)
                index = rng.choice(indices)
                residual = el_power_duality_residual(f, sort, index, power,
                                                     "x", "y")
            yield _first_nonzero([residual], "first nonzero term: ")
    return _report("duality", checks())


def verify_assoc(system: FieldSystem, P: Kernel, trials: int,
                 rng: random.Random) -> VerifyReport:
    def checks():
        for level in (1, 2, 3, 4, 5):
            for _ in range(trials):
                f, g, h = (random_density(system, rng, max_degree=2,
                                          max_jet_order=1, terms=2)
                           for _ in range(3))
                residuals = assoc_residuals(f, g, h, P, system, level, ORDER)
                yield _first_nonzero(residuals,
                                     f"level {level}, first nonzero term: ")
    return _report("assoc", checks(), P)


def verify_semiclassical(system: FieldSystem, P: Kernel, trials: int,
                         rng: random.Random) -> VerifyReport:
    def checks():
        for _ in range(trials):
            f = random_expr(system, rng, max_degree=3, max_jet_order=1)
            g = random_expr(system, rng, max_degree=3, max_jet_order=1)
            residual = commutator_semiclassical(f, g, P, system)
            yield (_first_nonzero([residual.coefficient(0)], "hbar^0 term: ")
                   or _first_nonzero([residual.coefficient(1)], "hbar^1 term: "))
    return _report("semiclassical", checks(), P)


def verify_closed_forms(system: FieldSystem, P: Kernel, trials: int,
                        rng: random.Random) -> VerifyReport:
    def checks():
        for _ in range(trials):
            F = Functional(random_density(system, rng, max_degree=2,
                                          max_jet_order=1, terms=2), system)
            G = Functional(random_density(system, rng, max_degree=2,
                                          max_jet_order=1, terms=2), system)
            g = random_expr(system, rng, max_degree=2, max_jet_order=1, terms=2)
            forms = closed_form_residuals(F, G, g, P, system, ORDER)
            for name, residuals in forms.items():
                yield _first_nonzero(residuals, f"{name}, first nonzero term: ")
    return _report("closed-forms", checks(), P)


def verify_complex_equiv(dim: int, trials: int, rng: random.Random) -> VerifyReport:
    def checks():
        for P in (Kernel.delta(dim), Kernel.delta(dim, I),
                  Kernel.derivative_delta(dim, (2,) + (0,) * (dim - 1))):
            yield _first_nonzero(real_complex_equivalence(P, dim),
                                 "equivalence term: ")
        system = complex_system(dim)
        anti = Kernel.derivative_delta(dim, (1,) + (0,) * (dim - 1))
        for P in (Kernel.delta(dim, I), anti):
            for _ in range(trials):
                f = random_expr(system, rng, max_degree=3, max_jet_order=1)
                g = random_expr(system, rng, max_degree=3, max_jet_order=1)
                yield _first_nonzero([conjugation_residual(f, g, P, system)],
                                     "conjugation term: ")
    return _report("complex-equiv", checks())


def verify_peierls(drift_tol: float = 1e-8) -> VerifyReport:
    import numpy as np

    from . import peierls as pz

    times = np.linspace(0.0, 10.0, 41)

    def checks():
        yield None if pz.peierls_bracket_residual().is_zero() \
            else "symbolic bracket != -G(t-s)"
        yield None if (pz.peierls_commutator()
                       + pz.green_mode_diff().scale(2)).is_zero() \
            else "commutator != -2 G(t-s)"
        for m in (0.0, 1.0):
            pde = max(pz.green_pde_residual(m, t, MODES) for t in times)
            odd = max(pz.green_oddness_residual(m, t, MODES) for t in times)
            yield f"green residual m={m}: pde {pde:.2e} odd {odd:.2e}" \
                if pde >= MODE_TOL or odd >= MODE_TOL else None
        phi0 = pz.SpectralField.from_modes({1: 1 / 2j, -1: -1 / 2j}, MODES)
        pi0 = pz.SpectralField.zero(MODES)
        x = np.arange(256) * (2 * np.pi / 256)
        worst = max(
            float(np.max(np.abs(pz.cauchy_solve(phi0, pi0, 0.0, t)[0]
                                .evaluate(x).real - np.sin(x) * np.cos(t))))
            for t in times)
        yield f"sin x cos t mismatch {worst:.2e}" if worst >= MODE_TOL else None
        rng = np.random.default_rng(12345)
        data_phi = pz.SpectralField.sample(rng.normal(size=64), MODES)
        data_pi = pz.SpectralField.sample(rng.normal(size=64), MODES)
        for m in (0.0, 1.0):
            drift = pz.energy_drift(data_phi, data_pi, m, times)
            yield f"energy drift m={m}: {drift:.2e}" \
                if drift >= drift_tol else None
    return _report("peierls", checks())
