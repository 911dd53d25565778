"""Randomized zero-residual verification suites.

Each suite runs `trials` random instances and returns a VerifyReport; the
first nonzero residual (if any) is kept for diagnostics.  All symbolic
suites demand exact zero; only the spectral suite uses tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .euler_lagrange import (
    ELOperator,
    duality_residual,
    el_power_duality_residual,
)
from .jets import FieldExpr, FieldSystem, complex_system, real_system
from .kernels import Kernel
from .poisson import (
    Functional,
    bracket_functional_density,
    bracket_functionals,
    jacobi_residual,
)
from .randexpr import multi_indices, random_coeff, random_density, random_expr
from .rationals import GRat, I
from .star import assoc_residuals, commutator_semiclassical, star_functional_density, star_functionals
from .tensor import TensorExpr


@dataclass
class VerifyReport:
    name: str
    trials: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{status} {self.name}: {self.trials - self.failures}/{self.trials} trials{extra}"


def _first_term(residual) -> str:
    from .render import render_field_expr, render_tensor_expr

    if isinstance(residual, FieldExpr):
        text = render_field_expr(residual)
    elif isinstance(residual, TensorExpr):
        text = render_tensor_expr(residual)
    else:
        text = repr(residual)
    return text.split(" + ")[0]


def default_kernels(dim: int) -> list[Kernel]:
    """One symmetric and one antisymmetric representative."""
    sym = Kernel.delta(dim) + Kernel.derivative_delta(dim, (2,) + (0,) * (dim - 1),
                                                      GRat(1, 1))
    anti = Kernel.derivative_delta(dim, (1,) + (0,) * (dim - 1)) \
        + Kernel.derivative_delta(dim, (0,) * (dim - 1) + (1,), I)
    return [sym, anti]


def verify_jacobi(system: FieldSystem, P: Kernel, trials: int,
                  rng: random.Random, max_degree: int = 3,
                  max_jet_order: int = 1) -> VerifyReport:
    failures = 0
    detail = ""
    for _ in range(trials):
        f, g, h = (random_expr(system, rng, max_degree, max_jet_order)
                   for _ in range(3))
        residual = jacobi_residual(f, g, h, P, system)
        if not residual.is_zero():
            failures += 1
            detail = detail or f"first nonzero term: {_first_term(residual)}"
    return VerifyReport("jacobi", trials, failures, detail)


def verify_duality(system: FieldSystem, trials: int, rng: random.Random,
                   max_power: int = 3) -> VerifyReport:
    dim = system.dim
    sorts = system.sort_names()
    indices = multi_indices(dim, 2)
    failures = 0
    detail = ""
    for trial in range(trials):
        f = random_expr(system, rng, max_degree=3, max_jet_order=2,
                        functions=(("U", sorts[0]),) if rng.random() < 0.3 else ())
        sort = rng.choice(sorts)
        partner = "y"
        if trial % 2 == 0:
            op = ELOperator.identity(dim, "x")
            for _ in range(rng.randint(1, 2)):
                gen = ELOperator.generator(rng.choice(sorts), rng.choice(indices),
                                           "x", dim)
                op = op.compose(gen)
            op = op.scale(random_coeff(rng))
            residual = duality_residual(op, f, partner)
        else:
            power = rng.randint(1, max_power)
            index = rng.choice(indices)
            residual = el_power_duality_residual(f, sort, index, power, "x",
                                                 partner)
        if not residual.is_zero():
            failures += 1
            detail = detail or f"first nonzero term: {_first_term(residual)}"
    return VerifyReport("duality", trials, failures, detail)


def verify_assoc(system: FieldSystem, P: Kernel, trials: int,
                 rng: random.Random, levels=(1, 2, 3, 4, 5),
                 order: int = 4) -> VerifyReport:
    failures = 0
    detail = ""
    total = 0
    for level in levels:
        for _ in range(trials):
            f, g, h = (random_density(system, rng, max_degree=2,
                                      max_jet_order=1, terms=2)
                       for _ in range(3))
            total += 1
            residuals = assoc_residuals(f, g, h, P, system, level, order)
            bad = next((r for r in residuals if not r.is_zero()), None)
            if bad is not None:
                failures += 1
                detail = detail or (f"level {level}, first nonzero term: "
                                    f"{_first_term(bad)}")
    return VerifyReport("assoc", total, failures, detail)


def verify_semiclassical(system: FieldSystem, P: Kernel, trials: int,
                         rng: random.Random) -> VerifyReport:
    failures = 0
    detail = ""
    for _ in range(trials):
        f = random_expr(system, rng, max_degree=3, max_jet_order=1)
        g = random_expr(system, rng, max_degree=3, max_jet_order=1)
        residual = commutator_semiclassical(f, g, P, system)
        bad = [k for k in (0, 1) if not residual.coefficient(k).is_zero()]
        if bad:
            failures += 1
            detail = detail or (f"hbar^{bad[0]} term: "
                                f"{_first_term(residual.coefficient(bad[0]))}")
    return VerifyReport("semiclassical", trials, failures, detail)


def verify_closed_forms(system: FieldSystem, P: Kernel, trials: int,
                        rng: random.Random, order: int = 4) -> VerifyReport:
    failures = 0
    detail = ""
    total = 0
    for _ in range(trials):
        F = Functional(random_density(system, rng, max_degree=2,
                                      max_jet_order=1, terms=2), system)
        G = Functional(random_density(system, rng, max_degree=2,
                                      max_jet_order=1, terms=2), system)
        g = random_expr(system, rng, max_degree=2, max_jet_order=1, terms=2)
        checks = (
            ("functional-density bracket",
             lambda: bracket_functional_density(F, g, P, system,
                                                cross_check=True)),
            ("functional-functional bracket",
             lambda: bracket_functionals(F, G, P, system, cross_check=True)),
            ("functional-density star",
             lambda: star_functional_density(F, g, P, system, order=order,
                                             cross_check=True)),
            ("functional-functional star",
             lambda: star_functionals(F, G, P, system, order=order,
                                      cross_check=True)),
        )
        for name, run in checks:
            total += 1
            try:
                run()
            except AssertionError as exc:
                failures += 1
                detail = detail or f"{name}: {exc}"
    return VerifyReport("closed-forms", total, failures, detail)


def verify_complex_equiv(dim: int, trials: int, rng: random.Random) -> VerifyReport:
    from .complexfields import conjugation_residual, real_complex_equivalence

    failures = 0
    detail = ""
    total = 0
    kernels = [Kernel.delta(dim), Kernel.delta(dim, I),
               Kernel.derivative_delta(dim, (2,) + (0,) * (dim - 1))]
    for P in kernels:
        total += 1
        residuals = real_complex_equivalence(P, dim)
        bad = next((r for r in residuals if not r.is_zero()), None)
        if bad is not None:
            failures += 1
            detail = detail or f"equivalence term: {_first_term(bad)}"
    system = complex_system(dim)
    anti = Kernel.derivative_delta(dim, (1,) + (0,) * (dim - 1))
    for P in [Kernel.delta(dim, I), anti]:
        for _ in range(trials):
            total += 1
            f = random_expr(system, rng, max_degree=3, max_jet_order=1)
            g = random_expr(system, rng, max_degree=3, max_jet_order=1)
            residual = conjugation_residual(f, g, P, system)
            if not residual.is_zero():
                failures += 1
                detail = detail or f"conjugation term: {_first_term(residual)}"
    return VerifyReport("complex-equiv", total, failures, detail)


def verify_peierls(modes: int = 64, mode_tol: float = 1e-10,
                   drift_tol: float = 1e-8) -> VerifyReport:
    import numpy as np

    from . import peierls as pz

    failures = 0
    details = []
    if not pz.peierls_bracket_residual().is_zero():
        failures += 1
        details.append("symbolic bracket != -G(t-s)")
    star = pz.peierls_star()
    if not (star[1] + pz.green_mode_diff()).is_zero():
        failures += 1
        details.append("star hbar^1 != -G(t-s)")
    if not (pz.peierls_commutator()
            + pz.green_mode_diff().scale(2)).is_zero():
        failures += 1
        details.append("commutator != -2 G(t-s)")
    times = np.linspace(0.0, 10.0, 41)
    for m in (0.0, 1.0):
        pde = max(pz.green_pde_residual(m, t, modes) for t in times)
        odd = max(pz.green_oddness_residual(m, t, modes) for t in times)
        if pde >= mode_tol or odd >= mode_tol:
            failures += 1
            details.append(f"green residual m={m}: pde {pde:.2e} odd {odd:.2e}")
    phi0 = pz.SpectralField.from_modes({1: 1 / 2j, -1: -1 / 2j}, modes)
    pi0 = pz.SpectralField.zero(modes)
    x = np.arange(256) * (2 * np.pi / 256)
    worst = max(
        float(np.max(np.abs(pz.cauchy_solve(phi0, pi0, 0.0, t)[0]
                            .evaluate(x).real - np.sin(x) * np.cos(t))))
        for t in times)
    if worst >= mode_tol:
        failures += 1
        details.append(f"sin x cos t mismatch {worst:.2e}")
    rng = np.random.default_rng(12345)
    data_phi = pz.SpectralField.sample(rng.normal(size=64), modes)
    data_pi = pz.SpectralField.sample(rng.normal(size=64), modes)
    for m in (0.0, 1.0):
        drift = pz.energy_drift(data_phi, data_pi, m, times)
        if drift >= drift_tol:
            failures += 1
            details.append(f"energy drift m={m}: {drift:.2e}")
    total = 3 + 2 + 1 + 2
    return VerifyReport("peierls", total, failures, "; ".join(details))


def verify_variational_oracle(trials: int = 20, rtol: float = 1e-6,
                              seed: int = 0) -> VerifyReport:
    from .numeric import GridSampler, variational_oracle_error

    rng = random.Random(seed)
    system = real_system(1)
    sampler = GridSampler(1, 256, rng=random.Random(seed + 1))
    failures = 0
    detail = ""
    for _ in range(trials):
        density = random_density(system, rng, max_degree=3, max_jet_order=2,
                                 terms=3, constants=("m", "kappa"),
                                 functions=(("U", "phi"),), complex_ok=False)
        sort = rng.choice(system.sort_names())
        err = variational_oracle_error(density, sort, system, sampler)
        if err >= rtol:
            failures += 1
            detail = detail or f"relative error {err:.2e}"
    return VerifyReport("variational-oracle", trials, failures, detail)
