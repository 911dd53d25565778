"""Acceptance gate: one test and one printed pass/fail line per criterion.

All symbolic criteria demand exact zero residuals; only the spectral
criteria (10, 11) use floating-point tolerances, stated inline.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from fieldstar.jets import FieldExpr, complex_system, mi_unit, real_system
from fieldstar.kernels import Kernel
from fieldstar.poisson import Functional, bracket_fn, real_complex_equivalence
from fieldstar.rationals import GRat, I
from fieldstar.render import render_field_expr
from fieldstar.session import load_config_file
from fieldstar.star import equation_of_motion
from fieldstar.tensor import TensorExpr
from fieldstar.verify import (
    default_kernels,
    verify_assoc,
    verify_closed_forms,
    verify_complex_equiv,
    verify_duality,
    verify_jacobi,
    verify_peierls,
    verify_semiclassical,
)
from numeric_oracle import verify_variational_oracle


def _report(number: int, name: str, ok: bool):
    line = f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    print(line)
    # also emit past pytest's capture so the line lands in saved run logs
    print(line, file=sys.__stdout__)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _kg_hamiltonian(dim: int) -> Functional:
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


def test_criterion_01_basic_brackets():
    """Canonical pair brackets for delta, i*delta, and the derivative kernel."""
    system = real_system(1)
    u = FieldExpr.jet("phi", (0,))
    xi = FieldExpr.jet("pi", (0,))
    ok = True
    for P in (Kernel.delta(1), Kernel.delta(1, I)):
        K = TensorExpr.from_kernel(P, "x", "y")
        ok &= bracket_fn(u, xi, P, system) == K
        ok &= bracket_fn(xi, u, P, system) == TensorExpr.from_kernel(
            P.scale(-1), "x", "y")
        ok &= bracket_fn(u, u, P, system).is_zero()
        ok &= bracket_fn(xi, xi, P, system).is_zero()
    A = Kernel.derivative_delta(1, (1,))
    KA = TensorExpr.from_kernel(A, "x", "y")
    ok &= bracket_fn(u, xi, A, system) == KA
    ok &= bracket_fn(xi, u, A, system) == KA
    ok &= bracket_fn(u, u, A, system).is_zero()
    _report(1, "basic brackets", ok)


def test_criterion_02_jacobi_identity():
    """>= 50 random triples, degree <= 3, jets order <= 1, both kernel
    classes, dimensions 1 and 3; exact zero residual."""
    rng = random.Random(2024)
    ok = True
    for dim in (1, 3):
        system = real_system(dim)
        for P in default_kernels(dim):
            report = verify_jacobi(system, P, 50, rng)
            ok &= report.ok
    _report(2, "jacobi identity", ok)


def test_criterion_03_associativity_five_levels():
    """>= 25 random triples per level at truncation order 4, both kernel
    classes, within a five-minute budget."""
    rng = random.Random(303)
    start = time.time()
    ok = True
    system = real_system(1)
    for P in default_kernels(1):
        report = verify_assoc(system, P, 25, rng)
        ok &= report.ok
    ok &= (time.time() - start) < 300.0
    _report(3, "associativity (5 levels)", ok)


def test_criterion_04_duality():
    """>= 50 random (operator, density) pairs including generator powers
    up to 3; exact zero residual."""
    rng = random.Random(404)
    report = verify_duality(real_system(1), 50, rng)
    _report(4, "operator duality", report.ok)


def test_criterion_05_closed_forms():
    """>= 25 instances each of the four closed forms (bracket and star,
    functional-density and functional-functional) against the definitional
    routes; functionals compared modulo total divergence."""
    rng = random.Random(505)
    ok = True
    system = real_system(1)
    for P in default_kernels(1):
        report = verify_closed_forms(system, P, 13, rng)  # 13*4 >= 25 each
        ok &= report.ok and report.checks >= 50
    _report(5, "closed-form agreement", ok)


def test_criterion_06_semiclassical_limit():
    """hbar^0 and hbar^1 commutator coefficients vanish against the bracket
    with the symmetrized comparison kernel; >= 50 pairs, both classes."""
    rng = random.Random(606)
    ok = True
    system = real_system(1)
    for P in default_kernels(1):
        report = verify_semiclassical(system, P, 50, rng)
        ok &= report.ok
    _report(6, "semiclassical limit", ok)


def test_criterion_07_wave_equation():
    """KG Hamiltonian with P = i*delta: the momentum equation renders
    exactly 'laplacian(phi) - m^2*phi - U'(phi)' and the position equation
    renders 'pi'."""
    dim = 3
    system = real_system(dim)
    H = _kg_hamiltonian(dim)
    P = Kernel.delta(dim, I)
    xi0 = FieldExpr.jet("pi", (0,) * dim)
    u0 = FieldExpr.jet("phi", (0,) * dim)
    pidot = equation_of_motion(H, xi0, P, system)
    phidot = equation_of_motion(H, u0, P, system)
    ok = render_field_expr(pidot) == "laplacian(phi) - m^2*phi - U'(phi)"
    ok &= render_field_expr(phidot) == "pi"
    _report(7, "wave equation example", ok)


def test_criterion_08_nls_example():
    """Cubic Schrodinger equation of motion, from configs/nls.json, and the
    real-complex change-of-variables identities."""
    cfg = load_config_file(
        str(Path(__file__).resolve().parent.parent / "configs" / "nls.json"))
    rhs = equation_of_motion(cfg.hamiltonian(), FieldExpr.jet("psi", (0, 0, 0)),
                             cfg.kernel(), cfg.system)
    ok = render_field_expr(rhs) == "-laplacian(psi) + 2*kappa*psi^2*psibar"
    kappa = FieldExpr.const_symbol("kappa", 3)
    z0 = FieldExpr.jet("psi", (0, 0, 0))
    zb0 = FieldExpr.jet("psibar", (0, 0, 0))
    lap = sum((FieldExpr.jet("psi", idx)
               for idx in ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
              FieldExpr.zero(3))
    ok &= rhs == -lap + (kappa * z0 * z0 * zb0).scale(2)
    for P in (Kernel.delta(1), Kernel.delta(1, I),
              Kernel.derivative_delta(1, (2,))):
        ok &= all(r.is_zero() for r in real_complex_equivalence(P, 1))
    _report(8, "nls example", ok)


def test_criterion_09_complex_pairing_suites():
    """Criteria 2-6 re-run under the holomorphic pairing with the same
    exact-zero requirement."""
    rng = random.Random(909)
    ok = True
    for dim in (1, 3):
        system = complex_system(dim)
        for P in default_kernels(dim):
            ok &= verify_jacobi(system, P, 50 if dim == 1 else 25, rng).ok
    system = complex_system(1)
    ok &= verify_duality(system, 50, rng).ok
    for P in default_kernels(1):
        ok &= verify_assoc(system, P, 25, rng).ok
        ok &= verify_semiclassical(system, P, 50, rng).ok
        report = verify_closed_forms(system, P, 13, rng)
        ok &= report.ok and report.checks >= 50
    _report(9, "complex-pairing suites", ok)


def test_criterion_10_peierls_numerics():
    """64-mode torus, m in {0, 1}: PDE residual < 1e-10 mode-wise, the
    d'Alembert closed form < 1e-10, energy drift < 1e-8 over [0, 10], and
    the bracket and commutator identities exact symbolically."""
    report = verify_peierls(drift_tol=1e-8)
    _report(10, "peierls numerics", report.ok)


def test_criterion_11_variational_oracle():
    """Symbolic variational derivatives match 4th-order finite-difference
    Gateaux derivatives on 20 random pairs, grid 2*pi/256, relative 1e-6."""
    report = verify_variational_oracle(seed=1111)
    _report(11, "variational oracle", report.ok)
