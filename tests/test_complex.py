import random
from pathlib import Path

import pytest

from fieldstar.complexfields import (
    conjugation_residual,
    real_complex_equivalence,
)
from fieldstar.jets import FieldExpr, complex_system
from fieldstar.kernels import Kernel
from fieldstar.poisson import Functional, bracket_functional_density
from fieldstar.randexpr import random_expr
from fieldstar.rationals import GRat, I
from fieldstar.session import load_config_file
from fieldstar.star import equation_of_motion

NLS = Path(__file__).resolve().parent.parent / "configs" / "nls.json"


def test_change_of_variables_reproduces_complex_brackets():
    for P in (Kernel.delta(1), Kernel.delta(1, I),
              Kernel.derivative_delta(1, (2,))):
        residuals = real_complex_equivalence(P, 1)
        assert all(r.is_zero() for r in residuals)


def test_change_of_variables_needs_symmetric_kernel():
    with pytest.raises(ValueError):
        real_complex_equivalence(Kernel.derivative_delta(1, (1,)), 1)


def test_nls_equation_of_motion_full():
    cfg = load_config_file(str(NLS))
    assert cfg.kernel() == Kernel.delta(3, I)
    rhs = equation_of_motion(cfg.hamiltonian(), FieldExpr.jet("psi", (0, 0, 0)),
                             cfg.kernel(), cfg.system)
    kappa = FieldExpr.const_symbol("kappa", 3)
    z0 = FieldExpr.jet("psi", (0, 0, 0))
    zb0 = FieldExpr.jet("psibar", (0, 0, 0))
    laplacian = FieldExpr.zero(3)
    for index in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        laplacian = laplacian + FieldExpr.jet("psi", index)
    assert rhs == -laplacian + (kappa * z0 * z0 * zb0).scale(2)


def test_nls_specializations():
    z0 = FieldExpr.jet("psi", (0, 0, 0))
    zb0 = FieldExpr.jet("psibar", (0, 0, 0))
    kappa = FieldExpr.const_symbol("kappa", 3)
    system = complex_system(3)

    def rhs(density):
        H = Functional(density, system)
        return bracket_functional_density(H, z0, Kernel.delta(3, I),
                                          system).scale(I)

    gradient = FieldExpr.zero(3)
    laplacian = FieldExpr.zero(3)
    for index in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        gradient = gradient \
            + FieldExpr.jet("psi", index) * FieldExpr.jet("psibar", index)
    for index in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        laplacian = laplacian + FieldExpr.jet("psi", index)
    assert rhs(gradient) == -laplacian
    interaction = rhs(kappa * (z0 * zb0) ** 2)
    assert interaction == (kappa * z0 * z0 * zb0).scale(2)


def test_conjugation_is_an_anti_automorphism():
    rng = random.Random(19)
    system = complex_system(1)
    kernels = [Kernel.delta(1, I), Kernel.derivative_delta(1, (1,)),
               Kernel.delta(1)]
    for P in kernels:
        for _ in range(5):
            f = random_expr(system, rng, max_degree=3, max_jet_order=1)
            g = random_expr(system, rng, max_degree=3, max_jet_order=1)
            assert conjugation_residual(f, g, P, system).is_zero()
