import math
import random

import numpy as np

from fieldstar.jets import FieldExpr, real_system
from fieldstar.parser import parse_expr
from fieldstar.randexpr import random_density
from fieldstar.session import SessionConfig
from numeric_oracle import (
    GridSampler,
    eval_field_expr,
    gateaux_derivative,
    grid_integral,
    spectral_derivative,
    variational_oracle_error,
)


def test_spectral_derivative_exact_on_band_limited_data():
    x = np.arange(256) * (2 * math.pi / 256)
    values = np.sin(3 * x)
    d1 = spectral_derivative(values, (1,))
    assert np.max(np.abs(d1 - 3 * np.cos(3 * x))) < 1e-10
    d2 = spectral_derivative(values, (2,))
    assert np.max(np.abs(d2 + 9 * np.sin(3 * x))) < 1e-10


def test_grid_integral_of_trig_vanishes():
    x = np.arange(256) * (2 * math.pi / 256)
    assert abs(grid_integral(np.sin(x))) < 1e-12
    assert abs(grid_integral(np.ones_like(x)) - 2 * math.pi) < 1e-12


def test_expression_evaluation_matches_direct_formula():
    expr = parse_expr("phi^2*pi + d1(phi)", SessionConfig(real_system(1)))
    x = np.arange(256) * (2 * math.pi / 256)
    phi = np.sin(x)
    pi = np.cos(2 * x)
    values = eval_field_expr(expr, {"phi": phi, "pi": pi})
    expected = phi ** 2 * pi + np.cos(x)
    assert np.max(np.abs(values - expected)) < 1e-10


def test_total_derivative_matches_spectral_differentiation():
    rng = random.Random(41)
    system = real_system(1)
    sampler = GridSampler(1, random.Random(42))
    for _ in range(5):
        f = random_density(system, rng, max_degree=3, max_jet_order=1,
                           terms=3, complex_ok=False)
        profiles = {s: sampler.profile() for s in system.sort_names()}
        lhs = eval_field_expr(f.total_derivative(1), profiles)
        rhs = spectral_derivative(eval_field_expr(f, profiles).real, (1,))
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_variational_oracle_agreement():
    rng = random.Random(43)
    system = real_system(1)
    sampler = GridSampler(1, random.Random(44))
    for _ in range(5):
        density = random_density(system, rng, max_degree=3, max_jet_order=2,
                                 terms=3, constants=("m",),
                                 functions=(("U", "phi"),), complex_ok=False)
        for sort in system.sort_names():
            err = variational_oracle_error(density, sort, system, sampler)
            assert err < 1e-6
