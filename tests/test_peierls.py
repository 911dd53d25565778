import numpy as np
import pytest

from fieldstar.jets import const_atom
from fieldstar.peierls import (
    SpectralField,
    cauchy_solve,
    energy,
    energy_drift,
    green_eval,
    green_mode_diff,
    green_oddness_residual,
    green_pde_residual,
    peierls_bracket,
    peierls_bracket_residual,
    peierls_commutator,
    rename,
)


def _monomial(*names):
    return tuple(sorted(const_atom(name) for name in names))


def test_mode_symbols():
    # G(t - s) = sin(w t) cos(w s)/w - cos(w t) sin(w s)/w
    assert green_mode_diff().terms == {_monomial("st", "cs", "w_inv"): 1,
                                       _monomial("ct", "ss", "w_inv"): -1}


def test_symbolic_bracket_equals_minus_green_of_time_difference():
    assert peierls_bracket_residual().is_zero()


def test_equal_times_give_zero_bracket():
    # t = s collapses st*cs - ct*ss; rename the s-symbols to the t-symbols
    bracket = peierls_bracket()
    assert not bracket.is_zero()
    assert rename(bracket, {"ss": "st", "cs": "ct"}).is_zero()


def test_commutator_is_twice_the_bracket():
    assert (peierls_commutator()
            + green_mode_diff().scale(2)).is_zero()


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_green_function_pde_and_oddness(m):
    for t in np.linspace(0.0, 10.0, 11):
        assert green_pde_residual(m, t, 64) < 1e-10
        assert green_oddness_residual(m, t, 64) < 1e-10


def test_green_function_values():
    assert abs(green_eval(1.0, 0.7, 4).mode(0) - np.sin(0.7)) < 1e-15
    assert abs(green_eval(0.0, 0.7, 4).mode(0) - 0.7) < 1e-15
    assert np.max(np.abs(green_eval(1.0, 0.0, 8).coeffs)) == 0.0


def test_cauchy_solution_matches_dalembert_closed_form():
    M = 64
    x = np.arange(256) * (2 * np.pi / 256)
    sin_modes = SpectralField.from_modes({1: 1 / 2j, -1: -1 / 2j}, M)
    zero = SpectralField.zero(M)
    for t in np.linspace(0.0, 10.0, 11):
        phi_t, _ = cauchy_solve(sin_modes, zero, 0.0, t)
        assert np.max(np.abs(phi_t.evaluate(x).real
                             - np.sin(x) * np.cos(t))) < 1e-10
        psi_t, _ = cauchy_solve(zero, sin_modes, 0.0, t)
        assert np.max(np.abs(psi_t.evaluate(x).real
                             - np.sin(x) * np.sin(t))) < 1e-10


def test_cauchy_data_recovered_at_time_zero():
    rng = np.random.default_rng(5)
    phi0 = SpectralField.sample(rng.normal(size=32), 8)
    pi0 = SpectralField.sample(rng.normal(size=32), 8)
    phi_t, dphi_t = cauchy_solve(phi0, pi0, 1.0, 0.0)
    assert np.allclose(phi_t.coeffs, phi0.coeffs, atol=1e-14)
    assert np.allclose(dphi_t.coeffs, pi0.coeffs, atol=1e-14)


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_energy_conservation(m):
    rng = np.random.default_rng(7)
    phi0 = SpectralField.sample(rng.normal(size=64), 16)
    pi0 = SpectralField.sample(rng.normal(size=64), 16)
    assert energy_drift(phi0, pi0, m, np.linspace(0.0, 10.0, 41)) < 1e-8


def test_real_sample_is_conjugate_symmetric():
    rng = np.random.default_rng(9)
    field = SpectralField.sample(rng.normal(size=32), 8)
    # Hermitian mode data: c_-k = conj c_k
    assert np.max(np.abs(field.coeffs - np.conj(field.coeffs[::-1]))) < 1e-12


def test_cutoff_mismatch_rejected():
    with pytest.raises(ValueError):
        cauchy_solve(SpectralField.zero(4), SpectralField.zero(8), 0.0, 1.0)
