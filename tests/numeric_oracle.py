"""The floating-point oracle for the symbolic variational derivative.

Random band-limited periodic field profiles are sampled on a uniform grid
over the 2*pi torus (any session dimension; jets evaluate spectrally, so
derivatives of band-limited data are exact up to rounding).  Function
symbols evaluate as shifted sines, whose derivative tower is closed and
which vanish at zero as condition B requires.  ``verify_variational_oracle``
compares ``variational_derivative`` with a finite-difference Gateaux
derivative on random densities, and reports as the engine's suites do.
"""

from __future__ import annotations

import math
import random

import numpy as np

from fieldstar.euler_lagrange import variational_derivative
from fieldstar.jets import FieldExpr, FieldSystem, mi_order, real_system
from fieldstar.randexpr import random_density
from fieldstar.verify import VerifyReport, _report


DEFAULT_CONSTANTS = {"m": 1.25, "kappa": 0.75}
GRID_POINTS = 256  # per axis of a GridSampler's grid
MAX_MODE = 3  # the largest wavenumber along an axis of a random profile


def default_function(order: int, values: np.ndarray) -> np.ndarray:
    """U(z) = sin(z); the order-k derivative is sin(z + k*pi/2)."""
    return np.sin(values + order * math.pi / 2)


class GridSampler:
    """Random trigonometric field profiles on a periodic grid."""

    def __init__(self, dim: int, rng: random.Random):
        self.rng = rng
        axis = np.arange(GRID_POINTS) * (2 * math.pi / GRID_POINTS)
        self.grids = np.meshgrid(*[axis] * dim, indexing="ij")

    def profile(self) -> np.ndarray:
        """A random real band-limited profile."""
        out = np.zeros_like(self.grids[0])
        for _ in range(4):
            amp = self.rng.uniform(-1.0, 1.0)
            phase = self.rng.uniform(0, 2 * math.pi)
            wave = np.zeros_like(out) + phase
            for grid in self.grids:
                k = self.rng.randint(-MAX_MODE, MAX_MODE)
                wave = wave + k * grid
            out = out + amp * np.sin(wave)
        return out


def spectral_derivative(values: np.ndarray, index) -> np.ndarray:
    """Mixed partial d^index of a periodic grid sample, exact for
    band-limited data."""
    if mi_order(tuple(index)) == 0:
        return values
    spec = np.fft.fftn(values)
    for axis, order in enumerate(index):
        if not order:
            continue
        n = values.shape[axis]
        k = np.fft.fftfreq(n, d=1.0 / n)
        shape = [1] * values.ndim
        shape[axis] = n
        spec = spec * (1j * k.reshape(shape)) ** order
    return np.fft.ifftn(spec).real


def eval_field_expr(expr: FieldExpr, profiles: dict) -> np.ndarray:
    """Evaluate on the grid given per-sort profiles.

    profiles: sort -> real grid array; jets are derived spectrally and
    cached.  Constants take their DEFAULT_CONSTANTS values and every function
    symbol evaluates as default_function.
    """
    cache: dict = {}

    def jet_values(sort: str, index) -> np.ndarray:
        key = (sort, index)
        if key not in cache:
            cache[key] = spectral_derivative(profiles[sort], index)
        return cache[key]

    shape = next(iter(profiles.values())).shape
    total = np.zeros(shape, dtype=complex)
    for mon, c in expr.terms.items():
        term = np.full(shape, complex(c))
        for atom in mon:
            if atom[0] == "c":
                term = term * DEFAULT_CONSTANTS[atom[1]]
            elif atom[0] == "f":
                _, _name, order, arg_sort, _v = atom
                term = term * default_function(order, profiles[arg_sort])
            else:
                term = term * jet_values(atom[1], atom[2])
        total = total + term
    return total


def grid_integral(values: np.ndarray) -> complex:
    """Trapezoidal = exact spectral integral over the torus."""
    cell = (2 * math.pi) ** values.ndim / values.size
    return complex(values.sum() * cell)


def gateaux_derivative(density: FieldExpr, sort: str, profiles: dict,
                       direction: np.ndarray) -> float:
    """Fourth-order central finite difference, step eps = 1e-3, of
    eps -> integral of the density along profiles[sort] + eps*direction."""
    eps = 1e-3

    def integral(e: float) -> float:
        shifted = dict(profiles)
        shifted[sort] = profiles[sort] + e * direction
        return grid_integral(eval_field_expr(density, shifted)).real

    return (8 * (integral(eps) - integral(-eps))
            - (integral(2 * eps) - integral(-2 * eps))) / (12 * eps)


def variational_pairing(gradient: FieldExpr, profiles: dict,
                        direction: np.ndarray) -> float:
    """Integral of the symbolic variational derivative against the
    perturbation direction."""
    vals = eval_field_expr(gradient, profiles)
    return grid_integral(vals.real * direction).real


def variational_oracle_error(density: FieldExpr, sort: str,
                             system: FieldSystem, sampler: GridSampler) -> float:
    """Relative disagreement between the symbolic variational derivative and
    the finite-difference Gateaux derivative on random profiles."""
    profiles = {s: sampler.profile() for s in system.sort_names()}
    direction = sampler.profile()
    numeric = gateaux_derivative(density, sort, profiles, direction)
    symbolic = variational_pairing(variational_derivative(density, sort),
                                   profiles, direction)
    scale = max(abs(numeric), abs(symbolic), 1.0)
    return abs(numeric - symbolic) / scale


def verify_variational_oracle(seed: int = 0) -> VerifyReport:
    rng = random.Random(seed)
    system = real_system(1)
    sampler = GridSampler(1, random.Random(seed + 1))

    def checks():
        for _ in range(20):
            density = random_density(system, rng, max_degree=3, max_jet_order=2,
                                     terms=3, constants=("m", "kappa"),
                                     functions=(("U", "phi"),), complex_ok=False)
            sort = rng.choice(system.sort_names())
            err = variational_oracle_error(density, sort, system, sampler)
            yield f"relative error {err:.2e}" if err >= 1e-6 else None
    return _report("variational-oracle", checks())
