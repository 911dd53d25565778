"""Covariant (Peierls) bracket of the linear wave field from Cauchy data.

Symbolic side: the time-t field is the Green-function smearing of the
time-zero pair,

    phi(t, x) = (G(t) * pi0)(x) + (d_t G(t) * phi0)(x)

(sine convention: G(0) = 0, d_t G(0) = delta).  Mode-wise on a torus
every object is a ``FieldExpr`` polynomial in the constant symbols st, ct,
ss, cs for sin(w t), cos(w t), sin(w s), cos(w s) and w_inv for 1/w, so
bracket and star identities are decided exactly as polynomial identities,
with no trig relation imposed.  The frequency enters only as w_inv: G
carries one 1/w and d_t G none, so no positive power of w appears and the
relation w * (1/w) = 1 is never needed.

Numeric side: a 1-dimensional spatial torus of circumference 2*pi with a
mode cutoff, frequencies w_k = sqrt(k^2 + m^2), provides a desk-scale
floating-point verification of the Green function and Cauchy solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import FieldExpr, _acc, _canon_monomial, const_atom, real_system
from .kernels import Kernel
from .poisson import bracket_fn
from .rationals import ZERO


# ---------------------------------------------------------------------------
# mode symbols: polynomials in constant symbols

ST, CT, SS, CS, W_INV = (FieldExpr.const_symbol(name, 1)
                         for name in ("st", "ct", "ss", "cs", "w_inv"))


def rename(expr: FieldExpr, names: dict) -> FieldExpr:
    """The mode symbol with each constant symbol renamed by ``names``;
    terms whose monomials become equal are summed."""
    terms: dict = {}
    for mon, c in expr.terms.items():
        _acc(terms, _canon_monomial(const_atom(names.get(atom[1], atom[1]))
                                    for atom in mon), c)
    return FieldExpr(expr.dim, terms)


def green_mode_diff() -> FieldExpr:
    """The mode symbol of G(t - s): sin(w(t-s))/w expanded by the addition
    theorem, st*cs/w - ct*ss/w."""
    return (ST * CS - CT * SS) * W_INV


# ---------------------------------------------------------------------------
# symbolic bracket and star

def _equal_time_brackets():
    """Basic equal-time delta-kernel brackets pulled from the core engine:
    coefficients of delta(x-y) in {phi,phi}, {phi,pi}, {pi,phi}, {pi,pi}."""
    system = real_system(1)
    P = Kernel.delta(1)
    u = FieldExpr.jet("phi", (0,))
    xi = FieldExpr.jet("pi", (0,))

    def coeff(f, g):
        T = bracket_fn(f, g, P, system)
        return T.terms.get(((), (("x", "y", (0,)),)), ZERO)
    return {
        ("phi", "phi"): coeff(u, u),
        ("phi", "pi"): coeff(u, xi),
        ("pi", "phi"): coeff(xi, u),
        ("pi", "pi"): coeff(xi, xi),
    }


def _smeared_products() -> dict:
    """The products of the smearing weights of phi(t,x) and phi(s,y), keyed
    by the pair of time-zero fields each one multiplies: G(t) = st/w
    weights pi0 and d_t G(t) = ct weights phi0, and likewise at s."""
    Gt, Gs = ST * W_INV, SS * W_INV
    return {
        ("pi", "pi"): Gt * Gs,
        ("pi", "phi"): Gt * CS,
        ("phi", "pi"): CT * Gs,
        ("phi", "phi"): CT * CS,
    }


def peierls_bracket() -> FieldExpr:
    """{phi(t,x), phi(s,y)} as a mode symbol, from the smearing expansion
    and the equal-time brackets; exactly -G(t-s) mode-wise."""
    eq = _equal_time_brackets()
    total = FieldExpr.zero(1)
    for pair, weight in _smeared_products().items():
        total = total + weight.scale(eq[pair])
    return total


def peierls_bracket_residual() -> FieldExpr:
    """peierls_bracket + G(t-s), identically zero.  The cosine normalization
    G(0) = delta, d_t G(0) = 0 fails this identity (and its own initial
    data), which is why G is the sine pair G(0) = 0, d_t G(0) = delta."""
    return peierls_bracket() + green_mode_diff()


def peierls_commutator() -> FieldExpr:
    """hbar coefficient of phi(t,x)*phi(s,y) - phi(s,y)*phi(t,x): the star
    product of the linear fields is their product plus hbar * bracket."""
    forward = peierls_bracket()
    return forward - rename(forward, {"st": "ss", "ct": "cs",
                                      "ss": "st", "cs": "ct"})


# ---------------------------------------------------------------------------
# spectral numerics

@dataclass(frozen=True)
class SpectralField:
    """Fourier data on the circumference-2*pi torus, modes -M..M."""

    coeffs: np.ndarray  # complex, length 2M+1, index k + M
    cutoff: int

    @classmethod
    def zero(cls, cutoff: int) -> "SpectralField":
        return cls(np.zeros(2 * cutoff + 1, dtype=complex), cutoff)

    @classmethod
    def from_modes(cls, modes: dict, cutoff: int) -> "SpectralField":
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        for k, v in modes.items():
            if abs(k) > cutoff:
                raise ValueError(f"mode {k} beyond cutoff {cutoff}")
            c[k + cutoff] = v
        return cls(c, cutoff)

    @classmethod
    def sample(cls, values: np.ndarray, cutoff: int) -> "SpectralField":
        n = len(values)
        spec = np.fft.fft(values) / n
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        for k in range(-cutoff, cutoff + 1):
            c[k + cutoff] = spec[k % n]
        return cls(c, cutoff)

    def mode(self, k: int) -> complex:
        return self.coeffs[k + self.cutoff]

    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        k = self.wavenumbers()[:, None]
        return (self.coeffs[:, None] * np.exp(1j * k * x[None, :])).sum(axis=0)


def frequencies(m: float, cutoff: int) -> np.ndarray:
    k = np.arange(-cutoff, cutoff + 1)
    return np.sqrt(k.astype(float) ** 2 + float(m) ** 2)


def green_eval(m: float, t: float, cutoff: int) -> SpectralField:
    """Mode coefficients sin(w t)/w of the Green function at time t (t for
    the zero mode at m = 0)."""
    w = frequencies(m, cutoff)
    vals = np.where(w > 0, np.divide(np.sin(w * t), np.where(w > 0, w, 1.0)),
                    t)
    return SpectralField(vals.astype(complex), cutoff)


def green_eval_dt(m: float, t: float, cutoff: int) -> SpectralField:
    """Mode coefficients cos(w t) of d_t G at time t."""
    w = frequencies(m, cutoff)
    vals = np.cos(w * t)
    return SpectralField(vals.astype(complex), cutoff)


def green_pde_residual(m: float, t: float, cutoff: int) -> float:
    """Mode-wise |d_t^2 G + (k^2 + m^2) G| with the analytic second time
    derivative; pure floating-point noise for the exact mode solution."""
    w = frequencies(m, cutoff)
    g = green_eval(m, t, cutoff).coeffs.real
    d2 = np.where(w > 0, -w * np.sin(w * t), 0.0)
    return float(np.max(np.abs(d2 + w ** 2 * g)))


def green_oddness_residual(m: float, t: float, cutoff: int) -> float:
    a = green_eval(m, t, cutoff).coeffs
    b = green_eval(m, -t, cutoff).coeffs
    return float(np.max(np.abs(a + b)))


def cauchy_solve(phi0: SpectralField, pi0: SpectralField, m: float,
                 t: float) -> tuple[SpectralField, SpectralField]:
    """Evolve Cauchy data; returns (phi(t), dphi/dt(t)).

    Mode-wise: phi_k(t) = cos(w t) phi_k + sin(w t)/w pi_k, with the zero
    mode at m = 0 taking the w -> 0 limit phi_k + t pi_k.
    """
    if phi0.cutoff != pi0.cutoff:
        raise ValueError("mode cutoff mismatch")
    cutoff = phi0.cutoff
    w = frequencies(m, cutoff)
    g = green_eval(m, t, cutoff).coeffs.real
    gd = green_eval_dt(m, t, cutoff).coeffs.real
    phi_t = SpectralField(gd * phi0.coeffs + g * pi0.coeffs, cutoff)
    dphi_t = SpectralField(-w ** 2 * g * phi0.coeffs + gd * pi0.coeffs, cutoff)
    return phi_t, dphi_t


def energy(phi: SpectralField, dphi: SpectralField, m: float) -> float:
    """Discrete energy sum |dphi_k|^2 + w_k^2 |phi_k|^2."""
    w = frequencies(m, phi.cutoff)
    return float(np.sum(np.abs(dphi.coeffs) ** 2 + w ** 2 * np.abs(phi.coeffs) ** 2))


def energy_drift(phi0: SpectralField, pi0: SpectralField, m: float,
                 times) -> float:
    """Max relative deviation of the energy along the trajectory."""
    e0 = energy(phi0, pi0, m)
    worst = 0.0
    for t in times:
        phi_t, dphi_t = cauchy_solve(phi0, pi0, m, t)
        worst = max(worst, abs(energy(phi_t, dphi_t, m) - e0) / max(e0, 1e-300))
    return worst
