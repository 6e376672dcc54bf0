"""Independent numerical oracles for the closed-form algebra.

Everything here evaluates wavefunctions from the explicit Gaussian formula
and integrates with adaptive quadrature (piecewise between packet centers,
tolerance 1e-12 on a support of +/- 10 sigma beyond the outermost centers).
None of it shares code with the closed-form paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def psi(state, x):
    """Direct evaluation of the wavefunction from its component formula."""
    sigma = state.sigma
    pref = (2.0 * math.pi * sigma**2) ** -0.25
    val = 0.0 + 0.0j
    for a, c in zip(state.amplitudes, state.centers):
        val += a * pref * math.exp(-((x - c) ** 2) / (4.0 * sigma**2))
    return val


def dpsi(state, x):
    """Spatial derivative of the wavefunction."""
    sigma = state.sigma
    pref = (2.0 * math.pi * sigma**2) ** -0.25
    val = 0.0 + 0.0j
    for a, c in zip(state.amplitudes, state.centers):
        u = x - c
        val += a * pref * (-u / (2.0 * sigma**2)) * math.exp(-(u**2) / (4.0 * sigma**2))
    return val


def _segments(state, pad: float = 10.0):
    lo = float(state.centers.min() - pad * state.sigma)
    hi = float(state.centers.max() + pad * state.sigma)
    points = sorted({lo, hi, *(float(c) for c in state.centers)})
    return list(zip(points[:-1], points[1:]))


def _integrate(f, state) -> float:
    total = 0.0
    for a, b in _segments(state):
        val, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total


def quad_norm_sq(state) -> float:
    return _integrate(lambda x: abs(psi(state, x)) ** 2, state)


def quad_overlap(a, b) -> complex:
    # segment at both states' centers and at pairwise midpoints, where the
    # product mass of far-separated packets concentrates
    centers = [float(c) for c in a.centers] + [float(c) for c in b.centers]
    mids = [0.5 * (ca + cb) for ca in a.centers for cb in b.centers]
    lo = min(centers) - 10.0 * a.sigma
    hi = max(centers) + 10.0 * a.sigma
    points = sorted({lo, hi, *centers, *(float(m) for m in mids)})
    re = im = 0.0
    for x0, x1 in zip(points[:-1], points[1:]):
        val_re, _ = quad(
            lambda x: (psi(a, x).conjugate() * psi(b, x)).real,
            x0, x1, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        val_im, _ = quad(
            lambda x: (psi(a, x).conjugate() * psi(b, x)).imag,
            x0, x1, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        re += val_re
        im += val_im
    return complex(re, im)


def quad_moment(state, order: int) -> float:
    norm = quad_norm_sq(state)
    raw = _integrate(lambda x: x**order * abs(psi(state, x)) ** 2, state)
    return raw / norm


def quad_momentum_second(state) -> float:
    """<P^2> = integral |psi'(x)|^2 dx over the squared norm."""
    norm = quad_norm_sq(state)
    raw = _integrate(lambda x: abs(dpsi(state, x)) ** 2, state)
    return raw / norm


def quad_density(state, x: float) -> float:
    return abs(psi(state, x)) ** 2 / quad_norm_sq(state)


def quad_cumulative(state, x: float) -> float:
    norm = quad_norm_sq(state)
    lo = float(state.centers.min() - 10.0 * state.sigma)
    points = sorted({lo, x, *(float(c) for c in state.centers if lo < c < x)})
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        val, _ = quad(lambda t: abs(psi(state, t)) ** 2, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total / norm


def beta_quantile(q: float, a: float, b: float) -> float:
    """Beta quantile by bisection on the numerically integrated pdf."""
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - log_norm)

    def cdf(x: float) -> float:
        val, _ = quad(pdf, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_state(rng: np.random.Generator, max_components: int = 16, complex_amps: bool = True):
    """Random multi-component state for property checks."""
    from zenosense.wavepacket import GaussianSum

    sigma = float(rng.uniform(0.3, 3.0))
    n = int(rng.integers(1, max_components + 1))
    centers = np.sort(rng.uniform(-4.0, 8.0, size=n)) * sigma
    if complex_amps:
        amps = rng.normal(0.3, 1.0, size=n) + 1j * rng.normal(0.0, 0.5, size=n)
    else:
        amps = rng.uniform(0.05, 1.0, size=n).astype(complex)
    return GaussianSum(sigma, amps, centers)


def lattice_survival(theta: float, sigma: float, h: float, multipliers) -> float:
    """Exact protected survival for couplings on a lattice, g_j = m_j * h.

    The output wavepacket has amplitude a_k on the copy shifted by k * h,
    where a_k is the coefficient of z^k in prod_j (s^2 + c^2 z^{m_j}); its
    squared norm is the lattice sum of a_k a_l times the Gaussian overlap
    exp(-(k - l)^2 h^2 / (8 sigma^2)). Integer multipliers only.
    """
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    a = np.ones(1)
    for m in multipliers:
        factor = np.zeros(int(m) + 1)
        factor[0] += s2
        factor[int(m)] += c2
        a = np.convolve(a, factor)
    k = np.arange(a.size)
    overlap = np.exp(-((k[:, None] - k[None, :]) ** 2) * h * h / (8.0 * sigma * sigma))
    return float(a @ overlap @ a)
