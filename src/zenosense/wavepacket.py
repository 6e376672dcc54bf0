"""Closed-form algebra for superpositions of equal-width Gaussian wavepackets.

The transverse spatial state of a photon in the channel is always a
complex-weighted sum of shifted copies of one Gaussian profile

    f(x) = (2 pi sigma^2)^(-1/4) * exp(-x^2 / (4 sigma^2)),

whose squared modulus is a normal density with variance sigma^2. Shifts are
generated by the channel's noise kernel, so the component count stays finite
and every quantity of interest has an exact pairwise closed form:

* overlap of two shifted packets:   <f_a|f_b> = exp(-(a-b)^2 / (8 sigma^2))
* packet product identity:          f(x-a) f(x-b) = <f_a|f_b> * N(x; (a+b)/2, sigma^2)
* momentum matrix element:          <f_a|P^2|f_b> = v (1 - v (a-b)^2) <f_a|f_b>,
                                    with v = 1/(4 sigma^2)

(N(x; m, s^2) is the unit-mass normal density.) All public operations below
are evaluated through these identities; the library never integrates
numerically. States are kept non-normalized on purpose: the running squared
norm of the bath state is exactly the survival probability of the
polarization qubit, and normalization happens only inside the moment /
density accessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import ndtr

__all__ = [
    "GaussianSum",
    "make_gaussian",
    "inner_product",
    "apply_noise_kernel",
    "fold_kernels",
    "moment",
    "momentum_second_moment",
    "density_at",
    "cumulative_mass",
    "MERGE_TOLERANCE_FACTOR",
]

# Components whose centers differ by less than this fraction of sigma are
# combined by amplitude addition; keeps zero-shift kernels from doubling the
# component list.
MERGE_TOLERANCE_FACTOR = 1e-9


@dataclass(frozen=True, eq=False)
class GaussianSum:
    """Complex-weighted sum of equal-width shifted Gaussian wavepackets.

    Attributes
    ----------
    sigma:
        Common packet width (length units); the squared-modulus density of a
        single component has variance ``sigma**2``.
    amplitudes:
        Complex weights, one per component.
    centers:
        Component centers, strictly increasing after canonicalization.

    The constructor canonicalizes its input: components are sorted by
    center, centers closer than ``MERGE_TOLERANCE_FACTOR * sigma`` are merged
    by amplitude addition, and exactly-zero amplitudes are dropped (unless
    that would empty the state). Instances are immutable and safe to share.
    """

    sigma: float
    amplitudes: np.ndarray
    centers: np.ndarray

    def __post_init__(self) -> None:
        sigma = float(self.sigma)
        if not (sigma > 0.0) or not math.isfinite(sigma):
            raise ValueError(f"packet width must be positive, got {self.sigma!r}")
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=np.complex128))
        cents = np.atleast_1d(np.asarray(self.centers, dtype=np.float64))
        if amps.shape != cents.shape or amps.ndim != 1:
            raise ValueError("amplitudes and centers must be 1-d and the same length")
        if amps.size == 0:
            raise ValueError("a GaussianSum needs at least one component")
        if not np.all(np.isfinite(cents)) or not np.all(np.isfinite(amps)):
            raise ValueError("component amplitudes and centers must be finite")
        amps, cents = _merge_components(amps, cents, MERGE_TOLERANCE_FACTOR * sigma)
        amps.setflags(write=False)
        cents.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "centers", cents)

    @property
    def components(self) -> tuple[tuple[complex, float], ...]:
        """(amplitude, center) pairs in ascending center order."""
        return tuple(
            (complex(a), float(c)) for a, c in zip(self.amplitudes, self.centers)
        )

    @property
    def n_components(self) -> int:
        return int(self.amplitudes.size)

    @property
    def norm_sq(self) -> float:
        """Squared norm <psi|psi>; finite and >= 0 for any valid state."""
        val = inner_product(self, self).real
        return max(val, 0.0)


def _merge_components(
    amps: np.ndarray, cents: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(cents, kind="stable")
    cents = cents[order]
    amps = amps[order]
    if cents.size > 1:
        starts = np.empty(cents.size, dtype=bool)
        starts[0] = True
        starts[1:] = np.diff(cents) >= tol
        group = np.cumsum(starts) - 1
        merged_c = cents[starts]
        merged_a = np.zeros(merged_c.size, dtype=np.complex128)
        np.add.at(merged_a, group, amps)
        cents, amps = merged_c, merged_a
    keep = amps != 0.0
    if np.any(keep) and not np.all(keep):
        amps = amps[keep]
        cents = cents[keep]
    return np.ascontiguousarray(amps), np.ascontiguousarray(cents)


def make_gaussian(sigma: float) -> GaussianSum:
    """Unit-norm single Gaussian centered at the origin.

    Raises ``ValueError`` for non-positive ``sigma``.
    """
    return GaussianSum(sigma, np.ones(1, dtype=np.complex128), np.zeros(1))


def _check_same_width(a: GaussianSum, b: GaussianSum) -> float:
    if abs(a.sigma - b.sigma) > 1e-12 * max(a.sigma, b.sigma):
        raise ValueError(
            f"mismatched packet widths: {a.sigma!r} vs {b.sigma!r}"
        )
    return a.sigma


def inner_product(a: GaussianSum, b: GaussianSum) -> complex:
    """Exact overlap <a|b> of two states with equal packet width.

    Pairwise form: sum_{m,m'} conj(a_m) b_{m'} exp(-(s_m - s_{m'})^2 / (8 sigma^2)).
    Conjugate-symmetric; rejects mismatched widths.
    """
    sigma = _check_same_width(a, b)
    d = a.centers[:, None] - b.centers[None, :]
    overlap = np.exp(-(d * d) / (8.0 * sigma * sigma))
    return complex(np.conj(a.amplitudes) @ overlap @ b.amplitudes)


def apply_noise_kernel(state: GaussianSum, theta: float, g: float) -> GaussianSum:
    """Apply one (non-unitary) noise-event kernel to the bath state.

    The kernel is B = cos^2(theta) * T_g + sin^2(theta) * I, where T_g shifts
    every component center by +g (the horizontally polarized sub-packet moves
    toward positive x). The result is non-normalized: its squared norm is
    the conditional survival probability of the projective measurement that
    produced the kernel.
    """
    g = float(g)
    if not (g >= 0.0) or not math.isfinite(g):
        raise ValueError(f"coupling shift must be non-negative, got {g!r}")
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    amps = np.concatenate((state.amplitudes * s2, state.amplitudes * c2))
    cents = np.concatenate((state.centers, state.centers + g))
    return GaussianSum(state.sigma, amps, cents)


def fold_kernels(theta: float, sigma: float, couplings: Iterable[float]) -> GaussianSum:
    """Bath state after one noise kernel per coupling, in the given order.

    Starts from the unit Gaussian of width ``sigma``. The kernels commute, so
    the order only moves the last bits; the squared norm of the result is the
    protected survival probability of the whole sequence.
    """
    state = make_gaussian(sigma)
    for g in couplings:
        state = apply_noise_kernel(state, theta, g)
    return state


def _pair_weights(state: GaussianSum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian pair-weight matrix W, pair midpoints, pair separations."""
    sigma = state.sigma
    d = state.centers[:, None] - state.centers[None, :]
    overlap = np.exp(-(d * d) / (8.0 * sigma * sigma))
    w = (np.conj(state.amplitudes)[:, None] * state.amplitudes[None, :]) * overlap
    mid = 0.5 * (state.centers[:, None] + state.centers[None, :])
    return w, mid, d


def _require_normalizable(state: GaussianSum) -> float:
    n = state.norm_sq
    if not (n > 0.0):
        raise ValueError("operation undefined for a zero-norm state")
    return n


def moment(state: GaussianSum, order: int) -> float:
    """Spatial moment E[x^order] of the normalized density, order in {0, 1, 2}.

    Uses the packet-product identity, under which each component pair
    contributes a normal density at the pair midpoint with variance sigma^2.
    Order 0 returns exactly 1. Rejects zero-norm states.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1 or 2, got {order!r}")
    norm = _require_normalizable(state)
    if order == 0:
        return 1.0
    w, mid, _ = _pair_weights(state)
    if order == 1:
        num = np.sum(w * mid).real
    else:
        num = np.sum(w * (mid * mid + state.sigma**2)).real
    return float(num / norm)


def momentum_second_moment(state: GaussianSum) -> float:
    """Second moment <P_x^2> of the normalized state (inverse length squared).

    Pairwise closed form <f_a|P^2|f_b> = v (1 - v d^2) <f_a|f_b> with
    v = 1/(4 sigma^2) and d = a - b. For the unit Gaussian this is exactly v;
    one noise kernel strictly lowers it (the sub-packet splitting broadens
    the wavepacket). Rejects zero-norm states.
    """
    norm = _require_normalizable(state)
    v = 1.0 / (4.0 * state.sigma**2)
    w, _, d = _pair_weights(state)
    num = np.sum(w * (v * (1.0 - v * d * d))).real
    return float(num / norm)


def density_at(state: GaussianSum, x) -> np.ndarray | float:
    """Normalized spatial probability density |psi(x)|^2 / <psi|psi>.

    Accepts a scalar or array of positions; vectorized over the input shape.
    Rejects zero-norm states.
    """
    norm = _require_normalizable(state)
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    sigma = state.sigma
    pref = (2.0 * math.pi * sigma * sigma) ** -0.25
    z = (xs[..., None] - state.centers) / sigma
    psi = np.exp(-0.25 * z * z) @ state.amplitudes
    rho = pref * pref * np.abs(psi) ** 2 / norm
    return float(rho[0]) if scalar else rho


def cumulative_mass(state: GaussianSum, x) -> np.ndarray | float:
    """P(X <= x) of the normalized density, exact through normal CDFs.

    Each component pair contributes its overlap weight times the CDF of a
    normal at the pair midpoint with variance sigma^2.
    """
    norm = _require_normalizable(state)
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    w, mid, _ = _pair_weights(state)
    w_flat = np.real(w).ravel()
    mid_flat = mid.ravel()
    cdf = ndtr((xs[..., None] - mid_flat) / state.sigma) @ w_flat / norm
    cdf = np.clip(cdf, 0.0, 1.0)
    return float(cdf[0]) if scalar else cdf
