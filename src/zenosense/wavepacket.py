"""Closed-form algebra for superpositions of equal-width Gaussian wavepackets.

The transverse spatial state of a photon in the channel is always a
complex-weighted sum of shifted copies of one Gaussian profile

    f(x) = (2 pi sigma^2)^(-1/4) * exp(-x^2 / (4 sigma^2)),

whose squared modulus is a normal density with variance sigma^2. Shifts are
generated by the channel's noise kernel, so the component count stays finite
and every quantity of interest has an exact pairwise closed form:

* overlap of two shifted packets:   <f_a|f_b> = exp(-(a-b)^2 / (8 sigma^2))
* packet product identity:          f(x-a) f(x-b) = <f_a|f_b> * N(x; (a+b)/2, sigma^2)

(N(x; m, s^2) is the unit-mass normal density.) All public operations below
are evaluated through these identities; the library never integrates
numerically. Every state the pipeline forms sits on a lattice of shifts, so
its density is a mixture of normals shared by all lattice states.
``lattice_weights`` gives many states' weights on them at once, kept
non-normalized on purpose: a row's sum is the state's squared norm, the
survival probability of the polarization qubit. The overlaps see the
lattice only through its spacing in widths, h / sigma, so every width gives
weights. ``lattice_density`` gives the rows' normalized densities, and
``normal_masses`` the masses of the normals, cut at 9 sigma, in each of
the detector's slots. Those masses depend only on the width, the unit
shift and the detector, so they are cached and read-only; every simulated
trial takes the product of one row of weights with them, and the
candidate table keeps the two as factors.
``fold_kernels`` builds the ``GaussianSum`` a protected run reports, with
its squared norm, where the couplings sit on a lattice: every coupling a
multiple n_j of a unit h = h_0 / q, h_0 the smallest positive coupling and
q at most 16, to within a residual that the merge tolerance bounds, with
the multiples summing to fewer than 16 (N + 1). The amplitude of the copy
at k h is the coefficient of z^k in prod_j (s^2 + c^2 z^{n_j}), built by
the helper ``lattice_weights`` uses, and the squared norm is the
coefficients' autocorrelation over the lags whose overlap is at least
1e-40. Couplings off every such lattice get no state.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from zenosense.detector import _check_non_negative, _check_pixels, _whole_numbers

__all__ = [
    "GaussianSum",
    "fold_kernels",
    "lattice_weights",
    "lattice_density",
    "normal_masses",
    "MERGE_TOLERANCE_FACTOR",
]

# Centers closer than this fraction of sigma count as one lattice copy: the
# residual bound of the lattice rule in ``fold_kernels`` must stay below it.
MERGE_TOLERANCE_FACTOR = 1e-9


# One check per input rule; every public function that takes the input calls it.


def _check_theta(theta: float) -> None:
    """The probe angle of cos(theta)|H> + sin(theta)|V> lies in [0, pi/2]."""
    if not (0.0 <= theta <= math.pi / 2.0):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")


def _check_positive(name: str, value: float) -> float:
    """A width or unit shift as a float, which must be positive and finite."""
    if not (0.0 < float(value) < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _check_multiples(multiples, what: str) -> tuple[int, ...]:
    """Multiples of a lattice unit as Python ints: non-negative shifts that are whole numbers."""
    _check_non_negative(multiples, what)
    return tuple(_whole_numbers(multiples, what).tolist())


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
        Component centers, as given; ``fold_kernels`` gives them increasing
        and keeps only the copies of non-zero amplitude.

    The constructor checks the width and that the components are finite,
    1-d, of one length and at least one, and stores read-only copies.
    Instances are immutable and safe to share.
    """

    sigma: float
    amplitudes: np.ndarray
    centers: np.ndarray

    def __post_init__(self) -> None:
        sigma = _check_positive("sigma", self.sigma)
        amps = np.array(self.amplitudes, dtype=np.complex128, ndmin=1)
        cents = np.array(self.centers, dtype=np.float64, ndmin=1)
        if amps.shape != cents.shape or amps.ndim != 1:
            raise ValueError("amplitudes and centers must be 1-d and the same length")
        if amps.size == 0:
            raise ValueError("a GaussianSum needs at least one component")
        if not np.all(np.isfinite(cents)) or not np.all(np.isfinite(amps)):
            raise ValueError("component amplitudes and centers must be finite")
        amps.setflags(write=False)
        cents.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "centers", cents)

    @property
    def n_components(self) -> int:
        return int(self.amplitudes.size)


# The lattice path keeps sum(n_j) + 1 coefficients, most of them zero when
# the multiples are spread, and touches all of them on each event. Up to
# this many coefficients per event covers every alphabet whose multipliers
# reach 15 times the smallest positive one (the default and benchmark
# alphabets reach 4) and keeps couplings such as (h, 1e6 h) from allocating
# a million; it also bounds the divisors q of the unit search.
_MAX_SLOTS_PER_EVENT = 16


def _slot_multiples(tol: float, g: np.ndarray) -> tuple[float, list[int]] | None:
    """The lattice unit h and the multiples n_j of it, or None off every
    lattice (the rule is in ``fold_kernels``); needs a positive coupling."""
    h0 = float(g[g > 0.0].min())
    for q in range(1, _MAX_SLOTS_PER_EVENT + 1):
        h = h0 / q
        if h < tol:  # no finer unit passes either
            return None
        with np.errstate(over="ignore"):
            n = np.rint(g / h)
            bound = float(np.abs(g - n * h).sum() + g.size * sys.float_info.epsilon * g.sum())
        if 2.0 * bound < tol <= h - 2.0 * bound and n.sum() < _MAX_SLOTS_PER_EVENT * (g.size + 1):
            return h, n.astype(np.intp).tolist()
    return None


def _lattice_coefficients(c2: float, s2: float, multipliers: Sequence[int], counts: np.ndarray) -> np.ndarray:
    """Coefficients of z^a in prod_k (s^2 + c^2 z^{m_k})^{counts[r, k]}, one row per row of ``counts``.

    Built one factor s^2 + c^2 z^m at a time, in the order of the
    multipliers, in the arithmetic of one kernel step s^2 I + c^2 T_g:
    c_a becomes s^2 c_a + c^2 c_(a - m). The t-th factor of a multiplier
    goes to the rows with more than t of them, gathered and written back;
    where every row takes it, as in the one row of a protected run, it is
    applied in place, which saves the gather on each of the run's events.
    Returns shape ``(rows, M)``, where M - 1 is the largest
    ``counts[r] @ multipliers``.
    """
    size = int((counts @ np.asarray(multipliers, dtype=np.int64)).max()) + 1
    coef = np.zeros((counts.shape[0], size))
    coef[:, 0] = 1.0
    for m, n, n_min, n_max in zip(multipliers, counts.T, counts.min(axis=0).tolist(), counts.max(axis=0).tolist()):
        for t in range(n_max):
            if t < n_min:
                shifted = c2 * coef[:, : size - m]
                coef *= s2
                coef[:, m:] += shifted
            else:
                rows = np.flatnonzero(n > t)
                before = coef[rows]
                after = s2 * before
                after[:, m:] += c2 * before[:, : size - m]
                coef[rows] = after
    return coef


def _lags_in_reach(size: int, spacing: float):
    """Lags d < ``size`` of a lattice whose spacing is ``spacing`` widths, with
    their overlaps: 1 at lag 0, then exp(-x x / 8) at x = d spacing, up to
    the first overlap below 1e-40. A spacing of 0 keeps every lag, and one
    whose x x overflows to inf keeps lag 0 alone."""
    yield 0, 1.0
    for d in range(1, size):
        x = d * spacing
        overlap = math.exp(-x * x / 8.0)
        if overlap < 1e-40:
            return
        yield d, overlap


def fold_kernels(theta: float, sigma: float, couplings: Sequence[float]) -> tuple[GaussianSum, float] | None:
    """Bath state after one noise kernel per coupling, in the given order, and its squared norm.

    Starts from the unit Gaussian of width ``sigma``. Each kernel is the
    non-unitary B = cos^2(theta) T_g + sin^2(theta) I, where T_g shifts
    every component center by +g (the horizontally polarized sub-packet
    moves toward positive x); theta, the width and the couplings are checked
    before any kernel runs, and the first bad coupling is named with its
    index. The kernels commute, so the order only moves the last bits; the
    squared norm is the
    protected survival probability of the whole sequence.

    Couplings that are all zero apply the identity: one copy of amplitude 1
    at the origin, of squared norm exactly 1.

    Otherwise let h_0 be the smallest positive coupling and try the units
    h = h_0 / q for q = 1, 2, ... up to ``_MAX_SLOTS_PER_EVENT``, keeping
    the first that passes this rule. Let n_j = rint(g_j / h), E = sum_j
    |g_j - n_j h| + N eps sum_j g_j and tol = ``MERGE_TOLERANCE_FACTOR``
    sigma. Every center a sequence of shifts reaches in floats lies within
    E of its k h, so where 2 E < tol <= h - 2 E the copies are exactly the
    multiples of h. There, and where sum_j n_j < ``_MAX_SLOTS_PER_EVENT``
    (N + 1), the state is prod_j (s^2 + c^2 T_{n_j h}) applied to the
    Gaussian: the copy centered at k h has as amplitude the coefficient c_k
    of z^k in prod_j (s^2 + c^2 z^{n_j}), one factor per event in event
    order, and copies whose coefficient is zero are left out. The squared
    norm is

        sum_d (2 - [d = 0]) exp(-(d h / sigma)^2 / 8) sum_k c_k c_(k+d)

    over the lags d whose overlap is at least 1e-40, the cut of
    ``lattice_weights``; the coefficients are non-negative and sum to 1, so
    the lags left out carry less than 2e-40.

    Returns None where no unit passes: continuous couplings, tolerance
    chains and couplings whose multiples would be too many, such as
    (h, 1e6 h). ``run_protected`` then takes the survival from its
    momentum grid.
    """
    _check_theta(theta)
    values = _check_non_negative(couplings, "couplings")
    sigma = _check_positive("sigma", sigma)
    if not values.any():
        return GaussianSum(sigma, [1.0], [0.0]), 1.0
    lattice = _slot_multiples(MERGE_TOLERANCE_FACTOR * sigma, values)
    if lattice is None:
        return None
    h, multiples = lattice
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    coef = _lattice_coefficients(c2, s2, multiples, np.ones((1, values.size), dtype=np.int64))[0]
    size = coef.size
    norm = sum(
        (2.0 if d else 1.0) * overlap * float(coef[: size - d] @ coef[d:])
        for d, overlap in _lags_in_reach(size, h / sigma)
    )
    copies = np.flatnonzero(coef)
    return GaussianSum(sigma, coef[copies], h * copies), norm


def lattice_weights(
    theta: float,
    sigma: float,
    unit_shift: float,
    multipliers: Sequence[int],
    counts: np.ndarray,
) -> np.ndarray:
    """Weights of the shared normals in the densities of many lattice states.

    Row r of ``counts`` (shape ``(rows, len(multipliers))``) is the state
    after ``counts[r, k]`` kernels of shift ``multipliers[k] * unit_shift``
    for every k, folded from the unit Gaussian. With h = unit_shift its
    amplitude on the copy shifted by a * h, a = 0..M-1, is the coefficient
    c_a of z^a in prod_k (s^2 + c^2 z^{m_k})^{n_k}, built one kernel factor
    at a time. By the packet-product identity its density is a mixture of
    the 2M - 1 normals N(x; s h / 2, sigma^2) shared by all rows, with
    weights

        W_s = sum_{a+b=s} c_a c_b exp(-((a - b) h / sigma)^2 / 8),

    accumulated one diagonal a - b at a time, with the spacing h / sigma
    formed once, until the overlap falls below 1e-40. The coefficients are
    non-negative and sum to 1, so the diagonals left out carry less than
    2e-40 of a row's mass, far below the cut of the normals in
    ``normal_masses``.

    Returns W, shape ``(rows, 2M - 1)``, where M - 1 is the largest
    ``counts[r] @ multipliers``. A row's masses over the detector's slots
    are ``W[r] @ normal_masses(sigma, unit_shift, n, ...)[:2M - 1]`` for
    any n >= 2M - 1. Not normalized: a row summed over the whole line is the
    squared norm of its state, the protected survival probability.
    Theta, the width and unit shift are checked, and multipliers and counts
    must be non-negative whole numbers: a count of 2.5, NaN or 1e20 raises
    ``ValueError``.
    """
    _check_theta(theta)
    mult = _check_multiples(multipliers, "lattice multipliers")
    sigma = _check_positive("sigma", sigma)
    h = _check_positive("unit shift", unit_shift)
    counts = _whole_numbers(counts, "lattice counts")
    if counts.ndim != 2 or counts.shape[1] != len(mult) or np.any(counts < 0):
        raise ValueError("counts must be non-negative, one row per state and one column per multiplier")
    coef = _lattice_coefficients(math.cos(theta) ** 2, math.sin(theta) ** 2, mult, counts)
    size = coef.shape[1]
    weights = np.zeros((counts.shape[0], 2 * size - 1))
    for d, overlap in _lags_in_reach(size, h / sigma):
        # pairs (a, a + d) and (a + d, a) sit at s = 2a + d
        weights[:, d : 2 * size - 1 - d : 2] += (2.0 if d else 1.0) * overlap * coef[:, : size - d] * coef[:, d:]
    return weights


def lattice_density(weights: np.ndarray, sigma: float, unit_shift: float, x) -> np.ndarray:
    """Normalized densities of lattice states from their ``lattice_weights`` rows.

    Row r of the result is sum_s W_rs N(x; s h / 2, sigma^2) / sum_s W_rs
    at each position of the 1-d ``x``, with h = ``unit_shift``: shape
    ``(rows, len(x))``. The weights must be 2-d, finite and non-negative;
    a row whose weights sum to zero, the squared norm of a state that does
    not survive, is rejected.
    """
    sigma = _check_positive("sigma", sigma)
    h = _check_positive("unit shift", unit_shift)
    weights = _check_non_negative(weights, "lattice weights")
    if weights.ndim != 2:
        raise ValueError(f"lattice weights must be 2-d, one row per state, got shape {weights.shape}")
    totals = weights.sum(axis=1)
    if not np.all(totals > 0.0):
        raise ValueError("density undefined for a zero-norm state")
    z = (np.asarray(x, dtype=np.float64)[None, :] - 0.5 * h * np.arange(weights.shape[1])[:, None]) / sigma
    normals = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return (weights @ normals) / totals[:, None]


_erfc = np.frompyfunc(math.erfc, 1, 1)


@lru_cache(maxsize=16)
def normal_masses(
    sigma: float,
    unit_shift: float,
    n_normals: int,
    pitch: float,
    n_pixels: int,
    offset: float,
) -> np.ndarray:
    """Masses of the normals N(x; s h / 2, sigma^2), s < ``n_normals``, in the detector's slots.

    The slots are the line left of ``offset``, the ``n_pixels`` half-open
    pixels [offset + i pitch, offset + (i + 1) pitch) and the line right of
    the last pixel; this is the one place the detector's edges are built.
    Returns D, shape ``(n_normals, n_pixels + 2)``, read-only: row s is
    normal s's mass in each slot and does not depend on ``n_normals``, so
    the head of a larger build equals a smaller one bit for bit. Each
    normal is cut at 9 sigma from its center (each tail beyond carries
    < 1.2e-19 of its mass and is returned as zero): the CDF is
    0.5 erfc(-z / sqrt 2), through ``math.erfc``, of z clipped to [-9, 9],
    so a slot more than 9 sigma from the center gets exactly zero.

    D depends only on the width, the unit shift, the row count and the
    geometry, so it is cached on them (16 entries, as the candidate table):
    ``pipeline.simulate_trials`` asks for the 2 N max(m) + 1 normals that
    any of its truths can reach, and a candidate table over every
    configuration of N events asks for the same rows, so both read one
    entry. That pays wherever a process makes more than one
    ``simulate_trials`` or estimate call at one geometry. The two counts
    must be integers: 2.5 raises ``TypeError`` before anything is cached.
    """
    sigma = _check_positive("sigma", sigma)
    h = _check_positive("unit shift", unit_shift)
    n_normals, n_pixels = operator.index(n_normals), operator.index(n_pixels)
    if n_normals < 1 or n_pixels < 1:
        raise ValueError(f"need at least one normal and one pixel, got {n_normals!r}, {n_pixels!r}")
    _check_pixels(pitch, offset)
    pixel_edges = offset + np.arange(n_pixels + 1) * pitch
    if not np.all(np.diff(pixel_edges) > 0.0):
        raise ValueError(f"pixel edges must be strictly increasing, got pitch {pitch!r} at offset {offset!r}")
    edges = np.concatenate(([-np.inf], pixel_edges, [np.inf]))
    z = (edges[None, :] - 0.5 * h * np.arange(n_normals)[:, None]) / sigma
    # math.erfc only inside the band, about a fifth of the entries
    cdf = np.where(z < 0.0, 0.5 * math.erfc(9.0 / math.sqrt(2.0)), 0.5 * math.erfc(-9.0 / math.sqrt(2.0)))
    band = np.abs(z) < 9.0
    cdf[band] = 0.5 * _erfc(-z[band] / math.sqrt(2.0)).astype(np.float64)
    masses = np.diff(cdf, axis=1)
    masses.setflags(write=False)
    return masses
