"""Reconstruction of noise-event configurations from measured histograms.

Two estimators, selected by ``estimate_histogram(method=...)``, recover the
event multiset {n_k} of one channel run from the pixelated arrival
histogram:

* ``"l2"`` minimizes the pixel-wise squared distance between the measured
  distribution and each candidate's pixel-averaged theoretical profile over
  the full profile. Every candidate is screened through the table's Gram
  form; only the short list the screen cannot rule out gets its profile
  row formed and its exact distance taken.
* ``"moments"`` is the two-stage search: keep the candidates whose
  mean arrival position matches the measured one within a tolerance, then
  minimize the squared mismatch of the second moment taken about the
  measured mean over that window only. The tolerance starts at the
  table's half smallest gap between candidate means and doubles until
  the mean filter keeps a candidate.

Measured data and candidates go through one pixel-center functional, so
pixelation bias cancels and a noiseless histogram is reconstructed exactly;
it is linear, so candidate moments are taken through the lattice factors
without forming a profile row. Repeated trials aggregate into event
probabilities with equal-tailed Beta posterior credible intervals.

A reconstruction is ``degenerate`` when some other candidate is one the
method cannot tell apart from the chosen one. For ``"moments"`` that is a
candidate whose mean lies within ``DEGENERATE_MEAN_TOL_FACTOR * sigma`` and
whose variance lies within ``DEGENERATE_VAR_TOL_FACTOR * sigma * sigma`` of
the chosen one's; for ``"l2"`` a candidate whose profile row, formed in one
product together with a row of the chosen candidate and rounded to
``PROFILE_TOL``, equals that row bit for bit; that search stops at the
first block of rows that holds one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from zenosense.detector import SpatialHistogram, _check_non_negative, pixel_centers
from zenosense.noise_model import NoiseAlphabet
from zenosense.wavepacket import lattice_weights, normal_masses

__all__ = [
    "TrialEstimate",
    "EstimateReport",
    "estimate_histogram",
    "estimate_from_masses",
    "beta_ci",
    "build_report",
    "candidate_table",
    "pixel_moments",
]

# Candidates whose pixel-level means and variances agree within these
# absolute tolerances (scaled by sigma and sigma^2) are indistinguishable to
# the moment estimator.
DEGENERATE_MEAN_TOL_FACTOR = 1e-6
DEGENERATE_VAR_TOL_FACTOR = 1e-6

# Profiles equal after rounding to this absolute tolerance per pixel are
# indistinguishable to the L2 estimator.
PROFILE_TOL = 1e-12


@dataclass(frozen=True)
class TrialEstimate:
    """Reconstruction of a single trial, with diagnostics.

    ``degenerate`` is true when another candidate matches the chosen one
    within the method's tolerances (see the module docstring). ``top``
    holds up to five scored candidates with their objectives, smallest
    first, ties in candidate order: the l2 short list, or the moments
    window. For ``"moments"``, ``mean_window`` holds the ascending indices
    of the candidates whose mean lies within the tolerance after its
    ``widenings`` doublings, the ones the second stage chose among; it is
    ``()`` for ``"l2"``.
    """

    method: str
    index: int
    config: tuple[int, ...]
    objective: float
    top: tuple[tuple[tuple[int, ...], float], ...]
    widenings: int = 0
    degenerate: bool = False
    mean_window: tuple[int, ...] = ()


@dataclass(frozen=True)
class _CandidateSet:
    """Candidate profiles kept as lattice factors, with their pixel moments.

    ``configs[c]`` is the count tuple of candidate c. Profile c, its
    pixel masses normalized to its mass on the detector, is
    ``weights[c] @ diffs``: ``weights`` holds the candidates' lattice
    weights (``wavepacket.lattice_weights``) divided by those masses,
    ``diffs`` the masses of the shared normals in each pixel, a read-only
    view of the pixel columns of the cached ``wavepacket.normal_masses``.
    ``sq_norms[c]`` is the squared norm of profile c through the Gram form,
    weights[c] (diffs diffs^T) weights[c]^T, and ``means[c]``, ``variances[c]``
    its pixel-center moments through the same factors. ``mean_tol`` is the
    moment search's base tolerance: half the smallest gap between sorted
    means that exceeds ``DEGENERATE_MEAN_TOL_FACTOR * sigma``, or inf when
    every mean coincides. No (candidates x pixels) array is kept;
    ``_profile_rows`` forms rows on demand.
    """

    configs: tuple[tuple[int, ...], ...]
    weights: np.ndarray  # (n_candidates, 2M - 1)
    diffs: np.ndarray  # (2M - 1, n_pixels)
    sq_norms: np.ndarray  # (n_candidates,)
    means: np.ndarray
    variances: np.ndarray
    sigma: float
    mean_tol: float


@lru_cache(maxsize=16)
def candidate_table(
    multipliers: tuple[float, ...],
    unit_shift: float,
    theta: float,
    sigma: float,
    counts: tuple[tuple[int, ...], ...],
    pitch: float,
    n_pixels: int,
    offset: float,
) -> _CandidateSet:
    """Cached lattice factors and pixel-level moments of the candidate profiles.

    Keyed on what the profiles depend on: the alphabet's integer-valued
    multipliers and unit shift (not its event probabilities), the probe
    angle, the packet width, the candidates' count tuples (in order,
    duplicates allowed) and the detector geometry; that tuple of count
    tuples is kept as the table's candidate list. The weights of all
    candidates come from one ``wavepacket.lattice_weights`` call; the
    normals' pixel masses are the pixel columns of the read-only
    ``wavepacket.normal_masses`` entry for as many normals as the weights
    have. Over every configuration of N events that is the entry
    ``pipeline.simulate_trials`` reads at the same geometry, so a table
    built after a simulation in one process finds its masses cached. The
    on-detector totals, squared norms and moments are the weights times
    products built once per table, so no profile row is formed.
    """
    weights = lattice_weights(theta, sigma, unit_shift, multipliers, counts)
    diffs = normal_masses(sigma, unit_shift, weights.shape[1], pitch, n_pixels, offset)[:, 1:-1]
    totals = weights @ diffs.sum(axis=1)
    missed = np.flatnonzero(~(totals > 0.0))
    if missed.size:
        raise ValueError(f"candidate {counts[missed[0]]} carries no mass on the detector")
    weights /= totals[:, None]
    # row-wise quadratic form in the Gram matrix; an einsum of it doubled an
    # N=20 build's time
    sq_norms = np.sum((weights @ (diffs @ diffs.T)) * weights, axis=1)
    centers = pixel_centers(n_pixels, pitch, offset)
    means = weights @ (diffs @ centers)
    variances = weights @ (diffs @ centers**2) - means * means
    for array in (weights, sq_norms, means, variances):
        array.setflags(write=False)
    gaps = np.diff(np.sort(means))
    gaps = gaps[gaps > DEGENERATE_MEAN_TOL_FACTOR * sigma]
    mean_tol = float(gaps.min() / 2.0) if gaps.size else math.inf
    return _CandidateSet(counts, weights, diffs, sq_norms, means, variances, sigma, mean_tol)


# Rows of the l2 short list formed at a time by ``_profile_rows``, so their
# temporaries stay small at any list size; each row's sums are those of the
# whole-array expression. 64 rows of 1024 pixels (512 kB) stay in a 2 MB L2
# cache, where 256 rows did not (on a 2-vCPU Xeon VM, distances over a
# whole N=10 table took 1.6 ms instead of 2.1 ms).
_ROW_BLOCK = 64


def _profile_rows(weights: np.ndarray, diffs: np.ndarray, rows, buf: np.ndarray) -> np.ndarray:
    """Profile rows ``rows`` (a slice or index array, at most ``_ROW_BLOCK``).

    One matrix product of their normalized lattice weights with the normal
    masses, written into the head of ``buf``; the same rows formed by the
    same call are the same bits.
    """
    block = weights[rows]
    return np.matmul(block, diffs, out=buf[: block.shape[0]])


def pixel_moments(weights: np.ndarray, pitch: float, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of normalized pixel weights, pixel centers as positions.

    The one pixel-center functional: measured histograms go through it and
    candidate profiles through its linear form in ``candidate_table``, so
    the pitch-scale discretization cancels in comparisons. ``weights`` has
    shape ``(n_pixels,)`` or ``(rows, n_pixels)`` and must already sum to 1
    along its last axis; pixel i sits at ``offset + (i + 0.5) * pitch``.
    Both results have the shape of ``weights`` without its last axis.
    """
    weights = np.asarray(weights, dtype=np.float64)
    centers = pixel_centers(weights.shape[-1], pitch, offset)
    m1 = np.sum(weights * centers, axis=-1)
    return m1, np.sum(weights * centers**2, axis=-1) - m1 * m1


def estimate_from_masses(
    masses: np.ndarray,
    pitch: float,
    offset: float,
    candidates: Sequence[tuple[int, ...]],
    theta: float,
    sigma: float,
    alphabet: NoiseAlphabet,
    method: str = "moments",
) -> TrialEstimate:
    """Core reconstruction from pixel masses or raw counts, divided here by their sum; the method is checked first."""
    if method not in ("l2", "moments"):
        raise ValueError(f"unknown estimator {method!r}; expected 'l2' or 'moments'")
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    masses = _check_non_negative(masses, "mass vector")
    if masses.ndim != 1 or masses.size < 2:
        raise ValueError("mass vector must be 1-d with at least 2 pixels")
    with np.errstate(over="ignore"):
        total = masses.sum()
    if not (total > 0.0):
        raise ValueError("mass vector is empty: every entry is zero")
    if not math.isfinite(total):
        raise ValueError(f"mass vector's sum is not finite, got {total!r}")
    masses = masses / total
    cand = candidate_table(
        alphabet.multipliers,
        alphabet.unit_shift,
        float(theta),
        float(sigma),
        tuple(candidates),
        float(pitch),
        masses.size,
        float(offset),
    )
    if method == "l2":
        return _estimate_l2(masses, cand)
    m1, central2 = pixel_moments(masses, pitch, offset)
    return _estimate_moments(float(m1), float(central2), cand)


def _top_candidates(
    configs: Sequence[tuple[int, ...]], ixs: np.ndarray, objective: np.ndarray
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """The five smallest objectives of the ascending candidates ``ixs``, ties in candidate order."""
    order = np.argsort(objective, kind="stable")[:5]
    return tuple((configs[int(ixs[i])], float(objective[i])) for i in order)


def _moment_degenerate(means: np.ndarray, variances: np.ndarray, sigma: float, best: int) -> bool:
    """Whether a candidate other than best has best's mean and variance within the tolerances."""
    near = (np.abs(means - means[best]) <= DEGENERATE_MEAN_TOL_FACTOR * sigma) & (
        np.abs(variances - variances[best]) <= DEGENERATE_VAR_TOL_FACTOR * sigma * sigma
    )
    near[best] = False
    return bool(near.any())


def _screen_l2(masses: np.ndarray, cand: _CandidateSet) -> tuple[np.ndarray, float]:
    """Screened l2 distances of every candidate, and a bound on their error.

    With w_c the normalized weights, D the normal masses and q_c the squared
    norms of the table, d_c = q_c - 2 w_c (D m) + m m is the squared
    distance sum (p_c - m)^2 of profile c to ``masses`` without forming
    p_c. Every factor is non-negative, so each term here, and the exact sum
    over a formed row ``_exact_distances`` takes, is off by at most n eps/2
    times its size for n products summed in any order. Both sides together
    sum fewer than n = 2 pixels + 4 (2M - 1) + 4 products per term, so the
    bound n eps (max q + 2 max w (D m) + m m) holds for |screened - exact|
    of every candidate.
    """
    cross = cand.weights @ (cand.diffs @ masses)
    mm = float(masses @ masses)
    screened = cand.sq_norms - 2.0 * cross + mm
    n_terms = 2 * cand.diffs.shape[1] + 4 * cand.diffs.shape[0] + 4
    bound = n_terms * np.finfo(np.float64).eps * (float(cand.sq_norms.max()) + 2.0 * float(cross.max()) + mm)
    return screened, bound


def _exact_distances(cand: _CandidateSet, ixs: np.ndarray, masses: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Squared distance sum (p_c - m)^2 of the profile rows ``ixs`` to ``masses``.

    The rows are formed and reduced ``_ROW_BLOCK`` at a time in ``buf``, so
    each sum is that of ``np.sum((rows - masses) ** 2, axis=1)`` over the
    formed rows without a temporary of all of them.
    """
    distances = np.empty(ixs.size)
    for start in range(0, ixs.size, _ROW_BLOCK):
        rows = _profile_rows(cand.weights, cand.diffs, ixs[start : start + _ROW_BLOCK], buf)
        rows -= masses
        np.square(rows, out=rows)
        np.sum(rows, axis=1, out=distances[start : start + rows.shape[0]])
    return distances


def _profile_degenerate(cand: _CandidateSet, best: int, near: np.ndarray, buf: np.ndarray) -> bool:
    """Whether a profile row of ``near`` rounds to best's bit for bit.

    ``near`` are indices other than best. They are taken ``_ROW_BLOCK - 1``
    at a time, and each block is formed together with a row of best in one
    ``_profile_rows`` call; a row of the block matches when, rounded to
    ``PROFILE_TOL``, it equals that row of best. Returns at the first block
    that holds a match.
    """
    step = _ROW_BLOCK - 1
    for start in range(0, near.size, step):
        rows = _profile_rows(cand.weights, cand.diffs, np.concatenate(([best], near[start : start + step])), buf)
        rows /= PROFILE_TOL
        np.round(rows, out=rows)
        bits = rows.view(np.uint64)
        if (bits[1:] == bits[0]).all(axis=1).any():
            return True
    return False


def _estimate_l2(masses: np.ndarray, cand: _CandidateSet) -> TrialEstimate:
    """Exact l2 argmin over the candidates the screen cannot rule out.

    With E the screen's error bound, the exact argmin and every candidate
    within 5 ``PROFILE_TOL`` of the exact minimum screen within 5
    ``PROFILE_TOL`` + 4 E of the screened minimum, and the five smallest
    exact distances screen within 2 E of the fifth smallest screened one.
    The short list holds every candidate within 4 E of either limit; its
    rows are formed ``_ROW_BLOCK`` at a time, and the best row and ``top``
    are taken on their exact distances sum (p_c - m)^2 (ties keep the
    smallest index). Rows that round equal differ by at most
    ``PROFILE_TOL`` per pixel, and d_c - d_best = sum (p_c - p_best)(p_c +
    p_best - 2 m), whose second factor sums to at most 4 in absolute value;
    so only the short-listed rows whose exact distance lies within 5
    ``PROFILE_TOL`` of the best (room for rounding) are checked against it
    (see ``_profile_degenerate``).
    """
    screened, bound = _screen_l2(masses, cand)
    k = min(5, screened.size)
    low = np.partition(screened, (0, k - 1))
    cut = max(low[0] + 5.0 * PROFILE_TOL, low[k - 1]) + 4.0 * bound
    short = np.flatnonzero(screened <= cut)
    buf = np.empty((min(_ROW_BLOCK, short.size), masses.size))
    exact = _exact_distances(cand, short, masses, buf)
    best = int(short[np.argmin(exact)])
    objective = float(exact.min())
    near = short[np.abs(exact - objective) <= 5.0 * PROFILE_TOL]
    near = near[near != best]
    return TrialEstimate(
        method="l2",
        index=best,
        config=cand.configs[best],
        objective=objective,
        top=_top_candidates(cand.configs, short, exact),
        degenerate=_profile_degenerate(cand, best, near, buf),
    )


def _estimate_moments(m1: float, central2: float, cand: _CandidateSet) -> TrialEstimate:
    """Second-moment argmin, and ``top``, over the mean window only, in its ascending order."""
    mean_dist = np.abs(cand.means - m1)
    nearest = mean_dist.min()
    tol = cand.mean_tol
    widenings = 0
    # ends: tol is positive or inf and m1 is finite
    while not nearest <= tol:
        tol *= 2.0
        widenings += 1
    window = np.flatnonzero(mean_dist <= tol)
    # second moment about the measured mean: var_c + (mean_c - m1)^2
    objective = (central2 - (cand.variances[window] + (cand.means[window] - m1) ** 2)) ** 2
    pick = int(np.argmin(objective))
    best = int(window[pick])
    return TrialEstimate(
        method="moments",
        index=best,
        config=cand.configs[best],
        objective=float(objective[pick]),
        top=_top_candidates(cand.configs, window, objective),
        widenings=widenings,
        degenerate=_moment_degenerate(cand.means, cand.variances, cand.sigma, best),
        mean_window=tuple(window.tolist()),
    )


def estimate_histogram(
    histogram: SpatialHistogram,
    candidates: Sequence[tuple[int, ...]],
    theta: float,
    sigma: float,
    alphabet: NoiseAlphabet,
    method: str = "moments",
) -> TrialEstimate:
    """Reconstruct one trial from a measured histogram."""
    return estimate_from_masses(
        histogram.counts,
        histogram.pitch,
        histogram.offset,
        candidates,
        theta,
        sigma,
        alphabet,
        method=method,
    )


# --- trial aggregation and confidence intervals ------------------------------


# The largest total ``beta_ci`` accepts: its Beta quantile is checked
# against an independent implementation up to this total.
MAX_BETA_TOTAL = 10**6

# Steps before the Beta quantile gives up. Its Halley steps take 2 to 10 over
# the tested range; bisection alone from [0, 1] would take 66 to the smallest
# 95% bound there, s = 1 of MAX_BETA_TOTAL.
_QUANTILE_MAX_STEPS = 100


def beta_ci(successes: int, total: int, level: float) -> tuple[float, float]:
    """Equal-tailed credible interval of the Beta(s+1, n-s+1) posterior.

    The lower bound is clamped to 0 when s = 0 and the upper to 1 when
    s = n, matching one-sided reporting for empty and full categories.
    Each bound is within 1e-10 relative of scipy's ``betaincinv``, as the
    tests check at levels 0.68 and 0.95 for every count of totals up to 300
    and sampled counts of totals up to ``MAX_BETA_TOTAL``; a larger total
    is rejected.
    """
    successes, total = operator.index(successes), operator.index(total)
    if not (1 <= total <= MAX_BETA_TOTAL):
        raise ValueError(f"total must lie in [1, {MAX_BETA_TOTAL}], got {total}")
    if not (0 <= successes <= total):
        raise ValueError(f"successes {successes} outside [0, {total}]")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    a = successes + 1
    b = total - successes + 1
    tail = 0.5 * (1.0 - level)
    lo = 0.0 if successes == 0 else _beta_quantile(a, b, tail)
    hi = 1.0 if successes == total else _beta_quantile(a, b, 1.0 - tail)
    return (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


def _beta_quantile(a: int, b: int, p: float) -> float:
    """The x in (0, 1) with I_x(a, b) = p, for integers a, b >= 1 and 0 < p < 1.

    I_x(a, b) = P(K >= a) for K ~ Binomial(m = a + b - 1, x). Each step sums
    the tail on the far side of a from the mean, P(K >= a) when a > m x and
    else P(K <= a - 1), which is P(m - K >= b), so its terms fall away from
    its first one. The Beta density is that first term times a / x or
    b / (1 - x); x and 1 - x are passed apart, so that 1 - (1 - x) never
    stands in for a small x. Halley steps on I_x - p stay inside a bracket
    that every step narrows, and a step that would leave it bisects. The
    error after a Halley step is of the order of the step cubed, so the
    iteration returns after a step below 1e-9 of x, or once the bracket is
    below 1e-13 of x; it raises ``ArithmeticError`` after
    ``_QUANTILE_MAX_STEPS`` steps.
    """
    m = a + b - 1
    # start at the normal approximation, z from Abramowitz and Stegun 26.2.23
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    mean = a / (a + b)
    x = mean + math.copysign(z, p - 0.5) * math.sqrt(mean * (1.0 - mean) / (a + b + 1))
    if not 0.0 < x < 1.0:
        x = mean
    lo, hi = 0.0, 1.0
    for _ in range(_QUANTILE_MAX_STEPS):
        if a > m * x:
            tail, first = _binomial_upper_tail(a, m, x, 1.0 - x)
            cdf, density = tail, a * first / x
        else:
            tail, first = _binomial_upper_tail(b, m, 1.0 - x, x)
            cdf, density = 1.0 - tail, b * first / (1.0 - x)
        if cdf < p:
            lo = x
        else:
            hi = x
        step = (cdf - p) / density if density > 0.0 else math.inf
        # Halley's correction, from the log-derivative of the density
        step /= 1.0 - 0.5 * step * ((a - 1) / x - (b - 1) / (1.0 - x))
        if abs(step) <= 1e-9 * x:
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * x:
            return x
    raise ArithmeticError(f"Beta({a}, {b}) quantile at {p!r} did not converge in {_QUANTILE_MAX_STEPS} steps")


def _binomial_upper_tail(j: int, m: int, q: float, r: float) -> tuple[float, float]:
    """P(K >= j) and P(K = j) for K ~ Binomial(m, q), r = 1 - q, for m q < j <= m.

    j above the mean is at or past the mode, so the terms fall from the
    first. The rest come from the ratio of consecutive terms and are summed
    until one is below 1e-17 of the sum.
    """
    first = term = math.exp(_log_binomial_pmf(j, m, q, r))
    odds = q / r
    total = 0.0
    for k in range(j, m + 1):
        total += term
        term *= (m - k) / (k + 1) * odds
        if term <= 1e-17 * total:
            break
    return total, first


def _log_binomial_pmf(k: int, m: int, q: float, r: float) -> float:
    """log P(K = k) for K ~ Binomial(m, q), r = 1 - q, 1 <= k <= m, in Loader's saddle-point form.

    Its terms are the Stirling errors of m, k and m - k and the deviances of
    k and m - k from their means. All are small, so the sum keeps an
    absolute error near 1e-13 at m = 1e6, where lgamma(m + 1) alone carries
    one of about 1e-9.
    """
    if k == m:
        return m * math.log1p(-r)
    return (
        _stirling_error(m)
        - _stirling_error(k)
        - _stirling_error(m - k)
        - _deviance(k, m * q)
        - _deviance(m - k, m * r)
        + 0.5 * math.log(m / (2.0 * math.pi * k * (m - k)))
    )


def _stirling_error(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for n >= 1."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    inv2 = 1.0 / (n * n)
    # the next term of the series, 1 / (1188 n^9), is below 1.2e-14 for n > 15
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2) / n


def _deviance(k: int, mean: float) -> float:
    """k log(k / mean) + mean - k, to rounding of k - mean where k is near the mean."""
    return k * math.log1p((k - mean) / mean) + (mean - k)


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated reconstruction of L trials with per-category intervals."""

    modal_config: tuple[int, ...]
    probabilities: tuple[float, ...]
    event_counts: tuple[int, ...]
    ci68: tuple[tuple[float, float], ...]
    ci95: tuple[tuple[float, float], ...]
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_R": list(self.modal_config),
            "p_R": list(self.probabilities),
            "ci68": [list(pair) for pair in self.ci68],
            "ci95": [list(pair) for pair in self.ci95],
            "diagnostics": self.diagnostics,
        }


def build_report(
    trials: Sequence[TrialEstimate],
    alphabet: NoiseAlphabet,
    n_events: int,
    n_trials: int,
) -> EstimateReport:
    """Assemble per-trial estimates into the aggregated report.

    The headline configuration is the most frequent per-trial reconstruction
    (ties break to the lexicographically smallest counts). Per-category
    probabilities pool all N*L events: p_k = s_k / (N*L) with s_k the
    pooled event counts, identical to averaging the per-trial n_k / N.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    if len(trials) != n_trials:
        raise ValueError(f"expected {n_trials} trials, got {len(trials)}")
    configs = [t.config for t in trials]
    for config in configs:
        if len(config) != alphabet.size:
            raise ValueError("trial configuration does not match the alphabet size")
        if sum(config) != n_events:
            raise ValueError(f"trial configuration {config} sums to {sum(config)}, expected {n_events}")
    total = n_events * n_trials
    counts = tuple(sum(column) for column in zip(*configs))
    probs = tuple(s / total for s in counts)
    tally: dict[tuple[int, ...], int] = {}
    for config in configs:
        tally[config] = tally.get(config, 0) + 1
    modal = min(tally, key=lambda c: (-tally[c], c))
    posterior = tuple((s + 1.0) / (total + 2.0) for s in counts)
    ci68 = tuple(beta_ci(s, total, 0.68) for s in counts)
    ci95 = tuple(beta_ci(s, total, 0.95) for s in counts)
    diagnostics = {
        "method": trials[0].method,
        "per_trial": [list(c) for c in configs],
        "event_counts": list(counts),
        "n_total": total,
        "posterior_mean": list(posterior),
        "top_candidates": [
            [{"counts": list(c), "objective": obj} for c, obj in t.top]
            for t in trials
        ],
        "widenings": [t.widenings for t in trials],
        "degenerate": [t.degenerate for t in trials],
    }
    return EstimateReport(
        modal_config=modal,
        probabilities=probs,
        event_counts=counts,
        ci68=ci68,
        ci95=ci95,
        diagnostics=diagnostics,
    )
