"""Reconstruction of noise-event configurations from measured histograms.

Two estimators, selected by ``estimate_histogram(method=...)``, recover the
event multiset {n_k} of one channel run from the pixelated arrival
histogram:

* ``"l2"`` minimizes the pixel-wise squared distance between the measured
  distribution and each candidate's pixel-averaged theoretical profile over
  the full profile.
* ``"moments"`` is the two-stage search: keep the candidates whose
  mean arrival position matches the measured one within a tolerance, then
  minimize the squared mismatch of the second moment taken about the
  measured mean. The tolerance doubles (up to 10 times) if the mean filter
  leaves no candidates.

Candidate moments and profiles are evaluated with the same pixel-center
functional that is applied to measured data, so pixelation bias cancels and
a noiseless histogram is reconstructed exactly. Repeated trials aggregate
into event probabilities with equal-tailed Beta posterior credible
intervals.

A reconstruction is ``degenerate`` when its chosen candidate has direct
partners the method cannot tell apart from it, listed in ascending
candidate order in ``degenerate_with``. For ``"moments"`` they are the
other candidates whose mean lies within ``DEGENERATE_MEAN_TOL_FACTOR *
sigma`` and whose variance lies within ``DEGENERATE_VAR_TOL_FACTOR * sigma *
sigma`` of the chosen one's; for ``"l2"`` they are the other candidates whose
profile, rounded to ``PROFILE_TOL``, equals the chosen one's bit for bit.
Each trial finds the partners of its own chosen candidate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import betaincinv

from zenosense.detector import SpatialHistogram
from zenosense.noise_model import Configuration, NoiseAlphabet
from zenosense.wavepacket import lattice_masses

__all__ = [
    "TrialEstimate",
    "EstimateReport",
    "estimate_histogram",
    "estimate_from_masses",
    "aggregate_trials",
    "beta_ci",
    "build_report",
    "candidate_table",
    "default_mean_tolerance",
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

MAX_TOLERANCE_DOUBLINGS = 10


@dataclass(frozen=True)
class TrialEstimate:
    """Reconstruction of a single trial, with diagnostics.

    ``degenerate`` is true when the chosen candidate has direct partners
    under the method's tolerances (see the module docstring);
    ``degenerate_with`` lists their configurations in ascending candidate
    order.
    """

    method: str
    index: int
    config: Configuration
    objective: float
    top: tuple[tuple[Configuration, float], ...]
    widenings: int = 0
    degenerate: bool = False
    degenerate_with: tuple[Configuration, ...] = ()


@dataclass(frozen=True)
class _CandidateSet:
    configs: tuple[Configuration, ...]
    profiles: np.ndarray  # (n_candidates, n_pixels) pixel masses
    means: np.ndarray
    variances: np.ndarray
    sigma: float


@lru_cache(maxsize=16)
def candidate_table(
    multipliers: tuple[float, ...],
    unit_shift: float,
    theta: float,
    sigma: float,
    candidates: tuple[Configuration, ...],
    pitch: float,
    n_pixels: int,
    offset: float,
) -> _CandidateSet:
    """Cached pixel profiles and pixel-level moments.

    Keyed on what the profiles depend on: the alphabet's integer-valued
    multipliers and unit shift (not its event probabilities), the probe angle, the
    packet width, the candidate tuple and the detector geometry. The
    profiles of all candidates come from one lattice evaluation
    (``wavepacket.lattice_masses``), each normalized to its mass on the
    detector.
    """
    edges = offset + np.arange(n_pixels + 1) * pitch
    counts = np.array([config.counts for config in candidates])
    profiles = lattice_masses(theta, sigma, unit_shift, multipliers, counts, edges)
    totals = profiles.sum(axis=1)
    missed = np.flatnonzero(~(totals > 0.0))
    if missed.size:
        raise ValueError(f"candidate {candidates[missed[0]].counts} carries no mass on the detector")
    profiles /= totals[:, None]
    means, variances = pixel_moments(profiles, pitch, offset)
    profiles.setflags(write=False)
    means.setflags(write=False)
    variances.setflags(write=False)
    return _CandidateSet(candidates, profiles, means, variances, sigma)


# Rows of a table taken at a time by ``pixel_moments``, the l2 distances and
# the l2 partner rounding, so their temporaries stay small at any table size;
# each row's sums are those of the whole-array expression. 64 rows of 1024
# pixels (512 kB) and the profile rows they come from stay in a 2 MB L2
# cache, where 256 rows did not: on a 2-vCPU Xeon VM an N=10 l2 trial's
# distances take 1.6 ms instead of 2.1 ms.
_ROW_BLOCK = 64


def pixel_moments(weights: np.ndarray, pitch: float, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of normalized pixel weights, pixel centers as positions.

    The one pixel-center functional: measured histograms and candidate
    profiles both go through it, so the pitch-scale discretization is the
    same on both sides and cancels in comparisons. ``weights`` has shape
    ``(n_pixels,)`` or ``(rows, n_pixels)`` and must already sum to 1 along
    its last axis; pixel i sits at ``offset + (i + 0.5) * pitch``. Both
    results have the shape of ``weights`` without its last axis. Rows are
    weighted ``_ROW_BLOCK`` at a time.
    """
    weights = np.asarray(weights, dtype=np.float64)
    centers = offset + (np.arange(weights.shape[-1]) + 0.5) * pitch
    centers_sq = centers**2
    rows = weights.reshape(-1, weights.shape[-1])
    m1 = np.empty(rows.shape[0])
    m2 = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        np.sum(rows[block] * centers, axis=-1, out=m1[block])
        np.sum(rows[block] * centers_sq, axis=-1, out=m2[block])
    # [()] turns the 0-d results of 1-d weights into scalars
    m1 = m1.reshape(weights.shape[:-1])[()]
    return m1, m2.reshape(weights.shape[:-1])[()] - m1 * m1


def default_mean_tolerance(means: np.ndarray, sigma: float) -> float:
    """Half the minimal nonzero gap between candidate means.

    Gaps below the degeneracy tolerance count as zero; if every mean
    coincides the filter is a no-op (infinite tolerance).
    """
    gaps = np.diff(np.sort(np.asarray(means)))
    gaps = gaps[gaps > DEGENERATE_MEAN_TOL_FACTOR * sigma]
    if gaps.size == 0:
        return math.inf
    return float(gaps.min() / 2.0)


def _normalized_masses(histogram: SpatialHistogram) -> np.ndarray:
    total = histogram.total
    if total <= 0:
        raise ValueError("cannot estimate from an empty histogram")
    return histogram.counts / total


def estimate_from_masses(
    masses: np.ndarray,
    pitch: float,
    n_pixels: int,
    offset: float,
    candidates: Sequence[Configuration],
    theta: float,
    sigma: float,
    alphabet: NoiseAlphabet,
    method: str = "moments",
    mean_tolerance: float | None = None,
) -> TrialEstimate:
    """Core reconstruction from a (possibly noiseless) pixel-mass vector."""
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    masses = np.asarray(masses, dtype=np.float64)
    if masses.shape != (n_pixels,):
        raise ValueError("mass vector does not match the pixel count")
    if not np.isfinite(masses).all():
        raise ValueError("mass vector has a non-finite entry")
    if (masses < 0.0).any():
        raise ValueError("mass vector has a negative entry")
    total = masses.sum()
    if not (total > 0.0):
        raise ValueError("mass vector has no weight")
    masses = masses / total
    cand = candidate_table(
        alphabet.multipliers,
        alphabet.unit_shift,
        float(theta),
        float(sigma),
        tuple(candidates),
        float(pitch),
        int(n_pixels),
        float(offset),
    )
    if method == "l2":
        return _estimate_l2(masses, cand)
    if method == "moments":
        m1, central2 = pixel_moments(masses, pitch, offset)
        return _estimate_moments(float(m1), float(central2), cand, mean_tolerance)
    raise ValueError(f"unknown estimator {method!r}; expected 'l2' or 'moments'")


def _top_candidates(
    cand: _CandidateSet, objective: np.ndarray, k: int = 5
) -> tuple[tuple[Configuration, float], ...]:
    order = np.argsort(objective, kind="stable")[:k]
    return tuple((cand.configs[int(i)], float(objective[int(i)])) for i in order)


def _moment_partners(means: np.ndarray, variances: np.ndarray, sigma: float, best: int) -> np.ndarray:
    """Ascending indices c != best whose mean and variance match best's."""
    near = (np.abs(means - means[best]) <= DEGENERATE_MEAN_TOL_FACTOR * sigma) & (
        np.abs(variances - variances[best]) <= DEGENERATE_VAR_TOL_FACTOR * sigma * sigma
    )
    near[best] = False
    return np.flatnonzero(near)


def _profile_partners(profiles: np.ndarray, distances: np.ndarray, best: int, buf: np.ndarray) -> np.ndarray:
    """Ascending indices c != best whose rounded profile equals best's bit for bit.

    Rows that round equal differ by at most ``PROFILE_TOL`` per pixel, and
    d_c - d_best = sum (p_c - p_best)(p_c + p_best - 2 m). With profiles
    and masses m non-negative and summing to 1 the second factor sums to at
    most 4 in absolute value, so |d_c - d_best| <= 4 ``PROFILE_TOL``; only
    the rows within 5 ``PROFILE_TOL`` (room for rounding) are compared,
    ``_ROW_BLOCK`` at a time in ``buf``, which holds min(``_ROW_BLOCK``,
    table rows) profiles.
    """
    near = np.flatnonzero(np.abs(distances - distances[best]) <= 5.0 * PROFILE_TOL)
    near = near[near != best]
    best_bits = np.round(profiles[best] / PROFILE_TOL).view(np.uint64)
    same = np.empty(near.size, dtype=bool)
    for start in range(0, near.size, _ROW_BLOCK):
        ixs = near[start : start + _ROW_BLOCK]
        # the indices are in range; unlike mode="raise", "clip" writes into out unbuffered
        rows = np.take(profiles, ixs, axis=0, out=buf[: ixs.size], mode="clip")
        rows /= PROFILE_TOL
        np.round(rows, out=rows)
        np.all(rows.view(np.uint64) == best_bits, axis=1, out=same[start : start + ixs.size])
    return near[same]


def _l2_distances(profiles: np.ndarray, masses: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Squared distance sum (p_c - m)^2 of every profile row to ``masses``.

    Rows are taken ``_ROW_BLOCK`` at a time in ``buf``, so each row's sum is
    that of ``np.sum((profiles - masses) ** 2, axis=1)`` without its
    table-sized temporary.
    """
    distances = np.empty(profiles.shape[0])
    for start in range(0, profiles.shape[0], _ROW_BLOCK):
        block = profiles[start : start + _ROW_BLOCK]
        rows = np.subtract(block, masses, out=buf[: block.shape[0]])
        np.square(rows, out=rows)
        np.sum(rows, axis=1, out=distances[start : start + block.shape[0]])
    return distances


def _estimate_l2(masses: np.ndarray, cand: _CandidateSet) -> TrialEstimate:
    profiles = cand.profiles
    # one buffer of rows for the distances and then the partner rounding
    buf = np.empty((min(_ROW_BLOCK, profiles.shape[0]), profiles.shape[1]))
    distances = _l2_distances(profiles, masses, buf)
    best = int(np.argmin(distances))  # argmin keeps the smallest index on ties
    partners = tuple(cand.configs[i] for i in _profile_partners(profiles, distances, best, buf))
    return TrialEstimate(
        method="l2",
        index=best,
        config=cand.configs[best],
        objective=float(distances[best]),
        top=_top_candidates(cand, distances),
        degenerate=bool(partners),
        degenerate_with=partners,
    )


def _estimate_moments(
    m1: float, central2: float, cand: _CandidateSet, mean_tolerance: float | None
) -> TrialEstimate:
    tol = (
        default_mean_tolerance(cand.means, cand.sigma)
        if mean_tolerance is None
        else float(mean_tolerance)
    )
    if tol < 0.0:
        raise ValueError(f"mean tolerance must be non-negative, got {tol!r}")
    mean_dist = np.abs(cand.means - m1)
    widenings = 0
    while True:
        subset = np.flatnonzero(mean_dist <= tol)
        if subset.size > 0:
            break
        if widenings >= MAX_TOLERANCE_DOUBLINGS:
            raise ValueError(
                "no candidate mean within the maximally widened tolerance "
                f"({tol!r} after {widenings} doublings)"
            )
        if tol > 0.0:
            tol = tol * 2.0
        else:
            # restart a zero tolerance on the candidate-mean scale so the
            # doubling budget tops out at twice the default tolerance
            tol = default_mean_tolerance(cand.means, cand.sigma) / 2.0 ** (
                MAX_TOLERANCE_DOUBLINGS - 1
            )
        widenings += 1
    # second moment about the measured mean: var_c + (mean_c - m1)^2
    second_about_m1 = cand.variances + (cand.means - m1) ** 2
    objective = np.full(len(cand.configs), np.inf)
    objective[subset] = (central2 - second_about_m1[subset]) ** 2
    best = int(subset[np.argmin(objective[subset])])
    partners = tuple(
        cand.configs[i] for i in _moment_partners(cand.means, cand.variances, cand.sigma, best)
    )
    return TrialEstimate(
        method="moments",
        index=best,
        config=cand.configs[best],
        objective=float(objective[best]),
        top=_top_candidates(cand, objective),
        widenings=widenings,
        degenerate=bool(partners),
        degenerate_with=partners,
    )


def estimate_histogram(
    histogram: SpatialHistogram,
    candidates: Sequence[Configuration],
    theta: float,
    sigma: float,
    alphabet: NoiseAlphabet,
    method: str = "moments",
    mean_tolerance: float | None = None,
) -> TrialEstimate:
    """Reconstruct one trial from a measured histogram."""
    return estimate_from_masses(
        _normalized_masses(histogram),
        histogram.pitch,
        histogram.n_pixels,
        histogram.offset,
        candidates,
        theta,
        sigma,
        alphabet,
        method=method,
        mean_tolerance=mean_tolerance,
    )


# --- trial aggregation and confidence intervals ------------------------------


def aggregate_trials(
    trial_configs: Sequence[Configuration], n_events: int, n_trials: int
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Pool L per-trial configurations into event probabilities.

    Returns (p_k, s_k) with s_k the pooled event counts out of N*L and
    p_k = s_k / (N*L), identical to averaging the per-trial n_k / N.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    if len(trial_configs) != n_trials:
        raise ValueError(f"expected {n_trials} trial configurations, got {len(trial_configs)}")
    size = len(trial_configs[0].counts)
    sums = [0] * size
    for config in trial_configs:
        if config.total != n_events:
            raise ValueError(
                f"trial configuration {config.counts} sums to {config.total}, expected {n_events}"
            )
        if len(config.counts) != size:
            raise ValueError("trial configurations have inconsistent lengths")
        for k, nk in enumerate(config.counts):
            sums[k] += nk
    denom = n_events * n_trials
    return tuple(s / denom for s in sums), tuple(sums)


def beta_ci(successes: int, total: int, level: float) -> tuple[float, float]:
    """Equal-tailed credible interval of the Beta(s+1, n-s+1) posterior.

    The lower bound is clamped to 0 when s = 0 and the upper to 1 when
    s = n, matching one-sided reporting for empty and full categories.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not (0 <= successes <= total):
        raise ValueError(f"successes {successes} outside [0, {total}]")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    a = successes + 1.0
    b = total - successes + 1.0
    tail = 0.5 * (1.0 - level)
    lo = 0.0 if successes == 0 else float(betaincinv(a, b, tail))
    hi = 1.0 if successes == total else float(betaincinv(a, b, 1.0 - tail))
    return (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated reconstruction of L trials with per-category intervals."""

    n_events: int
    n_trials: int
    modal_config: Configuration
    per_trial: tuple[Configuration, ...]
    probabilities: tuple[float, ...]
    posterior_mean: tuple[float, ...]
    event_counts: tuple[int, ...]
    ci68: tuple[tuple[float, float], ...]
    ci95: tuple[tuple[float, float], ...]
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_R": list(self.modal_config.counts),
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
    (ties break to the lexicographically smallest counts); per-category
    probabilities pool all N*L events.
    """
    if len(trials) != n_trials:
        raise ValueError(f"expected {n_trials} trials, got {len(trials)}")
    configs = [t.config for t in trials]
    for config in configs:
        if len(config.counts) != alphabet.size:
            raise ValueError("trial configuration does not match the alphabet size")
    probs, counts = aggregate_trials(configs, n_events, n_trials)
    total = n_events * n_trials
    tally: dict[tuple[int, ...], int] = {}
    for config in configs:
        tally[config.counts] = tally.get(config.counts, 0) + 1
    modal = Configuration(min(tally, key=lambda c: (-tally[c], c)))
    posterior = tuple((s + 1.0) / (total + 2.0) for s in counts)
    ci68 = tuple(beta_ci(s, total, 0.68) for s in counts)
    ci95 = tuple(beta_ci(s, total, 0.95) for s in counts)
    diagnostics = {
        "method": trials[0].method if trials else None,
        "per_trial": [list(c.counts) for c in configs],
        "event_counts": list(counts),
        "n_total": total,
        "posterior_mean": list(posterior),
        "top_candidates": [
            [{"counts": list(c.counts), "objective": obj} for c, obj in t.top]
            for t in trials
        ],
        "widenings": [t.widenings for t in trials],
        "degenerate": [t.degenerate for t in trials],
    }
    return EstimateReport(
        n_events=n_events,
        n_trials=n_trials,
        modal_config=modal,
        per_trial=tuple(configs),
        probabilities=probs,
        posterior_mean=posterior,
        event_counts=counts,
        ci68=ci68,
        ci95=ci95,
        diagnostics=diagnostics,
    )
