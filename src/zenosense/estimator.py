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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.stats import beta as beta_dist

from zenosense.detector import (
    SpatialHistogram,
    pixel_masses,
    pixel_moments,
    theoretical_state,
)
from zenosense.noise_model import Configuration, NoiseAlphabet

__all__ = [
    "TrialEstimate",
    "EstimateReport",
    "estimate_histogram",
    "estimate_from_masses",
    "aggregate_trials",
    "beta_ci",
    "build_report",
    "candidate_table",
    "candidate_moment_groups",
    "default_mean_tolerance",
]

# Candidates whose pixel-level means and variances agree within these
# absolute tolerances (scaled by sigma and sigma^2) are indistinguishable to
# the moment estimator and are flagged as one degenerate group.
DEGENERATE_MEAN_TOL_FACTOR = 1e-6
DEGENERATE_VAR_TOL_FACTOR = 1e-6

# Profiles equal to this absolute tolerance per pixel are one L2-degenerate
# group.
PROFILE_TOL = 1e-12

MAX_TOLERANCE_DOUBLINGS = 10


@dataclass(frozen=True)
class TrialEstimate:
    """Reconstruction of a single trial, with diagnostics."""

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
    moment_groups: tuple[tuple[int, ...], ...]
    profile_groups: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=16)
def candidate_table(
    values: tuple[float, ...],
    theta: float,
    sigma: float,
    candidates: tuple[Configuration, ...],
    pitch: float,
    n_pixels: int,
    offset: float,
) -> _CandidateSet:
    """Cached pixel profiles, pixel-level moments and degeneracy groups.

    Keyed on what the profiles depend on: the alphabet's coupling values
    (not its event probabilities), the probe angle, the packet width, the
    candidate tuple and the detector geometry.
    """
    profiles = np.empty((len(candidates), n_pixels))
    means = np.empty(len(candidates))
    variances = np.empty(len(candidates))
    for i, config in enumerate(candidates):
        state = theoretical_state(config, theta, sigma, values)
        masses = pixel_masses(state, pitch, n_pixels, offset)
        total = masses.sum()
        if not (total > 0.0):
            raise ValueError(f"candidate {config.counts} carries no mass on the detector")
        profiles[i] = masses / total
        means[i], variances[i] = pixel_moments(state, pitch, n_pixels, offset)
    profiles.setflags(write=False)
    means.setflags(write=False)
    variances.setflags(write=False)
    buckets: dict[bytes, list[int]] = {}
    for i, row in enumerate(np.round(profiles / PROFILE_TOL)):
        buckets.setdefault(row.tobytes(), []).append(i)
    return _CandidateSet(
        candidates,
        profiles,
        means,
        variances,
        sigma,
        moment_groups=candidate_moment_groups(means, variances, sigma),
        profile_groups=tuple(tuple(ixs) for ixs in buckets.values() if len(ixs) > 1),
    )


def candidate_moment_groups(
    means: np.ndarray, variances: np.ndarray, sigma: float
) -> tuple[tuple[int, ...], ...]:
    """Groups of candidate indices with colliding (mean, variance) pairs."""
    mean_tol = DEGENERATE_MEAN_TOL_FACTOR * sigma
    var_tol = DEGENERATE_VAR_TOL_FACTOR * sigma * sigma
    n = len(means)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(means, kind="stable")
    for a in range(n):
        for b in range(a + 1, n):
            i, j = int(order[a]), int(order[b])
            if means[j] - means[i] > mean_tol:
                break
            if abs(variances[i] - variances[j]) <= var_tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in groups.values() if len(g) > 1)


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
    total = masses.sum()
    if not (total > 0.0):
        raise ValueError("mass vector has no weight")
    masses = masses / total
    cand = candidate_table(
        alphabet.values, float(theta), float(sigma), tuple(candidates), float(pitch), int(n_pixels), float(offset)
    )
    if method == "l2":
        return _estimate_l2(masses, cand)
    if method == "moments":
        return _estimate_moments(masses, cand, pitch, n_pixels, offset, mean_tolerance)
    raise ValueError(f"unknown estimator {method!r}; expected 'l2' or 'moments'")


def _top_candidates(
    cand: _CandidateSet, objective: np.ndarray, k: int = 5
) -> tuple[tuple[Configuration, float], ...]:
    order = np.argsort(objective, kind="stable")[:k]
    return tuple((cand.configs[int(i)], float(objective[int(i)])) for i in order)


def _degeneracy(
    cand: _CandidateSet, best: int, groups: tuple[tuple[int, ...], ...]
) -> tuple[bool, tuple[Configuration, ...]]:
    for group in groups:
        if best in group:
            partners = tuple(cand.configs[i] for i in group if i != best)
            return True, partners
    return False, ()


def _estimate_l2(masses: np.ndarray, cand: _CandidateSet) -> TrialEstimate:
    distances = np.sum((cand.profiles - masses) ** 2, axis=1)
    best = int(np.argmin(distances))  # argmin keeps the smallest index on ties
    degenerate, partners = _degeneracy(cand, best, cand.profile_groups)
    return TrialEstimate(
        method="l2",
        index=best,
        config=cand.configs[best],
        objective=float(distances[best]),
        top=_top_candidates(cand, distances),
        degenerate=degenerate,
        degenerate_with=partners,
    )


def _estimate_moments(
    masses: np.ndarray,
    cand: _CandidateSet,
    pitch: float,
    n_pixels: int,
    offset: float,
    mean_tolerance: float | None,
) -> TrialEstimate:
    centers = offset + (np.arange(n_pixels) + 0.5) * pitch
    m1 = float(np.sum(masses * centers))
    m2 = float(np.sum(masses * centers**2))
    central2 = m2 - m1 * m1
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
    degenerate, partners = _degeneracy(cand, best, cand.moment_groups)
    return TrialEstimate(
        method="moments",
        index=best,
        config=cand.configs[best],
        objective=float(objective[best]),
        top=_top_candidates(cand, objective),
        widenings=widenings,
        degenerate=degenerate,
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
    lo = 0.0 if successes == 0 else float(beta_dist.ppf(tail, a, b))
    hi = 1.0 if successes == total else float(beta_dist.ppf(1.0 - tail, a, b))
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
