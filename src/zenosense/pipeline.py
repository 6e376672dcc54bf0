"""End-to-end experiment orchestration shared by the CLI and the test suite.

A run is a pure function of (config, master seed): trial i draws its channel
realization from stream (seed, i, 0) and the uniforms that place its photons
in pixels from stream (seed, i, 1), so forced-realization runs and sampled
runs consume identical seed paths and any trial can be regenerated on its
own. Trials are mutually independent and could be processed in parallel;
this implementation keeps them sequential for deterministic,
dependency-free output.
"""

from __future__ import annotations

from dataclasses import dataclass

from zenosense.channel import ChannelRealization, RunReport, calibrate_unit_shift, run_protected
from zenosense.config import ConfigError, ExperimentConfig
from zenosense.detector import SpatialHistogram, sample_histogram
from zenosense.estimator import EstimateReport, TrialEstimate, build_report, estimate_histogram
from zenosense.noise_model import config_realization, enumerate_configurations, sample_realization
from zenosense.seeds import derive_seed, make_rng
from zenosense.wavepacket import lattice_weights, normal_masses

__all__ = [
    "TrialRecord",
    "REFERENCE_CONFIG",
    "resolve_unit_shift",
    "reference_shift_multiples",
    "simulate_trials",
    "estimate_trials",
]

# The calibration reference noise set: protected survival of this
# configuration defines the coupling scale.
REFERENCE_CONFIG = (2, 0, 2, 2, 0)


@dataclass(frozen=True)
class TrialRecord:
    """Everything produced by one simulated trial."""

    index: int
    seed: int
    truth: tuple[int, ...]
    realization: ChannelRealization
    run: RunReport
    histogram: SpatialHistogram


def reference_shift_multiples(config: ExperimentConfig) -> tuple[float, ...]:
    """Per-event shifts of the calibration reference set, in units of g."""
    if len(config.alphabet_multipliers) != len(REFERENCE_CONFIG):
        raise ConfigError(
            "automatic calibration requires a 5-value alphabet matching the "
            f"reference set {REFERENCE_CONFIG}; set unit_shift_um explicitly"
        )
    return config_realization(REFERENCE_CONFIG, config.alphabet(1.0)).couplings


def resolve_unit_shift(config: ExperimentConfig) -> float:
    """Explicit unit shift, or the one calibrated to the survival target."""
    if config.unit_shift_um is not None:
        return config.unit_shift_um
    return calibrate_unit_shift(config.sigma_um, config.calibration_target, reference_shift_multiples(config))


def simulate_trials(
    config: ExperimentConfig,
    unit_shift: float,
    n_trials: int | None = None,
    master_seed: int | None = None,
) -> list[TrialRecord]:
    """Simulate L trials: sample noise, run the protected channel, detect.

    A trial's truth is a lattice state, so its slot masses (left overflow,
    pixels, right overflow) are its one row of ``lattice_weights`` times
    the head of the read-only ``normal_masses`` D. D is fetched once per
    call for the 2 N max(m) + 1 normals any truth can reach; it is cached
    on (sigma, g, that count, geometry), an entry a candidate table over
    every configuration of N events shares. So a process that makes more
    than one ``simulate_trials`` or estimate call at one geometry builds
    it once, not once per call. ``n_trials`` below 1 is an error.
    """
    alphabet = config.alphabet(unit_shift)
    n_trials = config.n_trials if n_trials is None else n_trials
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    seed = config.master_seed if master_seed is None else master_seed
    diffs = normal_masses(
        config.sigma_um,
        unit_shift,
        2 * config.n_events * int(max(alphabet.multipliers)) + 1,
        config.pixel_pitch_um,
        config.pixel_count,
        config.detector_offset_um,
    )
    records: list[TrialRecord] = []
    for i in range(n_trials):
        if config.forced_config is not None:
            truth, realization = config.forced_config, config_realization(config.forced_config, alphabet)
        else:
            truth, realization = sample_realization(alphabet, config.n_events, make_rng(seed, i, 0))
        run = run_protected(config.theta_rad, config.sigma_um, realization)
        weights = lattice_weights(config.theta_rad, config.sigma_um, unit_shift, alphabet.multipliers, [truth])
        masses = weights @ diffs[: weights.shape[1]]
        histogram = sample_histogram(
            masses[0],
            config.photons_per_trial,
            config.pixel_pitch_um,
            config.detector_offset_um,
            make_rng(seed, i, 1),
        )
        records.append(
            TrialRecord(
                index=i,
                seed=derive_seed(seed, i),
                truth=truth,
                realization=realization,
                run=run,
                histogram=histogram,
            )
        )
    return records


def estimate_trials(
    histograms: list[SpatialHistogram],
    config: ExperimentConfig,
    unit_shift: float,
    method: str | None = None,
) -> tuple[EstimateReport, list[TrialEstimate]]:
    """Reconstruct each trial and aggregate into an estimate report."""
    if not histograms:
        raise ValueError("no histograms to estimate from")
    alphabet = config.alphabet(unit_shift)
    candidates = tuple(enumerate_configurations(alphabet.size, config.n_events))
    method = config.estimator if method is None else method
    estimates = [
        estimate_histogram(
            h, candidates, config.theta_rad, config.sigma_um, alphabet, method=method
        )
        for h in histograms
    ]
    report = build_report(estimates, alphabet, config.n_events, len(histograms))
    return report, estimates


def check_geometry(histogram: SpatialHistogram, config: ExperimentConfig, source: str) -> None:
    """Reject histograms whose pixel geometry disagrees with the config."""
    tol = 1e-6
    if (
        abs(histogram.pitch - config.pixel_pitch_um) > tol
        or histogram.n_pixels != config.pixel_count
        or abs(histogram.offset - config.detector_offset_um) > tol * max(1.0, abs(config.detector_offset_um))
    ):
        raise ValueError(
            f"{source}: histogram geometry (pitch {histogram.pitch}, "
            f"{histogram.n_pixels} pixels, offset {histogram.offset}) does not "
            f"match the configuration (pitch {config.pixel_pitch_um}, "
            f"{config.pixel_count} pixels, offset {config.detector_offset_um})"
        )
