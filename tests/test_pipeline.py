"""Pipeline orchestration: the calibration reference set and simulated trials."""

import json
import math

import numpy as np
import pytest

from zenosense.config import ConfigError, ExperimentConfig
from zenosense.detector import sample_histogram
from zenosense.estimator import candidate_table, estimate_histogram
from zenosense.noise_model import enumerate_configurations, sample_realization
from zenosense.pipeline import estimate_trials, reference_shift_multiples, resolve_unit_shift, simulate_trials
from zenosense.seeds import make_rng
from zenosense.wavepacket import normal_masses

import oracles


@pytest.fixture(scope="module")
def unit_shift():
    return resolve_unit_shift(ExperimentConfig())


class TestReferenceShiftMultiples:
    def test_default_alphabet(self):
        shifts = reference_shift_multiples(ExperimentConfig())
        assert shifts == (0.0, 0.0, 2.0, 2.0, 3.0, 3.0)
        assert all(type(s) is float for s in shifts)

    def test_scaled_alphabet(self):
        config = ExperimentConfig(alphabet_multipliers=(0.0, 2.0, 4.0, 6.0, 8.0))
        assert reference_shift_multiples(config) == (0.0, 0.0, 4.0, 4.0, 6.0, 6.0)

    def test_four_value_alphabet_rejected(self):
        config = ExperimentConfig(alphabet_multipliers=(0.0, 1.0, 2.0, 3.0), event_probabilities=(0.25,) * 4)
        with pytest.raises(ConfigError, match=r"reference set \(2, 0, 2, 2, 0\)"):
            reference_shift_multiples(config)


class TestSimulateTrials:
    @pytest.mark.parametrize("n_trials", [0, -3])
    def test_non_positive_trial_count_rejected(self, unit_shift, n_trials):
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            simulate_trials(ExperimentConfig(), unit_shift, n_trials=n_trials)

    @pytest.mark.parametrize("n_events", [6, 10, 20])
    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.2, math.pi / 2])
    def test_histograms_sampled_from_the_oracle_row(self, unit_shift, theta, n_events):
        # each truth's slot masses are its oracle weights times the clipped
        # normal masses over the slot edges, so every photon lands alike
        config = ExperimentConfig(theta_rad=theta, n_events=n_events, n_trials=4, photons_per_trial=20_000)
        geometry = (config.pixel_pitch_um, config.pixel_count, config.detector_offset_um)
        for record in simulate_trials(config, unit_shift):
            weights, diffs = oracles.clipped_lattice_masses(
                theta,
                config.sigma_um,
                unit_shift,
                config.alphabet_multipliers,
                [record.truth],
                oracles.slot_edges(*geometry),
            )
            ref = sample_histogram(
                (weights @ diffs)[0],
                config.photons_per_trial,
                config.pixel_pitch_um,
                config.detector_offset_um,
                make_rng(config.master_seed, record.index, 1),
            )
            assert np.array_equal(record.histogram.counts, ref.counts)
            assert record.histogram.overflow == ref.overflow

    def test_trials_and_table_share_one_normal_mass_build(self, unit_shift):
        # a geometry no other test uses, so the candidate table is cold
        config = ExperimentConfig(
            n_events=4, n_trials=2, photons_per_trial=10_000, pixel_count=1000, detector_offset_um=-6500.0
        )
        simulate_trials(config, unit_shift)
        before = normal_masses.cache_info()
        records = simulate_trials(config, unit_shift)
        tables = candidate_table.cache_info()
        candidates = tuple(enumerate_configurations(5, config.n_events))
        alphabet = config.alphabet(unit_shift)
        estimate_histogram(records[0].histogram, candidates, config.theta_rad, config.sigma_um, alphabet)
        assert candidate_table.cache_info().misses == tables.misses + 1
        after = normal_masses.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)


class TestCountsArePythonInts:
    """A configuration is a tuple of Python ints: a numpy integer left in one
    (``np.bincount`` gives them) breaks the CLI's JSON."""

    @pytest.mark.parametrize("forced", [None, (2, 0, 2, 2, 0)])
    @pytest.mark.parametrize("method", ["moments", "l2"])
    def test_every_count_is_an_int(self, unit_shift, forced, method):
        config = ExperimentConfig(n_trials=3, photons_per_trial=20_000, forced_config=forced, estimator=method)
        records = simulate_trials(config, unit_shift)
        report, estimates = estimate_trials([r.histogram for r in records], config, unit_shift)
        alphabet = config.alphabet(unit_shift)
        configs = [
            *enumerate_configurations(5, 6),
            sample_realization(alphabet, 6, 3)[0],
            *(r.truth for r in records),
            *(e.config for e in estimates),
            *(c for e in estimates for c, _ in e.top),
            report.modal_config,
        ]
        assert all(type(c) is tuple and all(type(n) is int for n in c) for c in configs)
        json.dumps([list(r.truth) for r in records], allow_nan=False)
        json.dumps(report.to_dict(), allow_nan=False)
