"""Configuration reconstruction, aggregation and Beta credible intervals."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zenosense
from zenosense import estimator
from zenosense.detector import sample_histogram, theoretical_state
from zenosense.estimator import (
    DEGENERATE_MEAN_TOL_FACTOR,
    DEGENERATE_VAR_TOL_FACTOR,
    PROFILE_TOL,
    aggregate_trials,
    beta_ci,
    build_report,
    candidate_moment_groups,
    candidate_table,
    default_mean_tolerance,
    estimate_from_masses,
    estimate_histogram,
    pixel_moments,
)
from zenosense.noise_model import Configuration, NoiseAlphabet, enumerate_configurations
from zenosense.seeds import make_rng
from zenosense.wavepacket import lattice_masses

import oracles

QUARTER = math.pi / 4.0
SIGMA = 150.0
G = 114.051797  # calibrated to 0.58 protected survival of (2,0,2,2,0)
ALPHABET = NoiseAlphabet(G, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
CANDIDATES = tuple(enumerate_configurations(5, 6))
GEOMETRY = dict(pitch=13.0, n_pixels=1024, offset=-6656.0)
TRUTH = Configuration((2, 0, 2, 2, 0))


def noiseless_masses(config):
    state = theoretical_state(config, QUARTER, SIGMA, ALPHABET.values)
    return oracles.pixel_masses(state, **GEOMETRY)


def sampled_histogram(config, photons, seed):
    state = theoretical_state(config, QUARTER, SIGMA, ALPHABET.values)
    masses = oracles.slot_masses(state, **GEOMETRY)
    return sample_histogram(masses, photons, GEOMETRY["pitch"], GEOMETRY["offset"], seed)


class TestNoiselessRecovery:
    @pytest.mark.parametrize("counts", [(2, 0, 2, 2, 0), (6, 0, 0, 0, 0), (0, 0, 0, 0, 6), (1, 1, 1, 1, 2)])
    def test_both_estimators_exact_at_infinite_statistics(self, counts):
        truth = Configuration(counts)
        masses = noiseless_masses(truth)
        for method in ("l2", "moments"):
            est = estimate_from_masses(
                masses, GEOMETRY["pitch"], GEOMETRY["n_pixels"], GEOMETRY["offset"],
                CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method,
            )
            assert est.config == truth
            assert est.objective == pytest.approx(0.0, abs=1e-18)
            assert not est.degenerate


class TestFiniteStatistics:
    def test_reference_set_at_one_million_photons(self):
        hist = sampled_histogram(TRUTH, 1_000_000, seed=77)
        for method in ("l2", "moments"):
            assert estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method).config == TRUTH

    def test_recovery_rate_non_decreasing_in_photons(self):
        # statistical acceptance: 100 repetitions per photon count, 2% slack
        reps = 100
        rates = []
        for photons in (1_000, 10_000, 100_000, 1_000_000):
            hits = 0
            for rep in range(reps):
                hist = sampled_histogram(TRUTH, photons, make_rng(13, photons, rep))
                hits += estimate_histogram(
                    hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments"
                ).config == TRUTH
            rates.append(hits / reps)
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 0.02

    def test_empty_histogram_rejected(self):
        from zenosense.detector import SpatialHistogram

        hist = SpatialHistogram(13.0, -6656.0, np.zeros(1024, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments")

    def test_empty_candidates_rejected(self):
        hist = sampled_histogram(TRUTH, 1000, seed=1)
        with pytest.raises(ValueError):
            estimate_histogram(hist, (), QUARTER, SIGMA, ALPHABET, method="moments")


class TestMomentEstimatorStages:
    def test_zero_tolerance_widens_on_noisy_data(self):
        hist = sampled_histogram(TRUTH, 50_000, seed=3)
        est = estimate_histogram(
            hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments", mean_tolerance=0.0
        )
        assert est.widenings >= 1
        assert est.config.total == 6

    def test_widening_exhaustion_raises(self):
        hist = sampled_histogram(TRUTH, 10_000, seed=4)
        with pytest.raises(ValueError, match="widened"):
            estimate_histogram(
                hist, CANDIDATES, QUARTER, SIGMA, ALPHABET,
                method="moments", mean_tolerance=1e-14,
            )

    def test_default_tolerance_is_half_min_gap(self):
        means = np.array([0.0, 10.0, 10.0 + 1e-9, 25.0])
        assert default_mean_tolerance(means, sigma=1.0) == pytest.approx(5.0)
        assert default_mean_tolerance(np.array([3.0, 3.0]), sigma=1.0) == math.inf


class TestDegeneracyFlags:
    def test_duplicate_candidates_tie_break_and_flag(self):
        # duplicated candidate entries stand in for identical densities
        candidates = (TRUTH, TRUTH, Configuration((6, 0, 0, 0, 0)))
        masses = noiseless_masses(TRUTH)
        for method in ("l2", "moments"):
            est = estimate_from_masses(
                masses, GEOMETRY["pitch"], GEOMETRY["n_pixels"], GEOMETRY["offset"],
                candidates, QUARTER, SIGMA, ALPHABET, method=method,
            )
            assert est.index == 0  # smallest index wins the tie
            assert est.degenerate
            assert est.degenerate_with == (TRUTH,)

    def test_moment_group_clustering(self):
        means = np.array([0.0, 5.0, 5.0 + 1e-9, 9.0])
        variances = np.array([1.0, 2.0, 2.0 + 1e-9, 1.0])
        groups = candidate_moment_groups(means, variances, sigma=1.0)
        assert groups == ((1, 2),)

    def test_standard_alphabet_has_no_degeneracies(self):
        # every (mean, variance) pair is unique for the 0..4g alphabet
        masses = noiseless_masses(TRUTH)
        est = estimate_from_masses(
            masses, GEOMETRY["pitch"], GEOMETRY["n_pixels"], GEOMETRY["offset"],
            CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments",
        )
        assert not est.degenerate


class TestCandidateTable:
    def test_shared_across_event_probabilities(self):
        # profiles depend on the coupling values, not on how often each occurs
        skewed = NoiseAlphabet(G, ALPHABET.multipliers, (0.1, 0.3, 0.3, 0.2, 0.1))
        geometry = (GEOMETRY["pitch"], GEOMETRY["n_pixels"], GEOMETRY["offset"])
        masses = noiseless_masses(TRUTH)
        estimate_from_masses(masses, *geometry, CANDIDATES, QUARTER, SIGMA, ALPHABET)
        misses = candidate_table.cache_info().misses
        estimate_from_masses(masses, *geometry, CANDIDATES, QUARTER, SIGMA, skewed)
        assert candidate_table.cache_info().misses == misses

    def test_moments_are_the_shared_functional_of_profiles(self):
        # candidate moments and a measured trial's go through one functional,
        # so a noiseless trial reproduces its candidate's moments exactly
        pitch, offset = GEOMETRY["pitch"], GEOMETRY["offset"]
        table = candidate_table(
            ALPHABET.multipliers, G, QUARTER, SIGMA, CANDIDATES, pitch, GEOMETRY["n_pixels"], offset
        )
        means, variances = pixel_moments(table.profiles, pitch, offset)
        assert np.array_equal(table.means, means)
        assert np.array_equal(table.variances, variances)
        rows = [pixel_moments(profile, pitch, offset) for profile in table.profiles]
        assert np.array_equal(np.array(rows), np.column_stack([means, variances]))

    def test_blocked_moments_match_rows_at_n20(self):
        # 10,626 candidates: the last row block of pixel_moments is partial
        pitch, offset = GEOMETRY["pitch"], GEOMETRY["offset"]
        counts = np.array([config.counts for config in enumerate_configurations(5, 20)])
        assert len(counts) % estimator._MOMENT_BLOCK != 0
        edges = offset + np.arange(GEOMETRY["n_pixels"] + 1) * pitch
        profiles = lattice_masses(QUARTER, SIGMA, G, ALPHABET.multipliers, counts, edges)
        profiles /= profiles.sum(axis=1, keepdims=True)
        means, variances = pixel_moments(profiles, pitch, offset)
        rows = [pixel_moments(profile, pitch, offset) for profile in profiles]
        assert np.array_equal(np.array(rows), np.column_stack([means, variances]))


class TestLatticeTable:
    """The one-pass lattice table against the per-candidate fold it replaced."""

    @pytest.mark.parametrize(
        "multipliers,n_events,theta,sigma,unit_shift,offset",
        [
            *[((0, 1, 2, 3, 4), 6, theta, SIGMA, G, -6656.0) for theta in (QUARTER, 0.3, 0.0, math.pi / 2)],
            # the detector starts at -3000 um so that it holds the 70 g shift
            *[((0, 3, 7), 10, theta, SIGMA, G, -3000.0) for theta in (QUARTER, 0.3, 0.0, math.pi / 2)],
            *[((1, 2), 10, theta, SIGMA, G, -6656.0) for theta in (QUARTER, 0.3, 0.0, math.pi / 2)],
            # packet narrow against the 13 um pitch
            ((0, 1, 2, 3, 4), 6, QUARTER, 3.0, 2.3, -6656.0),
            # detector ends at 1200 um, inside the beams of the high-shift candidates
            ((0, 1, 2, 3, 4), 6, QUARTER, SIGMA, G, 1200.0 - 1024 * 13.0),
        ],
    )
    def test_matches_per_candidate_fold(self, multipliers, n_events, theta, sigma, unit_shift, offset):
        pitch, n_pixels = GEOMETRY["pitch"], GEOMETRY["n_pixels"]
        candidates = tuple(enumerate_configurations(len(multipliers), n_events))
        values = tuple(m * unit_shift for m in multipliers)
        table = candidate_table(
            tuple(float(m) for m in multipliers), unit_shift, theta, sigma, candidates, pitch, n_pixels, offset
        )
        profiles = oracles.candidate_profiles(candidates, theta, sigma, values, pitch, n_pixels, offset)
        means, variances = pixel_moments(profiles, pitch, offset)
        assert np.max(np.abs(table.profiles - profiles)) <= 1e-14
        assert np.max(np.abs(table.means - means)) <= 1e-11
        assert np.max(np.abs(table.variances - variances) / variances) <= 1e-12
        mean_tol, var_tol = DEGENERATE_MEAN_TOL_FACTOR * sigma, DEGENERATE_VAR_TOL_FACTOR * sigma**2
        assert table.moment_groups == oracles.moment_groups(means, variances, mean_tol, var_tol)
        assert table.profile_groups == oracles.profile_groups(profiles, PROFILE_TOL)

    # candidate (0, 0, 0, 0, 6) spans centers 0 to 24 g = 2737 um; each
    # detector ends 15 sigma short of it, where normal tails are tiny but
    # not zero
    @pytest.mark.parametrize("offset", [2737.0 + 15 * SIGMA, -15 * SIGMA - 1024 * 13.0])
    def test_beam_off_the_detector_raises(self, offset):
        geometry = (GEOMETRY["pitch"], GEOMETRY["n_pixels"], offset)
        with pytest.raises(ValueError, match="carries no mass on the detector"):
            oracles.candidate_profiles(CANDIDATES[:1], QUARTER, SIGMA, ALPHABET.values, *geometry)
        with pytest.raises(ValueError, match=r"candidate \(0, 0, 0, 0, 6\) carries no mass on the detector"):
            candidate_table(ALPHABET.multipliers, G, QUARTER, SIGMA, CANDIDATES[:1], *geometry)

    def test_non_integer_multipliers_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            candidate_table((0.0, 1.5), G, QUARTER, SIGMA, (Configuration((1, 1)),), 13.0, 1024, -6656.0)


class TestDegeneracyGroups:
    """Vectorized grouping against the plain pair and row loops."""

    @pytest.mark.parametrize("theta", [QUARTER, 0.0, math.pi / 2])
    def test_moment_and_profile_groups_of_a_wide_table(self, theta):
        # at pi/4 a mean depends only on the shift total, so windows hold
        # dozens of candidates; at 0 and pi/2 whole windows are degenerate
        candidates = tuple(enumerate_configurations(5, 10))
        table = candidate_table(ALPHABET.multipliers, G, theta, SIGMA, candidates, 13.0, 1024, -6656.0)
        mean_tol, var_tol = DEGENERATE_MEAN_TOL_FACTOR * SIGMA, DEGENERATE_VAR_TOL_FACTOR * SIGMA**2
        groups = oracles.moment_groups(table.means, table.variances, mean_tol, var_tol)
        assert candidate_moment_groups(table.means, table.variances, SIGMA) == groups
        assert table.profile_groups == oracles.profile_groups(np.asarray(table.profiles), PROFILE_TOL)
        if theta != QUARTER:
            assert groups and table.profile_groups

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_chained_windows(self, seed):
        # means on a coarse grid with sub-tolerance jitter make overlapping
        # (not nested) windows; variance steps just under the tolerance chain
        # pairs that are not directly joined
        rng = np.random.default_rng(seed)
        n = 400
        means = rng.integers(0, 12, n) + rng.uniform(0.0, 2.5e-6, n)
        variances = 1.0 + rng.integers(0, 6, n) * 0.9e-6 + rng.choice([0.0, 0.5], n)
        groups = oracles.moment_groups(means, variances, 1e-6, 1e-6)
        assert candidate_moment_groups(means, variances, 1.0) == groups
        assert any(len(g) > 2 for g in groups)

    def test_gaps_equal_to_the_tolerances_join(self):
        # sigma = 1 makes both tolerances exactly 1e-6, and both gaps below
        # compute to exactly 1e-6
        means = np.array([0.0, 1e-6, 5.0, 5.0])
        variances = np.array([1.0, 1.0, 0.0, 1e-6])
        groups = oracles.moment_groups(means, variances, 1e-6, 1e-6)
        assert candidate_moment_groups(means, variances, 1.0) == groups == ((0, 1), (2, 3))

    def test_profile_hash_collision_is_split(self, monkeypatch):
        # with a unit tolerance the rounded rows are the rows; integers in
        # [2**52, 2**53) have consecutive bit patterns, so row 2 collides
        # with rows 0 and 1 under the odd-multiplier hash yet differs from them
        monkeypatch.setattr(estimator, "PROFILE_TOL", 1.0)
        base = 2.0**52
        rows = np.array([[base, base + 1.0], [base, base + 1.0], [base + 3.0, base]])
        assert estimator._profile_groups(rows) == ((0, 1),)


class TestAggregation:
    def test_single_trial_identity(self):
        probs, counts = aggregate_trials([TRUTH], 6, 1)
        assert probs == pytest.approx((1 / 3, 0.0, 1 / 3, 1 / 3, 0.0))
        assert counts == (2, 0, 2, 2, 0)

    def test_pooled_fractions_at_reference_precision(self):
        # pooled 7/60 rounds to the three-decimal point estimate 0.117
        assert 7 / 60 == pytest.approx(0.117, abs=5e-4)
        configs = [Configuration((1, 1, 1, 1, 2))] * 10
        probs, counts = aggregate_trials(configs, 6, 10)
        assert sum(counts) == 60
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_pooled_equals_mean_of_per_trial(self):
        rng = np.random.default_rng(2)
        configs = []
        for _ in range(8):
            counts = rng.multinomial(6, (0.3, 0.4, 0.2, 0.1, 0.0))
            configs.append(Configuration(tuple(int(c) for c in counts)))
        probs, _ = aggregate_trials(configs, 6, 8)
        manual = np.mean([np.asarray(c.counts) / 6 for c in configs], axis=0)
        assert probs == pytest.approx(tuple(manual), abs=1e-15)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            aggregate_trials([Configuration((1, 0, 0, 0, 0))], 6, 1)


class TestBetaCi:
    @pytest.mark.parametrize(
        "s,level,expected",
        [
            (7, 0.68, (0.087, 0.171)),
            (23, 0.68, (0.326, 0.449)),
            (0, 0.95, (0.000, 0.059)),
            (0, 0.68, (0.000, 0.030)),
            (23, 0.95, (0.271, 0.510)),
        ],
    )
    def test_reference_interval_table(self, s, level, expected):
        lo, hi = beta_ci(s, 60, level)
        assert lo == pytest.approx(expected[0], abs=0.005)
        assert hi == pytest.approx(expected[1], abs=0.005)

    def test_clamping(self):
        assert beta_ci(0, 60, 0.68)[0] == 0.0
        assert beta_ci(60, 60, 0.95)[1] == 1.0

    def test_nested_intervals_and_containment(self):
        for n in (6, 60, 240):
            for s in (0, 1, n // 3, n - 1, n):
                lo68, hi68 = beta_ci(s, n, 0.68)
                lo95, hi95 = beta_ci(s, n, 0.95)
                assert lo95 <= lo68 <= hi68 <= hi95
                assert lo68 <= s / n <= hi68

    def test_against_quadrature_quantile_oracle(self):
        for s, n, level in ((7, 60, 0.68), (0, 60, 0.95), (23, 60, 0.95)):
            lo, hi = beta_ci(s, n, level)
            tail = 0.5 * (1.0 - level)
            if s > 0:
                assert lo == pytest.approx(oracles.beta_quantile(tail, s + 1, n - s + 1), abs=1e-6)
            assert hi == pytest.approx(
                oracles.beta_quantile(1.0 - tail, s + 1, n - s + 1), abs=1e-6
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            beta_ci(-1, 60, 0.68)
        with pytest.raises(ValueError):
            beta_ci(61, 60, 0.68)
        with pytest.raises(ValueError):
            beta_ci(3, 60, 1.5)

    def test_package_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(zenosense.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, zenosense; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestReport:
    def _report(self, seed=0, n_trials=5, photons=50_000):
        rng = make_rng(seed)
        estimates = []
        for i in range(n_trials):
            counts = rng.multinomial(6, (0.2,) * 5)
            truth = Configuration(tuple(int(c) for c in counts))
            hist = sampled_histogram(truth, photons, make_rng(seed, i))
            estimates.append(
                estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments")
            )
        return build_report(estimates, ALPHABET, 6, n_trials)

    def test_invariants(self):
        report = self._report()
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-12)
        for k, p in enumerate(report.probabilities):
            lo68, hi68 = report.ci68[k]
            lo95, hi95 = report.ci95[k]
            assert lo95 <= lo68 <= p <= hi68 <= hi95 or p in (0.0, 1.0)
            assert 0.0 <= lo95 <= hi95 <= 1.0

    def test_serialization_keys(self):
        payload = self._report().to_dict()
        assert set(payload) == {"n_R", "p_R", "ci68", "ci95", "diagnostics"}
        assert len(payload["p_R"]) == 5
        assert len(payload["diagnostics"]["per_trial"]) == 5
        assert len(payload["diagnostics"]["top_candidates"][0]) == 5

    def test_modal_config_single_trial(self):
        hist = sampled_histogram(TRUTH, 200_000, seed=8)
        est = estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET)
        report = build_report([est], ALPHABET, 6, 1)
        assert report.modal_config == est.config
        assert report.event_counts == est.config.counts

    def test_zero_count_category_one_sided(self):
        estimates = []
        truth = Configuration((3, 3, 0, 0, 0))
        for i in range(3):
            hist = sampled_histogram(truth, 100_000, make_rng(5, i))
            estimates.append(
                estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET)
            )
        report = build_report(estimates, ALPHABET, 6, 3)
        for k in (2, 3, 4):
            if report.event_counts[k] == 0:
                assert report.probabilities[k] == 0.0
                assert report.ci95[k][0] == 0.0
                assert report.ci95[k][1] > 0.0
