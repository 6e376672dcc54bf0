"""Configuration reconstruction, aggregation and Beta credible intervals."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import betaincinv

import zenosense
from zenosense import estimator
from zenosense.detector import SpatialHistogram, sample_histogram
from zenosense.estimator import (
    DEGENERATE_MEAN_TOL_FACTOR,
    DEGENERATE_VAR_TOL_FACTOR,
    PROFILE_TOL,
    TrialEstimate,
    beta_ci,
    build_report,
    candidate_table,
    estimate_from_masses,
    estimate_histogram,
    pixel_moments,
)
from zenosense.noise_model import NoiseAlphabet, enumerate_configurations
from zenosense.seeds import make_rng

import oracles
from oracles import theoretical_state

QUARTER = math.pi / 4.0
SIGMA = 150.0
G = 114.051797  # calibrated to 0.58 protected survival of (2,0,2,2,0)
ALPHABET = NoiseAlphabet(G, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
CANDIDATES = tuple(enumerate_configurations(5, 6))
GEOMETRY = dict(pitch=13.0, n_pixels=1024, offset=-6656.0)
TRUTH = (2, 0, 2, 2, 0)


def table_profiles(table):
    """Every profile row of a table, formed ``_ROW_BLOCK`` rows at a time as the l2 path forms its short list."""
    rows = np.empty((table.weights.shape[0], table.diffs.shape[1]))
    for start in range(0, rows.shape[0], estimator._ROW_BLOCK):
        estimator._profile_rows(table.weights, table.diffs, slice(start, start + estimator._ROW_BLOCK), rows[start:])
    return rows


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
        masses = noiseless_masses(counts)
        for method in ("l2", "moments"):
            est = estimate_from_masses(
                masses, GEOMETRY["pitch"], GEOMETRY["offset"],
                CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method,
            )
            assert est.config == counts
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

    def test_histogram_normalized_once(self):
        # at this seed dividing the normalized counts by their sum again
        # moves bits of the masses and of both methods' objectives
        hist = sampled_histogram(TRUTH, 100_000, seed=14)
        once = hist.counts / hist.total
        assert not np.array_equal(once / once.sum(), once)
        for method in ("l2", "moments"):
            est = estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method)
            ref = estimate_from_masses(
                hist.counts, GEOMETRY["pitch"], GEOMETRY["offset"],
                CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method,
            )
            assert est.objective == ref.objective
            assert est.top == ref.top
            assert (est.mean_window == ()) == (method == "l2")

    def test_empty_histogram_rejected(self):
        hist = SpatialHistogram(13.0, -6656.0, np.zeros(1024, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments")

    @pytest.mark.parametrize("method", ["l2", "moments"])
    @pytest.mark.parametrize("value,match", [(math.inf, "non-finite"), (-0.5, "negative")])
    def test_invalid_masses_rejected(self, method, value, match):
        masses = noiseless_masses(TRUTH)
        masses[500] = value
        with pytest.raises(ValueError, match=match):
            estimate_from_masses(
                masses, GEOMETRY["pitch"], GEOMETRY["offset"],
                CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method,
            )

    @pytest.mark.parametrize("method", ["l2", "moments"])
    def test_overflowing_sum_rejected(self, method):
        # every entry is finite, but their sum is not: dividing by it would
        # leave all-zero masses
        with pytest.raises(ValueError, match="sum is not finite"):
            estimate_from_masses(
                np.full(1024, 1e306), GEOMETRY["pitch"], GEOMETRY["offset"],
                CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method,
            )

    @pytest.mark.parametrize("masses", [np.ones((2, 512)), np.ones(1)], ids=["2-d", "1-pixel"])
    def test_mass_vector_shape_rejected(self, masses):
        with pytest.raises(ValueError, match="1-d with at least 2 pixels"):
            estimate_from_masses(masses, GEOMETRY["pitch"], GEOMETRY["offset"], CANDIDATES, QUARTER, SIGMA, ALPHABET)

    def test_empty_candidates_rejected(self):
        hist = sampled_histogram(TRUTH, 1000, seed=1)
        with pytest.raises(ValueError):
            estimate_histogram(hist, (), QUARTER, SIGMA, ALPHABET, method="moments")

    def test_unknown_method_rejected_before_the_table_is_built(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the candidate table was built")

        monkeypatch.setattr(estimator, "candidate_table", no_table)
        with pytest.raises(ValueError, match="unknown estimator 'L2'"):
            estimate_from_masses(noiseless_masses(TRUTH), 13.0, -6656.0, CANDIDATES, QUARTER, SIGMA, ALPHABET, "L2")


def last_pixel_spike():
    """One photon in the last pixel, far right of every candidate mean."""
    counts = np.zeros(GEOMETRY["n_pixels"], dtype=int)
    counts[-1] = 1
    return SpatialHistogram(GEOMETRY["pitch"], GEOMETRY["offset"], counts)


class TestMomentEstimatorStages:
    def test_default_tolerance_widens_to_nearest_mean(self):
        hist = last_pixel_spike()
        m1 = pixel_moments(hist.counts / hist.total, hist.pitch, hist.offset)[0]
        # at N=10, theta=0.3 the candidate means crowd: 24 doublings
        for n_events, theta, expected in [(6, QUARTER, 8), (10, 0.3, 24)]:
            candidates = tuple(enumerate_configurations(5, n_events))
            est = estimate_histogram(hist, candidates, theta, SIGMA, ALPHABET, method="moments")
            table = candidate_table(ALPHABET.multipliers, G, theta, SIGMA, tuple(candidates), 13.0, 1024, -6656.0)
            tol = table.mean_tol
            mean_dist = np.abs(table.means - m1)
            widenings = 0
            while mean_dist.min() > tol * 2.0**widenings:
                widenings += 1
            assert est.widenings == widenings == expected
            window = np.flatnonzero(mean_dist <= tol * 2.0**widenings)
            assert est.mean_window == tuple(window.tolist())
            assert est.index in est.mean_window

    def test_default_tolerance_is_half_min_gap(self):
        table = candidate_table(ALPHABET.multipliers, G, QUARTER, SIGMA, CANDIDATES, 13.0, 1024, -6656.0)
        gaps = np.diff(np.sort(table.means))
        assert table.mean_tol == gaps[gaps > DEGENERATE_MEAN_TOL_FACTOR * SIGMA].min() / 2.0
        # at theta = pi/2 every candidate's profile, so its mean, coincides
        wide = tuple(enumerate_configurations(5, 10))
        table = candidate_table(ALPHABET.multipliers, G, math.pi / 2, SIGMA, tuple(wide), 13.0, 1024, -6656.0)
        assert table.mean_tol == math.inf

    def test_window_scores_only_its_own_candidates(self):
        # at N=10, theta=0.3 and 1e5 photons this seed's window holds fewer
        # than five candidates, so ``top`` is shorter than five, all finite
        candidates = tuple(enumerate_configurations(5, 10))
        truth = (2, 2, 2, 2, 2)
        state = theoretical_state(truth, 0.3, SIGMA, ALPHABET.values)
        hist = sample_histogram(oracles.slot_masses(state, **GEOMETRY), 100_000, 13.0, -6656.0, seed=3)
        est = estimate_histogram(hist, candidates, 0.3, SIGMA, ALPHABET, method="moments")
        assert 1 <= len(est.mean_window) < 5
        assert len(est.top) == len(est.mean_window)
        assert {candidates[i] for i in est.mean_window} == {c for c, _ in est.top}
        assert all(math.isfinite(obj) for _, obj in est.top)
        assert est.top[0] == (est.config, est.objective)


class TestDegeneracyFlags:
    def test_duplicate_candidates_tie_break_and_flag(self):
        # duplicated candidate entries stand in for identical densities
        candidates = (TRUTH, TRUTH, (6, 0, 0, 0, 0))
        masses = noiseless_masses(TRUTH)
        for method in ("l2", "moments"):
            est = estimate_from_masses(
                masses, GEOMETRY["pitch"], GEOMETRY["offset"],
                candidates, QUARTER, SIGMA, ALPHABET, method=method,
            )
            assert est.index == 0  # smallest index wins the tie
            assert est.degenerate

    def test_moment_group_clustering(self):
        means = np.array([0.0, 5.0, 5.0 + 1e-9, 9.0])
        variances = np.array([1.0, 2.0, 2.0 + 1e-9, 1.0])
        flags = [estimator._moment_degenerate(means, variances, 1.0, best) for best in range(4)]
        assert flags == [False, True, True, False]

    def test_standard_alphabet_has_no_degeneracies(self):
        # every (mean, variance) pair is unique for the 0..4g alphabet
        masses = noiseless_masses(TRUTH)
        est = estimate_from_masses(
            masses, GEOMETRY["pitch"], GEOMETRY["offset"],
            CANDIDATES, QUARTER, SIGMA, ALPHABET, method="moments",
        )
        assert not est.degenerate


class TestCandidateTable:
    def test_shared_across_event_probabilities(self):
        # profiles depend on the coupling values, not on how often each occurs
        skewed = NoiseAlphabet(G, ALPHABET.multipliers, (0.1, 0.3, 0.3, 0.2, 0.1))
        geometry = (GEOMETRY["pitch"], GEOMETRY["offset"])
        masses = noiseless_masses(TRUTH)
        estimate_from_masses(masses, *geometry, CANDIDATES, QUARTER, SIGMA, ALPHABET)
        misses = candidate_table.cache_info().misses
        estimate_from_masses(masses, *geometry, CANDIDATES, QUARTER, SIGMA, skewed)
        assert candidate_table.cache_info().misses == misses

    def test_freshly_enumerated_candidates_hit_the_cache(self):
        # the table is keyed on the count tuples, so an equal tuple of freshly
        # built count tuples finds it
        geometry = (GEOMETRY["pitch"], GEOMETRY["offset"])
        masses = noiseless_masses(TRUTH)
        estimate_from_masses(masses, *geometry, CANDIDATES, QUARTER, SIGMA, ALPHABET)
        before = candidate_table.cache_info()
        fresh = tuple(enumerate_configurations(5, 6))
        assert fresh == CANDIDATES and fresh[0] is not CANDIDATES[0]
        for method in ("l2", "moments"):
            assert estimate_from_masses(masses, *geometry, fresh, QUARTER, SIGMA, ALPHABET, method=method).config == TRUTH
        after = candidate_table.cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_warm_estimate_builds_no_table(self, monkeypatch):
        # once the table is cached a trial reads it and calls nothing below
        # the estimator
        hist = sampled_histogram(TRUTH, 200_000, seed=8)
        estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET)

        def rebuild(*args, **kwargs):
            raise AssertionError("a warm estimate rebuilt the candidate table")

        monkeypatch.setattr(estimator, "lattice_weights", rebuild)
        monkeypatch.setattr(estimator, "normal_masses", rebuild)
        for method in ("l2", "moments"):
            assert estimate_histogram(hist, CANDIDATES, QUARTER, SIGMA, ALPHABET, method=method).config == TRUTH

    @pytest.mark.parametrize("theta", [0.3, QUARTER, 1.2])
    @pytest.mark.parametrize("n_events", [6, 10, 20])
    def test_moments_are_the_functional_of_formed_profiles(self, n_events, theta):
        # the table takes the pixel-center functional through the lattice
        # factors; on every default candidate it agrees with the functional of
        # the formed rows a measured trial's moments go through
        pitch, offset = GEOMETRY["pitch"], GEOMETRY["offset"]
        counts = tuple(enumerate_configurations(5, n_events))
        table = candidate_table.__wrapped__(
            ALPHABET.multipliers, G, theta, SIGMA, counts, pitch, GEOMETRY["n_pixels"], offset
        )
        means, variances = pixel_moments(table_profiles(table), pitch, offset)
        assert np.max(np.abs(table.means - means)) <= 1e-9 * SIGMA
        assert np.max(np.abs(table.variances - variances)) <= 1e-9 * SIGMA * SIGMA

    def test_build_forms_no_profile_row(self, monkeypatch):
        def form(*args, **kwargs):
            raise AssertionError("the table build formed profile rows")

        monkeypatch.setattr(estimator, "_profile_rows", form)
        monkeypatch.setattr(estimator, "pixel_moments", form)
        table = candidate_table.__wrapped__(ALPHABET.multipliers, G, QUARTER, SIGMA, CANDIDATES, **GEOMETRY)
        assert table.means.shape == table.variances.shape == (len(CANDIDATES),)


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
            tuple(float(m) for m in multipliers), unit_shift, theta, sigma, tuple(candidates), pitch, n_pixels, offset
        )
        profiles = oracles.candidate_profiles(candidates, theta, sigma, values, pitch, n_pixels, offset)
        means, variances = pixel_moments(profiles, pitch, offset)
        assert np.max(np.abs(table_profiles(table) - profiles)) <= 1e-14
        assert np.max(np.abs(table.means - means)) <= 1e-11
        assert np.max(np.abs(table.variances - variances) / variances) <= 1e-12
        # the table's degeneracies are the fold's
        mean_tol, var_tol = DEGENERATE_MEAN_TOL_FACTOR * sigma, DEGENERATE_VAR_TOL_FACTOR * sigma * sigma
        assert oracles.moment_groups(table.means, table.variances, mean_tol, var_tol) == oracles.moment_groups(
            means, variances, mean_tol, var_tol
        )
        assert oracles.profile_groups(table_profiles(table), PROFILE_TOL) == oracles.profile_groups(
            profiles, PROFILE_TOL
        )

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
        with pytest.raises(ValueError, match=r"^lattice multipliers: expected whole numbers, got 1\.5 at flat index 1$"):
            candidate_table((0.0, 1.5), G, QUARTER, SIGMA, ((1, 1),), 13.0, 1024, -6656.0)


def factor_table(profiles, configs):
    """A table of ``configs`` whose factors form ``profiles`` exactly: identity weights, the profiles as normal masses."""
    diffs = np.asarray(profiles, dtype=np.float64)
    weights = np.eye(len(diffs))
    sq_norms = np.sum((weights @ (diffs @ diffs.T)) * weights, axis=1)
    zeros = np.zeros(len(diffs))
    return estimator._CandidateSet(tuple(configs), weights, diffs, sq_norms, zeros, zeros, 1.0, math.inf)


def _partners_in(groups):
    """best -> the other members of best's group, ascending."""
    group_of = {i: g for g in groups for i in g}
    return lambda best: tuple(i for i in group_of.get(best, ()) if i != best)


class TestDegeneracyGroups:
    """Each chosen candidate's flag against the plain pair and row loops."""

    @pytest.mark.parametrize("theta", [QUARTER, 0.0, math.pi / 2])
    def test_moment_and_profile_groups_of_a_wide_table(self, theta):
        # at pi/4 a mean depends only on the shift total, so windows hold
        # dozens of candidates; at 0 and pi/2 whole windows are degenerate.
        # A candidate is flagged exactly when its group has another member.
        candidates = tuple(enumerate_configurations(5, 10))
        table = candidate_table(ALPHABET.multipliers, G, theta, SIGMA, tuple(candidates), 13.0, 1024, -6656.0)
        mean_tol, var_tol = DEGENERATE_MEAN_TOL_FACTOR * SIGMA, DEGENERATE_VAR_TOL_FACTOR * SIGMA * SIGMA
        means, variances = table.means.tolist(), table.variances.tolist()
        moment_group = _partners_in(oracles.moment_groups(means, variances, mean_tol, var_tol))
        profiles = table_profiles(table)
        profile_group = _partners_in(oracles.profile_groups(profiles, PROFILE_TOL))
        # row b holds the squared distances a noiseless trial of candidate b sees
        sq = np.sum(profiles**2, axis=1)
        distances = sq[:, None] + sq[None, :] - 2.0 * profiles @ profiles.T
        buf = np.empty((estimator._ROW_BLOCK, profiles.shape[1]))
        flagged = 0
        for best in range(len(candidates)):
            moment = estimator._moment_degenerate(table.means, table.variances, SIGMA, best)
            assert moment == bool(oracles.moment_neighbours(means, variances, best, mean_tol, var_tol))
            assert moment == bool(moment_group(best))
            near = np.flatnonzero(np.abs(distances[best] - distances[best, best]) <= 5.0 * PROFILE_TOL)
            near = near[near != best]
            assert estimator._profile_degenerate(table, best, near, buf) == bool(profile_group(best))
            flagged += moment
        assert bool(flagged) == (theta != QUARTER)

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_chained_windows(self, seed):
        # means on a coarse grid with sub-tolerance jitter make overlapping
        # (not nested) windows; variance steps just under the tolerance chain
        # pairs that are not directly joined. The flag follows the direct
        # matches, which exist exactly where the chained group does.
        rng = np.random.default_rng(seed)
        n = 400
        means = rng.integers(0, 12, n) + rng.uniform(0.0, 2.5e-6, n)
        variances = 1.0 + rng.integers(0, 6, n) * 0.9e-6 + rng.choice([0.0, 0.5], n)
        group = _partners_in(oracles.moment_groups(means, variances, 1e-6, 1e-6))
        neighbours = [oracles.moment_neighbours(means.tolist(), variances.tolist(), b, 1e-6, 1e-6) for b in range(n)]
        assert any(ixs != group(best) for best, ixs in enumerate(neighbours))
        flags = [estimator._moment_degenerate(means, variances, 1.0, best) for best in range(n)]
        assert flags == [bool(ixs) for ixs in neighbours] == [bool(group(best)) for best in range(n)]
        assert True in flags and False in flags

    def test_gaps_equal_to_the_tolerances_join(self):
        # sigma = 1 makes both tolerances exactly 1e-6: the mean gap of the
        # first pair and the variance gap of the second compute to exactly
        # 1e-6 and join; one ulp past it, neither does
        past = np.nextafter(1e-6, 1.0)
        for gap, joined in ((1e-6, True), (past, False)):
            means = np.array([0.0, gap, 5.0, 5.0])
            variances = np.array([1.0, 1.0, 0.0, gap])
            flags = [estimator._moment_degenerate(means, variances, 1.0, best) for best in range(4)]
            oracle = [bool(oracles.moment_neighbours(means, variances, best, 1e-6, 1e-6)) for best in range(4)]
            assert flags == oracle == [joined] * 4

    def test_profile_partner_near_the_distance_bound_is_found(self):
        # the rows differ by 0.98 tau in both pixels yet round equal; with all
        # measured mass on pixel 1 their distances differ by 3.92 tau, close
        # to the 4 tau bound. Rows 1.0 tau apart round one cell apart, and
        # their distances, 4.0 tau apart, are checked and not flagged.
        tau = PROFILE_TOL
        configs = ((0, 1), (1, 0))
        for shift, joined in ((1.49, True), (1.51, False)):
            profiles = np.array([[1.0 - shift * tau, shift * tau], [1.0 - 0.51 * tau, 0.51 * tau]])
            assert np.array_equal(np.round(profiles[0] / tau), np.round(profiles[1] / tau)) == joined
            distances = np.sum((profiles - np.array([0.0, 1.0])) ** 2, axis=1)
            assert 3.9 * tau < abs(distances[0] - distances[1]) <= 5.0 * tau
            table = factor_table(profiles, configs)
            # all mass on pixel 1 chooses row 0, all on pixel 0 row 1
            for masses, best in ((np.array([0.0, 1.0]), 0), (np.array([1.0, 0.0]), 1)):
                est = estimator._estimate_l2(masses, table)
                assert est.index == best
                assert est.degenerate == joined

    def test_profile_one_rounding_cell_apart_is_not_a_partner(self):
        # the rows round one cell apart in pixel 0 and equal elsewhere, and
        # their distances lie well inside the 5 tau window
        tau = PROFILE_TOL
        profiles = np.array(
            [
                [0.25 + 0.2 * tau, 0.25 - 0.1 * tau, 0.5 - 0.1 * tau],
                [0.25 + 0.8 * tau, 0.25 - 0.4 * tau, 0.5 - 0.4 * tau],
            ]
        )
        assert np.array_equal(np.round(profiles[1] / tau) - np.round(profiles[0] / tau), [1.0, 0.0, 0.0])
        distances = np.sum((profiles - profiles[0]) ** 2, axis=1)
        assert abs(distances[1] - distances[0]) <= tau
        est = estimator._estimate_l2(profiles[0], factor_table(profiles, ((0, 1), (1, 0))))
        assert est.index == 0
        assert not est.degenerate

    @pytest.mark.parametrize("partner", [True, False])
    def test_profile_search_reads_every_block(self, partner):
        # every other row is one rounding cell off row 0 in one pixel, so all
        # of them lie in the 5 tau window and span four blocks of
        # ``_ROW_BLOCK - 1``; only the last row, when present, equals row 0
        tau = PROFILE_TOL
        n = 3 * (estimator._ROW_BLOCK - 1) + 5
        profiles = np.full((n, 4), 0.25)
        for i in range(1, n - 1):
            profiles[i, i % 4] += tau
        if not partner:
            profiles[-1, 0] -= tau
        configs = tuple((i, n - i) for i in range(n))
        est = estimator._estimate_l2(profiles[0], factor_table(profiles, configs))
        _, _, partners, _ = oracles.l2_estimate(profiles, profiles[0], tau)
        assert est.index == 0
        assert est.degenerate == bool(partners) == partner
        assert partners == ((n - 1,) if partner else ())


def l2_cases():
    """(n_events, theta, sigma, unit_shift) of the tables the l2 path is checked on."""
    wide = [(n_events, theta, SIGMA, G) for n_events in (3, 6, 10) for theta in (QUARTER, 0.3, 0.0, math.pi / 2)]
    # packet narrow against the 13 um pitch
    return wide + [(6, QUARTER, 3.0, 2.3)]


def l2_trials(profiles, seed):
    """Noiseless masses of a few candidates, and each with 1e-4-scale noise added."""
    rng = np.random.default_rng(seed)
    for row in profiles[:: max(1, len(profiles) // 3)]:
        noisy = row + rng.random(row.size) * 1e-4
        yield row
        yield noisy / noisy.sum()


class TestL2RowBlocks:
    """The l2 screen, exact distances and partner rounding, a block of rows at a time."""

    @pytest.mark.parametrize("n_events", [3, 6, 10])
    def test_distances_match_the_whole_array_expression(self, n_events):
        # 35 rows: fewer than one block; 210 and 1001 rows: the last block is partial
        candidates = tuple(enumerate_configurations(5, n_events))
        table = candidate_table(ALPHABET.multipliers, G, QUARTER, SIGMA, tuple(candidates), 13.0, 1024, -6656.0)
        profiles = table_profiles(table)
        assert (len(candidates) < estimator._ROW_BLOCK) == (n_events == 3)
        assert len(candidates) % estimator._ROW_BLOCK != 0
        buf = np.empty((min(estimator._ROW_BLOCK, len(candidates)), profiles.shape[1]))
        noisy = profiles[len(candidates) // 3] + np.random.default_rng(n_events).random(profiles.shape[1]) * 1e-4
        everyone = np.arange(len(candidates))
        for masses in (profiles[0], noisy / noisy.sum()):
            expected = np.sum((profiles - masses) ** 2, axis=1)
            assert np.array_equal(estimator._exact_distances(table, everyone, masses, buf), expected)

    @pytest.mark.parametrize("n_events,theta,sigma,unit_shift", l2_cases())
    def test_screen_error_within_its_bound(self, n_events, theta, sigma, unit_shift):
        # the short list keeps 4 bounds of room, and the observed error stays
        # far inside one
        counts = tuple(enumerate_configurations(5, n_events))
        table = candidate_table(ALPHABET.multipliers, unit_shift, theta, sigma, counts, 13.0, 1024, -6656.0)
        profiles = table_profiles(table)
        dense = oracles.lattice_profiles(theta, sigma, unit_shift, ALPHABET.multipliers, counts, 13.0, 1024, -6656.0)
        for masses in l2_trials(profiles, n_events):
            screened, bound = estimator._screen_l2(masses, table)
            for rows in (profiles, dense):
                observed = np.max(np.abs(screened - np.sum((rows - masses) ** 2, axis=1)))
                assert observed <= 0.01 * bound

    @pytest.mark.parametrize("n_events,theta,sigma,unit_shift", l2_cases())
    def test_matches_the_whole_table_path(self, n_events, theta, sigma, unit_shift):
        # the whole-table path this replaced: every distance over the dense
        # profile matrix, and partners by rounding its rows; the objectives
        # differ only by the rounding of rows formed in other products
        candidates = tuple(enumerate_configurations(5, n_events))
        counts = tuple(candidates)
        dense = oracles.lattice_profiles(theta, sigma, unit_shift, ALPHABET.multipliers, counts, 13.0, 1024, -6656.0)
        alphabet = NoiseAlphabet(unit_shift, ALPHABET.multipliers, ALPHABET.probabilities)
        flagged = 0
        for masses in l2_trials(dense, n_events):
            est = estimate_from_masses(masses, 13.0, -6656.0, candidates, theta, sigma, alphabet, method="l2")
            index, objective, partners, top = oracles.l2_estimate(dense, masses / masses.sum(), PROFILE_TOL)
            assert est.index == index
            assert est.degenerate == bool(partners)
            assert tuple(c for c, _ in est.top) == tuple(candidates[i] for i in top)
            assert abs(est.objective - objective) <= 1e-16
            flagged += est.degenerate
        assert bool(flagged) == (theta in (0.0, math.pi / 2))

    @pytest.mark.parametrize("theta", [QUARTER, math.pi / 2])
    def test_warm_n10_estimate_memory_and_partners(self, theta):
        # the whole-table difference alone took 8 MB at N=10, and at pi/2,
        # where every profile rounds equal, the partner rounding copied the
        # whole table again; now the screen rules out rows without forming
        # them, and the partners are rounded in blocks
        candidates = tuple(enumerate_configurations(5, 10))
        table = candidate_table(ALPHABET.multipliers, G, theta, SIGMA, tuple(candidates), 13.0, 1024, -6656.0)
        profiles = table_profiles(table)
        masses = profiles[333]
        args = (13.0, -6656.0, candidates, theta, SIGMA, ALPHABET)
        estimate_from_masses(masses, *args, method="l2")
        tracemalloc.start()
        try:
            est = estimate_from_masses(masses, *args, method="l2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        group = _partners_in(oracles.profile_groups(profiles, PROFILE_TOL))
        assert est.degenerate == bool(group(est.index)) == (theta != QUARTER)

    def test_cold_n10_table_memory(self):
        # the dense profile matrix alone took 8 MB, 11.3 MB at the build's peak
        counts = tuple(enumerate_configurations(5, 10))
        args = (ALPHABET.multipliers, G, QUARTER, SIGMA, counts, 13.0, 1024, -6656.0)
        tracemalloc.start()
        try:
            candidate_table.__wrapped__(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def pooled_report(configs, n_events=6, n_trials=None):
    """``build_report`` over trials that reconstructed ``configs``."""
    trials = [TrialEstimate("moments", 0, config, 0.0, ()) for config in configs]
    return build_report(trials, ALPHABET, n_events, len(configs) if n_trials is None else n_trials)


class TestAggregation:
    def test_single_trial_identity(self):
        report = pooled_report([TRUTH])
        assert report.probabilities == pytest.approx((1 / 3, 0.0, 1 / 3, 1 / 3, 0.0))
        assert report.event_counts == (2, 0, 2, 2, 0)

    def test_pooled_fractions_at_reference_precision(self):
        # pooled 7/60 rounds to the three-decimal point estimate 0.117
        assert 7 / 60 == pytest.approx(0.117, abs=5e-4)
        report = pooled_report([(1, 1, 1, 1, 2)] * 10)
        assert sum(report.event_counts) == 60
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_pooled_equals_mean_of_per_trial(self):
        rng = np.random.default_rng(2)
        configs = []
        for _ in range(8):
            counts = rng.multinomial(6, (0.3, 0.4, 0.2, 0.1, 0.0))
            configs.append(tuple(counts.tolist()))
        report = pooled_report(configs)
        manual = np.mean([np.asarray(c) / 6 for c in configs], axis=0)
        assert report.probabilities == pytest.approx(tuple(manual), abs=1e-15)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            pooled_report([(1, 0, 0, 0, 0)])
        with pytest.raises(ValueError, match="does not match the alphabet size"):
            pooled_report([(3, 3)])
        with pytest.raises(ValueError, match="expected 2 trials"):
            pooled_report([TRUTH], n_trials=2)
        with pytest.raises(ValueError, match="need at least one trial"):
            pooled_report([], n_trials=0)


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
        code = "import sys, zenosense; print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False False"


class TestBetaQuantile:
    """The package's Beta quantile against scipy's ``betaincinv``, to 1e-10 relative (fixed before the first run)."""

    RTOL = 1e-10

    def assert_matches_scipy(self, pairs):
        pairs = list(pairs)
        got = np.array([beta_ci(s, n, level) for s, n, level in pairs])
        s, n, level = (np.array(column) for column in zip(*pairs))
        tail = 0.5 * (1.0 - level)
        lo = np.where(s > 0, betaincinv(s + 1.0, n - s + 1.0, tail), 0.0)
        hi = np.where(s < n, betaincinv(s + 1.0, n - s + 1.0, 1.0 - tail), 1.0)
        np.testing.assert_allclose(got[:, 0], lo, rtol=self.RTOL, atol=0.0)
        np.testing.assert_allclose(got[:, 1], hi, rtol=self.RTOL, atol=0.0)

    def test_every_count_up_to_total_300(self):
        self.assert_matches_scipy(
            (s, n, level) for n in range(1, 301) for s in range(n + 1) for level in (0.68, 0.95)
        )

    @pytest.mark.parametrize("total", [10**3, 10**4, 10**5, 10**6])
    def test_sampled_counts_of_large_totals(self, total):
        rng = np.random.default_rng(total)
        counts = {0, 1, 2, total // 2, total - 2, total - 1, total, *map(int, rng.integers(0, total + 1, 8))}
        self.assert_matches_scipy((s, total, level) for s in sorted(counts) for level in (0.68, 0.95))

    def test_total_beyond_the_tested_range_rejected(self):
        assert beta_ci(3, estimator.MAX_BETA_TOTAL, 0.68)[0] > 0.0
        with pytest.raises(ValueError, match="total must lie in"):
            beta_ci(3, estimator.MAX_BETA_TOTAL + 1, 0.68)
        with pytest.raises(TypeError):
            beta_ci(3.5, 60, 0.68)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(estimator, "_QUANTILE_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            beta_ci(7, 60, 0.68)


class TestReport:
    def _report(self, seed=0, n_trials=5, photons=50_000):
        rng = make_rng(seed)
        estimates = []
        for i in range(n_trials):
            counts = rng.multinomial(6, (0.2,) * 5)
            truth = tuple(counts.tolist())
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
        assert report.event_counts == est.config

    def test_zero_count_category_one_sided(self):
        estimates = []
        truth = (3, 3, 0, 0, 0)
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
