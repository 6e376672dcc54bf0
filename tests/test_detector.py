"""Detector forward model: output densities, photon detection, moments."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zenosense.config import ExperimentConfig
from zenosense.detector import (
    HistogramFormatError,
    SpatialHistogram,
    _BUCKETS as BUCKETS,
    _CHUNK as CHUNK,
    _count_slots,
    _uniform_chunks,
    read_histogram_csv,
    sample_histogram,
    write_histogram_csv,
)
from zenosense.estimator import pixel_moments
from zenosense.noise_model import NoiseAlphabet, enumerate_configurations
from zenosense.pipeline import resolve_unit_shift, simulate_trials
from zenosense.seeds import make_rng
from zenosense.wavepacket import GaussianSum, lattice_density, lattice_weights, normal_masses

import oracles
from oracles import theoretical_state

QUARTER = math.pi / 4.0
ALPHABET = NoiseAlphabet(0.76, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)


def trial_slots(theta, sigma, unit_shift, multipliers, counts, pitch, n_pixels, offset):
    """Slot masses of one lattice state as ``simulate_trials`` takes them: its ``lattice_weights`` row times
    the head of ``normal_masses`` for the 2 N max(m) + 1 normals any state of its N events reaches."""
    weights = lattice_weights(theta, sigma, unit_shift, multipliers, [counts])
    diffs = normal_masses(sigma, unit_shift, 2 * sum(counts) * int(max(multipliers)) + 1, pitch, n_pixels, offset)
    return (weights @ diffs[: weights.shape[1]])[0]


def lattice_slots(counts, pitch, n_pixels, offset):
    """Slot masses of a lattice state of ``ALPHABET`` at unit width, as the pipeline takes them."""
    return trial_slots(QUARTER, 1.0, ALPHABET.unit_shift, ALPHABET.multipliers, counts, pitch, n_pixels, offset)


def detect(state, photons, pitch, n_pixels, offset, seed):
    """``sample_histogram`` of any state, fed the oracle's pair-sum slot masses."""
    return sample_histogram(oracles.slot_masses(state, pitch, n_pixels, offset), photons, pitch, offset, seed)


def histogram_moments(hist):
    """(mean, variance) of a measured histogram, pixel centers as positions."""
    return pixel_moments(hist.counts / hist.total, hist.pitch, hist.offset)


def support_grid(state, points_per_sigma=200):
    """Dense grid over the packet centers padded by 8 sigma."""
    lo = state.centers.min() - 8.0 * state.sigma
    hi = state.centers.max() + 8.0 * state.sigma
    return np.linspace(lo, hi, int(math.ceil((hi - lo) * points_per_sigma / state.sigma)) + 1)


def config_density(config, sigma, alphabet, xs):
    """Normalized density of a configuration's lattice state at ``QUARTER``, from its ``lattice_weights`` row."""
    weights = lattice_weights(QUARTER, sigma, alphabet.unit_shift, alphabet.multipliers, [config])
    return lattice_density(weights, sigma, alphabet.unit_shift, xs)[0]


class TestTheoreticalDensity:
    def test_identity_configuration(self):
        # all events have zero shift: the output is the input Gaussian
        xs = np.linspace(-4, 4, 101)
        ref = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        assert config_density((6, 0, 0, 0, 0), 1.0, ALPHABET, xs) == pytest.approx(ref, abs=1e-14)

    def test_reference_set_support_at_calibration(self):
        sigma, g = 150.0, 114.0
        alph = NoiseAlphabet(g, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
        config = (2, 0, 2, 2, 0)
        xs = support_grid(theoretical_state(config, QUARTER, sigma, alph.values))
        rho = config_density(config, sigma, alph, xs)
        # integrates to 1 on the sampling grid
        assert np.trapezoid(rho, xs) == pytest.approx(1.0, abs=1e-9)
        # essentially all mass inside [0, 10 g] plus tails
        inside = (xs > -2 * sigma) & (xs < 10 * g + 2 * sigma)
        assert np.trapezoid(rho[inside], xs[inside]) > 0.99

    def test_reference_set_lobes_at_separated_coupling(self):
        # interference lobes only resolve once the shift exceeds the packet
        # width (g >= ~2 sigma); at the calibrated g/sigma ~ 0.76 the
        # sub-packets blend into a single smooth bump
        alph = NoiseAlphabet(3.0, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
        config = (2, 0, 2, 2, 0)
        xs = support_grid(theoretical_state(config, QUARTER, 1.0, alph.values))
        rho = config_density(config, 1.0, alph, xs)
        peaks = np.flatnonzero((rho[1:-1] > rho[:-2]) & (rho[1:-1] > rho[2:])) + 1
        significant = [p for p in peaks if rho[p] > 0.01 * rho.max()]
        assert len(significant) >= 2

    def test_zero_norm_state_rejected(self):
        with pytest.raises(ValueError):
            lattice_density([[0.0]], 1.0, ALPHABET.unit_shift, [0.0])


class TestSamplePositions:
    """Drawing photons: ``sample_histogram`` inverts the exact pixel-edge CDF."""

    def test_mean_within_clt_bound(self):
        # pixel centers are symmetric about 0, so pixelation adds no bias
        hist = detect(GaussianSum(1.0, [1.0], [0.0]), 1_000_000, pitch=0.01, n_pixels=2000, offset=-10.0, seed=5)
        mean, _ = histogram_moments(hist)
        assert abs(mean) < 4.0 / math.sqrt(1_000_000)

    def test_deterministic(self):
        state = theoretical_state((2, 0, 2, 2, 0), QUARTER, 1.0, ALPHABET.values)
        a = detect(state, 1000, pitch=0.1, n_pixels=200, offset=-8.0, seed=11)
        b = detect(state, 1000, pitch=0.1, n_pixels=200, offset=-8.0, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert a.overflow == b.overflow

    def test_narrow_density_lands_in_two_pixels(self):
        # packet much narrower than the pitch: everything in <= 2 adjacent bins
        state = GaussianSum(0.05, [1.0], [3.4])
        hist = detect(state, 20_000, pitch=1.0, n_pixels=10, offset=0.0, seed=2)
        occupied = np.flatnonzero(hist.counts)
        assert len(occupied) <= 2
        assert np.all(np.diff(occupied) == 1) if len(occupied) == 2 else True

    def test_count_validation(self):
        with pytest.raises(ValueError):
            detect(GaussianSum(1.0, [1.0], [0.0]), 0, pitch=1.0, n_pixels=10, offset=-5.0, seed=1)

    @pytest.mark.parametrize(
        "masses",
        [
            np.ones((2, 4)),  # not 1-d
            np.ones(3),  # fewer than two pixels
            [0.1, 0.5, -0.1, 0.5],  # negative
            [0.1, np.nan, 0.4, 0.1],  # not finite
            [0.1, np.inf, 0.4, 0.1],
            np.zeros(6),  # no mass
        ],
        ids=["2-d", "3-slots", "negative", "nan", "inf", "zero-sum"],
    )
    def test_slot_mass_validation(self, masses):
        with pytest.raises(ValueError, match="slot masses"):
            sample_histogram(masses, 100, pitch=1.0, offset=-5.0, seed=1)

    def test_overflowing_sum_rejected_without_a_warning(self):
        # finite masses whose sum overflows: the suite turns warnings into
        # errors, so a numpy overflow warning would preempt the ValueError
        with pytest.raises(ValueError, match=r"positive finite sum, got inf$"):
            sample_histogram(np.full(8, 1e308), 10, 1.0, 0.0, 1)


class TestBinToPixels:
    """Counting photons into pixels: frequencies, overflow and conservation."""

    def test_frequencies_within_binomial_bound_of_masses(self):
        state = theoretical_state((2, 0, 2, 2, 0), QUARTER, 1.0, ALPHABET.values)
        photons = 1_000_000
        masses = oracles.pixel_masses(state, 0.05, 400, -6.0)
        hist = detect(state, photons, pitch=0.05, n_pixels=400, offset=-6.0, seed=8)
        expected = photons * masses
        sd = np.sqrt(expected * (1.0 - masses))
        # per pixel where the binomial is near normal; the sparse tails pooled
        bulk = expected >= 25.0
        assert np.all(np.abs(hist.counts[bulk] - expected[bulk]) <= 5.0 * sd[bulk])
        tail = expected[~bulk].sum()
        assert abs(hist.counts[~bulk].sum() - tail) <= 5.0 * math.sqrt(tail)

    def test_overflow_reported_and_bounded(self):
        # non-overlapping sub-packets: 0.2% of the mass on each side of the span
        state = GaussianSum(0.05, np.sqrt([0.002, 0.996, 0.002]), [-50.0, 2.5, 99.0])
        photons = 100_000
        hist = detect(state, photons, pitch=1.0, n_pixels=10, offset=0.0, seed=4)
        expected = 0.004 * photons
        assert abs(hist.overflow - expected) < 5.0 * math.sqrt(expected)
        assert hist.total == photons - hist.overflow
        assert hist.counts[2] == hist.total
        bad = GaussianSum(0.05, np.sqrt([0.9, 0.1]), [2.5, 99.0])
        with pytest.raises(ValueError, match="outside"):
            detect(bad, photons, pitch=1.0, n_pixels=10, offset=0.0, seed=4)

    def test_counts_conserved(self):
        # 2.5 sigma from the right edge: ~0.6% of the photons overflow
        state = GaussianSum(1.0, [1.0], [12.5])
        hist = detect(state, 5000, pitch=0.5, n_pixels=40, offset=-5.0, seed=6)
        assert hist.overflow > 0
        assert hist.total + hist.overflow == 5000


def edge_cdf(masses):
    """The CDF at the pixel edges that ``sample_histogram`` inverts for these slot masses."""
    return np.cumsum(masses[:-1]) / masses.sum()


def lattice_cdfs(theta, unit_shift, multipliers, n_events, config):
    """Edge CDF of every candidate, one slot row each as in the pipeline."""
    geometry = (config.pixel_pitch_um, config.pixel_count, config.detector_offset_um)
    candidates = enumerate_configurations(len(multipliers), n_events)
    rows = [trial_slots(theta, config.sigma_um, unit_shift, multipliers, c, *geometry) for c in candidates]
    return candidates, [edge_cdf(row) for row in rows]


def edge_counts(cdf, ordered):
    """Photons per slot of sorted uniforms: differences of the count of uniforms below each edge."""
    return np.diff(np.concatenate(([0], np.searchsorted(ordered, cdf), [ordered.size])))


def chunks(u):
    """``u`` as consecutive copies of at most ``CHUNK`` uniforms, the chunks ``_count_slots`` takes."""
    return (u[start : start + CHUNK].copy() for start in range(0, u.size, CHUNK))


def assert_counts_match_oracle(cdf, u):
    expected = oracles.slot_counts(cdf, u)
    got = _count_slots(cdf, chunks(u))
    assert np.array_equal(got, expected)


class TestSlotCounting:
    """The bucketed counting step against one binary search per photon."""

    @pytest.fixture(scope="class")
    def default_cdfs(self):
        config = ExperimentConfig()
        unit_shift = resolve_unit_shift(config)
        return lattice_cdfs(config.theta_rad, unit_shift, config.alphabet_multipliers, config.n_events, config)[1]

    @pytest.mark.parametrize("photons", [100_000, 1_000_000])
    def test_every_default_candidate_state(self, default_cdfs, photons):
        assert len(default_cdfs) == 210
        u = np.random.default_rng(photons).random(photons)
        # the oracle's counts do not depend on the order of u, and sorted
        # uniforms make its binary searches cheap
        ordered = np.sort(u)
        oracle = oracles.slot_counts
        if photons == 1_000_000:
            # one binary search per edge instead of one per photon, checked
            # against the per-photon oracle on three of the CDFs
            for cdf in (default_cdfs[0], default_cdfs[105], default_cdfs[-1]):
                assert np.array_equal(edge_counts(cdf, ordered), oracles.slot_counts(cdf, ordered))
            oracle = edge_counts
        for cdf in default_cdfs:
            assert np.array_equal(_count_slots(cdf, chunks(u)), oracle(cdf, ordered))

    def test_lattice_cdfs_match_pair_sum_oracle(self):
        config = ExperimentConfig()
        unit_shift = resolve_unit_shift(config)
        cases = [(config.theta_rad, config.alphabet_multipliers, config.n_events)]
        cases += [(theta, (0.0, 3.0, 7.0), 10) for theta in (QUARTER, 0.0, math.pi / 2)]
        # sorted uniforms: photons per slot are differences of the number of
        # uniforms below each edge
        ordered = [np.sort(np.random.default_rng(n).random(n)) for n in (100_000, 1_000_000)]
        for theta, multipliers, n_events in cases:
            values = tuple(m * unit_shift for m in multipliers)
            candidates, cdfs = lattice_cdfs(theta, unit_shift, multipliers, n_events, config)
            for candidate, cdf in zip(candidates, cdfs):
                state = theoretical_state(candidate, theta, config.sigma_um, values)
                ref = edge_cdf(
                    oracles.slot_masses(state, config.pixel_pitch_um, config.pixel_count, config.detector_offset_um)
                )
                assert np.max(np.abs(cdf - ref)) <= 1e-14
                for u in ordered:
                    assert np.array_equal(edge_counts(cdf, u), edge_counts(ref, u))

    def test_uniforms_on_edges_and_bucket_boundaries(self, default_cdfs):
        grid = np.arange(BUCKETS) / BUCKETS
        # edges on bucket boundaries, between them, and clustered in one bucket
        synthetic = np.sort(
            np.concatenate((grid[::37], (np.arange(300) + 0.5) / 1000.0, 0.4 + grid[1:40] / BUCKETS))
        )
        for cdf in (default_cdfs[0], default_cdfs[105], default_cdfs[-1], synthetic):
            on_edges = cdf[(cdf >= 0.0) & (cdf < 1.0)]
            u = np.concatenate(
                (
                    on_edges,
                    np.nextafter(on_edges, 0.0),
                    grid,
                    np.nextafter(grid[1:], 0.0),
                    [0.0, np.nextafter(1.0, 0.0)],
                )
            )
            assert_counts_match_oracle(cdf, u)

    def test_last_edge_rounding_above_one(self):
        cdf = np.concatenate((np.linspace(0.0, 1.0, 101)[:-1], [np.nextafter(1.0, 2.0)]))
        u = np.concatenate((np.random.default_rng(3).random(10_000), [np.nextafter(1.0, 0.0), 0.0]))
        assert_counts_match_oracle(cdf, u)
        counts = _count_slots(cdf, chunks(u))
        assert counts[-1] == 0 and counts[0] == 0

    def test_overflow_on_both_sides(self):
        cdf = np.linspace(0.3, 0.6, 51)
        u = np.random.default_rng(4).random(100_000)
        counts = _count_slots(cdf, chunks(u))
        assert counts[0] > 0 and counts[-1] > 0
        assert_counts_match_oracle(cdf, u)

    def test_packet_narrower_than_one_bucket(self):
        # all pixel mass inside one bucket of width 1 / BUCKETS in u
        k = 6000
        cdf = (k + np.linspace(0.1, 0.9, 41)) / BUCKETS
        rng = np.random.default_rng(5)
        u = np.concatenate(((k + rng.random(10_000)) / BUCKETS, rng.random(10_000)))
        counts = _count_slots(cdf, chunks(u))
        assert counts[1:-1].sum() > 0
        assert_counts_match_oracle(cdf, u)


@pytest.fixture(scope="module")
def reference_slots():
    """Default config and the slot masses of its reference set (2, 0, 2, 2, 0), as the pipeline takes them."""
    config = ExperimentConfig()
    geometry = (config.pixel_pitch_um, config.pixel_count, config.detector_offset_um)
    unit_shift = resolve_unit_shift(config)
    masses = trial_slots(
        config.theta_rad, config.sigma_um, unit_shift, config.alphabet_multipliers, (2, 0, 2, 2, 0), *geometry
    )
    return config, masses


class TestChunkedStream:
    """``sample_histogram`` draws and counts its uniforms ``CHUNK`` at a time."""

    PHOTONS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 1_000_000]

    @pytest.mark.parametrize("photons", PHOTONS)
    def test_counts_match_one_draw(self, reference_slots, photons):
        config, masses = reference_slots
        expected = oracles.slot_counts(edge_cdf(masses), np.random.default_rng(photons).random(photons))
        hist = sample_histogram(masses, photons, config.pixel_pitch_um, config.detector_offset_um, photons)
        assert np.array_equal(hist.counts, expected[1:-1])
        assert hist.overflow == expected[0] + expected[-1]

    @pytest.mark.parametrize("photons", PHOTONS)
    def test_two_sided_overflow_matches_one_draw(self, photons):
        cdf = np.linspace(0.3, 0.6, 51)
        got = _count_slots(cdf, _uniform_chunks(np.random.default_rng(photons), photons))
        assert np.array_equal(got, oracles.slot_counts(cdf, np.random.default_rng(photons).random(photons)))

    def test_chunk_longer_than_the_held_buffer_raises(self):
        with pytest.raises(ValueError):
            _count_slots(np.linspace(0.3, 0.6, 51), [np.random.default_rng(6).random(CHUNK + 1)])

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_generator_left_as_one_draw_leaves_it(self, reference_slots, bit_generator):
        config, masses = reference_slots
        photons = 3 * CHUNK + 7
        rng, ref = np.random.Generator(bit_generator(9)), np.random.Generator(bit_generator(9))
        hist = sample_histogram(masses, photons, config.pixel_pitch_um, config.detector_offset_um, rng)
        assert np.array_equal(hist.counts, oracles.slot_counts(edge_cdf(masses), ref.random(photons))[1:-1])
        assert np.array_equal(rng.random(4), ref.random(4))

    def test_memory_independent_of_photon_count(self, reference_slots):
        # the whole 1e6-photon stream would take 8 MB as doubles alone
        config, masses = reference_slots
        tracemalloc.start()
        try:
            sample_histogram(masses, 1_000_000, config.pixel_pitch_um, config.detector_offset_um, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_warm_call_allocates_under_one_mib(self, reference_slots):
        # each thread keeps its two 512 KiB chunk buffers, so a warm call
        # allocates neither (1.43 MiB when every call allocated them)
        config, masses = reference_slots
        args = (masses, 1_000_000, config.pixel_pitch_um, config.detector_offset_um, 1)
        sample_histogram(*args)
        tracemalloc.start()
        try:
            sample_histogram(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_threads_sampling_at_once_get_the_sequential_counts(self, reference_slots):
        config, masses = reference_slots
        photons = 4 * CHUNK + 11

        def counts(seed):
            hist = sample_histogram(masses, photons, config.pixel_pitch_um, config.detector_offset_um, seed)
            return hist.counts, hist.overflow

        seeds = [seed for seed in range(6) for _ in range(3)]
        expected = {seed: counts(seed) for seed in set(seeds)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [(seed, pool.submit(counts, seed)) for seed in seeds]
                results = [(seed, future.result(timeout=60)) for seed, future in futures]
        finally:
            sys.setswitchinterval(interval)
        for seed, (got, overflow) in results:
            assert np.array_equal(got, expected[seed][0]) and overflow == expected[seed][1]


class TestPipelineDetection:
    @pytest.mark.parametrize(
        "n_events, forced, geometry",
        [
            (6, (2, 0, 2, 2, 0), {}),
            # a span that leaves ~0.3% of the mass on each side
            (10, (3, 1, 2, 2, 2), dict(pixel_count=147, detector_offset_um=130.0)),
        ],
        ids=["N6", "N10"],
    )
    def test_lattice_slots_detect_as_pair_sum(self, n_events, forced, geometry):
        # the pipeline's lattice row and the oracle's pair sum put every photon
        # of stream (seed, i, 1) in the same slot
        config = ExperimentConfig(n_events=n_events, forced_config=forced, n_trials=3, **geometry)
        unit_shift = resolve_unit_shift(config)
        values = config.alphabet(unit_shift).values
        state = theoretical_state(forced, config.theta_rad, config.sigma_um, values)
        masses = oracles.slot_masses(state, config.pixel_pitch_um, config.pixel_count, config.detector_offset_um)
        for record in simulate_trials(config, unit_shift):
            ref = sample_histogram(
                masses,
                config.photons_per_trial,
                config.pixel_pitch_um,
                config.detector_offset_um,
                make_rng(config.master_seed, record.index, 1),
            )
            assert np.array_equal(record.histogram.counts, ref.counts)
            assert record.histogram.overflow == ref.overflow


class TestHistogramGeometry:
    @pytest.mark.parametrize(
        "pitch, offset",
        [(math.inf, 0.0), (math.nan, 0.0), (0.0, 0.0), (-1.0, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)],
    )
    def test_non_finite_geometry_rejected(self, pitch, offset):
        with pytest.raises(ValueError, match="pixel pitch must be positive and finite and the offset finite"):
            SpatialHistogram(pitch, offset, [1, 2])
        with pytest.raises(ValueError, match="pixel pitch must be positive and finite and the offset finite"):
            normal_masses(1.0, 1.0, 3, pitch, 4, offset)

    def test_negative_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow count must be non-negative, got -5"):
            SpatialHistogram(1.0, 0.0, [1, 2], overflow=-5)

    @pytest.mark.parametrize(
        "counts, overflow, what",
        [
            ([1.5, 2.9], 2.7, "pixel counts"),
            ([1, 2], 2.7, "overflow count"),
            ([1.0, math.nan], 0, "pixel counts"),
            ([1e30, 1.0], 0, "pixel counts"),
            ([1, 2], 2**70, "overflow count"),
        ],
    )
    def test_non_integer_counts_rejected(self, counts, overflow, what):
        with pytest.raises(ValueError, match=f"{what}: expected whole numbers"):
            SpatialHistogram(1.0, 0.0, counts, overflow=overflow)

    def test_bad_count_is_named_by_value_and_index(self):
        # a 1024-pixel histogram of halves names its first entry, not all 1024
        counts = np.full(1024, 7.0)
        counts[300:] = 0.5
        with pytest.raises(ValueError, match=r"^pixel counts: expected whole numbers, got 0\.5 at flat index 300$") as info:
            SpatialHistogram(13.0, -6656.0, counts)
        assert len(str(info.value)) < 200

    def test_whole_float_counts_kept(self):
        hist = SpatialHistogram(1.0, 0.0, np.array([1.0, 2.0]), overflow=np.float64(3.0))
        assert hist.counts.dtype == np.int64 and hist.counts.tolist() == [1, 2] and hist.overflow == 3


class TestEmpiricalMoment:
    def test_symmetric_two_pixel(self):
        # equal counts in pixels centered at -1.5 and +1.5
        hist = SpatialHistogram(1.0, -2.0, [7, 0, 0, 7])
        mean, var = histogram_moments(hist)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var + mean**2 == pytest.approx(1.5**2, rel=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        config = (2, 0, 2, 2, 0)
        sigma, photons = 1.0, 1_000_000
        state = theoretical_state(config, QUARTER, sigma, ALPHABET.values)
        hist = detect(state, photons, pitch=0.05, n_pixels=600, offset=-10.0, seed=31)
        m1, m2 = oracles.moment(state, 1), oracles.moment(state, 2)
        var = m2 - m1 * m1
        se_mean = math.sqrt(var / photons)
        mean, var_hist = histogram_moments(hist)
        second = var_hist + mean**2
        assert abs(mean - m1) < 5.0 * se_mean
        x4 = float(np.sum(hist.counts * hist.centers() ** 4)) / hist.total
        se_m2 = math.sqrt((x4 - second**2) / photons)
        assert abs(second - m2) < 5.0 * se_m2


class TestPixelation:
    def test_masses_sum_to_one(self):
        config = (1, 1, 2, 1, 1)
        state = theoretical_state(config, QUARTER, 1.0, ALPHABET.values)
        slots = lattice_slots(config, 0.1, 400, -10.0)
        # the slots carry the state's squared norm, the pixels all of it
        assert slots.sum() == pytest.approx(oracles.dense_overlap(state, state).real, rel=1e-12)
        assert slots[1:-1].sum() / slots.sum() == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_bias_quadratic_in_pitch(self):
        # bias ~ pitch^2/12; refining the pitch 4x shrinks it ~16x
        config = (2, 0, 2, 2, 0)
        state = theoretical_state(config, QUARTER, 1.0, ALPHABET.values)
        m1 = oracles.moment(state, 1)
        var_exact = oracles.moment(state, 2) - m1 * m1
        pitch = 0.4

        def pixel_variance(pitch, n_pixels):
            masses = lattice_slots(config, pitch, n_pixels, -6.0)[1:-1]
            return pixel_moments(masses / masses.sum(), pitch, -6.0)[1]

        var_coarse = pixel_variance(pitch, 80)
        var_fine = pixel_variance(pitch / 4, 320)
        bias_coarse = abs(var_coarse - var_exact)
        bias_fine = abs(var_fine - var_exact)
        assert bias_coarse <= 1.2 * pitch**2 / 12.0
        assert bias_coarse / bias_fine == pytest.approx(16.0, rel=0.15)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        hist = detect(GaussianSum(30.0, [1.0], [0.0]), 10_000, pitch=13.0, n_pixels=64, offset=-416.0, seed=1)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        back = read_histogram_csv(path)
        assert np.array_equal(back.counts, hist.counts)
        assert back.pitch == pytest.approx(hist.pitch, abs=1e-9)
        assert back.offset == pytest.approx(hist.offset, abs=1e-6)

    def test_corrupt_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pixel_index,center_x_um,count\n0,1.0,5\n1,2.0,oops\n")
        with pytest.raises(HistogramFormatError, match=r"bad\.csv:3"):
            read_histogram_csv(path)

    def test_non_finite_center_names_file_and_line(self, tmp_path):
        # a nan center after the second row slips past the spacing check
        path = tmp_path / "bad.csv"
        path.write_text("pixel_index,center_x_um,count\n0,1.0,5\n1,2.0,3\n2,nan,1\n")
        with pytest.raises(HistogramFormatError, match=r"bad\.csv:4"):
            read_histogram_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_pitch_names_file_without_a_warning(self, tmp_path):
        # finite centers whose spacing overflows to inf: a numpy warning, or
        # the plain ValueError of SpatialHistogram, would preempt this error
        path = tmp_path / "wide.csv"
        path.write_text("pixel_index,center_x_um,count\n0,-1e308,5\n1,1e308,3\n")
        with pytest.raises(HistogramFormatError, match=r"wide\.csv: pixel spacing or offset is not finite"):
            read_histogram_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1.0,5\n")
        with pytest.raises(HistogramFormatError, match=":1"):
            read_histogram_csv(path)

    def test_out_of_order_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pixel_index,center_x_um,count\n0,1.0,5\n2,3.0,1\n")
        with pytest.raises(HistogramFormatError, match="out of order"):
            read_histogram_csv(path)
