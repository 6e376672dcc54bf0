"""Detector forward model: output densities, photon detection, moments."""

import math

import numpy as np
import pytest

from zenosense.detector import (
    HistogramFormatError,
    SpatialHistogram,
    pixel_masses,
    read_histogram_csv,
    sample_histogram,
    theoretical_state,
    write_histogram_csv,
)
from zenosense.estimator import pixel_moments
from zenosense.noise_model import Configuration, NoiseAlphabet
from zenosense.wavepacket import GaussianSum, apply_noise_kernel, density_at, make_gaussian, moment

QUARTER = math.pi / 4.0
ALPHABET = NoiseAlphabet(0.76, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)


def histogram_moments(hist):
    """(mean, variance) of a measured histogram, pixel centers as positions."""
    return pixel_moments(hist.counts / hist.total, hist.pitch, hist.offset)


def support_grid(state, points_per_sigma=200):
    """Dense grid over the packet centers padded by 8 sigma."""
    lo = state.centers.min() - 8.0 * state.sigma
    hi = state.centers.max() + 8.0 * state.sigma
    return np.linspace(lo, hi, int(math.ceil((hi - lo) * points_per_sigma / state.sigma)) + 1)


class TestTheoreticalDensity:
    def test_identity_configuration(self):
        # all events have zero shift: the output is the input Gaussian
        state = theoretical_state(Configuration((6, 0, 0, 0, 0)), QUARTER, 1.0, ALPHABET.values)
        xs = np.linspace(-4, 4, 101)
        ref = density_at(make_gaussian(1.0), xs)
        assert density_at(state, xs) == pytest.approx(ref, abs=1e-14)

    def test_order_invariance(self):
        config = Configuration((2, 0, 2, 2, 0))
        state = theoretical_state(config, QUARTER, 1.0, ALPHABET.values)
        # build in reversed value order by hand
        other = make_gaussian(1.0)
        for nk, value in reversed(list(zip(config.counts, ALPHABET.values))):
            for _ in range(nk):
                other = apply_noise_kernel(other, QUARTER, value)
        xs = np.linspace(-3, 12, 1000)
        assert density_at(state, xs) == pytest.approx(density_at(other, xs), abs=1e-12)

    def test_reference_set_support_at_calibration(self):
        sigma, g = 150.0, 114.0
        alph = NoiseAlphabet(g, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
        state = theoretical_state(Configuration((2, 0, 2, 2, 0)), QUARTER, sigma, alph.values)
        xs = support_grid(state)
        rho = density_at(state, xs)
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
        state = theoretical_state(Configuration((2, 0, 2, 2, 0)), QUARTER, 1.0, alph.values)
        xs = support_grid(state)
        rho = density_at(state, xs)
        peaks = np.flatnonzero((rho[1:-1] > rho[:-2]) & (rho[1:-1] > rho[2:])) + 1
        significant = [p for p in peaks if rho[p] > 0.01 * rho.max()]
        assert len(significant) >= 2

    def test_zero_norm_state_rejected(self):
        null = GaussianSum(1.0, [1.0, -1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            density_at(null, 0.0)
        with pytest.raises(ValueError):
            sample_histogram(null, 100, pitch=1.0, n_pixels=10, offset=-5.0, seed=1)


class TestSamplePositions:
    """Drawing photons: ``sample_histogram`` inverts the exact pixel-edge CDF."""

    def test_mean_within_clt_bound(self):
        # pixel centers are symmetric about 0, so pixelation adds no bias
        hist = sample_histogram(make_gaussian(1.0), 1_000_000, pitch=0.01, n_pixels=2000, offset=-10.0, seed=5)
        mean, _ = histogram_moments(hist)
        assert abs(mean) < 4.0 / math.sqrt(1_000_000)

    def test_deterministic(self):
        state = theoretical_state(Configuration((2, 0, 2, 2, 0)), QUARTER, 1.0, ALPHABET.values)
        a = sample_histogram(state, 1000, pitch=0.1, n_pixels=200, offset=-8.0, seed=11)
        b = sample_histogram(state, 1000, pitch=0.1, n_pixels=200, offset=-8.0, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert a.overflow == b.overflow

    def test_narrow_density_lands_in_two_pixels(self):
        # packet much narrower than the pitch: everything in <= 2 adjacent bins
        state = GaussianSum(0.05, [1.0], [3.4])
        hist = sample_histogram(state, 20_000, pitch=1.0, n_pixels=10, offset=0.0, seed=2)
        occupied = np.flatnonzero(hist.counts)
        assert len(occupied) <= 2
        assert np.all(np.diff(occupied) == 1) if len(occupied) == 2 else True

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_histogram(make_gaussian(1.0), 0, pitch=1.0, n_pixels=10, offset=-5.0, seed=1)


class TestBinToPixels:
    """Counting photons into pixels: frequencies, overflow and conservation."""

    def test_frequencies_within_binomial_bound_of_masses(self):
        state = theoretical_state(Configuration((2, 0, 2, 2, 0)), QUARTER, 1.0, ALPHABET.values)
        photons = 1_000_000
        masses = pixel_masses(state, 0.05, 400, -6.0)
        hist = sample_histogram(state, photons, pitch=0.05, n_pixels=400, offset=-6.0, seed=8)
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
        hist = sample_histogram(state, photons, pitch=1.0, n_pixels=10, offset=0.0, seed=4)
        expected = 0.004 * photons
        assert abs(hist.overflow - expected) < 5.0 * math.sqrt(expected)
        assert hist.total == photons - hist.overflow
        assert hist.counts[2] == hist.total
        bad = GaussianSum(0.05, np.sqrt([0.9, 0.1]), [2.5, 99.0])
        with pytest.raises(ValueError, match="outside"):
            sample_histogram(bad, photons, pitch=1.0, n_pixels=10, offset=0.0, seed=4)

    def test_counts_conserved(self):
        # 2.5 sigma from the right edge: ~0.6% of the photons overflow
        state = GaussianSum(1.0, [1.0], [12.5])
        hist = sample_histogram(state, 5000, pitch=0.5, n_pixels=40, offset=-5.0, seed=6)
        assert hist.overflow > 0
        assert hist.total + hist.overflow == 5000


class TestEmpiricalMoment:
    def test_symmetric_two_pixel(self):
        # equal counts in pixels centered at -1.5 and +1.5
        hist = SpatialHistogram(1.0, -2.0, [7, 0, 0, 7])
        mean, var = histogram_moments(hist)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var + mean**2 == pytest.approx(1.5**2, rel=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        config = Configuration((2, 0, 2, 2, 0))
        sigma, photons = 1.0, 1_000_000
        state = theoretical_state(config, QUARTER, sigma, ALPHABET.values)
        hist = sample_histogram(state, photons, pitch=0.05, n_pixels=600, offset=-10.0, seed=31)
        m1, m2 = moment(state, 1), moment(state, 2)
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
        state = theoretical_state(Configuration((1, 1, 2, 1, 1)), QUARTER, 1.0, ALPHABET.values)
        masses = pixel_masses(state, 0.1, 400, -10.0)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_bias_quadratic_in_pitch(self):
        # bias ~ pitch^2/12; refining the pitch 4x shrinks it ~16x
        state = theoretical_state(Configuration((2, 0, 2, 2, 0)), QUARTER, 1.0, ALPHABET.values)
        m1 = moment(state, 1)
        var_exact = moment(state, 2) - m1 * m1
        pitch = 0.4

        def pixel_variance(pitch, n_pixels):
            masses = pixel_masses(state, pitch, n_pixels, -6.0)
            return pixel_moments(masses / masses.sum(), pitch, -6.0)[1]

        var_coarse = pixel_variance(pitch, 80)
        var_fine = pixel_variance(pitch / 4, 320)
        bias_coarse = abs(var_coarse - var_exact)
        bias_fine = abs(var_fine - var_exact)
        assert bias_coarse <= 1.2 * pitch**2 / 12.0
        assert bias_coarse / bias_fine == pytest.approx(16.0, rel=0.15)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        hist = sample_histogram(make_gaussian(30.0), 10_000, pitch=13.0, n_pixels=64, offset=-416.0, seed=1)
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
