"""Closed-form Gaussian-sum algebra and lattice densities against
adaptive-quadrature oracles, and the lattice weights and the normal masses
cut at 9 sigma against the clip-everything formula."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from zenosense.channel import ChannelRealization, protected_survival_spectral, run_protected
from zenosense.config import ExperimentConfig
from zenosense.noise_model import enumerate_configurations
from zenosense.pipeline import resolve_unit_shift
from zenosense import wavepacket
from zenosense.wavepacket import (
    MERGE_TOLERANCE_FACTOR,
    GaussianSum,
    fold_kernels,
    inner_product,
    lattice_density,
    lattice_weights,
    make_gaussian,
    normal_masses,
)

import oracles

# the pair-sum accessors other tests use as references, checked here against
# quadrature and closed forms
from oracles import cumulative_mass, moment, momentum_second_moment


def shifted(sigma: float, center: float) -> GaussianSum:
    return GaussianSum(sigma, [1.0], [center])


class TestMakeGaussian:
    def test_unit_gaussian(self):
        state = make_gaussian(1.0)
        assert state.amplitudes.tolist() == [1.0 + 0.0j] and state.centers.tolist() == [0.0]
        assert state.norm_sq == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_invalid_width_rejected(self, sigma):
        with pytest.raises(ValueError):
            make_gaussian(sigma)

    def test_peak_density(self):
        # peak of the normalized Gaussian: (2 pi sigma^2)^(-1/2); the state
        # after no events is the one lattice normal at the origin
        state = make_gaussian(0.5)
        expected = (2.0 * math.pi * 0.25) ** -0.5
        weights = lattice_weights(math.pi / 4, 0.5, 1.0, (1,), [[0]])
        assert lattice_density(weights, 0.5, 1.0, [0.0])[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.7978845608, abs=1e-9)
        # quadrature normalization check
        assert oracles.quad_norm_sq(state) == pytest.approx(1.0, abs=1e-12)


class TestInnerProduct:
    def test_identical_states(self):
        state = make_gaussian(2.0)
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_two_sigma_shift(self):
        a = make_gaussian(1.0)
        b = shifted(1.0, 2.0)
        got = inner_product(a, b)
        assert got.real == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert got.real == pytest.approx(oracles.quad_overlap(a, b).real, abs=1e-12)

    def test_ten_sigma_shift(self):
        a = make_gaussian(1.0)
        b = shifted(1.0, 10.0)
        got = inner_product(a, b).real
        assert got == pytest.approx(math.exp(-12.5), rel=1e-9)
        assert got == pytest.approx(oracles.quad_overlap(a, b).real, abs=1e-12)

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_overlap_decay_against_quadrature(self, ratio):
        sigma = 1.3
        a = make_gaussian(sigma)
        b = shifted(sigma, ratio * sigma)
        closed = inner_product(a, b).real
        assert closed == pytest.approx(math.exp(-(ratio**2) / 8.0), rel=1e-12)
        assert abs(closed - oracles.quad_overlap(a, b).real) < 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            inner_product(make_gaussian(1.0), make_gaussian(2.0))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = oracles.random_state(rng, 6)
            b = GaussianSum(a.sigma, rng.normal(size=3) + 1j * rng.normal(size=3), rng.uniform(-2, 2, 3))
            assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate(), abs=1e-12)


class TestKernel:
    def test_zero_shift_is_identity(self):
        out, norm_sq = fold_kernels(math.pi / 4, 1.0, [0.0])
        assert out.n_components == 1
        assert out.amplitudes[0] == pytest.approx(1.0)
        assert norm_sq == out.norm_sq == pytest.approx(1.0, abs=1e-15)

    def test_pure_h_is_pure_translation(self):
        out, norm_sq = fold_kernels(0.0, 1.0, [3.0])
        assert norm_sq == 1.0
        assert out.amplitudes.tolist() == [1.0 + 0.0j] and out.centers.tolist() == [3.0]

    def test_balanced_two_sigma_kernel(self):
        sigma = 1.0
        out, norm_sq = fold_kernels(math.pi / 4, sigma, [2.0 * sigma])
        assert out.centers == pytest.approx([0.0, 2.0])
        assert out.amplitudes == pytest.approx([0.5, 0.5], abs=1e-15)
        expected = 0.5 * (1.0 + math.exp(-0.5))
        assert norm_sq == pytest.approx(expected, rel=1e-13)
        assert out.norm_sq == pytest.approx(expected, rel=1e-13)
        assert out.norm_sq == pytest.approx(oracles.quad_norm_sq(out), abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_negative_shift_rejected(self, bad):
        with pytest.raises(ValueError, match="coupling shift must be non-negative"):
            fold_kernels(0.3, 1.0, [bad])

    def test_bad_shift_after_lattice_couplings_rejected(self):
        # -1e-12 rounds to multiple 0 well within the merge tolerance, so the
        # couplings would otherwise take the lattice path; the first bad one is named
        with pytest.raises(ValueError, match=r"non-negative, got -1e-12$"):
            fold_kernels(0.3, 1.0, [1.0, 2.0, 1.0, -1e-12, math.nan])

    @given(
        st.floats(0.05, math.pi / 2 - 0.05),
        st.floats(0.0, 4.0),
        st.floats(0.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernels_commute(self, theta, g1, g2):
        ab = fold_kernels(theta, 1.0, [g1, g2])[0]
        ba = fold_kernels(theta, 1.0, [g2, g1])[0]
        assert ab.centers == pytest.approx(ba.centers, abs=1e-12)
        assert np.allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)

    def test_coincident_centers_merge(self):
        sigma = 1.0
        state = GaussianSum(sigma, [0.5, 0.5], [0.0, 1e-12 * sigma])
        assert state.n_components == 1
        assert state.amplitudes[0] == pytest.approx(1.0)

    def test_tolerance_chain_sums_left_to_right(self):
        # one group of three; a pairwise sum gives 1 + (1e-16 + 1e-16) = 1 + 2**-52
        state = GaussianSum(1.0, [1.0, 1e-16, 1e-16], [0.0, 0.6e-9, 1.2e-9])
        assert state.amplitudes.tolist() == [1.0 + 0.0j] and state.centers.tolist() == [0.0]


# every state the CLI and the benchmark form sits on this lattice of shifts
FOLD_SIGMA = 150.0
FOLD_UNIT = 114.05179744309162


def fold_cases() -> dict[str, tuple[float, ...]]:
    rng = np.random.default_rng(16)
    cases = {f"lattice-{n}": tuple(FOLD_UNIT * float(m) for m in rng.integers(0, 5, n)) for n in (1, 6, 10, 100)}
    for n in (3, 8, 12):
        cases[f"continuous-{n}"] = tuple(rng.uniform(0.0, 3.0 * FOLD_SIGMA, n))
    cases["zero"] = (0.0,) * 6
    # the second event makes one tolerance group of four: 0, 0.8, 1.5, 2.3 (x 1e-9 sigma)
    cases["chain"] = (1.5e-9 * FOLD_SIGMA, 0.8e-9 * FOLD_SIGMA)
    return cases


FOLD_CASES = fold_cases()


def benchmark_channels() -> list[tuple[float, ...]]:
    """The long_channel workload's shapes: seeded D=5 lattice channels at
    N=100 and N=200 and the constant N=500, g=4 sigma channel."""
    rng = np.random.default_rng(20220914)
    channels = [tuple(FOLD_UNIT * float(m) for m in rng.integers(0, 5, n)) for n in (100, 100, 100, 200)]
    channels.append((4.0 * FOLD_SIGMA,) * 500)
    return channels


def selection_cases() -> dict[str, tuple[float, ...]]:
    """Couplings on either side of the lattice rule."""
    rng = np.random.default_rng(19)
    lattice = [FOLD_UNIT * float(m) for m in rng.integers(0, 5, 100)]
    # one coupling moved so that twice the residual bound E just reaches
    # the merge tolerance: E = delta + N eps sum(g) with N eps sum(g) > 0
    moved = list(lattice)
    moved[lattice.index(4.0 * FOLD_UNIT)] += 0.5 * MERGE_TOLERANCE_FACTOR * FOLD_SIGMA
    return {
        "lattice-2-3": tuple(FOLD_UNIT * float(m) for m in rng.integers(2, 4, 20)),
        "moved": tuple(moved),
        "over-cap": (FOLD_UNIT, 1e6 * FOLD_UNIT),
        # at pi/2, c^2 = 3.7e-33 underflows within 40 events, so some copies
        # the shifts reach carry amplitude 0 and are left out
        "underflow-40": tuple(FOLD_UNIT * float(m) for m in np.random.default_rng(11).integers(0, 5, 40)),
        "constant-500": benchmark_channels()[-1],
        "seeded-200": tuple(FOLD_UNIT * float(m) for m in rng.integers(0, 5, 200)),
    }


SELECTION_CASES = selection_cases()

FOLD_ANGLES = [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2]

# the cases off the lattice, which take the merge fold
MERGE_CASES = {"chain", "zero", "continuous-3", "continuous-8", "continuous-12", "lattice-2-3", "moved", "over-cap"}


def assert_state_matches_the_add_at_fold(theta, couplings, state):
    """Same components as the per-event fold, amplitudes and centers within 1e-14 relative."""
    amps, cents = oracles.fold_by_events(theta, FOLD_SIGMA, couplings)
    assert state.n_components == amps.size
    np.testing.assert_allclose(state.amplitudes, amps, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(state.centers, cents, rtol=1e-14, atol=0.0)
    return amps, cents


class TestFold:
    """The fold and run_protected's final state against the per-event fold
    that adds each group into zeros."""

    @pytest.mark.parametrize("theta", FOLD_ANGLES)
    @pytest.mark.parametrize("case", sorted(FOLD_CASES | SELECTION_CASES))
    def test_states_match_the_add_at_fold(self, theta, case):
        couplings = (FOLD_CASES | SELECTION_CASES)[case]
        state = run_protected(theta, FOLD_SIGMA, ChannelRealization(couplings)).final_state
        amps, cents = assert_state_matches_the_add_at_fold(theta, couplings, state)
        if case in MERGE_CASES:
            # the merge fold sums each group as the oracle does, bit for bit
            assert np.array_equal(state.amplitudes.view(np.uint64), amps.view(np.uint64))
            assert np.array_equal(state.centers.view(np.uint64), cents.view(np.uint64))

    def test_chain_case_tells_the_summation_orders_apart(self):
        # at theta = 1.2 the chain group's pairwise sum differs from the
        # left-to-right one, so the case above pins the order
        c2, s2 = math.cos(1.2) ** 2, math.sin(1.2) ** 2
        first = np.array([s2, c2], dtype=np.complex128)
        members = np.concatenate((first * s2, first * c2))[[0, 2, 1, 3]]
        assert np.add.reduceat(members, [0])[0] != np.add.accumulate(members)[-1]
        assert oracles.fold_by_events(1.2, FOLD_SIGMA, FOLD_CASES["chain"])[0].size == 1

    def test_near_underflow_angle_matches_the_add_at_fold(self):
        # s^2 = 1e-6: s^(2 N) underflows long before N = 100 events
        couplings = FOLD_CASES["lattice-100"]
        assert_state_matches_the_add_at_fold(1e-3, couplings, fold_kernels(1e-3, FOLD_SIGMA, couplings)[0])

    @pytest.mark.parametrize(
        "theta, couplings",
        [
            *(pytest.param(ExperimentConfig().theta_rad, c, id=f"benchmark-{i}") for i, c in enumerate(benchmark_channels())),
            pytest.param(1e-3, FOLD_CASES["lattice-100"], id="underflow"),
            pytest.param(0.0, FOLD_CASES["lattice-100"], id="theta-0"),
            pytest.param(math.pi / 2, SELECTION_CASES["underflow-40"], id="pi-2"),
        ],
    )
    def test_lattice_runs_take_no_merge_step_or_pair_sum(self, monkeypatch, theta, couplings):
        def no_call(*args):
            raise AssertionError("a lattice run merged components or summed pairs")

        monkeypatch.setattr(wavepacket, "_kernel_step", no_call)
        monkeypatch.setattr(wavepacket, "inner_product", no_call)
        run_protected(theta, FOLD_SIGMA, ChannelRealization(couplings))

    @pytest.mark.parametrize(
        "theta, couplings",
        [
            pytest.param(math.pi / 4, SELECTION_CASES["lattice-2-3"], id="lattice-2-3"),
            pytest.param(math.pi / 4, SELECTION_CASES["moved"], id="moved"),
            pytest.param(math.pi / 4, SELECTION_CASES["over-cap"], id="over-cap"),
            pytest.param(math.pi / 4, FOLD_CASES["zero"], id="zero"),
            *(pytest.param(math.pi / 4, FOLD_CASES[f"continuous-{n}"], id=f"continuous-{n}") for n in (3, 8, 12)),
        ],
    )
    def test_other_cases_take_the_merge_loop(self, monkeypatch, theta, couplings):
        steps = []
        step = wavepacket._kernel_step
        monkeypatch.setattr(wavepacket, "_kernel_step", lambda *args: steps.append(args) or step(*args))
        fold_kernels(theta, FOLD_SIGMA, couplings)
        assert len(steps) == len(couplings)


def reachable_copies(multiples) -> int:
    """Distinct sums of sub-multisets of ``multiples``: the copies a lattice state occupies."""
    reach = 1
    for n in multiples:
        reach |= reach << int(n)
    return bin(reach).count("1")


def long_channels() -> list[tuple[tuple[float, ...], float, tuple[int, ...], np.ndarray]]:
    """Channels of the long_channel workload's shape at the default config:
    120 seeded D=5 lattice channels of N=100 and 4 of N=200, and the constant
    N=500, g=4 sigma channel; each with its unit shift, multipliers and
    event multiples."""
    rng = np.random.default_rng(124)
    channels = []
    for n in [100] * 120 + [200] * 4:
        multiples = rng.integers(0, 5, n)
        channels.append((tuple(FOLD_UNIT * float(m) for m in multiples), FOLD_UNIT, (0, 1, 2, 3, 4), multiples))
    channels.append(((4.0 * FOLD_SIGMA,) * 500, 4.0 * FOLD_SIGMA, (1,), np.ones(500, dtype=np.int64)))
    return channels


def test_long_channel_survival_is_the_lattice_norm():
    theta = ExperimentConfig().theta_rad
    for couplings, unit, multipliers, multiples in long_channels():
        run = run_protected(theta, FOLD_SIGMA, ChannelRealization(couplings))
        counts = np.bincount(multiples, minlength=max(multipliers) + 1)[list(multipliers)]
        lattice_norm = lattice_weights(theta, FOLD_SIGMA, unit, multipliers, [counts]).sum()
        assert abs(run.total_survival - lattice_norm) <= 1e-13
        assert abs(run.total_survival - protected_survival_spectral(theta, FOLD_SIGMA, couplings)) <= 1e-13
        assert run.final_state.n_components == reachable_copies(multiples)


def assert_matches_all_pairs(a: GaussianSum, b: GaussianSum) -> complex:
    """The overlap is the oracle's sum over all pairs, to the rounding of
    both sums. Each adds M_a M_b terms, and the two round each overlap's
    exponent z differently by a few ulps, which exp scales by z; all of it
    is relative to the sum of the terms' magnitudes."""
    got = inner_product(a, b)
    magnitudes = oracles.dense_overlap(
        GaussianSum(a.sigma, np.abs(a.amplitudes), a.centers), GaussianSum(b.sigma, np.abs(b.amplitudes), b.centers)
    ).real
    rounding = (2 * (a.n_components + b.n_components) + 500) * np.finfo(float).eps * magnitudes
    assert abs(got - oracles.dense_overlap(a, b)) <= rounding
    return got


class TestOverlap:
    """``inner_product`` against the oracle's sum over all pairs."""

    # at spread 150 most pairs are more than 27 sigma apart, their overlaps below 1e-40
    @pytest.mark.parametrize("spread", [20.0, 150.0])
    def test_random_complex_states_of_unequal_sizes(self, spread):
        rng = np.random.default_rng(27)
        for _ in range(40):
            sigma = float(rng.uniform(0.3, 3.0))
            a, b = (
                GaussianSum(
                    sigma,
                    rng.normal(size=n) + 1j * rng.normal(size=n),
                    rng.uniform(0.0, spread, n) * sigma,
                )
                for n in rng.integers(1, 60, 2)
            )
            assert_matches_all_pairs(a, b)
            assert_matches_all_pairs(a, a)

    def test_pair_twenty_sigma_apart(self):
        # 20 sigma apart the overlap is exp(-50)
        got = assert_matches_all_pairs(make_gaussian(1.0), shifted(1.0, 20.0))
        assert got.real == pytest.approx(math.exp(-50.0), rel=1e-13)

    def test_single_component(self):
        state = GaussianSum(2.0, [0.6 - 0.8j], [3.0])
        assert assert_matches_all_pairs(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_norm_overflow_names_the_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            GaussianSum(1.0, [1e200], [0.0]).norm_sq
        with pytest.raises(ValueError, match="overflow"):
            inner_product(GaussianSum(1.0, [1e200, 1e200j], [0.0, 1.0]), GaussianSum(1.0, [1e200], [0.5]))

    def test_wide_packets_take_the_overlap_in_units_of_sigma(self):
        # squaring a center distance of 1e200 would overflow; its ratio to
        # sigma does not
        state = GaussianSum(1e200, [1.0, 1.0], [0.0, 1e200])
        assert state.norm_sq == pytest.approx(2.0 + 2.0 * math.exp(-0.125), rel=1e-15)


class TestMoments:
    def test_unit_gaussian_moments(self):
        state = make_gaussian(1.7)
        assert moment(state, 0) == 1.0
        assert moment(state, 1) == pytest.approx(0.0, abs=1e-15)
        assert moment(state, 2) == pytest.approx(1.7**2, rel=1e-14)

    def test_kernel_output_mean(self):
        # two equal components at 0 and 2 sigma: density symmetric about sigma
        sigma = 1.0
        out = fold_kernels(math.pi / 4, sigma, [2.0 * sigma])[0]
        got = moment(out, 1)
        assert got == pytest.approx(sigma, rel=1e-13)
        assert got == pytest.approx(oracles.quad_moment(out, 1), abs=1e-10)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            moment(make_gaussian(1.0), 3)

    def test_zero_norm_rejected(self):
        null = GaussianSum(1.0, [1.0, -1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="zero-norm"):
            moment(null, 1)

    def test_random_states_match_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = oracles.random_state(rng)
            for order in (1, 2):
                assert moment(state, order) == pytest.approx(
                    oracles.quad_moment(state, order), abs=1e-10, rel=1e-10
                )


class TestMomentumSecondMoment:
    def test_unit_gaussian(self):
        sigma = 1.4
        state = make_gaussian(sigma)
        v = 1.0 / (4.0 * sigma**2)
        assert momentum_second_moment(state) == pytest.approx(v, rel=1e-14)
        assert momentum_second_moment(state) == pytest.approx(
            oracles.quad_momentum_second(state), rel=1e-10
        )

    @pytest.mark.parametrize("g_over_sigma", [0.5, 1.0, 2.0])
    def test_single_kernel_closed_form(self, g_over_sigma):
        sigma = 1.0
        g = g_over_sigma * sigma
        out = fold_kernels(math.pi / 4, sigma, [g])[0]
        v = 1.0 / (4.0 * sigma**2)
        e = math.exp(-v * g * g / 2.0)
        expected = v * (1.0 + (1.0 - v * g * g) * e) / (1.0 + e)
        got = momentum_second_moment(out)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(oracles.quad_momentum_second(out), rel=1e-10)
        assert got < v

    def test_far_separated_components_approach_limit(self):
        sigma = 1.0
        out = fold_kernels(math.pi / 4, sigma, [20.0 * sigma])[0]
        v = 0.25
        got = momentum_second_moment(out)
        assert got <= v
        assert got == pytest.approx(v, rel=1e-12)
        assert got == pytest.approx(oracles.quad_momentum_second(out), rel=1e-9)

    def test_zeno_cooling_single_step(self):
        # one kernel strictly lowers <P^2> for any theta in (0, pi/2), g > 0
        rng = np.random.default_rng(3)
        for _ in range(40):
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            g = rng.uniform(0.05, 5.0)
            couplings = [float(rng.uniform(0.0, 4.0)) for _ in range(rng.integers(0, 5))]
            before = momentum_second_moment(fold_kernels(theta, 1.0, couplings)[0])
            after = momentum_second_moment(fold_kernels(theta, 1.0, couplings + [g])[0])
            assert after < before + 1e-12


class TestDensity:
    """Normalized lattice densities from ``lattice_weights`` rows."""

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            theta, sigma, h, multipliers, counts = oracles.random_lattice_rows(rng, 4)
            xs = rng.uniform(-10.0, 40.0, size=50) * sigma
            weights = lattice_weights(theta, sigma, h, multipliers, counts)
            assert np.all(lattice_density(weights, sigma, h, xs) >= 0.0)

    def test_kernel_output_against_quadrature(self):
        sigma = 1.0
        out = fold_kernels(math.pi / 4, sigma, [2.0 * sigma])[0]
        weights = lattice_weights(math.pi / 4, sigma, 2.0 * sigma, (1,), [[1]])
        assert lattice_density(weights, sigma, 2.0 * sigma, [sigma])[0, 0] == pytest.approx(
            oracles.quad_density(out, sigma), abs=1e-10
        )

    def test_integrates_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            theta, sigma, h, multipliers, counts = oracles.random_lattice_rows(rng, 3)
            hi = int((counts @ np.asarray(multipliers)).max()) * h
            xs = np.linspace(-8.0 * sigma, hi + 8.0 * sigma, 20001)
            weights = lattice_weights(theta, sigma, h, multipliers, counts)
            totals = np.trapezoid(lattice_density(weights, sigma, h, xs), xs, axis=1)
            assert totals == pytest.approx(np.ones(len(counts)), abs=1e-9)

    def test_rows_match_the_component_density(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            theta, sigma, h, multipliers, counts = oracles.random_lattice_rows(rng, 3)
            xs = rng.uniform(-4.0, 40.0, size=30) * sigma
            got = lattice_density(lattice_weights(theta, sigma, h, multipliers, counts), sigma, h, xs)
            for row, n in zip(got, counts):
                want = oracles.density_at(oracles.lattice_state(theta, sigma, h, multipliers, n), xs)
                assert np.abs(row - want).max() <= 1e-13 * want.max()

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            lattice_density([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]], 1.0, 1.0, [0.0])

    @pytest.mark.parametrize("sigma,unit_shift", [(0.0, 1.0), (math.inf, 1.0), (1.0, -1.0), (1.0, math.nan)])
    def test_bad_width_or_shift_rejected(self, sigma, unit_shift):
        with pytest.raises(ValueError, match="positive"):
            lattice_density([[1.0]], sigma, unit_shift, [0.0])


class TestCumulativeMass:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(14)
        state = oracles.random_state(rng, 6)
        for x in (-1.0, 0.5, 2.0, 5.0):
            assert cumulative_mass(state, x * state.sigma) == pytest.approx(
                oracles.quad_cumulative(state, x * state.sigma), abs=1e-10
            )

    def test_limits(self):
        state = make_gaussian(1.0)
        assert cumulative_mass(state, -60.0) == pytest.approx(0.0, abs=1e-12)
        assert cumulative_mass(state, 60.0) == pytest.approx(1.0, abs=1e-12)


def same_factors(theta, sigma, unit_shift, multipliers, counts, pitch, n_pixels, offset):
    """``lattice_weights``, and every row of ``normal_masses`` for as many normals, equal the
    clip-everything oracle's factors over the slot edges bit for bit."""
    weights, diffs = oracles.clipped_lattice_masses(
        theta, sigma, unit_shift, multipliers, counts, oracles.slot_edges(pitch, n_pixels, offset)
    )
    built = normal_masses(sigma, unit_shift, weights.shape[1], pitch, n_pixels, offset)
    return np.array_equal(lattice_weights(theta, sigma, unit_shift, multipliers, counts), weights) and np.array_equal(
        built.view(np.uint64), diffs.view(np.uint64)
    )


def lattice_z(sigma, unit_shift, counts, multipliers, edges):
    """z of every edge against every normal the states reach, as ``normal_masses`` forms it."""
    size = int(np.max(np.asarray(counts) @ np.asarray(multipliers, dtype=np.int64))) + 1
    return (edges[None, :] - 0.5 * unit_shift * np.arange(2 * size - 1)[:, None]) / sigma


class TestLatticeBand:
    """Each normal's CDF cut at 9 sigma, against the oracle's own clip-everything formula."""

    @pytest.fixture(scope="class")
    def default(self):
        config = ExperimentConfig()
        geometry = (config.pixel_pitch_um, config.pixel_count, config.detector_offset_um)
        return config, resolve_unit_shift(config), geometry

    @pytest.mark.parametrize("n_events", [6, 10])
    def test_default_table_and_trial_rows(self, default, n_events):
        config, unit_shift, geometry = default
        multipliers = config.alphabet_multipliers
        counts = enumerate_configurations(len(multipliers), n_events)
        head = (config.theta_rad, config.sigma_um, unit_shift, multipliers)
        assert same_factors(*head, counts, *geometry)
        # a trial's row, with only the normals its own state reaches
        for row in counts[:: len(counts) // 7]:
            assert same_factors(*head, [row], *geometry)

    @pytest.mark.parametrize(
        "sigma,unit_shift",
        [
            (2.0, 2.3),  # packet narrower than the 13 um pitch: a band spans 3 pixels
            (2.0, 114.05),  # narrow packets far apart: no normal overlaps another
            (1500.0, 114.05),  # every band covers the whole detector
        ],
    )
    def test_band_width_extremes(self, default, sigma, unit_shift):
        config, _, geometry = default
        multipliers = config.alphabet_multipliers
        counts = enumerate_configurations(len(multipliers), 6)
        edges = oracles.slot_edges(*geometry)[1:-1]
        inside = np.abs(lattice_z(sigma, unit_shift, counts, multipliers, edges)) < 9.0
        if sigma > 1000.0:
            assert inside.all()
        else:
            assert inside.mean() < 0.01
        assert same_factors(math.pi / 4, sigma, unit_shift, multipliers, counts, *geometry)

    def test_edges_exactly_nine_sigma_from_a_center(self):
        # unit width and a shift of 2 put the normals on the integers, so
        # the integer edges of 33 unit pixels from -12 give z exactly +-9
        # for many of them
        multipliers = (0, 1, 2)
        counts = enumerate_configurations(3, 4)
        geometry = (1.0, 33, -12.0)
        z = lattice_z(1.0, 2.0, counts, multipliers, oracles.slot_edges(*geometry)[1:-1])
        assert np.any(z == 9.0) and np.any(z == -9.0)
        for theta in (math.pi / 4, 0.3):
            assert same_factors(theta, 1.0, 2.0, multipliers, counts, *geometry)


class TestNormalMasses:
    """The cached, read-only slot masses of the shared normals."""

    @pytest.mark.parametrize(
        "sigma,unit_shift,geometry",
        [
            (150.0, 114.05, (13.0, 1024, -6656.0)),
            (2.0, 2.3, (13.0, 1024, -6656.0)),
            (1500.0, 114.05, (13.0, 1024, -6656.0)),
            (1.0, 2.0, (1.0, 33, -12.0)),
        ],
    )
    def test_head_of_a_larger_build_is_the_smaller_build(self, sigma, unit_shift, geometry):
        big = normal_masses(sigma, unit_shift, 161, *geometry)
        assert big.shape == (161, geometry[1] + 2)
        for n in (1, 41, 81):
            small = normal_masses.__wrapped__(sigma, unit_shift, n, *geometry)
            assert np.array_equal(big[:n].view(np.uint64), small.view(np.uint64))

    def test_read_only_and_cached(self):
        masses = normal_masses(150.0, 114.05, 81, 13.0, 1024, -6656.0)
        assert not masses.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            masses[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            masses[:, 1:-1] *= 2.0
        assert normal_masses(150.0, 114.05, 81, 13.0, 1024, -6656.0) is masses

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 114.05, 81, 13.0, 1024, -6656.0),
            (150.0, -1.0, 81, 13.0, 1024, -6656.0),
            (150.0, 114.05, 0, 13.0, 1024, -6656.0),
            (150.0, 114.05, 81, 13.0, 0, -6656.0),
            (150.0, 114.05, 81, 0.0, 1024, -6656.0),
            (150.0, 114.05, 81, math.nan, 1024, -6656.0),
            (150.0, 114.05, 81, 13.0, 1024, math.inf),
            (150.0, 114.05, 81, 1.0, 1024, 1e20),  # the pitch is lost below the offset's last bit
        ],
    )
    def test_bad_arguments_rejected(self, args):
        with pytest.raises(ValueError):
            normal_masses(*args)

    def test_cdf_and_masses_match_scipy_ndtr(self):
        # scipy's ndtr was the masses' CDF; the bound, 2**-51 absolute on
        # every mass, was fixed before the comparison was first run
        z = np.linspace(-9.0, 9.0, 36_001)
        cdf = 0.5 * wavepacket._erfc(-z / math.sqrt(2.0)).astype(np.float64)
        assert np.max(np.abs(cdf - ndtr(z))) <= 2.0**-51
        geometry = (13.0, 1024, -6656.0)
        unit_shift = resolve_unit_shift(ExperimentConfig())
        cases = [(150.0, unit_shift, 8 * n + 1) for n in (6, 10, 20)]  # 2 N max(m) + 1 normals
        cases += [(2.0, 2.3, 49), (2.0, 114.05, 49), (1500.0, 114.05, 49)]  # TestLatticeBand's extremes
        edges = oracles.slot_edges(*geometry)
        for sigma, g, rows in cases:
            masses = normal_masses(sigma, g, rows, *geometry)
            z = (edges[None, :] - 0.5 * g * np.arange(rows)[:, None]) / sigma
            expected = np.diff(ndtr(np.clip(z, -9.0, 9.0)), axis=1)
            assert np.max(np.abs(masses - expected)) <= 2.0**-51
            assert np.array_equal(masses == 0.0, expected == 0.0)

    @pytest.mark.parametrize("rows", [49, 81, 161])
    def test_erfc_on_every_clipped_entry_gives_the_same_bits(self, rows):
        # the masses take math.erfc inside the 9 sigma band only and fill
        # the entries beyond it with the erfc of the clip
        geometry = (13.0, 1024, -6656.0)
        edges = oracles.slot_edges(*geometry)
        for sigma, g in ((150.0, resolve_unit_shift(ExperimentConfig())), (2.0, 2.3), (1500.0, 114.05)):
            z = (edges[None, :] - 0.5 * g * np.arange(rows)[:, None]) / sigma
            cdf = 0.5 * wavepacket._erfc(-np.clip(z, -9.0, 9.0) / math.sqrt(2.0)).astype(np.float64)
            masses = normal_masses.__wrapped__(sigma, g, rows, *geometry)
            assert np.array_equal(masses.view(np.uint64), np.diff(cdf, axis=1).view(np.uint64))


class TestLatticeWeightCut:
    """The diagonal weight loop stops once the overlap falls below 1e-40."""

    def test_dropped_mass_is_below_twice_the_cutoff(self):
        # a multiplier of 40 puts the copies 40 h apart, where the overlap at
        # the default width is 7.5e-51: nonzero, but below the cutoff, and
        # the only term of the weight halfway between them
        head = (math.pi / 4, 150.0, 114.05, (0, 40))
        counts = enumerate_configurations(2, 3)
        weights = lattice_weights(*head, counts)
        diffs = normal_masses(150.0, 114.05, weights.shape[1], 13.0, 1024, -6656.0)
        dropped = oracles.lattice_weights(*head, counts, cutoff=0.0) - weights
        assert dropped.min() >= 0.0 and dropped.max() > 0.0
        mass = (dropped @ diffs).sum(axis=1)
        assert mass.max() > 0.0
        assert mass.max() <= dropped.sum(axis=1).max() <= 2e-40

    @pytest.mark.parametrize("width", [1e200, 1e-170])
    def test_overlaps_outside_the_doubles_raise(self, width):
        # (d h)^2 = 1e400 overflows at 1e200 and sigma^2 = 1e-340 underflows
        # at 1e-170; both widths pass the spacing checks
        with pytest.raises(ValueError, match=re.escape(f"unit shift {width!r} and packet width {width!r}")):
            lattice_weights(0.3, width, width, (1,), [[2]])

    @pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 0.0, math.pi / 2])
    def test_default_weights_unchanged(self, theta):
        # at the default width and shift the cut fires from the 36th diagonal
        # on, where every weight already holds a larger term of a nearer one;
        # every N=10 state and every fifth N=20 state
        config = ExperimentConfig()
        head = (theta, config.sigma_um, resolve_unit_shift(config), config.alphabet_multipliers)
        for n_events, stride in ((10, 1), (20, 5)):
            counts = enumerate_configurations(5, n_events)[::stride]
            weights = lattice_weights(*head, counts)
            assert np.array_equal(weights, oracles.lattice_weights(*head, counts, cutoff=0.0))


class TestLatticeCounts:
    """Counts enter the lattice weights only as non-negative whole numbers."""

    @pytest.mark.parametrize(
        "count, match",
        [
            (2.5, "whole numbers"),
            (-1, "non-negative"),
            (math.nan, "whole numbers"),
            (1e20, "whole numbers"),
            (2**70, "whole numbers"),
        ],
        ids=["fraction", "negative", "nan", "huge-float", "huge-int"],
    )
    def test_bad_count_rejected(self, count, match):
        with pytest.raises(ValueError, match=match):
            lattice_weights(math.pi / 4, 1.0, 1.0, (0, 1), [[count, 1]])

    def test_whole_floats_read_as_their_integers(self):
        head = (math.pi / 4, 1.0, 1.0, (0, 1))
        assert np.array_equal(lattice_weights(*head, [[2.0, 1.0]]), lattice_weights(*head, [(2, 1)]))
