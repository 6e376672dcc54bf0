"""Channel protocols, decay parameters and the QZE scaling study."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from zenosense import channel, wavepacket
from zenosense.channel import (
    CALIBRATION_THETA,
    CALIBRATION_TOLERANCE,
    ChannelRealization,
    ProbeState,
    calibrate_unit_shift,
    constant_coupling,
    decay_parameter,
    protected_survival_spectral,
    qze_scaling_report,
    run_protected,
    run_unprotected,
    uniform_coupling,
)
from zenosense.config import ExperimentConfig
from zenosense.noise_model import NoiseAlphabet, config_realization, enumerate_configurations
from zenosense.pipeline import resolve_unit_shift
from zenosense.wavepacket import fold_kernels

import oracles

QUARTER = math.pi / 4.0


class TestTypes:
    def test_probe_state_range(self):
        ProbeState(0.0)
        ProbeState(math.pi / 2)
        with pytest.raises(ValueError):
            ProbeState(-0.1)
        with pytest.raises(ValueError):
            ProbeState(2.0)

    def test_delta_s_squared(self):
        assert ProbeState(QUARTER).delta_s_squared == pytest.approx(0.25)
        assert ProbeState(0.0).delta_s_squared == 0.0

    def test_realization_validation(self):
        with pytest.raises(ValueError):
            ChannelRealization(())
        with pytest.raises(ValueError):
            ChannelRealization((1.0, -0.5))


WIDTH_REALIZATION = ChannelRealization((0.5, 1.0))
WIDTH_CALLS = {
    "run_protected": lambda sigma: run_protected(QUARTER, sigma, WIDTH_REALIZATION),
    "run_unprotected": lambda sigma: run_unprotected(QUARTER, sigma, WIDTH_REALIZATION),
    "protected_survival_spectral": lambda sigma: protected_survival_spectral(
        QUARTER, sigma, WIDTH_REALIZATION.couplings
    ),
    "qze_scaling_report": lambda sigma: qze_scaling_report(QUARTER, sigma, constant_coupling(0.5), [2], 1, seed=0),
    "calibrate_unit_shift": lambda sigma: calibrate_unit_shift(sigma, 0.58, (0, 0, 2, 2, 3, 3)),
}
for _mode in ("fixed-bath", "evolving-bath", "single-measurement"):
    WIDTH_CALLS[f"decay_parameter-{_mode}"] = lambda sigma, mode=_mode: decay_parameter(
        QUARTER, sigma, WIDTH_REALIZATION, mode
    )


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
@pytest.mark.parametrize("call", sorted(WIDTH_CALLS))
def test_width_must_be_positive_and_finite(call, sigma):
    with pytest.raises(ValueError, match="sigma"):
        WIDTH_CALLS[call](sigma)


class TestRunProtected:
    def test_all_zero_couplings(self):
        report = run_protected(QUARTER, 1.0, ChannelRealization((0.0,) * 5))
        assert report.total_survival == pytest.approx(1.0, abs=1e-15)
        assert report.final_state.amplitudes.tolist() == [1.0 + 0.0j]
        assert report.final_state.centers.tolist() == [0.0]

    def test_pure_h_never_decoheres(self):
        report = run_protected(0.0, 2.0, ChannelRealization((1.0, 3.0, 0.4)))
        assert report.total_survival == pytest.approx(1.0, abs=1e-12)

    def test_single_step_two_sigma(self):
        sigma = 1.0
        report = run_protected(QUARTER, sigma, ChannelRealization((2.0 * sigma,)))
        expected = 0.5 * (1.0 + math.exp(-0.5))
        assert report.total_survival == pytest.approx(expected, rel=1e-13)
        assert report.total_survival == pytest.approx(
            oracles.quad_norm_sq(report.final_state), abs=1e-12
        )

    def test_survival_product_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            real = ChannelRealization(tuple(rng.uniform(0.0, 2.5, size=6)))
            report = run_protected(QUARTER, 1.0, real)
            assert math.prod(report.step_survivals) == pytest.approx(
                report.total_survival, abs=1e-12
            )
            assert all(0.0 <= s <= 1.0 for s in report.step_survivals)

    def test_first_momentum_moment(self):
        sigma = 1.5
        report = run_protected(QUARTER, sigma, ChannelRealization((1.0, 1.0)))
        assert report.momentum_moments[0] == pytest.approx(1.0 / (4.0 * sigma**2), rel=1e-14)

    def test_ordering_invariance(self):
        rng = np.random.default_rng(17)
        base = tuple(rng.uniform(0.1, 2.0, size=5))
        ref = run_protected(QUARTER, 1.0, ChannelRealization(base))
        for _ in range(5):
            perm = tuple(rng.permutation(base))
            rep = run_protected(QUARTER, 1.0, ChannelRealization(perm))
            assert rep.total_survival == pytest.approx(ref.total_survival, abs=1e-12)
            assert rep.final_state.centers == pytest.approx(ref.final_state.centers, abs=1e-12)
            assert np.allclose(rep.final_state.amplitudes, ref.final_state.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("sigma", [1e200, 1e-170])
    def test_lattice_norm_at_extreme_widths(self, monkeypatch, sigma):
        # the squared spacing 1e400 overflows and the squared width 1e-340
        # underflows; the lattice norm takes the spacing in units of sigma
        unit = run_protected(0.3, 1.0, ChannelRealization((1.0, 1.0, 2.0)))
        monkeypatch.setattr(wavepacket, "_kernel_step", None)
        # at 1e-170 the momentum moments, about 1 / (4 sigma^2), leave the doubles
        with np.errstate(over="ignore"):
            report = run_protected(0.3, sigma, ChannelRealization((sigma, sigma, 2.0 * sigma)))
        assert report.final_state.n_components == unit.final_state.n_components == 5
        assert report.total_survival == pytest.approx(unit.total_survival, rel=1e-15)
        assert report.total_survival == pytest.approx(report.final_state.norm_sq, rel=1e-14)

    @pytest.mark.parametrize(
        "sigma,couplings,nodes",
        [(1e-3, (1e6,), "7.08e+08"), (1e-160, (1.0, 1.0), "1.42e+160")],
        ids=["narrow-packet-long-shift", "width-1e-160"],
    )
    @pytest.mark.parametrize("call", ["run_protected", "protected_survival_spectral", "decay_parameter"])
    def test_momentum_grid_over_budget_raises(self, call, sigma, couplings, nodes):
        # both grids pass every width and coupling check; the first would
        # take gigabytes, the second more nodes than numpy can index
        functions = {
            "run_protected": lambda: run_protected(0.3, sigma, ChannelRealization(couplings)),
            "protected_survival_spectral": lambda: protected_survival_spectral(0.3, sigma, couplings),
            "decay_parameter": lambda: decay_parameter(0.3, sigma, ChannelRealization(couplings)),
        }
        total = repr(float(sum(couplings)))
        pattern = f"momentum grid of {re.escape(nodes)} nodes .* couplings summing to {re.escape(total)}"
        with pytest.raises(ValueError, match=pattern):
            functions[call]()

    def test_momentum_moments_strictly_decrease(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            couplings = tuple(rng.uniform(0.2, 3.0, size=6))
            report = run_protected(QUARTER, 1.0, ChannelRealization(couplings))
            mm = report.momentum_moments
            assert all(b < a for a, b in zip(mm, mm[1:]))


class TestRunUnprotected:
    def test_zero_total(self):
        assert run_unprotected(QUARTER, 1.0, ChannelRealization((0.0, 0.0))) == 1.0

    def test_matches_single_step_protected(self):
        sigma = 1.0
        real = ChannelRealization((2.0 * sigma,))
        assert run_unprotected(QUARTER, sigma, real) == pytest.approx(
            run_protected(QUARTER, sigma, real).total_survival, rel=1e-13
        )

    def test_saturates_at_half(self):
        # ten events of >= 0.6 sigma each: survival 0.50 within 0.01
        for g in (0.6, 0.76, 1.0):
            real = ChannelRealization((g,) * 10)
            assert run_unprotected(QUARTER, 1.0, real) == pytest.approx(0.5, abs=0.01)

    def test_against_quadrature(self):
        sigma, g_total = 1.0, 1.7
        # single final measurement == one kernel with the total shift
        state = fold_kernels(0.7, sigma, [g_total])[0]
        survival = run_unprotected(0.7, sigma, ChannelRealization((g_total / 2, g_total / 2)))
        assert survival == pytest.approx(oracles.quad_norm_sq(state), abs=1e-12)


class TestDecayParameter:
    def test_fixed_bath_constant_coupling(self):
        n, g, sigma = 6, 0.5, 1.0
        real = ChannelRealization((g,) * n)
        expected = n * g * g / (16.0 * sigma * sigma)
        assert decay_parameter(QUARTER, sigma, real, "fixed-bath") == pytest.approx(expected, rel=1e-13)

    def test_single_measurement_ratio(self):
        n, g = 8, 0.5
        real = ChannelRealization((g,) * n)
        j_n = decay_parameter(QUARTER, 1.0, real, "fixed-bath")
        j_1 = decay_parameter(QUARTER, 1.0, real, "single-measurement")
        assert j_1 == pytest.approx(n * n * g * g / 16.0, rel=1e-13)
        assert j_n / j_1 == pytest.approx(1.0 / n, rel=1e-13)

    def test_theta_zero_gives_zero(self):
        real = ChannelRealization((1.0, 2.0))
        for mode in ("fixed-bath", "evolving-bath", "single-measurement"):
            assert decay_parameter(0.0, 1.0, real, mode) == 0.0

    def test_evolving_bath_uses_recorded_moments(self):
        real = ChannelRealization((0.8, 1.2, 0.5))
        report = run_protected(QUARTER, 1.0, real)
        expected = 0.25 * sum(
            g * g * b2 for g, b2 in zip(real.couplings, report.momentum_moments)
        )
        got = decay_parameter(QUARTER, 1.0, real, "evolving-bath")
        assert got == pytest.approx(expected, rel=1e-13)
        assert got < decay_parameter(QUARTER, 1.0, real, "fixed-bath")

    def test_evolving_bath_needs_no_kernel_fold(self, monkeypatch):
        # the fold costs 2^N components for continuous couplings; the grid
        # moments must reproduce the run's recorded value exactly without it
        rng = np.random.default_rng(11)
        cases = [rng.uniform(0.0, 2.0, size=n) for n in (1, 6, 10)]
        cases.append(np.array([0.0, 1.0, 1.0, 3.0, 4.0, 4.0]))
        expected = []
        for g in cases:
            real = ChannelRealization(tuple(g))
            b2 = np.asarray(run_protected(QUARTER, 1.0, real).momentum_moments)
            expected.append(float(0.25 * np.sum(g * g * b2)))

        def no_fold(*args):
            raise AssertionError("decay_parameter folded the kernels")

        monkeypatch.setattr(channel, "fold_kernels", no_fold)
        for g, want in zip(cases, expected):
            assert decay_parameter(QUARTER, 1.0, ChannelRealization(tuple(g)), "evolving-bath") == want

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            decay_parameter(QUARTER, 1.0, ChannelRealization((1.0,)), "banana")


class TestSecondOrderSurvival:
    def test_quartic_residual_shrinkage(self):
        # the short-interval expansion 1 - G^2 DeltaS^2 / (4 sigma^2)
        sigma = 1.0
        ds2 = ProbeState(QUARTER).delta_s_squared
        ratios = []
        for g_total in (0.4, 0.2, 0.1):
            exact = run_unprotected(QUARTER, sigma, ChannelRealization((g_total,)))
            approx = 1.0 - g_total**2 * ds2 / (4.0 * sigma**2)
            ratios.append(abs(exact - approx))
        assert ratios[0] / ratios[1] == pytest.approx(16.0, rel=0.1)
        assert ratios[1] / ratios[2] == pytest.approx(16.0, rel=0.1)


class TestExponentialApproximation:
    def test_evolving_bath_exponent_quartic_error(self):
        # calibrate the constant C at one scale, then check the bound with
        # a generous factor at finer scales while the error shrinks ~16x
        sigma = 1.0
        base = (0.3, 0.6, 0.3, 0.9, 0.6, 0.3)

        def rel_error(scale):
            real = ChannelRealization(tuple(g * scale for g in base))
            exact = run_protected(QUARTER, sigma, real).total_survival
            approx = math.exp(-decay_parameter(QUARTER, sigma, real, "evolving-bath"))
            return abs(approx - exact) / exact

        errors = [rel_error(s) for s in (1.0, 0.5, 0.25)]
        max_g4 = max(base) ** 4
        c = errors[0] / (max_g4 * len(base))
        for scale, err in zip((0.5, 0.25), errors[1:]):
            bound = 2.0 * c * (max(base) * scale) ** 4 * len(base)
            assert err <= bound
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25)


class TestZenoAdvantage:
    @pytest.mark.parametrize("g_over_sigma", [0.25, 0.4])
    def test_protected_beats_unprotected_in_zeno_regime(self, g_over_sigma):
        # exhaustive over all 210 configurations with distributed couplings
        # (sum >= 2 max); fails for g/sigma >= 0.5, see the calibrated case
        alphabet = NoiseAlphabet(g_over_sigma, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
        checked = 0
        for config in enumerate_configurations(5, 6):
            if config[0] == 6:
                continue  # all-zero couplings: both survivals are 1
            real = config_realization(config, alphabet)
            if real.total < 2.0 * max(real.couplings):
                continue
            protected = run_protected(QUARTER, 1.0, real).total_survival
            unprotected = run_unprotected(QUARTER, 1.0, real)
            assert protected >= unprotected, config
            checked += 1
        assert checked > 150

    def test_calibrated_reference_scenario(self):
        sigma = 150.0
        g = calibrate_unit_shift(sigma, 0.58, (0.0, 0.0, 2.0, 2.0, 3.0, 3.0))
        real = ChannelRealization((0.0, 0.0, 2 * g, 2 * g, 3 * g, 3 * g))
        assert run_protected(QUARTER, sigma, real).total_survival == pytest.approx(0.58, abs=1e-4)
        assert run_unprotected(QUARTER, sigma, real) == pytest.approx(0.50, abs=0.01)


class TestSpectralSurvival:
    def test_matches_exact_for_small_n(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            couplings = tuple(rng.uniform(0.0, 2.0, size=int(rng.integers(1, 9))))
            exact = run_protected(0.9, 1.3, ChannelRealization(couplings)).total_survival
            spectral = protected_survival_spectral(0.9, 1.3, couplings)
            assert spectral == pytest.approx(exact, abs=1e-10)

    def test_handles_long_channels(self):
        val = protected_survival_spectral(QUARTER, 1.0, np.full(100, 0.5))
        assert 0.0 < val < 1.0

    @pytest.mark.parametrize("g_over_sigma", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [1, 10, 36])
    def test_matches_lattice_sum_where_node_rule_is_met(self, g_over_sigma, n):
        # lambda = N g / (2 sigma) <= 72, under the node cap
        sigma = 1.3
        exact = oracles.lattice_survival(QUARTER, sigma, g_over_sigma * sigma, [1] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectral = protected_survival_spectral(QUARTER, sigma, np.full(n, g_over_sigma * sigma))
        assert abs(spectral - exact) <= 1e-12

    @pytest.mark.parametrize("g_over_sigma, n", [(4.0, 500), (8.0, 100), (8.0, 500)])
    def test_exact_for_long_lattice_channels(self, g_over_sigma, n):
        # lambda = N g / (2 sigma) from 400 to 2000
        sigma = 1.3
        exact = oracles.lattice_survival(QUARTER, sigma, g_over_sigma * sigma, [1] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectral = protected_survival_spectral(QUARTER, sigma, np.full(n, g_over_sigma * sigma))
        assert abs(spectral - exact) <= 1e-13


class TestBenchmarkShapedChannels:
    """The channels the benchmark's long_channel workload evaluates: seeded
    D=5 lattice channels at N=100 and N=200 and the constant N=500, g=4 sigma
    channel, at the default config."""

    def test_default_calibration_is_bit_stable(self):
        # a norm change that moved g would move every histogram
        assert resolve_unit_shift(ExperimentConfig()) == 114.05179744309162

    def test_fold_survival_matches_spectral(self):
        cfg = ExperimentConfig()
        theta, sigma, g = cfg.theta_rad, cfg.sigma_um, resolve_unit_shift(cfg)
        rng = np.random.default_rng(20220914)
        channels = [tuple(g * float(m) for m in rng.integers(0, 5, n)) for n in (100, 100, 100, 200)]
        channels.append((4.0 * sigma,) * 500)
        for couplings in channels:
            run = run_protected(theta, sigma, ChannelRealization(couplings))
            assert abs(run.total_survival - protected_survival_spectral(theta, sigma, couplings)) <= 1e-13


class TestGridMemory:
    """The momentum grid holds one block of running products, not a
    nodes x events array: on the constant N=500, g=4 sigma channel of the
    benchmark such an array takes 1443 x 501 entries, 5.8 MB."""

    @pytest.mark.parametrize("call", ["protected_survival_spectral", "run_protected"])
    def test_constant_500_channel_peaks_under_one_megabyte(self, call):
        cfg = ExperimentConfig()
        theta, sigma = cfg.theta_rad, cfg.sigma_um
        couplings = (4.0 * sigma,) * 500
        functions = {
            "protected_survival_spectral": lambda: protected_survival_spectral(theta, sigma, couplings),
            "run_protected": lambda: run_protected(theta, sigma, ChannelRealization(couplings)),
        }
        functions[call]()
        tracemalloc.start()
        try:
            functions[call]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_over_budget_grid_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"exceeds {channel._GRID_MAX_ENTRIES} entries"):
                protected_survival_spectral(0.3, 1e-3, (1e6,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def grid_cases() -> dict[str, tuple[float, ...]]:
    """Couplings with and without repeats, on grids above and below the size
    from which the momentum grid groups repeated couplings."""
    g = 114.05179744309162
    rng = np.random.default_rng(20)
    cases = {f"D5-{n}": tuple(g * float(m) for m in rng.integers(0, 5, n)) for n in (100, 200)}
    cases["constant-500"] = (4.0 * 150.0,) * 500
    for n in (1, 20, 500):
        cases[f"continuous-{n}"] = tuple(rng.uniform(0.0, 75.0, n).tolist())
    cases["zero"] = (0.0,) * 6
    cases["single"] = (g,)
    return cases


GRID_CASES = grid_cases()
GRID_ANGLES = [0.0, 0.3, QUARTER, 1.2, math.pi / 2]


class TestGridBitIdentity:
    """The momentum grid groups repeated couplings and streams its running
    products in blocks, and run_protected builds its tuples from whole
    arrays; against one cosine per coupling, a sequential product, the full
    products matrix and a conversion per element."""

    @pytest.mark.parametrize("theta", GRID_ANGLES)
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_prefix_equals_one_cosine_per_coupling(self, monkeypatch, theta, case):
        # 4096 entries a block: D5-100 spans 4 blocks, constant-500 250
        monkeypatch.setattr(channel, "_BLOCK_ENTRIES", 2**12)
        couplings = GRID_CASES[case]
        p, w, _ = channel._momentum_grid(150.0, couplings)
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        prefix = np.ones((len(couplings) + 1, p.size))
        for j, g in enumerate(couplings):
            prefix[j + 1] = prefix[j] * (np.cos(p * g) * (2.0 * c2 * s2) + (c2 * c2 + s2 * s2))
        j, blocks = 0, 0
        for block in channel._running_products(theta, p, np.asarray(couplings)):
            rows = block.shape[0] - 1
            assert np.array_equal(block.view(np.uint64), prefix[j : j + rows + 1].view(np.uint64))
            j, blocks = j + rows, blocks + 1
        assert j == len(couplings)
        if case in ("D5-100", "constant-500"):
            assert blocks >= 3
        # block-wise matrix products may move the sums' last bits
        survivals, moments = channel._grid_survivals_and_moments(theta, 150.0, couplings)
        full = prefix @ w
        assert np.allclose(survivals, full, rtol=1e-14, atol=0.0)
        assert np.allclose(moments, prefix[:-1] @ (w * p * p) / full[:-1], rtol=1e-14, atol=0.0)
        spectral = protected_survival_spectral(theta, 150.0, couplings)
        assert spectral == pytest.approx(full[-1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("theta", GRID_ANGLES)
    @pytest.mark.parametrize("case", ["D5-100", "D5-200", "constant-500", "continuous-1", "zero", "single"])
    def test_run_tuples_hold_the_per_element_floats(self, theta, case):
        couplings = GRID_CASES[case]
        run = run_protected(theta, 150.0, ChannelRealization(couplings))
        survivals, moments = channel._grid_survivals_and_moments(theta, 150.0, couplings)
        steps = [channel._clip01(float(s)) for s in survivals[1:] / survivals[:-1]]
        for got, expected in ((run.step_survivals, steps), (run.momentum_moments, [float(m) for m in moments])):
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.array_equal(np.array(got).view(np.uint64), np.array(expected).view(np.uint64))


class TestStepRecord:
    @staticmethod
    def pairwise_record(theta, sigma, couplings):
        """Step survivals and moments from norm ratios and pair sums."""
        states = [fold_kernels(theta, sigma, couplings[:j])[0] for j in range(len(couplings) + 1)]
        steps = [nxt.norm_sq / state.norm_sq for state, nxt in zip(states, states[1:])]
        return steps, [oracles.momentum_second_moment(state) for state in states[:-1]]

    def check(self, theta, sigma, couplings):
        report = run_protected(theta, sigma, ChannelRealization(tuple(couplings)))
        steps, moments = self.pairwise_record(theta, sigma, couplings)
        assert np.max(np.abs(np.subtract(report.step_survivals, steps))) <= 1e-12
        rel = np.abs(np.subtract(report.momentum_moments, moments)) / np.asarray(moments)
        assert np.max(rel) <= 1e-12

    def test_continuous_channels(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            theta = float(rng.uniform(0.0, math.pi / 2))
            sigma = float(rng.uniform(0.5, 2.0))
            self.check(theta, sigma, rng.uniform(0.0, 3.0 * sigma, size=n))

    def test_lattice_channels(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 61))
            h = float(rng.uniform(0.2, 2.0))
            self.check(QUARTER, 1.0, h * rng.integers(0, 5, size=n))


class TestScalingReport:
    def test_constant_coupling_exact_identity(self):
        rows = qze_scaling_report(
            QUARTER, 1.0, constant_coupling(0.5), [1, 2, 3, 7, 50], 3, seed=1, survival_samples=1
        )
        for row in rows:
            assert row.j_ratio_mean == 1.0 / row.n_events
            assert row.j_ratio_std == 0.0
        assert rows[0].survival_ratio_mean == pytest.approx(1.0, abs=1e-12)

    def test_uniform_coupling_mean_ratio(self):
        # E[g^2]/E[g]^2 = 4/3 for uniform; mean of sum g^2/(sum g)^2 ~ (4/3)/N
        n = 100
        rows = qze_scaling_report(
            QUARTER, 1.0, uniform_coupling(1.0), [n], 10_000, seed=2, survival_samples=1
        )
        ratio = rows[0].j_ratio_mean
        assert 0.9 * (4.0 / 3.0) / n <= ratio <= 1.5 * (4.0 / 3.0) / n

    @pytest.mark.parametrize("sampler", [constant_coupling, uniform_coupling])
    @pytest.mark.parametrize("scale", [math.inf, math.nan, -5.0])
    def test_sampler_scale_rejected(self, sampler, scale):
        with pytest.raises(ValueError, match="coupling scale must be finite and non-negative"):
            sampler(scale)

    @pytest.mark.parametrize("sampler", [constant_coupling, uniform_coupling])
    def test_zero_scale_gives_zero_couplings(self, sampler):
        assert np.array_equal(sampler(0.0)(np.random.default_rng(0), 3), np.zeros(3))

    def test_deterministic_under_seed(self):
        a = qze_scaling_report(QUARTER, 1.0, uniform_coupling(1.0), [3, 5], 50, seed=42)
        b = qze_scaling_report(QUARTER, 1.0, uniform_coupling(1.0), [3, 5], 50, seed=42)
        assert a == b

    def test_monotone_improvement_at_fixed_total(self):
        total = 3.0
        survivals = []
        for n in (1, 2, 4, 8, 16, 32):
            rows = qze_scaling_report(
                QUARTER, 1.0, constant_coupling(total / n), [n], 1, seed=0
            )
            survivals.append(rows[0].protected_mean)
        assert all(b > a for a, b in zip(survivals, survivals[1:]))

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            qze_scaling_report(QUARTER, 1.0, constant_coupling(1.0), [], 5, seed=0)
        with pytest.raises(ValueError):
            qze_scaling_report(QUARTER, 1.0, constant_coupling(1.0), [2], 0, seed=0)

    def test_rejects_negative_survival_samples(self):
        with pytest.raises(ValueError, match="survival_samples"):
            qze_scaling_report(QUARTER, 1.0, constant_coupling(1.0), [2], 5, seed=0, survival_samples=-2)


class TestCalibration:
    def test_reference_target(self):
        sigma = 150.0
        g = calibrate_unit_shift(sigma, 0.58, (0.0, 0.0, 2.0, 2.0, 3.0, 3.0))
        # frozen from an independent brute-force subset-sum enumeration
        assert g / sigma == pytest.approx(0.7603, abs=2e-3)

    def test_target_one_rejected(self):
        with pytest.raises(ValueError, match="unattainable"):
            calibrate_unit_shift(1.0, 1.0, (2.0, 2.0, 3.0, 3.0))

    def test_target_below_floor_rejected(self):
        with pytest.raises(ValueError, match="unattainable"):
            calibrate_unit_shift(1.0, 0.05, (2.0, 2.0, 3.0, 3.0))

    def test_weak_coupling_limit(self):
        sigma = 1.0
        g = calibrate_unit_shift(sigma, 0.999, (0.0, 0.0, 2.0, 2.0, 3.0, 3.0))
        real = ChannelRealization((0.0, 0.0, 2 * g, 2 * g, 3 * g, 3 * g))
        protected = run_protected(QUARTER, sigma, real).total_survival
        unprotected = run_unprotected(QUARTER, sigma, real)
        assert protected == pytest.approx(0.999, abs=1e-4)
        assert unprotected == pytest.approx(protected, abs=3e-3)

    def test_all_zero_multiples_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            calibrate_unit_shift(1.0, 0.5, (0.0, 0.0))

    @pytest.mark.parametrize("multiples", [(0.5, 2.0), (1.0, -2.0), (), (1.0, math.nan), (2.0, math.inf)])
    def test_non_integer_or_negative_multiples_rejected(self, multiples):
        with pytest.raises(ValueError, match="shift multiples"):
            calibrate_unit_shift(1.0, 0.5, multiples)

    @pytest.mark.parametrize("multiples", [(0, 0, 2, 2, 3, 3), (1, 1, 1), (0, 3, 7, 7), (2, 2, 3, 3, 4, 4, 4)])
    def test_calibrated_shift_meets_the_target(self, multiples):
        # the lattice sum at the calibrated g, against the convolution oracle;
        # targets at or below the incoherent floor are unattainable
        sigma = 150.0
        floor = oracles.lattice_survival(CALIBRATION_THETA, 1.0, 1e5, multiples)
        for target in np.linspace(0.05, 0.99, 27):
            if target <= floor + 1e-9:
                with pytest.raises(ValueError, match="unattainable"):
                    calibrate_unit_shift(sigma, float(target), multiples)
                continue
            g = calibrate_unit_shift(sigma, float(target), multiples)
            survival = oracles.lattice_survival(CALIBRATION_THETA, sigma, g, multiples)
            assert abs(survival - target) <= CALIBRATION_TOLERANCE
