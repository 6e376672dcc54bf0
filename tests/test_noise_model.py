"""Noise alphabet, multinomial sampling and configuration enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from zenosense.noise_model import (
    NoiseAlphabet,
    config_realization,
    enumerate_configurations,
    sample_realization,
)

from oracles import multinomial_pmf

UNIFORM5 = NoiseAlphabet(1.0, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)


class TestNoiseAlphabet:
    def test_values(self):
        alph = NoiseAlphabet(2.5, (0.0, 1.0, 4.0), (0.5, 0.25, 0.25))
        assert alph.values == (0.0, 2.5, 10.0)
        assert alph.size == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(unit_shift=0.0, multipliers=(0.0, 1.0), probabilities=(0.5, 0.5)),
            dict(unit_shift=1.0, multipliers=(1.0, 0.5), probabilities=(0.5, 0.5)),
            dict(unit_shift=1.0, multipliers=(0.0, 0.0), probabilities=(0.5, 0.5)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.0), probabilities=(0.7, 0.6)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.0), probabilities=(-0.1, 1.1)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.0), probabilities=(0.5,)),
            dict(unit_shift=1.0, multipliers=(0.0, math.nan, 2.0), probabilities=(0.2, 0.3, 0.5)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.0, math.inf), probabilities=(0.2, 0.3, 0.5)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.0, 2.0), probabilities=(math.nan, 0.5, 0.5)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.5), probabilities=(0.5, 0.5)),
            dict(unit_shift=1.0, multipliers=(0.0, 1.0, 2.0 + 1e-9), probabilities=(0.2, 0.3, 0.5)),
        ],
    )
    def test_invalid_alphabets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NoiseAlphabet(**kwargs)


class TestSampleRealization:
    def test_degenerate_distribution(self):
        alph = NoiseAlphabet(1.0, (0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 0.0, 0.0, 0.0))
        config, real = sample_realization(alph, 6, seed=0)
        assert config == (6, 0, 0, 0, 0)
        assert real.couplings == (0.0,) * 6

    def test_deterministic_under_seed(self):
        assert sample_realization(UNIFORM5, 6, 123) == sample_realization(UNIFORM5, 6, 123)

    def test_configuration_counts_the_couplings(self):
        config, real = sample_realization(UNIFORM5, 40, seed=5)
        assert config == tuple(real.couplings.count(v) for v in UNIFORM5.values)
        # draw order, not the ascending order of config_realization
        assert real.couplings != config_realization(config, UNIFORM5).couplings

    def test_law_of_large_numbers(self):
        n = 600_000
        counts = sample_realization(UNIFORM5, n, seed=99)[0]
        bound = 3.0 * math.sqrt(0.2 * 0.8 / n)
        for c in counts:
            assert abs(c / n - 0.2) < bound

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_realization(UNIFORM5, 0, seed=1)


class TestEnumeration:
    def test_reference_size(self):
        assert len(enumerate_configurations(5, 6)) == 210

    def test_single_value_alphabet(self):
        assert enumerate_configurations(1, 7) == [(7,)]

    def test_small_case_exact(self):
        assert enumerate_configurations(2, 2) == [(0, 2), (1, 1), (2, 0)]

    @pytest.mark.parametrize("d,n", [(d, n) for d in range(1, 7) for n in (0, 1, 5, 12)])
    def test_count_and_uniqueness(self, d, n):
        configs = enumerate_configurations(d, n)
        assert len(configs) == math.comb(d + n - 1, n)
        assert len(set(configs)) == len(configs)
        assert all(sum(c) == n for c in configs)

    def test_matches_recursive_oracle(self):
        # independent reference enumeration by plain recursion over counts
        def oracle(d, n):
            if d == 1:
                return [(n,)]
            out = []
            for v in range(n + 1):
                out.extend((v,) + rest for rest in oracle(d - 1, n - v))
            return out

        for d, n in ((2, 3), (3, 4), (5, 6)):
            assert enumerate_configurations(d, n) == oracle(d, n)

    @given(st.integers(1, 5), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_lexicographic_order(self, d, n):
        configs = enumerate_configurations(d, n)
        assert configs == sorted(configs)


class TestMultinomialPmf:
    def test_degenerate(self):
        alph = NoiseAlphabet(1.0, (0.0, 1.0), (1.0, 0.0))
        assert multinomial_pmf((4, 0), alph) == 1.0
        assert multinomial_pmf((3, 1), alph) == 0.0

    def test_two_category_fair_coin(self):
        # oracle: exhaustive outcome counting over the 2^2 sequences
        alph = NoiseAlphabet(1.0, (0.0, 1.0), (0.5, 0.5))
        assert multinomial_pmf((1, 1), alph) == pytest.approx(0.5)
        assert multinomial_pmf((2, 0), alph) == pytest.approx(0.25)

    def test_normalizes_over_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            raw = rng.dirichlet(np.ones(5))
            probs = tuple(raw / raw.sum())
            alph = NoiseAlphabet(1.0, (0.0, 1.0, 2.0, 3.0, 4.0), probs)
            total = sum(multinomial_pmf(c, alph) for c in enumerate_configurations(5, 6))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multinomial_pmf((1, 1), UNIFORM5)

    def test_sampling_consistency_chi_square(self):
        # 1e5 sampled count vectors against the pmf over all 210 cells
        n_samples, n_events = 100_000, 6
        rng = np.random.default_rng(7)
        values = np.asarray(UNIFORM5.values)
        draws = rng.choice(5, size=(n_samples, n_events), p=UNIFORM5.probabilities)
        observed: dict = {}
        for row in draws:
            key = tuple(np.bincount(row, minlength=5))
            observed[key] = observed.get(key, 0) + 1
        # the batched draws above must match the per-call sampler's model
        single, _ = sample_realization(UNIFORM5, n_events, 1)
        assert sum(single) == n_events
        stat = 0.0
        for config in enumerate_configurations(5, n_events):
            expected = multinomial_pmf(config, UNIFORM5) * n_samples
            got = observed.get(config, 0)
            stat += (got - expected) ** 2 / expected
        assert stat < chi2.ppf(0.999, 209)


class TestRealizationHelpers:
    def test_round_trip(self):
        real = config_realization((2, 0, 2, 2, 0), UNIFORM5)
        assert real.couplings == (0.0, 0.0, 2.0, 2.0, 3.0, 3.0)

    @pytest.mark.parametrize(
        "config, match",
        [
            ((2, 0, 2, 2), "sizes differ"),
            ((0, 0, 0, 0, 0), "zero events"),
            ((3, -1, 0, 0, 0), "non-negative"),
        ],
        ids=["wrong-size", "zero-events", "negative"],
    )
    def test_bad_configuration_rejected(self, config, match):
        with pytest.raises(ValueError, match=match):
            config_realization(config, UNIFORM5)
