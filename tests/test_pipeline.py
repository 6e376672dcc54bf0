"""Pipeline orchestration: the calibration reference set."""

import pytest

from zenosense.config import ConfigError, ExperimentConfig
from zenosense.pipeline import reference_shift_multiples


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
