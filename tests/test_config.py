"""Config grammar: parsing, validation diagnostics, canonical round-trip."""

import math

import pytest

from zenosense.config import ConfigError, ExperimentConfig, parse_config, serialize_config


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        config = parse_config("")
        assert config == ExperimentConfig()
        assert config.theta_rad == pytest.approx(math.pi / 4)
        assert config.pixel_count == 1024

    def test_alphabet_materialization_requires_shift(self):
        config = ExperimentConfig()
        with pytest.raises(ConfigError, match="unit_shift_um"):
            config.alphabet()
        alph = config.alphabet(unit_shift=100.0)
        assert alph.values == (0.0, 100.0, 200.0, 300.0, 400.0)


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = "# comment\n\nn_events = 4  # trailing comment\nsigma_um = 10.0\n"
        config = parse_config(text)
        assert config.n_events == 4
        assert config.sigma_um == 10.0

    def test_lists_and_none(self):
        text = (
            "alphabet_multipliers = 0, 1, 2\n"
            "event_probabilities = 0.5, 0.25, 0.25\n"
            "unit_shift_um = none\n"
            "forced_config = none\n"
        )
        config = parse_config(text)
        assert config.alphabet_multipliers == (0.0, 1.0, 2.0)
        assert config.unit_shift_um is None

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'banana'"):
            parse_config("n_events = 3\nbanana = 1\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match=r"cfg\.txt:1"):
            parse_config("sigma_um = soft\n", source="cfg.txt")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n_events = 3\nn_events = 4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta_rad=3.0),
            dict(sigma_um=0.0),
            dict(n_events=0),
            dict(photons_per_trial=0),
            dict(estimator="magic"),
            dict(event_probabilities=(0.5, 0.5, 0.5, 0.5, 0.5)),
            dict(forced_config=(1, 1, 1, 1, 1)),  # sums to 5, n_events 6
            dict(forced_config=(2, 2, 2)),  # wrong length
            dict(calibration_target=1.5),
            dict(detector_offset_um=math.nan),
            dict(detector_offset_um=math.inf),
            dict(alphabet_multipliers=(0.0, math.nan, 2.0, 3.0, 4.0)),
            dict(alphabet_multipliers=(0.0, 1.0, 2.0, 3.0, math.inf)),
            dict(event_probabilities=(math.nan, 0.2, 0.2, 0.2, 0.2)),
            dict(sigma_um=math.inf),
            dict(pixel_pitch_um=math.inf),
            dict(unit_shift_um=math.inf),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_forced_config_accepted(self):
        config = ExperimentConfig(forced_config=(2, 0, 2, 2, 0))
        assert config.forced_config == (2, 0, 2, 2, 0)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        config = ExperimentConfig(
            unit_shift_um=114.051797,
            event_probabilities=(0.1, 0.3, 0.3, 0.2, 0.1),
            n_trials=3,
            forced_config=(2, 0, 2, 2, 0),
            master_seed=99,
        )
        text = serialize_config(config)
        again = parse_config(text)
        assert again == config
        assert serialize_config(again) == text
