"""Config grammar: parsing, validation diagnostics, canonical round-trip."""

import math
from dataclasses import fields

import numpy as np
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

    @pytest.mark.parametrize(
        "line",
        [
            "sigma_um = soft",  # float
            "n_events = 2.5",  # int
            "alphabet_multipliers = 0, one, 2",  # tuple[float, ...]
            "unit_shift_um = nil",  # float | None
            "forced_config = 2, 0, x",  # tuple[int, ...] | None
            "master_seed = none",  # none clears only optional keys
        ],
        ids=["float", "int", "float-tuple", "optional-float", "optional-int-tuple", "none-for-int"],
    )
    def test_bad_value_names_line(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"cfg\.txt:2: bad value for '{key}'"):
            parse_config(f"# header\n{line}\n", source="cfg.txt")

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
            dict(alphabet_multipliers=(0.0, 1.0, 1.5, 3.0, 4.0)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_non_integer_multiplier_names_key(self):
        with pytest.raises(ConfigError, match=r"cfg\.txt: alphabet_multipliers.*integers"):
            parse_config("alphabet_multipliers = 0, 1, 1.5, 3, 4\n", source="cfg.txt")
        # the float form written by serialize_config still parses
        assert parse_config("alphabet_multipliers = 0.0, 1.0, 2.0, 3.0, 4.0\n") == ExperimentConfig()

    def test_negative_forced_config_names_key(self):
        with pytest.raises(ConfigError, match=r"cfg\.txt:1: forced_config: .*non-negative"):
            parse_config("forced_config = -1, 7, 0, 0, 0\n", source="cfg.txt")

    @pytest.mark.parametrize(
        "forced, match",
        [
            ((-1, 7, 0, 0, 0), "non-negative"),
            ((1.5, 4.5, 0, 0, 0), "whole numbers"),
            ((math.nan, 6, 0, 0, 0), "whole numbers"),
            ((1e20, 0, 0, 0, 0), "whole numbers"),
            ((2, 2, 2), "length must match"),
            ((1, 1, 1, 1, 1), "sums to 5, expected n_events = 6"),
        ],
        ids=["negative", "non-integer", "nan", "huge", "wrong-length", "wrong-total"],
    )
    def test_forced_config_rejected(self, forced, match):
        with pytest.raises(ConfigError, match=match) as info:
            ExperimentConfig(forced_config=forced)
        assert info.value.key == "forced_config"

    @pytest.mark.parametrize(
        "value, match",
        [
            ("-1, 7, 0, 0, 0", "forced_config: counts must be non-negative"),
            ("1.5, 4.5, 0, 0, 0", "bad value for 'forced_config'"),
            ("2, 2, 2", "forced_config length must match"),
            ("1, 1, 1, 1, 1", "forced_config sums to 5"),
        ],
        ids=["negative", "non-integer", "wrong-length", "wrong-total"],
    )
    def test_forced_config_rejection_names_its_line(self, value, match):
        text = f"# header\nforced_config = {value}\nn_events = 6\n"
        with pytest.raises(ConfigError, match=rf"^cfg\.txt:2: {match}"):
            parse_config(text, source="cfg.txt")

    def test_forced_config_accepted(self):
        config = ExperimentConfig(forced_config=(2, 0, 2, 2, 0))
        assert config.forced_config == (2, 0, 2, 2, 0)
        # whole floats and numpy integers are stored as Python ints
        for forced in ((2.0, 0.0, 2.0, 2.0, 0.0), tuple(np.array([2, 0, 2, 2, 0]))):
            stored = ExperimentConfig(forced_config=forced).forced_config
            assert stored == (2, 0, 2, 2, 0) and all(type(n) is int for n in stored)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        # every field away from its default
        config = ExperimentConfig(
            theta_rad=0.3,
            sigma_um=120.5,
            unit_shift_um=114.051797,
            calibration_target=0.6,
            alphabet_multipliers=(0.0, 1.0, 3.0),
            event_probabilities=(0.5, 0.25, 0.25),
            n_events=4,
            n_trials=3,
            photons_per_trial=5000,
            pixel_pitch_um=6.5,
            pixel_count=2048,
            detector_offset_um=-1000.25,
            master_seed=99,
            estimator="l2",
            output_dir="runs/a b",
            forced_config=(2, 0, 2),
        )
        defaults = ExperimentConfig()
        assert all(getattr(config, f.name) != getattr(defaults, f.name) for f in fields(ExperimentConfig))
        text = serialize_config(config)
        again = parse_config(text)
        assert again == config
        assert serialize_config(again) == text

    @pytest.mark.parametrize("value", ["run#1", "a\nb", "a\x85b", " a", "a "])
    def test_string_that_would_not_round_trip_rejected(self, value):
        # '#' starts a comment, a line boundary splits the line, and the
        # parser strips the value
        with pytest.raises(ConfigError, match="output_dir"):
            ExperimentConfig(output_dir=value)
