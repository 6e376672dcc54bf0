"""Flat text experiment configuration: one `key = value` per line.

Grammar: blank lines and `#` comments are ignored; values are scalars or
comma-separated lists; `none` clears an optional key. Unknown keys,
duplicate keys and malformed values raise ``ConfigError`` naming the source
and line. Serialization is canonical, so parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from zenosense.noise_model import Configuration, NoiseAlphabet

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config", "load_config"]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    theta_rad: float = math.pi / 4.0
    sigma_um: float = 150.0
    # unit shift is either given explicitly or calibrated so the reference
    # noise set reaches calibration_target protected survival
    unit_shift_um: float | None = None
    calibration_target: float = 0.58
    alphabet_multipliers: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0)
    event_probabilities: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    n_events: int = 6
    n_trials: int = 10
    photons_per_trial: int = 1_000_000
    pixel_pitch_um: float = 13.0
    pixel_count: int = 1024
    detector_offset_um: float = -6656.0
    master_seed: int = 20220914
    estimator: str = "moments"
    output_dir: str = "out"
    forced_config: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta_rad <= math.pi / 2.0):
            raise ConfigError(f"theta_rad must lie in [0, pi/2], got {self.theta_rad!r}")
        if not (0.0 < self.sigma_um < math.inf):
            raise ConfigError(f"sigma_um must be positive and finite, got {self.sigma_um!r}")
        if self.unit_shift_um is not None and not (0.0 < self.unit_shift_um < math.inf):
            raise ConfigError(f"unit_shift_um must be positive and finite, got {self.unit_shift_um!r}")
        if not (0.0 < self.calibration_target < 1.0):
            raise ConfigError(
                f"calibration_target must lie in (0, 1), got {self.calibration_target!r}"
            )
        if self.n_events < 1:
            raise ConfigError(f"n_events must be >= 1, got {self.n_events}")
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.photons_per_trial < 1:
            raise ConfigError(f"photons_per_trial must be >= 1, got {self.photons_per_trial}")
        if not (0.0 < self.pixel_pitch_um < math.inf):
            raise ConfigError(f"pixel_pitch_um must be positive and finite, got {self.pixel_pitch_um!r}")
        if not math.isfinite(self.detector_offset_um):
            raise ConfigError(f"detector_offset_um must be finite, got {self.detector_offset_um!r}")
        if self.pixel_count < 2:
            raise ConfigError(f"pixel_count must be >= 2, got {self.pixel_count}")
        if self.estimator not in ("l2", "moments"):
            raise ConfigError(f"estimator must be 'l2' or 'moments', got {self.estimator!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        # delegate alphabet checks (lengths, monotonicity, distribution)
        try:
            self.alphabet(unit_shift=1.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.forced_config is not None:
            cfg = Configuration(self.forced_config)
            if len(cfg.counts) != len(self.alphabet_multipliers):
                raise ConfigError("forced_config length must match the alphabet size")
            if cfg.total != self.n_events:
                raise ConfigError(
                    f"forced_config sums to {cfg.total}, expected n_events = {self.n_events}"
                )

    def alphabet(self, unit_shift: float | None = None) -> NoiseAlphabet:
        """Materialize the noise alphabet at the given (or configured) g."""
        g = unit_shift if unit_shift is not None else self.unit_shift_um
        if g is None:
            raise ConfigError(
                "unit_shift_um is not set; calibrate first or set it explicitly"
            )
        return NoiseAlphabet(g, self.alphabet_multipliers, self.event_probabilities)

    def with_values(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


_FLOAT_KEYS = {
    "theta_rad",
    "sigma_um",
    "calibration_target",
    "pixel_pitch_um",
    "detector_offset_um",
}
_INT_KEYS = {"n_events", "n_trials", "photons_per_trial", "pixel_count", "master_seed"}
_STR_KEYS = {"estimator", "output_dir"}
_FLOAT_LIST_KEYS = {"alphabet_multipliers", "event_probabilities"}
_OPTIONAL_FLOAT_KEYS = {"unit_shift_um"}
_OPTIONAL_INT_LIST_KEYS = {"forced_config"}

_ALL_KEYS = [f.name for f in fields(ExperimentConfig)]


def _parse_value(key: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if key in _OPTIONAL_FLOAT_KEYS:
            return None if raw.lower() == "none" else float(raw)
        if key in _OPTIONAL_INT_LIST_KEYS:
            if raw.lower() == "none":
                return None
            return tuple(int(tok.strip()) for tok in raw.split(","))
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _STR_KEYS:
            return raw
        if key in _FLOAT_LIST_KEYS:
            return tuple(float(tok.strip()) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    raise ConfigError(f"{where}: unknown key {key!r}")


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, where)
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    lines = ["# zenosense experiment configuration"]
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read(), source=str(path))
