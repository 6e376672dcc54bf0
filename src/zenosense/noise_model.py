"""Discrete noise alphabet, multinomial sampling and candidate enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zenosense.channel import ChannelRealization
from zenosense.seeds import as_rng

__all__ = [
    "NoiseAlphabet",
    "Configuration",
    "sample_realization",
    "enumerate_configurations",
    "multinomial_pmf",
    "config_to_probs",
    "config_realization",
    "configuration_of",
]


@dataclass(frozen=True)
class NoiseAlphabet:
    """The D admissible coupling strengths with their event probabilities.

    Values are stored as dimensionless multiples of a unit shift g
    (e.g. (0, g, 2g, 3g, 4g)), so a single calibrated g/sigma drives the
    whole channel.
    """

    unit_shift: float
    multipliers: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        g = float(self.unit_shift)
        mult = tuple(float(m) for m in self.multipliers)
        probs = tuple(float(p) for p in self.probabilities)
        if not (g > 0.0) or not math.isfinite(g):
            raise ValueError(f"unit shift must be positive, got {self.unit_shift!r}")
        if len(mult) < 1:
            raise ValueError("alphabet needs at least one value")
        if len(mult) != len(probs):
            raise ValueError("multipliers and probabilities must have equal length")
        if not all(math.isfinite(x) for x in mult + probs):
            raise ValueError("alphabet multipliers and event probabilities must be finite")
        if any(m < 0.0 for m in mult):
            raise ValueError("alphabet values must be non-negative")
        if any(b <= a for a, b in zip(mult, mult[1:])):
            raise ValueError("alphabet values must be strictly increasing")
        if any(p < 0.0 for p in probs):
            raise ValueError("event probabilities must be non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"event probabilities must sum to 1, got {sum(probs)!r}")
        object.__setattr__(self, "unit_shift", g)
        object.__setattr__(self, "multipliers", mult)
        object.__setattr__(self, "probabilities", probs)

    @property
    def size(self) -> int:
        return len(self.multipliers)

    @property
    def values(self) -> tuple[float, ...]:
        """Physical coupling shifts G_k = multiplier_k * unit_shift."""
        return tuple(m * self.unit_shift for m in self.multipliers)


@dataclass(frozen=True)
class Configuration:
    """Multiset of event multiplicities n_1..n_D over the alphabet."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = tuple(int(n) for n in self.counts)
        if len(cs) < 1:
            raise ValueError("configuration needs at least one count")
        if any(n < 0 for n in cs) or any(n != c for n, c in zip(cs, self.counts)):
            raise ValueError("counts must be non-negative integers")
        object.__setattr__(self, "counts", cs)

    @property
    def total(self) -> int:
        return sum(self.counts)


def sample_realization(
    alphabet: NoiseAlphabet, n_events: int, seed: int | np.random.Generator
) -> ChannelRealization:
    """Draw N i.i.d. couplings from the alphabet; counts are multinomial."""
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    rng = as_rng(seed)
    values = np.asarray(alphabet.values)
    idx = rng.choice(alphabet.size, size=int(n_events), p=alphabet.probabilities)
    return ChannelRealization(tuple(values[idx]))


def enumerate_configurations(n_values: int, n_events: int) -> list[Configuration]:
    """All count vectors with sum n_events, lexicographically ascending.

    The list index is the canonical candidate label used by the estimators;
    its length is C(D + N - 1, N).
    """
    if n_values < 1:
        raise ValueError(f"alphabet size must be >= 1, got {n_values}")
    if n_events < 0:
        raise ValueError(f"event count must be >= 0, got {n_events}")
    out: list[Configuration] = []
    counts = [0] * n_values

    def fill(k: int, remaining: int) -> None:
        if k == n_values - 1:
            counts[k] = remaining
            out.append(Configuration(tuple(counts)))
            return
        for v in range(remaining + 1):
            counts[k] = v
            fill(k + 1, remaining - v)

    fill(0, n_events)
    return out


def multinomial_pmf(config: Configuration, alphabet: NoiseAlphabet) -> float:
    """Probability N!/(prod n_k!) * prod p_k^n_k of the count vector."""
    if len(config.counts) != alphabet.size:
        raise ValueError(
            f"configuration has {len(config.counts)} entries, alphabet has {alphabet.size}"
        )
    n = config.total
    coef = math.factorial(n)
    for nk in config.counts:
        coef //= math.factorial(nk)
    prob = float(coef)
    for nk, pk in zip(config.counts, alphabet.probabilities):
        prob *= pk**nk
    return prob


def config_to_probs(config: Configuration) -> tuple[float, ...]:
    """Per-trial event frequencies n_k / N."""
    n = config.total
    if n == 0:
        raise ValueError("cannot normalize a configuration with zero events")
    return tuple(nk / n for nk in config.counts)


def config_realization(config: Configuration, alphabet: NoiseAlphabet) -> ChannelRealization:
    """Expand a configuration into a realization (ascending value order)."""
    if len(config.counts) != alphabet.size:
        raise ValueError("configuration and alphabet sizes differ")
    if config.total < 1:
        raise ValueError("cannot realize a configuration with zero events")
    couplings: list[float] = []
    for nk, value in zip(config.counts, alphabet.values):
        couplings.extend([value] * nk)
    return ChannelRealization(tuple(couplings))


def configuration_of(realization: ChannelRealization, alphabet: NoiseAlphabet) -> Configuration:
    """Count which alphabet value each coupling equals."""
    values = alphabet.values
    counts = [0] * alphabet.size
    for g in realization.couplings:
        for k, v in enumerate(values):
            if g == v or abs(g - v) <= 1e-12 * max(abs(v), 1.0):
                counts[k] += 1
                break
        else:
            raise ValueError(f"coupling {g!r} is not an alphabet value")
    return Configuration(tuple(counts))
