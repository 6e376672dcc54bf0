"""Discrete noise alphabet, multinomial sampling and candidate enumeration.

A noise configuration, the multiset of event multiplicities n_1..n_D over
the alphabet, is its count tuple: a tuple of D non-negative Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zenosense.channel import ChannelRealization
from zenosense.seeds import as_rng

__all__ = [
    "NoiseAlphabet",
    "sample_realization",
    "enumerate_configurations",
    "config_realization",
]


@dataclass(frozen=True)
class NoiseAlphabet:
    """The D admissible coupling strengths with their event probabilities.

    Values are stored as dimensionless multiples of a unit shift g
    (e.g. (0, g, 2g, 3g, 4g)), so a single calibrated g/sigma drives the
    whole channel. The multipliers must be integers (stored as floats), so
    every output state lives on the lattice of shifts k * g.
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
        if not all(m.is_integer() for m in mult):
            raise ValueError(f"alphabet multipliers must be integers, got {mult!r}")
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


def sample_realization(
    alphabet: NoiseAlphabet, n_events: int, seed: int | np.random.Generator
) -> tuple[tuple[int, ...], ChannelRealization]:
    """Draw N i.i.d. couplings from the alphabet; counts are multinomial.

    Returns the drawn configuration and the couplings in draw order.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    rng = as_rng(seed)
    values = np.asarray(alphabet.values)
    idx = rng.choice(alphabet.size, size=int(n_events), p=alphabet.probabilities)
    config = tuple(np.bincount(idx, minlength=alphabet.size).tolist())
    return config, ChannelRealization(tuple(values[idx]))


def enumerate_configurations(n_values: int, n_events: int) -> list[tuple[int, ...]]:
    """All count vectors with sum n_events, lexicographically ascending.

    The list index is the canonical candidate label used by the estimators;
    its length is C(D + N - 1, N).
    """
    if n_values < 1:
        raise ValueError(f"alphabet size must be >= 1, got {n_values}")
    if n_events < 0:
        raise ValueError(f"event count must be >= 0, got {n_events}")
    out: list[tuple[int, ...]] = []
    counts = [0] * n_values

    def fill(k: int, remaining: int) -> None:
        if k == n_values - 1:
            counts[k] = remaining
            out.append(tuple(counts))
            return
        for v in range(remaining + 1):
            counts[k] = v
            fill(k + 1, remaining - v)

    fill(0, n_events)
    return out


def config_realization(config: tuple[int, ...], alphabet: NoiseAlphabet) -> ChannelRealization:
    """Expand a configuration into a realization (ascending value order)."""
    if len(config) != alphabet.size:
        raise ValueError("configuration and alphabet sizes differ")
    if min(config) < 0:
        raise ValueError(f"configuration counts must be non-negative, got {config!r}")
    if sum(config) < 1:
        raise ValueError("cannot realize a configuration with zero events")
    couplings: list[float] = []
    for nk, value in zip(config, alphabet.values):
        couplings.extend([value] * nk)
    return ChannelRealization(tuple(couplings))

