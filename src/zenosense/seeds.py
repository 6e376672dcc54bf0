"""Deterministic seed derivation for reproducible Monte Carlo runs.

Every random stream in the package is derived from a single master seed
together with a tuple of integer indices (trial number, sub-stream id, ...)
using a splitmix-style 64-bit mixer. The rule is fixed so that results are
bit-reproducible and individual trials can be regenerated in isolation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "make_rng", "as_rng"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """Finalizer of the splitmix64 generator (Steele et al.)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Derive a child seed from ``master`` and an index path.

    Each index advances the state by a multiple of the 64-bit golden gamma
    before mixing, so (master, 0) and (master, 1) are statistically
    independent, as are (master, i, j) for different (i, j).
    """
    z = master & _MASK64
    for ix in indices:
        z = _mix64((z + _GOLDEN * (int(ix) + 1)) & _MASK64)
    return z


def make_rng(master: int, *indices: int) -> np.random.Generator:
    """Independent PCG64 generator for the given index path."""
    return np.random.default_rng(derive_seed(master, *indices))


def as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Accept either an integer seed or an existing generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))
