"""Output states, photon detection and pixel moments.

Models the 1-D marginal of the camera: the arrival density of surviving
photons is the squared modulus of the channel's output wavepacket, and a
detector records how many photons land in each half-open pixel of fixed
pitch. Pixel masses are exact (normal CDFs at the pixel edges), and a
trial's counts are drawn by inverting the exact CDF at those edges.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from zenosense.noise_model import Configuration
from zenosense.seeds import as_rng
from zenosense.wavepacket import (
    GaussianSum,
    apply_noise_kernel,
    cumulative_mass,
    make_gaussian,
    moment,
)

__all__ = [
    "SpatialHistogram",
    "HistogramFormatError",
    "theoretical_state",
    "sample_histogram",
    "empirical_moment",
    "pixel_masses",
    "write_histogram_csv",
    "read_histogram_csv",
]

# Fraction of photons allowed to fall outside the pixel span before binning
# is treated as a geometry error.
MAX_OVERFLOW_FRACTION = 0.01


@dataclass(frozen=True)
class SpatialHistogram:
    """Pixel-binned photon counts.

    Pixel i covers the half-open interval
    [offset + i * pitch, offset + (i+1) * pitch). ``overflow`` counts
    photons that fell outside the pixel span.
    """

    pitch: float
    offset: float
    counts: np.ndarray
    overflow: int = 0

    def __post_init__(self) -> None:
        if not (self.pitch > 0.0):
            raise ValueError(f"pixel pitch must be positive, got {self.pitch!r}")
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if counts.ndim != 1 or counts.size < 2:
            raise ValueError("histogram needs at least 2 pixels")
        if np.any(counts < 0):
            raise ValueError("pixel counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "pitch", float(self.pitch))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "overflow", int(self.overflow))

    @property
    def n_pixels(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def centers(self) -> np.ndarray:
        return self.offset + (np.arange(self.n_pixels) + 0.5) * self.pitch

    def edges(self) -> np.ndarray:
        return self.offset + np.arange(self.n_pixels + 1) * self.pitch


def theoretical_state(
    config: Configuration, theta: float, sigma: float, values: Sequence[float]
) -> GaussianSum:
    """Non-normalized output wavepacket for a noise configuration.

    ``values`` are the alphabet's coupling shifts, one per count. Applies one
    kernel per event; the kernels commute, so the result depends only on the
    multiset of couplings, and its squared norm is the protected survival
    probability of that configuration.
    """
    if len(config.counts) != len(values):
        raise ValueError("configuration and alphabet sizes differ")
    state = make_gaussian(sigma)
    for nk, value in zip(config.counts, values):
        for _ in range(nk):
            state = apply_noise_kernel(state, theta, value)
    return state


def sample_histogram(
    state: GaussianSum,
    photons: int,
    pitch: float,
    n_pixels: int,
    offset: float,
    seed: int | np.random.Generator,
) -> SpatialHistogram:
    """Detect ``photons`` arrivals of the state's normalized density.

    Each photon's uniform draw is mapped through the exact CDF at the pixel
    edges (the mass left of ``offset``, then the cumulative pixel masses),
    which is inverse-CDF sampling followed by binning into half-open pixels
    without ever forming a position. Counts are conserved: photons outside
    the span are tallied in ``overflow``, and more than
    ``MAX_OVERFLOW_FRACTION`` of them is an error (the geometry does not
    cover the beam). Deterministic under a fixed seed.
    """
    if photons < 1:
        raise ValueError(f"sample count must be >= 1, got {photons}")
    left = cumulative_mass(state, offset)
    cdf = left + np.concatenate(([0.0], np.cumsum(pixel_masses(state, pitch, n_pixels, offset))))
    u = as_rng(seed).random(int(photons))
    # slot 0 is left overflow, slot i + 1 is pixel i, slot n_pixels + 1 right overflow
    slots = np.bincount(np.searchsorted(cdf, u, side="right"), minlength=n_pixels + 2)
    overflow = int(slots[0] + slots[-1])
    if overflow > MAX_OVERFLOW_FRACTION * photons:
        raise ValueError(
            f"{overflow} of {photons} photons "
            f"({overflow / photons:.2%}) fall outside the pixel span"
        )
    return SpatialHistogram(pitch, offset, slots[1:-1], overflow=overflow)


def empirical_moment(histogram: SpatialHistogram, order: int) -> float:
    """Moment of the normalized histogram, pixel centers as x values."""
    if order not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {order!r}")
    total = histogram.total
    if total <= 0:
        raise ValueError("cannot take moments of an empty histogram")
    centers = histogram.centers()
    weights = histogram.counts / total
    return float(np.sum(weights * centers**order))


def pixel_masses(
    state: GaussianSum,
    pitch: float,
    n_pixels: int,
    offset: float,
) -> np.ndarray:
    """Exact per-pixel probability masses of the normalized density.

    This is the pixel-averaged theoretical density (times the pitch): what an
    ideal detector with infinite statistics would record. Evaluation is
    windowed to pixels within 9 sigma of the outermost packet centers; the
    remainder carries < 1e-18 of the mass and is returned as zero.
    """
    if n_pixels < 2:
        raise ValueError(f"need at least 2 pixels, got {n_pixels}")
    if not (pitch > 0.0):
        raise ValueError(f"pixel pitch must be positive, got {pitch!r}")
    edges = offset + np.arange(n_pixels + 1) * pitch
    lo = state.centers.min() - 9.0 * state.sigma
    hi = state.centers.max() + 9.0 * state.sigma
    i0 = int(np.clip(np.searchsorted(edges, lo) - 1, 0, n_pixels))
    i1 = int(np.clip(np.searchsorted(edges, hi) + 1, 0, n_pixels))
    masses = np.zeros(n_pixels)
    if i1 > i0:
        cum = np.asarray(cumulative_mass(state, edges[i0 : i1 + 1]))
        masses[i0:i1] = np.maximum(np.diff(cum), 0.0)
    return masses


def pixel_moments(
    state: GaussianSum, pitch: float, n_pixels: int, offset: float
) -> tuple[float, float]:
    """(mean, variance) a pixelated detector would report at infinite statistics.

    Matches the functional applied to measured histograms (pixel centers as
    representative positions), so theoretical and empirical moments share
    the same pitch-scale discretization and it cancels in comparisons.
    """
    masses = pixel_masses(state, pitch, n_pixels, offset)
    total = masses.sum()
    if not (total > 0.0):
        raise ValueError("state carries no mass on the pixel span")
    centers = offset + (np.arange(n_pixels) + 0.5) * pitch
    w = masses / total
    m1 = float(np.sum(w * centers))
    m2 = float(np.sum(w * centers**2))
    return m1, m2 - m1 * m1


def continuous_moments(state: GaussianSum) -> tuple[float, float]:
    """(mean, variance) of the un-pixelated density, closed form."""
    m1 = moment(state, 1)
    return m1, moment(state, 2) - m1 * m1


# --- CSV serialization -------------------------------------------------------

_CSV_HEADER = ["pixel_index", "center_x_um", "count"]


class HistogramFormatError(ValueError):
    """Raised when a histogram CSV file is malformed."""


def write_histogram_csv(histogram: SpatialHistogram, path) -> None:
    """Write `pixel_index,center_x_um,count` rows, one per pixel."""
    centers = histogram.centers()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i, (c, n) in enumerate(zip(centers, histogram.counts)):
            writer.writerow([i, repr(float(c)), int(n)])


def read_histogram_csv(path) -> SpatialHistogram:
    """Read a histogram CSV; errors name the offending file and row."""
    rows: list[tuple[int, float, int]] = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if row != _CSV_HEADER:
                    raise HistogramFormatError(
                        f"{path}:1: expected header {','.join(_CSV_HEADER)!r}"
                    )
                continue
            if not row:
                continue
            if len(row) != 3:
                raise HistogramFormatError(
                    f"{path}:{lineno}: expected 3 fields, got {len(row)}"
                )
            try:
                idx, center, count = int(row[0]), float(row[1]), int(row[2])
            except ValueError as exc:
                raise HistogramFormatError(f"{path}:{lineno}: {exc}") from exc
            if idx != len(rows):
                raise HistogramFormatError(
                    f"{path}:{lineno}: pixel index {idx} out of order"
                )
            if count < 0:
                raise HistogramFormatError(f"{path}:{lineno}: negative count {count}")
            rows.append((idx, center, count))
    if len(rows) < 2:
        raise HistogramFormatError(f"{path}: histogram needs at least 2 pixels")
    centers = np.array([r[1] for r in rows])
    pitches = np.diff(centers)
    pitch = float(pitches[0])
    if pitch <= 0.0 or np.any(np.abs(pitches - pitch) > 1e-9 * abs(pitch)):
        raise HistogramFormatError(f"{path}: pixel centers are not uniformly spaced")
    offset = float(centers[0] - 0.5 * pitch)
    counts = np.array([r[2] for r in rows], dtype=np.int64)
    return SpatialHistogram(pitch, offset, counts)
