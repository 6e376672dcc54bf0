"""Photon detection and histogram files.

Models the 1-D marginal of the camera: the arrival density of surviving
photons is the squared modulus of the channel's output wavepacket, and a
detector records how many photons land in each half-open pixel of fixed
pitch. A trial's counts are drawn by inverting the exact CDF at the pixel
edges, one bucket lookup per photon; the CDF comes from slot masses the
caller supplies. In the pipeline they are a row of
``wavepacket.lattice_weights`` times the head of the read-only
``wavepacket.normal_masses``, cached on (sigma, g, normal count,
geometry); the detector's edges are built only there. The photons'
uniforms are drawn and counted ``_CHUNK`` at a time through two buffers,
of uniforms and of their bucket ids, that each thread allocates once and
keeps, so a trial's working memory does not grow with its photon count
and a warm count allocates under 0.5 MB for 1024 pixels.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass

import numpy as np

from zenosense.seeds import as_rng

__all__ = [
    "SpatialHistogram",
    "HistogramFormatError",
    "sample_histogram",
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
        if not (0.0 < self.pitch < math.inf) or not math.isfinite(self.offset):
            raise ValueError(f"pixel pitch must be positive and finite and the offset finite, got {self.pitch!r}, {self.offset!r}")
        counts = _whole_numbers(self.counts, "pixel counts")
        if counts.ndim != 1 or counts.size < 2:
            raise ValueError("histogram needs at least 2 pixels")
        if np.any(counts < 0):
            raise ValueError("pixel counts must be non-negative")
        overflow = int(_whole_numbers(self.overflow, "overflow count"))
        if overflow < 0:
            raise ValueError(f"overflow count must be non-negative, got {self.overflow!r}")
        counts.setflags(write=False)
        object.__setattr__(self, "pitch", float(self.pitch))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "overflow", overflow)

    @property
    def n_pixels(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def centers(self) -> np.ndarray:
        return self.offset + (np.arange(self.n_pixels) + 0.5) * self.pitch


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array, rejecting any value that is not a whole number in int64's range.

    Integer arrays pass on their dtype alone; anything else is compared
    with its truncation, so that 1.5 is an error instead of a 1.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        real = arr.astype(np.float64)
        if not np.all((np.trunc(real) == real) & (np.abs(real) < 2.0**63)):
            raise ValueError(f"{what}: expected whole numbers, got {values!r}")
    return arr.astype(np.int64)


def sample_histogram(
    slot_masses: np.ndarray,
    photons: int,
    pitch: float,
    offset: float,
    seed: int | np.random.Generator,
) -> SpatialHistogram:
    """Detect ``photons`` arrivals distributed as ``slot_masses``.

    The slots are the mass left of ``offset``, one mass per pixel and the
    mass right of the pixel span, so there are ``len(slot_masses) - 2``
    pixels. The masses need not be normalized: the pipeline passes the
    truth's row of ``wavepacket.lattice_weights`` times the head of the
    read-only ``wavepacket.normal_masses`` (the normals' masses in these
    slots, built once per geometry and cached), which sums to the state's
    squared norm.
    Each photon's uniform draw is mapped through the CDF at the pixel edges
    (cumulative slot masses over their total), which is inverse-CDF
    sampling followed by binning into half-open pixels without ever forming
    a position. Counts are conserved: photons outside the span are tallied
    in ``overflow``, and more than ``MAX_OVERFLOW_FRACTION`` of them is an
    error (the geometry does not cover the beam). Deterministic under a fixed seed.

    The per-photon work is a bucket lookup. Uniforms and CDF are scaled by
    the power of two 2**14, which is exact, so every comparison of a uniform
    with an edge keeps its outcome; a photon whose bucket [b, b + 1) holds no
    scaled edge strictly inside lies at or above the same edges as b itself,
    so its slot is read off the bucket. Only photons in the at most
    n_pixels + 1 buckets that hold an edge, at most (n_pixels + 1) / 2**14 of
    the probability mass, go through a binary search over the edges. The
    counts are those of one binary search per photon, bit for bit.

    The uniforms are drawn ``_CHUNK`` = 2**16 at a time and counted chunk
    by chunk, so memory does not grow with ``photons``. The 512 KB buffer
    of uniforms and the 512 KB one of their bucket ids are allocated once
    per thread and kept, so that a trial does not fault them in again;
    each call holds the bucket table besides. The chunks are consecutive
    draws of one stream, so the counts, and the state the generator is left
    in, are those of a single ``rng.random(photons)`` for any
    ``numpy.random.Generator``.
    """
    if photons < 1:
        raise ValueError(f"sample count must be >= 1, got {photons}")
    masses = np.asarray(slot_masses, dtype=np.float64)
    if masses.ndim != 1 or masses.size < 4:
        raise ValueError("slot masses must be 1-d: left overflow, at least 2 pixels, right overflow")
    if not np.all(np.isfinite(masses)) or np.any(masses < 0.0):
        raise ValueError("slot masses must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = float(masses.sum())
    if not (0.0 < total < math.inf):
        raise ValueError(f"slot masses must have a positive finite sum, got {total!r}")
    cdf = np.cumsum(masses[:-1]) / total
    slots = _count_slots(cdf, _uniform_chunks(as_rng(seed), int(photons)))
    overflow = int(slots[0] + slots[-1])
    if overflow > MAX_OVERFLOW_FRACTION * photons:
        raise ValueError(
            f"{overflow} of {photons} photons "
            f"({overflow / photons:.2%}) fall outside the pixel span"
        )
    return SpatialHistogram(pitch, offset, slots[1:-1], overflow=overflow)


# Buckets per unit of u. A power of two, so scaling u and the CDF by it is
# exact. At most n_pixels + 1 buckets hold an edge, so the photons that reach
# the binary search carry at most (n_pixels + 1) / 2**14 of the mass: 6.3%
# for the default 1024 pixels (0.9% on the reference set, whose tail edges
# share buckets).
_BUCKETS = 2**14

# Uniforms drawn and counted per step: 512 KB of uniforms and 512 KB of
# bucket ids, small enough to stay cached between the passes over them
# (a 1e6-photon count took 13 ms, against 22 ms with the whole 8 MB stream
# in one array, on a 2-vCPU VM).
_CHUNK = 2**16

# Each thread's two _CHUNK buffers. Allocated per call, they went back to
# the system after every call and were faulted in again on the next: 224
# minor page faults per warm 1e6-photon trial on a 2-vCPU VM, none held.
_buffers = threading.local()


def _held_buffer(name: str, dtype) -> np.ndarray:
    """This thread's ``_CHUNK``-element buffer ``name``, allocated on its first use."""
    buf = getattr(_buffers, name, None)
    if buf is None:
        buf = np.empty(_CHUNK, dtype=dtype)
        setattr(_buffers, name, buf)
    return buf


def _uniform_chunks(rng: np.random.Generator, n: int):
    """``rng.random(n)`` as consecutive views of this thread's held buffer of ``_CHUNK`` doubles.

    Each view is overwritten by the next draw, or by the next call in the
    same thread, and the generator ends in the state ``rng.random(n)``
    leaves it in.
    """
    buf = _held_buffer("uniforms", np.float64)
    for start in range(0, n, _CHUNK):
        u = buf[: min(_CHUNK, n - start)]
        rng.random(out=u)
        yield u


def _count_slots(cdf: np.ndarray, chunks) -> np.ndarray:
    """Photons per slot ``searchsorted(cdf, u, side="right")`` over every uniform in ``chunks``.

    ``chunks`` yields 1-d float64 arrays of uniforms, each scaled in place.
    Their bucket ids go into this thread's held buffer, or into a larger
    one allocated for the call when a chunk is longer than ``_CHUNK``.
    Slot 0 is left overflow, slot i + 1 is pixel i, slot n_pixels + 1 right
    overflow. A bucket [b, b + 1) of the scaled uniforms with no scaled edge
    strictly inside maps whole to the slot that counts the edges <= b, which
    are the edges whose ceiling is <= b. Only the photons of the buckets that
    do hold an edge ("mixed" buckets) are placed by binary search.
    """
    edges = cdf * _BUCKETS
    floors = np.floor(edges)
    mixed = np.zeros(_BUCKETS, dtype=bool)
    mixed[floors[(floors != edges) & (floors >= 0) & (floors < _BUCKETS)].astype(np.intp)] = True
    bounds = np.clip(np.ceil(edges), 0, _BUCKETS).astype(np.intp)
    per_bucket = np.zeros(_BUCKETS, dtype=np.int64)
    slots = np.zeros(cdf.size + 1, dtype=np.int64)
    buckets = _held_buffer("bucket_ids", np.intp)
    for u in chunks:
        u *= _BUCKETS
        if buckets.size < u.size:
            buckets = np.empty(u.size, dtype=np.intp)
        ids = buckets[: u.size]
        np.copyto(ids, u, casting="unsafe")
        per_bucket += np.bincount(ids, minlength=_BUCKETS)
        slots += np.bincount(np.searchsorted(edges, u[mixed[ids]], side="right"), minlength=cdf.size + 1)
    # pure buckets [ceil(e_(s-1)), ceil(e_s)) all land in slot s
    per_bucket[mixed] = 0
    cum = np.concatenate(([0], np.cumsum(per_bucket)))
    return slots + np.diff(cum[np.concatenate(([0], bounds, [_BUCKETS]))])


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
            if not math.isfinite(center):
                raise HistogramFormatError(f"{path}:{lineno}: non-finite pixel center {center!r}")
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
    with np.errstate(over="ignore"):
        pitches = np.diff(centers)
    pitch = float(pitches[0])
    offset = float(centers[0]) - 0.5 * pitch
    if not (pitch < math.inf and math.isfinite(offset)):
        raise HistogramFormatError(f"{path}: pixel spacing or offset is not finite")
    if pitch <= 0.0 or np.any(np.abs(pitches - pitch) > 1e-9 * abs(pitch)):
        raise HistogramFormatError(f"{path}: pixel centers are not uniformly spaced")
    counts = np.array([r[2] for r in rows], dtype=np.int64)
    return SpatialHistogram(pitch, offset, counts)
