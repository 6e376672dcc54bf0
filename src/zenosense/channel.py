"""Forward simulation of the measurement-protected and unprotected channels.

A polarization qubit prepared in cos(theta)|H> + sin(theta)|V> traverses N
noise events; event j shifts the H component of the photon's transverse
wavepacket by g_j. In the protected protocol the photon is projected back
onto its initial polarization after every event, which reduces the channel
to a product of commuting bath kernels; the running squared norm of the
bath state is the exact survival probability. The unprotected protocol
applies all events unitarily and measures once at the end.

The per-step record and ``protected_survival_spectral`` average the
product of one momentum filter per measurement over an exact momentum grid,
streamed a block of events at a time: a grid holds one block of running
products, not a nodes x events array.

The approximate decay parameters J (survival ~ exp(-J)) from the
short-interval expansion are provided for analysis only: survival itself is
always computed exactly from norms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from zenosense.seeds import make_rng
from zenosense.wavepacket import GaussianSum, fold_kernels, lattice_weights
from zenosense.wavepacket import _check_multiples, _check_positive, _check_shifts, _check_theta

__all__ = [
    "ChannelRealization",
    "RunReport",
    "ScalingRow",
    "run_protected",
    "run_unprotected",
    "decay_parameter",
    "protected_survival_spectral",
    "qze_scaling_report",
    "calibrate_unit_shift",
    "constant_coupling",
    "uniform_coupling",
]

DECAY_MODES = ("fixed-bath", "evolving-bath", "single-measurement")


@dataclass(frozen=True)
class ChannelRealization:
    """Ordered sequence of non-negative coupling shifts g_1..g_N."""

    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(_check_shifts(self.couplings).tolist())
        if len(cs) < 1:
            raise ValueError("a realization needs at least one coupling")
        object.__setattr__(self, "couplings", cs)

    @property
    def total(self) -> float:
        return float(sum(self.couplings))


@dataclass(frozen=True)
class RunReport:
    """Outcome of one protected run.

    ``total_survival`` is the squared norm of the final (non-normalized) bath
    state. ``final_state`` is that state where the couplings sit on a
    lattice (the rule is in ``wavepacket.fold_kernels``), and None off it.
    ``step_survivals[j]`` is the conditional survival of measurement j,
    ``momentum_moments[j]`` the bath momentum second moment just before
    event j (the first entry is 1/(4 sigma^2)); their product equals the
    total survival to rounding.
    """

    final_state: GaussianSum | None
    total_survival: float
    step_survivals: tuple[float, ...]
    momentum_moments: tuple[float, ...]


def _clip01(p: float) -> float:
    return min(1.0, max(0.0, p))


def run_protected(theta: float, sigma: float, realization: ChannelRealization) -> RunReport:
    """Run the Zeno-protected protocol: kernel + projection per event.

    The survival S_j after j events and the moments come from the momentum
    grid, whose running products ``_running_products`` streams a block of
    events at a time: step j survives with S_(j+1) / S_j. The grid takes one
    block, about 256 KiB, and arrays of one entry per node or event.
    Couplings on a lattice (the rule is in ``fold_kernels``) also get the
    final state, with amplitudes the coefficients of prod_j (s^2 + c^2
    z^{n_j}), and take the total survival from its norm, the coefficients'
    autocorrelation over the lags in the 1e-40 overlap reach, independent
    of the grid. Every other channel reports no final state and the grid's
    S_N as its total survival, with the accuracy ``protected_survival_spectral``
    states.
    """
    _check_theta(theta)
    survivals, moments = _grid_survivals_and_moments(theta, sigma, realization.couplings)
    state, total = fold_kernels(theta, sigma, realization.couplings) or (None, survivals[-1])
    steps = survivals[1:] / survivals[:-1]
    return RunReport(
        final_state=state,
        total_survival=_clip01(float(total)),
        step_survivals=tuple(np.clip(steps, 0.0, 1.0).tolist()),
        momentum_moments=tuple(moments.tolist()),
    )


def run_unprotected(theta: float, sigma: float, realization: ChannelRealization) -> float:
    """Survival with a single final measurement.

    All events compose into one shift G = sum(g_j), so the survival is
    cos^4 + sin^4 + 2 sin^2 cos^2 exp(-G^2 / (8 sigma^2)) exactly.
    """
    _check_theta(theta)
    sigma = _check_positive("sigma", sigma)
    return _unprotected_survival(theta, sigma, realization.total)


def _unprotected_survival(theta: float, sigma: float, total: float) -> float:
    """cos^4 + sin^4 + 2 sin^2 cos^2 exp(-z^2 / 8) for the total shift G = z sigma, at any width."""
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    z = total / sigma
    overlap = math.exp(-(z * z) / 8.0)
    return _clip01(c2 * c2 + s2 * s2 + 2.0 * c2 * s2 * overlap)


def decay_parameter(
    theta: float,
    sigma: float,
    realization: ChannelRealization,
    mode: str = "evolving-bath",
) -> float:
    """Approximate decay exponent J for the requested bath treatment.

    J = DeltaS^2 * sum_j g_j^2 * B2_j, with DeltaS^2 = sin^2 cos^2 theta.
    ``fixed-bath`` reuses the initial bath momentum moment B2_1 = 1/(4 sigma^2)
    for every step; ``evolving-bath`` takes the per-step moments that a
    protected run records, from the momentum grid alone (no kernel fold);
    ``single-measurement`` is J_1 = DeltaS^2 * B2_1 * (sum g_j)^2. These two
    take the shifts in units of sigma, so they hold at any width; where the
    grid moments leave the doubles (sigma = 1e200 or 1e-170) ``evolving-bath`` raises.
    """
    _check_theta(theta)
    sigma = _check_positive("sigma", sigma)
    ds2 = math.sin(theta) ** 2 * math.cos(theta) ** 2
    g = np.asarray(realization.couplings, dtype=np.float64)
    if mode == "single-measurement":
        return float(ds2 * (g.sum() / sigma) ** 2 / 4.0)
    if mode == "fixed-bath":
        return float(ds2 * np.sum((g / sigma) ** 2) / 4.0)
    if mode == "evolving-bath":
        _, b2 = _grid_survivals_and_moments(theta, sigma, realization.couplings)
        j = float(ds2 * np.sum(g * g * b2))
        if not math.isfinite(j):
            raise ValueError(f"evolving-bath J is not finite at sigma = {sigma!r}: the grid moments leave the doubles")
        return j
    raise ValueError(f"unknown decay mode {mode!r}; expected one of {DECAY_MODES}")


# --- momentum-space survival ------------------------------------------------

# Half-width of the momentum grid in units of the momentum spread; the
# Gaussian weight beyond it is below 1e-17.
_GRID_SPREADS = 8.9

# Most entries (nodes x (events + 1)) one momentum grid may take. Each entry
# costs a cosine or a gather and a product, so this bounds the grid's work
# (0.07-0.2 s at the budget on a 2-vCPU VM), not its memory, which is one
# block and O(nodes + events). The largest grid the benchmark takes is
# 1443 x 501, the constant N=500 channel at g = 4 sigma; a narrow packet or
# a long shift asks for nodes without bound (sigma = 1e-3 and one 1e6 shift
# for 7e8).
_GRID_MAX_ENTRIES = 10_000_000

# Entries (events x nodes) in one block of running filter products, 256 KiB,
# so a block stays in cache from its filters through its products and sums.
_BLOCK_ENTRIES = 2**15

# Grouping repeated couplings costs 12-15 us (a sort, a neighbour test,
# np.unique and the gather into event order) and saves at most the cosines
# of repeats, about 10 ns each: it pays only from about 2000 grid entries
# (nodes x events), 30 lattice events at the default config.
_GROUPED_GRID_MIN = 2048


def _momentum_grid(sigma: float, couplings: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Momentum nodes p, trapezoid weights w and the couplings as an array.

    Each measurement multiplies the momentum density N(p; 0, 1/(4 sigma^2)) by
    |beta_j(p)|^2 = c^4 + s^4 + 2 c^2 s^2 cos(p g_j): the survival after j
    events is a Gaussian average of a cosine series with frequencies up to
    sum(g). The trapezoid rule with spacing h = 2 pi / (sum(g) + 4 T sigma) is
    exact for it up to aliasing below exp(-2 T^2); the integrand is even, so
    nodes p = k h run over [0, T / (2 sigma)] with doubled weights for k >= 1.
    A grid of more than ``_GRID_MAX_ENTRIES`` entries raises before anything
    is allocated.
    """
    sigma = _check_positive("sigma", sigma)
    g = _check_shifts(couplings)
    if g.size == 0:
        raise ValueError("couplings must be non-empty")
    sp = 1.0 / (2.0 * sigma)
    total = float(g.sum())
    span = total + 4.0 * _GRID_SPREADS * sigma
    # the node count as a product, which overflows to inf rather than raising
    nodes = _GRID_SPREADS * sp * span / (2.0 * math.pi) + 1.0
    if not nodes * (g.size + 1) <= _GRID_MAX_ENTRIES:
        raise ValueError(
            f"momentum grid of {nodes:.3g} nodes x {g.size + 1} columns exceeds {_GRID_MAX_ENTRIES} entries, "
            f"for couplings summing to {total!r} at width {sigma!r}"
        )
    h = 2.0 * math.pi / span
    p = h * np.arange(math.ceil(_GRID_SPREADS * sp / h) + 1)
    w = (h / (sp * math.sqrt(2.0 * math.pi))) * np.exp(-0.5 * (p / sp) ** 2)
    w[1:] *= 2.0
    return p, w, g


def _running_products(theta: float, p: np.ndarray, g: np.ndarray) -> Iterator[np.ndarray]:
    """Running filter products P_j(p) = prod_(i <= j) |beta_i(p)|^2, a block of events at a time.

    Each block holds one row per event, about ``_BLOCK_ENTRIES`` entries in
    all: its first row is the last product of the block before (P_0 = 1 in
    the first block), the rows after it the products of its events. Every
    block is a view of one buffer that the next block overwrites, so the
    grid takes one block of memory and ``w @ P_j`` is the survival after j
    events. Each product is a sequential product along the events.

    On a grid of at least ``_GROUPED_GRID_MIN`` entries where a coupling
    repeats, as on a noise alphabet's lattice, the filter is evaluated once
    per node and distinct coupling and gathered into each block in event
    order; each cosine still takes the product g_j p_i, so the products are
    the same bit for bit. On such a grid, distinct couplings cost one sort to
    find that none repeats.
    """
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    table, inverse = None, None
    if p.size * g.size >= _GROUPED_GRID_MIN:
        ordered = np.sort(g)
        if (ordered[1:] == ordered[:-1]).any():
            distinct, inverse = np.unique(g, return_inverse=True)
            table = _filters(np.outer(distinct, p), c2, s2)
    rows = max(1, _BLOCK_ENTRIES // p.size)
    buffer = np.empty((min(rows, g.size) + 1, p.size))
    buffer[0] = 1.0
    for start in range(0, g.size, rows):
        events = min(rows, g.size - start)
        block = buffer[: events + 1]
        if start:
            block[0] = buffer[-1]
        if table is None:
            _filters(np.multiply.outer(g[start : start + events], p, out=block[1:]), c2, s2)
        else:
            # the indices are in range; "raise" would gather into a temporary
            np.take(table, inverse[start : start + events], axis=0, out=block[1:], mode="clip")
        np.multiply.accumulate(block, axis=0, out=block)
        yield block


def _filters(phases: np.ndarray, c2: float, s2: float) -> np.ndarray:
    """|beta(p)|^2 = c^4 + s^4 + 2 c^2 s^2 cos(p g) in place of the phases p g."""
    np.cos(phases, out=phases)
    phases *= 2.0 * c2 * s2
    phases += c2 * c2 + s2 * s2
    return phases


def _grid_survivals_and_moments(
    theta: float, sigma: float, couplings: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Survivals S_0..S_N and the bath momentum second moments before each event.

    ``moments[j]`` is <P^2> after j surviving measurements,
    ``(w p^2) @ P_j / S_j`` on the momentum grid, for j < N; both sums of
    each row are taken as its block passes.
    """
    p, w, g = _momentum_grid(sigma, couplings)
    wp2 = w * p * p
    survivals = np.empty(g.size + 1)
    moments = np.empty(g.size)
    j = 0
    for block in _running_products(theta, p, g):
        rows = block[:-1]
        np.matmul(rows, w, out=survivals[j : j + rows.shape[0]])
        np.matmul(rows, wp2, out=moments[j : j + rows.shape[0]])
        j += rows.shape[0]
    survivals[-1] = w @ block[-1]
    moments /= survivals[:-1]
    return survivals, moments


def protected_survival_spectral(theta: float, sigma: float, couplings: Sequence[float]) -> float:
    """Protected survival as a momentum-space average of per-event filters.

    Exact to rounding on the grid of ``_momentum_grid`` for any non-negative
    couplings: within 1e-13 of the lattice sum up to lambda = sum(g) / (2 sigma)
    = 2000. The cost, about 1.4 (lambda + 18) N operations, stays linear in N
    for any couplings, where a component-resolved state of continuous
    couplings holds 2^N copies; the memory is one block of ``_running_products``, about 256 KiB, plus a
    few arrays of one entry per node or event.
    """
    _check_theta(theta)
    p, w, g = _momentum_grid(sigma, couplings)
    for block in _running_products(theta, p, g):
        pass
    return _clip01(float(w @ block[-1]))


# --- ensemble scaling study -------------------------------------------------

CouplingSampler = Callable[[np.random.Generator, int], np.ndarray]


def constant_coupling(g: float) -> CouplingSampler:
    """Sampler producing N identical couplings g (finite, non-negative)."""
    _check_shifts(g, "coupling scale")

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(g))

    return sample


def uniform_coupling(high: float) -> CouplingSampler:
    """Sampler of i.i.d. couplings uniform on [0, high) (high finite, non-negative)."""
    _check_shifts(high, "coupling scale")

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, float(high), size=n)

    return sample


@dataclass(frozen=True)
class ScalingRow:
    """Ensemble statistics of the Zeno advantage at one channel length."""

    n_events: int
    j_ratio_mean: float
    j_ratio_std: float
    survival_ratio_mean: float
    survival_ratio_std: float
    protected_mean: float
    unprotected_mean: float


def qze_scaling_report(
    theta: float,
    sigma: float,
    sampler: CouplingSampler,
    n_values: Sequence[int],
    ensemble_size: int,
    seed: int,
    survival_samples: int | None = None,
) -> list[ScalingRow]:
    """Ensemble statistics of J_N/J_1 and of exact survival ratios vs N.

    J_N/J_1 reduces algebraically to sum(g^2)/(sum g)^2 (the common
    DeltaS^2 * B2 factor cancels), so it is evaluated in that form for every
    ensemble member. Exact protected/unprotected survival ratios are
    evaluated on the first ``survival_samples`` members (default:
    min(ensemble, 128)). One independent RNG stream per (N index, member) is
    derived from the seed, so the report is deterministic and members are
    reproducible in isolation. Every argument is checked before any member is drawn.
    """
    _check_theta(theta)
    sigma = _check_positive("sigma", sigma)
    n_values = [operator.index(n) for n in n_values]
    ensemble_size = operator.index(ensemble_size)
    if len(n_values) == 0:
        raise ValueError("n_values must be non-empty")
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be at least 1")
    k_surv = min(ensemble_size, 128) if survival_samples is None else operator.index(survival_samples)
    if k_surv < 0:
        raise ValueError(f"survival_samples must be non-negative, got {survival_samples}")
    k_surv = min(k_surv, ensemble_size)
    rows: list[ScalingRow] = []
    for ni, n in enumerate(n_values):
        if n < 1:
            raise ValueError(f"channel length must be >= 1, got {n}")
        j_ratios = np.empty(ensemble_size)
        ratios = np.empty(k_surv)
        protected = np.empty(k_surv)
        unprotected = np.empty(k_surv)
        for m in range(ensemble_size):
            rng = make_rng(seed, ni, m)
            g = _check_shifts(sampler(rng, n), "sampled couplings")
            if g.shape != (n,):
                raise ValueError(f"sampler must return {n} couplings, got shape {g.shape}")
            total = g.sum()
            if total <= 0.0:
                raise ValueError("sampler produced an all-zero realization")
            j_ratios[m] = np.sum(g * g) / (total * total)
            if m < k_surv:
                p = protected_survival_spectral(theta, sigma, g)
                # the sequential sum of ChannelRealization.total, as run_unprotected takes
                u = _unprotected_survival(theta, sigma, sum(g.tolist()))
                protected[m] = p
                unprotected[m] = u
                ratios[m] = p / u
        no_surv = k_surv == 0
        rows.append(
            ScalingRow(
                n_events=n,
                j_ratio_mean=float(j_ratios.mean()),
                j_ratio_std=float(j_ratios.std()),
                survival_ratio_mean=math.nan if no_surv else float(ratios.mean()),
                survival_ratio_std=math.nan if no_surv else float(ratios.std()),
                protected_mean=math.nan if no_surv else float(protected.mean()),
                unprotected_mean=math.nan if no_surv else float(unprotected.mean()),
            )
        )
    return rows


# --- coupling-scale calibration ---------------------------------------------

# The paper calibrates g on the reference set probed at theta = pi/4, and
# ends the bisection once the survival is within this of the target.
CALIBRATION_THETA = math.pi / 4.0
CALIBRATION_TOLERANCE = 1e-4


def calibrate_unit_shift(sigma: float, target_survival: float, shift_multiples: Sequence[float]) -> float:
    """Unit shift g whose protected survival at ``CALIBRATION_THETA`` matches ``target_survival``.

    ``shift_multiples`` lists the per-event shifts in units of g (for the
    reference noise set (2,0,2,2,0) on the 0..4g alphabet this is
    (0,0,2,2,3,3)); they must be non-negative integers, as alphabet
    multipliers are. The events then leave a lattice state, whose survival
    is the sum of its ``lattice_weights`` row, since every normal of the
    row has unit mass. Survival depends on the couplings only through
    u = g^2/(8 sigma^2), and is strictly decreasing in u from 1 toward a
    positive floor (the incoherent sum of sub-packet weights), so a bisection
    on u converges for any attainable target. Raises for targets at or above
    1 and at or below the floor.
    """
    sigma = _check_positive("sigma", sigma)
    multiples = _check_multiples(shift_multiples, "shift multiples")
    if not any(multiples):
        raise ValueError(f"shift multiples {multiples!r} are empty or all zero: survival is identically 1")
    one_each = [[1] * len(multiples)]

    def survival_at(u: float) -> float:
        weights = lattice_weights(CALIBRATION_THETA, 1.0, math.sqrt(8.0 * u), multiples, one_each)
        return _clip01(float(weights.sum()))

    floor = survival_at(1e9)
    if not (floor + 1e-9 < target_survival < 1.0):
        raise ValueError(
            f"target survival {target_survival!r} is unattainable: "
            f"must lie strictly between the floor {floor:.6f} and 1"
        )
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if survival_at(hi) < target_survival:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ValueError("could not bracket the calibration target")
    u = 0.5 * (lo + hi)
    for _ in range(200):
        u = 0.5 * (lo + hi)
        s = survival_at(u)
        if abs(s - target_survival) <= CALIBRATION_TOLERANCE:
            break
        if s > target_survival:
            lo = u
        else:
            hi = u
    else:
        raise ValueError("calibration bisection did not converge")
    return sigma * math.sqrt(8.0 * u)
