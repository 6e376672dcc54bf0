"""Forward simulation of the measurement-protected and unprotected channels.

A polarization qubit prepared in cos(theta)|H> + sin(theta)|V> traverses N
noise events; event j shifts the H component of the photon's transverse
wavepacket by g_j. In the protected protocol the photon is projected back
onto its initial polarization after every event, which reduces the channel
to a product of commuting bath kernels; the running squared norm of the
bath state is the exact survival probability. The unprotected protocol
applies all events unitarily and measures once at the end.

The approximate decay parameters J (survival ~ exp(-J)) from the
short-interval expansion are provided for analysis only: survival itself is
always computed exactly from norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from zenosense.seeds import make_rng
from zenosense.wavepacket import GaussianSum, fold_kernels, lattice_weights

__all__ = [
    "ProbeState",
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
class ProbeState:
    """Polarization qubit cos(theta)|H> + sin(theta)|V>, theta in [0, pi/2]."""

    theta: float

    def __post_init__(self) -> None:
        t = float(self.theta)
        if not (0.0 <= t <= math.pi / 2.0):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta!r}")
        object.__setattr__(self, "theta", t)

    @property
    def delta_s_squared(self) -> float:
        """Variance sin^2(theta) cos^2(theta) of the dephasing projector."""
        return math.sin(self.theta) ** 2 * math.cos(self.theta) ** 2


@dataclass(frozen=True)
class ChannelRealization:
    """Ordered sequence of non-negative coupling shifts g_1..g_N."""

    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(g) for g in self.couplings)
        if len(cs) < 1:
            raise ValueError("a realization needs at least one coupling")
        if any(not (g >= 0.0) or not math.isfinite(g) for g in cs):
            raise ValueError("couplings must be finite and non-negative")
        object.__setattr__(self, "couplings", cs)

    @property
    def total(self) -> float:
        return float(sum(self.couplings))


@dataclass(frozen=True)
class RunReport:
    """Outcome of one protected run.

    ``total_survival`` is the squared norm of the final (non-normalized) bath
    state. ``step_survivals[j]`` is the conditional survival of measurement j,
    ``momentum_moments[j]`` the bath momentum second moment just before
    event j (the first entry is 1/(4 sigma^2)); their product equals the
    total survival to rounding.
    """

    final_state: GaussianSum
    total_survival: float
    step_survivals: tuple[float, ...]
    momentum_moments: tuple[float, ...]


def _clip01(p: float) -> float:
    return min(1.0, max(0.0, p))


def _check_sigma(sigma: float) -> None:
    if not (0.0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")


def run_protected(theta: float, sigma: float, realization: ChannelRealization) -> RunReport:
    """Run the Zeno-protected protocol: kernel + projection per event.

    ``fold_kernels`` gives the final state and its squared norm, the total
    survival. Couplings that are multiples of the smallest positive one (the
    rule is in ``fold_kernels``) take the lattice path: the amplitudes are
    the coefficients of prod_j (s^2 + c^2 z^{n_j}), and the norm is their
    autocorrelation over the lags in the 1e-40 overlap reach. Every other
    channel takes the merge fold and the all-pairs ``inner_product``. The
    survival S_j after j events and the moments come from the momentum grid
    of ``_filter_products``: step j survives with S_(j+1) / S_j.
    """
    ProbeState(theta)
    survivals, moments = _grid_survivals_and_moments(theta, sigma, realization.couplings)
    state, norm_sq = fold_kernels(theta, sigma, realization.couplings)
    steps = survivals[1:] / survivals[:-1]
    return RunReport(
        final_state=state,
        total_survival=_clip01(norm_sq),
        step_survivals=tuple(np.clip(steps, 0.0, 1.0).tolist()),
        momentum_moments=tuple(moments.tolist()),
    )


def run_unprotected(theta: float, sigma: float, realization: ChannelRealization) -> float:
    """Survival with a single final measurement.

    All events compose into one shift G = sum(g_j), so the survival is
    cos^4 + sin^4 + 2 sin^2 cos^2 exp(-G^2 / (8 sigma^2)) exactly.
    """
    ProbeState(theta)
    _check_sigma(sigma)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    total = realization.total
    overlap = math.exp(-(total * total) / (8.0 * sigma * sigma))
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
    ``single-measurement`` is J_1 = DeltaS^2 * B2_1 * (sum g_j)^2.
    """
    probe = ProbeState(theta)
    _check_sigma(sigma)
    ds2 = probe.delta_s_squared
    v1 = 1.0 / (4.0 * sigma * sigma)
    g = np.asarray(realization.couplings, dtype=np.float64)
    if mode == "single-measurement":
        return float(ds2 * v1 * g.sum() ** 2)
    if mode == "fixed-bath":
        return float(ds2 * v1 * np.sum(g * g))
    if mode == "evolving-bath":
        _, b2 = _grid_survivals_and_moments(theta, sigma, realization.couplings)
        return float(ds2 * np.sum(g * g * b2))
    raise ValueError(f"unknown decay mode {mode!r}; expected one of {DECAY_MODES}")


# --- momentum-space survival ------------------------------------------------

# Half-width of the momentum grid in units of the momentum spread; the
# Gaussian weight beyond it is below 1e-17.
_GRID_SPREADS = 8.9

# Grouping repeated couplings costs 12-15 us (a sort, a neighbour test,
# np.unique and the gather into event order) and saves at most the cosines
# of repeats, about 10 ns each: it pays only from about 2000 grid entries
# (nodes x events), 30 lattice events at the default config.
_GROUPED_GRID_MIN = 2048


def _filter_products(
    theta: float, sigma: float, couplings: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Momentum nodes p, trapezoid weights w and running filter products.

    Each measurement multiplies the momentum density N(p; 0, 1/(4 sigma^2)) by
    |beta_j(p)|^2 = c^4 + s^4 + 2 c^2 s^2 cos(p g_j): the survival after j
    events is a Gaussian average of a cosine series with frequencies up to
    sum(g). The trapezoid rule with spacing h = 2 pi / (sum(g) + 4 T sigma) is
    exact for it up to aliasing below exp(-2 T^2); the integrand is even, so
    nodes p = k h run over [0, T / (2 sigma)] with doubled weights for k >= 1.
    ``w @ prefix[:, j]`` is the survival after j events.

    On a grid of at least ``_GROUPED_GRID_MIN`` entries where a coupling
    repeats, as on a noise alphabet's lattice, the filter is evaluated once
    per node and distinct coupling and gathered into event order; each
    cosine still takes the product p_i g_j, so the prefix is the same bit
    for bit. On such a grid, distinct couplings cost one sort to find that
    none repeats.
    """
    _check_sigma(sigma)
    g = np.asarray(couplings, dtype=np.float64)
    if not np.all(np.isfinite(g) & (g >= 0.0)):
        raise ValueError("couplings must be finite and non-negative")
    sp = 1.0 / (2.0 * sigma)
    h = 2.0 * math.pi / (float(g.sum()) + 4.0 * _GRID_SPREADS * sigma)
    p = h * np.arange(math.ceil(_GRID_SPREADS * sp / h) + 1)
    w = (h / (sp * math.sqrt(2.0 * math.pi))) * np.exp(-0.5 * (p / sp) ** 2)
    w[1:] *= 2.0
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    distinct, inverse = g, None
    if p.size * g.size >= _GROUPED_GRID_MIN:
        ordered = np.sort(g)
        if (ordered[1:] == ordered[:-1]).any():
            distinct, inverse = np.unique(g, return_inverse=True)
    filt = np.outer(p, distinct)
    np.cos(filt, out=filt)
    filt *= 2.0 * c2 * s2
    filt += c2 * c2 + s2 * s2
    if inverse is not None:
        filt = filt[:, inverse]
    prefix = np.empty((p.size, g.size + 1))
    prefix[:, 0] = 1.0
    np.cumprod(filt, axis=1, out=prefix[:, 1:])
    return p, w, prefix


def _grid_survivals_and_moments(
    theta: float, sigma: float, couplings: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Survivals S_0..S_N and the bath momentum second moments before each event.

    ``moments[j]`` is <P^2> after j surviving measurements,
    ``(w p^2) @ prefix[:, j] / S_j`` on the momentum grid, for j < N.
    """
    p, w, prefix = _filter_products(theta, sigma, couplings)
    survivals = w @ prefix
    moments = (w * p * p) @ prefix[:, :-1] / survivals[:-1]
    return survivals, moments


def protected_survival_spectral(theta: float, sigma: float, couplings: Sequence[float]) -> float:
    """Protected survival as a momentum-space average of per-event filters.

    Exact to rounding on the grid of ``_filter_products`` for any non-negative
    couplings: within 1e-13 of the lattice sum up to lambda = sum(g) / (2 sigma)
    = 2000. The cost, about 1.4 (lambda + 18) N operations, stays linear in N
    where the component-resolved run blows up (continuous couplings, N >> 10).
    """
    ProbeState(theta)
    if len(couplings) == 0:
        raise ValueError("couplings must be non-empty")
    _, w, prefix = _filter_products(theta, sigma, couplings)
    return _clip01(float(w @ prefix[:, -1]))


# --- ensemble scaling study -------------------------------------------------

CouplingSampler = Callable[[np.random.Generator, int], np.ndarray]


def constant_coupling(g: float) -> CouplingSampler:
    """Sampler producing N identical couplings g (finite, non-negative)."""
    if not (0.0 <= g < math.inf):
        raise ValueError(f"coupling scale must be finite and non-negative, got {g!r}")

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(g))

    return sample


def uniform_coupling(high: float) -> CouplingSampler:
    """Sampler of i.i.d. couplings uniform on [0, high) (high finite, non-negative)."""
    if not (0.0 <= high < math.inf):
        raise ValueError(f"coupling scale must be finite and non-negative, got {high!r}")

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
    reproducible in isolation.
    """
    if len(n_values) == 0:
        raise ValueError("n_values must be non-empty")
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be at least 1")
    if survival_samples is not None and survival_samples < 0:
        raise ValueError(f"survival_samples must be non-negative, got {survival_samples}")
    k_surv = survival_samples if survival_samples is not None else min(ensemble_size, 128)
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
            g = np.asarray(sampler(rng, int(n)), dtype=np.float64)
            if g.shape != (n,) or np.any(g < 0.0):
                raise ValueError("sampler must return n non-negative couplings")
            total = g.sum()
            if total <= 0.0:
                raise ValueError("sampler produced an all-zero realization")
            j_ratios[m] = np.sum(g * g) / (total * total)
            if m < k_surv:
                p = protected_survival_spectral(theta, sigma, g)
                u = run_unprotected(theta, sigma, ChannelRealization(tuple(g)))
                protected[m] = p
                unprotected[m] = u
                ratios[m] = p / u
        no_surv = k_surv == 0
        rows.append(
            ScalingRow(
                n_events=int(n),
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
    _check_sigma(sigma)
    multiples = tuple(shift_multiples)
    if len(multiples) == 0 or not all(float(m).is_integer() and m >= 0 for m in multiples):
        raise ValueError(f"shift multiples must be non-negative integers and non-empty, got {multiples!r}")
    if all(m == 0 for m in multiples):
        raise ValueError("all shift multiples are zero: survival is identically 1")
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
