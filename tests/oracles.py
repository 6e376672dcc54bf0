"""Independent numerical oracles for the closed-form algebra.

Most of this evaluates wavefunctions from the explicit Gaussian formula
and integrates with adaptive quadrature (piecewise between packet centers,
tolerance 1e-12 on a support of +/- 10 sigma beyond the outermost centers).
``density_at`` evaluates the normalized density of any ``GaussianSum``
from its components, and ``dense_overlap`` the overlap of two of them over
all M_a M_b component pairs in complex arithmetic: the squared norm of
every state the tests check. The pair-sum accessors evaluate any ``GaussianSum``
(lattice or not) as a sum over all M^2 component pairs: spatial and
momentum moments, the CDF, pixel masses and the detector's slot masses.
``clipped_lattice_masses`` is the lattice formula with the normal CDF
0.5 erfc(-z / sqrt 2) evaluated at every edge of every normal, over any
edges (``slot_edges`` builds the detector's), and ``lattice_weights`` its
weights with the diagonal loop run to any cutoff. ``fold_by_events``
folds one kernel per coupling on raw arrays and merges each event by
adding every tolerance group into zeros, for any couplings; it is the
reference for the package's lattice coefficients, and
``folded_state`` wraps its result in a
``GaussianSum``, which ``theoretical_state`` (one kernel per event of a
configuration) and ``lattice_state`` (one lattice row) return.
``multinomial_pmf`` is the closed-form probability of a count vector. The
candidate-table oracles at the end recompute the table one candidate at a
time, by kernel fold and pair-sum pixel masses, and its degeneracy groups
and one candidate's moment neighbours by plain loops over pairs and rows.
The l2 oracles keep the whole profile matrix, as the table once did, and
take every candidate's distance and the rounded-row partners from it.
None of it shares code with the fold, lattice and estimator paths it
checks: from ``zenosense`` it takes only the ``GaussianSum`` record and
``MERGE_TOLERANCE_FACTOR`` (``tests/test_exports.py`` holds it to that).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr


def psi(state, x):
    """Direct evaluation of the wavefunction from its component formula."""
    sigma = state.sigma
    pref = (2.0 * math.pi * sigma**2) ** -0.25
    val = 0.0 + 0.0j
    for a, c in zip(state.amplitudes, state.centers):
        val += a * pref * math.exp(-((x - c) ** 2) / (4.0 * sigma**2))
    return val


def dpsi(state, x):
    """Spatial derivative of the wavefunction."""
    sigma = state.sigma
    pref = (2.0 * math.pi * sigma**2) ** -0.25
    val = 0.0 + 0.0j
    for a, c in zip(state.amplitudes, state.centers):
        u = x - c
        val += a * pref * (-u / (2.0 * sigma**2)) * math.exp(-(u**2) / (4.0 * sigma**2))
    return val


def _segments(state, pad: float = 10.0):
    lo = float(state.centers.min() - pad * state.sigma)
    hi = float(state.centers.max() + pad * state.sigma)
    points = sorted({lo, hi, *(float(c) for c in state.centers)})
    return list(zip(points[:-1], points[1:]))


def _integrate(f, state) -> float:
    total = 0.0
    for a, b in _segments(state):
        val, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total


def quad_norm_sq(state) -> float:
    return _integrate(lambda x: abs(psi(state, x)) ** 2, state)


def quad_overlap(a, b) -> complex:
    # segment at both states' centers and at pairwise midpoints, where the
    # product mass of far-separated packets concentrates
    centers = [float(c) for c in a.centers] + [float(c) for c in b.centers]
    mids = [0.5 * (ca + cb) for ca in a.centers for cb in b.centers]
    lo = min(centers) - 10.0 * a.sigma
    hi = max(centers) + 10.0 * a.sigma
    points = sorted({lo, hi, *centers, *(float(m) for m in mids)})
    re = im = 0.0
    for x0, x1 in zip(points[:-1], points[1:]):
        val_re, _ = quad(
            lambda x: (psi(a, x).conjugate() * psi(b, x)).real,
            x0, x1, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        val_im, _ = quad(
            lambda x: (psi(a, x).conjugate() * psi(b, x)).imag,
            x0, x1, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        re += val_re
        im += val_im
    return complex(re, im)


def dense_overlap(a, b) -> complex:
    """<a|b> summed over all M_a M_b component pairs, with no cut.

    The real overlap matrix O_mm' = exp(-(s_m - s_m')^2 / (8 sigma^2)) is
    taken against the real and imaginary parts of a and of b, x = Re b,
    y = Im b: <a|b> = (Re a) O x + (Im a) O y + i ((Re a) O y - (Im a) O x).
    The closed form holds for equal widths only; others raise.
    """
    if a.sigma != b.sigma:
        raise ValueError(f"mismatched packet widths: {a.sigma!r} vs {b.sigma!r}")
    sigma = a.sigma
    overlap = a.centers[:, None] - b.centers[None, :]
    overlap *= overlap
    overlap /= -8.0 * sigma * sigma
    np.exp(overlap, out=overlap)
    re_o, im_o = np.stack((a.amplitudes.real, a.amplitudes.imag)) @ overlap
    x, y = b.amplitudes.real, b.amplitudes.imag
    return complex(re_o @ x + im_o @ y, re_o @ y - im_o @ x)


def quad_moment(state, order: int) -> float:
    norm = quad_norm_sq(state)
    raw = _integrate(lambda x: x**order * abs(psi(state, x)) ** 2, state)
    return raw / norm


def quad_momentum_second(state) -> float:
    """<P^2> = integral |psi'(x)|^2 dx over the squared norm."""
    norm = quad_norm_sq(state)
    raw = _integrate(lambda x: abs(dpsi(state, x)) ** 2, state)
    return raw / norm


def quad_density(state, x: float) -> float:
    return abs(psi(state, x)) ** 2 / quad_norm_sq(state)


def density_at(state, x):
    """Normalized density |psi(x)|^2 / <psi|psi> from the component sum.

    Accepts a scalar or array of positions; rejects zero-norm states.
    """
    norm = dense_overlap(state, state).real
    if not (norm > 0.0):
        raise ValueError("density undefined for a zero-norm state")
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    sigma = state.sigma
    pref = (2.0 * math.pi * sigma * sigma) ** -0.25
    z = (xs[..., None] - state.centers) / sigma
    rho = pref * pref * np.abs(np.exp(-0.25 * z * z) @ state.amplitudes) ** 2 / norm
    return float(rho[0]) if scalar else rho


def quad_cumulative(state, x: float) -> float:
    norm = quad_norm_sq(state)
    lo = float(state.centers.min() - 10.0 * state.sigma)
    points = sorted({lo, x, *(float(c) for c in state.centers if lo < c < x)})
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        val, _ = quad(lambda t: abs(psi(state, t)) ** 2, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total / norm


def beta_quantile(q: float, a: float, b: float) -> float:
    """Beta quantile by bisection on the numerically integrated pdf."""
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - log_norm)

    def cdf(x: float) -> float:
        val, _ = quad(pdf, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_state(rng: np.random.Generator, max_components: int = 16, complex_amps: bool = True):
    """Random multi-component state for property checks."""
    from zenosense.wavepacket import GaussianSum

    sigma = float(rng.uniform(0.3, 3.0))
    n = int(rng.integers(1, max_components + 1))
    centers = np.sort(rng.uniform(-4.0, 8.0, size=n)) * sigma
    if complex_amps:
        amps = rng.normal(0.3, 1.0, size=n) + 1j * rng.normal(0.0, 0.5, size=n)
    else:
        amps = rng.uniform(0.05, 1.0, size=n).astype(complex)
    return GaussianSum(sigma, amps, centers)


def random_lattice_rows(rng, rows):
    """(theta, sigma, h, multipliers, counts) of random lattice states, h / sigma in [0.05, 5]."""
    theta = float(rng.uniform(0.0, math.pi / 2))
    sigma = float(rng.uniform(0.3, 3.0))
    h = sigma * float(rng.uniform(0.05, 5.0))
    multipliers = tuple(int(m) for m in rng.integers(0, 5, size=int(rng.integers(1, 4))))
    return theta, sigma, h, multipliers, rng.integers(0, 4, size=(rows, len(multipliers)))


def folded_state(theta, sigma, couplings):
    """The ``GaussianSum`` of ``fold_by_events``: one kernel per coupling."""
    from zenosense.wavepacket import GaussianSum

    return GaussianSum(sigma, *fold_by_events(theta, sigma, couplings))


def lattice_state(theta, sigma, h, multipliers, counts):
    """The folded ``GaussianSum`` of one lattice row, for the quadrature oracles."""
    return folded_state(theta, sigma, [m * h for m, n in zip(multipliers, counts) for _ in range(int(n))])


def lattice_survival(theta: float, sigma: float, h: float, multipliers) -> float:
    """Exact protected survival for couplings on a lattice, g_j = m_j * h.

    The output wavepacket has amplitude a_k on the copy shifted by k * h,
    where a_k is the coefficient of z^k in prod_j (s^2 + c^2 z^{m_j}); its
    squared norm is the lattice sum of a_k a_l times the Gaussian overlap
    exp(-(k - l)^2 h^2 / (8 sigma^2)). Integer multipliers only.
    """
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    a = np.ones(1)
    for m in multipliers:
        factor = np.zeros(int(m) + 1)
        factor[0] += s2
        factor[int(m)] += c2
        a = np.convolve(a, factor)
    k = np.arange(a.size)
    overlap = np.exp(-((k[:, None] - k[None, :]) ** 2) * h * h / (8.0 * sigma * sigma))
    return float(a @ overlap @ a)


def lattice_weights(theta, sigma, unit_shift, multipliers, counts, cutoff=1e-40):
    """Normal weights of ``wavepacket.lattice_weights`` in the same arithmetic,
    the overlap of lag d exp(-x x / 8) at x = d (h / sigma).

    The diagonal loop stops at the first overlap below ``cutoff``; a cutoff
    of 0 runs it until the overlap underflows to zero.
    """
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    mult = [int(m) for m in multipliers]
    counts = np.asarray(counts, dtype=np.int64)
    size = int((counts @ np.asarray(mult, dtype=np.int64)).max()) + 1
    coef = np.zeros((counts.shape[0], size))
    coef[:, 0] = 1.0
    for m, n in zip(mult, counts.T):
        for t in range(int(n.max())):
            rows = np.flatnonzero(n > t)
            before = coef[rows]
            after = s2 * before
            after[:, m:] += c2 * before[:, : size - m]
            coef[rows] = after
    weights = np.zeros((counts.shape[0], 2 * size - 1))
    for d in range(size):
        x = d * (unit_shift / sigma)
        overlap = math.exp(-x * x / 8.0)
        if overlap == 0.0 or overlap < cutoff:
            break
        weights[:, d : 2 * size - 1 - d : 2] += (2.0 if d else 1.0) * overlap * coef[:, : size - d] * coef[:, d:]
    return weights


def clipped_lattice_masses(theta, sigma, unit_shift, multipliers, counts, edges):
    """Lattice weights and normal masses, with the normal CDF over every normal at every edge.

    The same weights as ``wavepacket.lattice_weights``, and the masses of
    its 2M - 1 normals between consecutive ``edges``, but the cut at 9
    sigma is taken by clipping every z to [-9, 9] before one pass of the
    CDF 0.5 erfc(-z / sqrt 2), by ``math.erfc`` element by element, over
    the whole (2M - 1) x edges matrix, built here apart from
    ``wavepacket.normal_masses``, which must match it bit for bit over
    ``slot_edges``.
    """
    weights = lattice_weights(theta, sigma, unit_shift, multipliers, counts)
    edges = np.asarray(edges, dtype=np.float64)
    z = (edges[None, :] - 0.5 * unit_shift * np.arange(weights.shape[1])[:, None]) / sigma
    erfc = np.vectorize(math.erfc, otypes=[np.float64])
    return weights, np.diff(0.5 * erfc(-np.clip(z, -9.0, 9.0) / math.sqrt(2.0)), axis=1)


def slot_edges(pitch, n_pixels, offset):
    """Pixel edges with -inf and +inf added: the slots ``sample_histogram`` counts into."""
    return np.concatenate(([-np.inf], offset + np.arange(n_pixels + 1) * pitch, [np.inf]))


def _pair_weights(state):
    """Hermitian pair-weight matrix W, pair midpoints, pair separations."""
    sigma = state.sigma
    d = state.centers[:, None] - state.centers[None, :]
    overlap = np.exp(-(d * d) / (8.0 * sigma * sigma))
    w = (np.conj(state.amplitudes)[:, None] * state.amplitudes[None, :]) * overlap
    mid = 0.5 * (state.centers[:, None] + state.centers[None, :])
    return w, mid, d


def _require_normalizable(state) -> float:
    n = dense_overlap(state, state).real
    if not (n > 0.0):
        raise ValueError("operation undefined for a zero-norm state")
    return n


def moment(state, order: int) -> float:
    """Spatial moment E[x^order] of the normalized density, order in {0, 1, 2}.

    Uses the packet-product identity, under which each component pair
    contributes a normal density at the pair midpoint with variance sigma^2.
    Order 0 returns exactly 1. Rejects zero-norm states.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1 or 2, got {order!r}")
    norm = _require_normalizable(state)
    if order == 0:
        return 1.0
    w, mid, _ = _pair_weights(state)
    if order == 1:
        num = np.sum(w * mid).real
    else:
        num = np.sum(w * (mid * mid + state.sigma**2)).real
    return float(num / norm)


def momentum_second_moment(state) -> float:
    """Second moment <P_x^2> of the normalized state (inverse length squared).

    Pairwise closed form <f_a|P^2|f_b> = v (1 - v d^2) <f_a|f_b> with
    v = 1/(4 sigma^2) and d = a - b. Rejects zero-norm states.
    """
    norm = _require_normalizable(state)
    v = 1.0 / (4.0 * state.sigma**2)
    w, _, d = _pair_weights(state)
    num = np.sum(w * (v * (1.0 - v * d * d))).real
    return float(num / norm)


def cumulative_mass(state, x):
    """P(X <= x) of the normalized density, exact through normal CDFs.

    Each component pair contributes its overlap weight times the CDF of a
    normal at the pair midpoint with variance sigma^2.
    """
    norm = _require_normalizable(state)
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    w, mid, _ = _pair_weights(state)
    cdf = ndtr((xs[..., None] - mid.ravel()) / state.sigma) @ np.real(w).ravel() / norm
    cdf = np.clip(cdf, 0.0, 1.0)
    return float(cdf[0]) if scalar else cdf


def pixel_masses(state, pitch, n_pixels, offset):
    """Per-pixel masses of the normalized density, by pair-sum CDFs.

    Evaluation is windowed to pixels within 9 sigma of the outermost packet
    centers; the remainder carries < 1e-18 of the mass and is returned as
    zero.
    """
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


def slot_masses(state, pitch, n_pixels, offset):
    """Left overflow, pixel masses and right overflow of the normalized density."""
    left = cumulative_mass(state, offset)
    pixels = pixel_masses(state, pitch, n_pixels, offset)
    return np.concatenate(([left], pixels, [max(1.0 - left - pixels.sum(), 0.0)]))


def slot_counts(cdf, u):
    """Photons per slot by one binary search per uniform over the CDF edges.

    Slot 0 is left overflow, slot i + 1 pixel i, the last slot right overflow.
    """
    return np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(cdf) + 1)


def theoretical_state(config, theta, sigma, values):
    """Non-normalized output wavepacket for a noise configuration, its count tuple.

    ``values`` are the alphabet's coupling shifts, one per count. Applies one
    kernel per event; the kernels commute, so the result depends only on the
    multiset of couplings, and its squared norm is the protected survival
    probability of that configuration.
    """
    if len(config) != len(values):
        raise ValueError("configuration and alphabet sizes differ")
    couplings = [value for nk, value in zip(config, values) for _ in range(nk)]
    return folded_state(theta, sigma, couplings)


def merge_by_add_at(amps, cents, tol):
    """Canonical form of a component list, each tolerance group added into zeros.

    Stable argsort by center; a group starts where the gap to the previous
    center is at least ``tol`` and keeps its first center; ``np.add.at``
    adds the members into a zero amplitude one at a time in input order.
    Exactly-zero amplitudes are dropped unless all are zero.
    """
    order = np.argsort(cents, kind="stable")
    cents = cents[order]
    amps = amps[order]
    if cents.size > 1:
        starts = np.empty(cents.size, dtype=bool)
        starts[0] = True
        starts[1:] = np.diff(cents) >= tol
        merged = np.zeros(int(starts.sum()), dtype=np.complex128)
        np.add.at(merged, np.cumsum(starts) - 1, amps)
        cents, amps = cents[starts], merged
    keep = amps != 0.0
    if np.any(keep) and not np.all(keep):
        amps = amps[keep]
        cents = cents[keep]
    return amps, cents


def fold_by_events(theta, sigma, couplings):
    """Raw ``(amplitudes, centers)`` of the unit Gaussian after one kernel per coupling.

    Each event applies s^2 I + c^2 T_g to the whole component list and
    merges it by ``merge_by_add_at``.
    """
    from zenosense.wavepacket import MERGE_TOLERANCE_FACTOR

    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    amps, cents = np.ones(1, dtype=np.complex128), np.zeros(1)
    for g in couplings:
        amps, cents = merge_by_add_at(
            np.concatenate((amps * s2, amps * c2)),
            np.concatenate((cents, cents + g)),
            MERGE_TOLERANCE_FACTOR * sigma,
        )
    return amps, cents


def multinomial_pmf(config, alphabet) -> float:
    """Probability N!/(prod n_k!) * prod p_k^n_k of the count vector."""
    if len(config) != alphabet.size:
        raise ValueError(f"configuration has {len(config)} entries, alphabet has {alphabet.size}")
    coef = math.factorial(sum(config))
    for nk in config:
        coef //= math.factorial(nk)
    prob = float(coef)
    for nk, pk in zip(config, alphabet.probabilities):
        prob *= pk**nk
    return prob


def candidate_profiles(candidates, theta, sigma, values, pitch, n_pixels, offset):
    """Normalized pixel profiles, one kernel fold and pixel-mass pass per candidate."""
    profiles = np.empty((len(candidates), n_pixels))
    for i, config in enumerate(candidates):
        masses = pixel_masses(theoretical_state(config, theta, sigma, values), pitch, n_pixels, offset)
        total = masses.sum()
        if not (total > 0.0):
            raise ValueError(f"candidate {config} carries no mass on the detector")
        profiles[i] = masses / total
    return profiles


def moment_groups(means, variances, mean_tol, var_tol):
    """Union-find over every pair in a sorted-mean window, one pair at a time."""
    n = len(means)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(means, kind="stable")
    for a in range(n):
        for b in range(a + 1, n):
            i, j = int(order[a]), int(order[b])
            if means[j] - means[i] > mean_tol:
                break
            if abs(variances[i] - variances[j]) <= var_tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in groups.values() if len(g) > 1)


def moment_neighbours(means, variances, best, mean_tol, var_tol):
    """Indices c != best whose mean and variance each lie within tolerance of best's."""
    return tuple(
        c
        for c in range(len(means))
        if c != best
        and abs(means[c] - means[best]) <= mean_tol
        and abs(variances[c] - variances[best]) <= var_tol
    )


def profile_groups(profiles, tol):
    """Rows keyed by the bytes of their values rounded to ``tol``."""
    buckets = {}
    for i, row in enumerate(np.round(profiles / tol)):
        buckets.setdefault(row.tobytes(), []).append(i)
    return tuple(tuple(ixs) for ixs in buckets.values() if len(ixs) > 1)


def lattice_profiles(theta, sigma, unit_shift, multipliers, counts, pitch, n_pixels, offset):
    """The dense profile matrix: every candidate's pixel masses from one
    product, each row divided by its sum."""
    edges = offset + np.arange(n_pixels + 1) * pitch
    weights, diffs = clipped_lattice_masses(theta, sigma, unit_shift, multipliers, counts, edges)
    profiles = weights @ diffs
    return profiles / profiles.sum(axis=1, keepdims=True)


def l2_estimate(profiles, masses, tol):
    """Whole-table l2 reconstruction: (index, objective, partners, top five).

    Every row's squared distance to ``masses``; the argmin (smallest index
    on ties); the rows within 5 ``tol`` of its distance whose values,
    rounded to ``tol``, equal its row bit for bit; and the five smallest
    distances in stable order.
    """
    distances = np.sum((profiles - masses) ** 2, axis=1)
    best = int(np.argmin(distances))
    near = np.flatnonzero(np.abs(distances - distances[best]) <= 5.0 * tol)
    near = near[near != best]
    rounded = np.round(profiles[near] / tol).view(np.uint64)
    same = np.all(rounded == np.round(profiles[best] / tol).view(np.uint64), axis=1)
    top = np.argsort(distances, kind="stable")[:5]
    return best, float(distances[best]), tuple(int(i) for i in near[same]), tuple(int(i) for i in top)
