"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Every tolerance is fixed here; nothing is calibrated at test
time except where a criterion itself prescribes a calibration step.
"""

import math
import time

import numpy as np
import pytest

from zenosense.channel import (
    ChannelRealization,
    calibrate_unit_shift,
    constant_coupling,
    decay_parameter,
    qze_scaling_report,
    run_protected,
    run_unprotected,
)
from zenosense.config import ExperimentConfig
from zenosense.detector import sample_histogram
from zenosense.estimator import (
    DEGENERATE_MEAN_TOL_FACTOR,
    DEGENERATE_VAR_TOL_FACTOR,
    beta_ci,
    estimate_from_masses,
    estimate_histogram,
)
from zenosense.noise_model import NoiseAlphabet, enumerate_configurations
from zenosense.pipeline import estimate_trials, simulate_trials
from zenosense.seeds import derive_seed, make_rng

import oracles
from oracles import theoretical_state

QUARTER = math.pi / 4.0
SIGMA = 150.0
REFERENCE_MULTIPLES = (0.0, 0.0, 2.0, 2.0, 3.0, 3.0)  # noise set (2,0,2,2,0)
GEOMETRY = dict(pitch=13.0, n_pixels=1024, offset=-6656.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _calibrated_unit_shift() -> float:
    return calibrate_unit_shift(SIGMA, 0.58, REFERENCE_MULTIPLES)


def test_criterion_1_survival_reproduction():
    """Calibrated protected survival 0.58 implies unprotected 0.50 +/- 0.01."""
    t0 = time.time()
    g = _calibrated_unit_shift()
    realization = ChannelRealization(tuple(m * g for m in REFERENCE_MULTIPLES))
    protected = run_protected(QUARTER, SIGMA, realization).total_survival
    unprotected = run_unprotected(QUARTER, SIGMA, realization)
    elapsed = time.time() - t0
    ok = (
        abs(protected - 0.58) <= 1e-4
        and abs(unprotected - 0.50) <= 0.01
        and elapsed < 1.0
    )
    _report(
        "criterion-1",
        ok,
        f"protected={protected:.4f}, unprotected={unprotected:.4f}, "
        f"g/sigma={g / SIGMA:.4f}, {elapsed:.2f}s",
    )


def test_criterion_2_configuration_recovery():
    """Both estimators recover (2,0,2,2,0) in >= 90 of 100 seeded trials at 1e6 photons."""
    t0 = time.time()
    g = _calibrated_unit_shift()
    alphabet = NoiseAlphabet(g, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
    truth = (2, 0, 2, 2, 0)
    candidates = tuple(enumerate_configurations(5, 6))
    state = theoretical_state(truth, QUARTER, SIGMA, alphabet.values)
    masses = oracles.slot_masses(state, **GEOMETRY)
    hits = {"l2": 0, "moments": 0}
    for trial in range(100):
        hist = sample_histogram(masses, 1_000_000, GEOMETRY["pitch"], GEOMETRY["offset"], make_rng(2024, trial))
        for method in hits:
            est = estimate_histogram(hist, candidates, QUARTER, SIGMA, alphabet, method=method)
            hits[method] += est.config == truth
    elapsed = time.time() - t0
    ok = hits["l2"] >= 90 and hits["moments"] >= 90 and elapsed < 120.0
    _report(
        "criterion-2",
        ok,
        f"recovered l2 {hits['l2']}/100, moments {hits['moments']}/100, {elapsed:.1f}s",
    )


def test_criterion_3_ci_table_reproduction():
    """beta_ci reproduces the reference interval table from counts out of 60."""
    t0 = time.time()
    checks = [
        (7, 0.68, (0.087, 0.171), 0.010),
        (23, 0.68, (0.326, 0.449), 0.010),
    ]
    ok = True
    detail = []
    for s, level, (lo_ref, hi_ref), tol in checks:
        lo, hi = beta_ci(s, 60, level)
        ok &= abs(lo - lo_ref) <= tol and abs(hi - hi_ref) <= tol
        detail.append(f"s={s}@{level:.2f}->({lo:.3f},{hi:.3f})")
    upper_zero = beta_ci(0, 60, 0.95)[1]
    ok &= abs(upper_zero - 0.059) <= 0.005
    detail.append(f"s=0@0.95 upper={upper_zero:.3f}")
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report("criterion-3", ok, "; ".join(detail) + f", {elapsed:.2f}s")


def test_criterion_4_distribution_convergence():
    """Every target p_k inside its 95% CI after L=10; meta-study coverage >= 90%."""
    t0 = time.time()
    targets = [
        (0.1, 0.3, 0.3, 0.2, 0.1),
        (0.2, 0.2, 0.2, 0.2, 0.2),
        (0.3, 0.4, 0.2, 0.1, 0.0),
    ]
    g = _calibrated_unit_shift()

    def run_l10(probs, seed, photons):
        cfg = ExperimentConfig(
            event_probabilities=probs,
            unit_shift_um=g,
            photons_per_trial=photons,
            master_seed=seed,
        )
        records = simulate_trials(cfg, g)
        report, _ = estimate_trials([r.histogram for r in records], cfg, g)
        return report

    # headline seeded runs at the default photon budget
    headline_ok = True
    for probs in targets:
        report = run_l10(probs, seed=20220914, photons=1_000_000)
        headline_ok &= all(
            lo <= p <= hi for p, (lo, hi) in zip(probs, report.ci95)
        )

    # seeded 200-replication meta-study per target set (1e5 photons/trial:
    # reconstruction noise is negligible against the CI width over 60 events)
    reps = 200
    worst = 1.0
    for ti, probs in enumerate(targets):
        hits = np.zeros(len(probs))
        for rep in range(reps):
            report = run_l10(probs, seed=derive_seed(777, ti, rep), photons=100_000)
            for k, (p, (lo, hi)) in enumerate(zip(probs, report.ci95)):
                hits[k] += lo <= p <= hi
        worst = min(worst, float(hits.min()) / reps)
    elapsed = time.time() - t0
    ok = headline_ok and worst >= 0.90 and elapsed < 1800.0
    _report(
        "criterion-4",
        ok,
        f"headline all-in-CI={headline_ok}, worst per-k coverage={worst:.3f} "
        f"over {reps} replications, {elapsed:.0f}s",
    )


def test_criterion_5_qze_scaling():
    """Constant-coupling J_N/J_1 == 1/N exactly; monotone Zeno gain at fixed total."""
    t0 = time.time()
    # dyadic coupling -> the cancelled ratio is exact in floating point
    rows = qze_scaling_report(
        QUARTER, SIGMA, constant_coupling(75.0), list(range(1, 101)),
        ensemble_size=1, seed=11, survival_samples=0,
    )
    exact = all(r.j_ratio_mean == 1.0 / r.n_events for r in rows)
    # decay_parameter quotient agrees with the cancelled form
    real = ChannelRealization((75.0,) * 10)
    quotient = decay_parameter(QUARTER, SIGMA, real, "fixed-bath") / decay_parameter(
        QUARTER, SIGMA, real, "single-measurement"
    )
    quotient_ok = abs(quotient - 0.1) < 1e-13

    total = 3.0 * SIGMA
    ratios = []
    for n in (1, 2, 4, 8, 16, 32, 64):
        real = ChannelRealization((total / n,) * n)
        protected = run_protected(QUARTER, SIGMA, real).total_survival
        ratios.append(protected / run_unprotected(QUARTER, SIGMA, real))
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.time() - t0
    ok = exact and quotient_ok and monotone and elapsed < 10.0
    _report(
        "criterion-5",
        ok,
        f"J ratio exact for N=1..100: {exact}, survival ratio monotone "
        f"({ratios[0]:.3f} -> {ratios[-1]:.3f}), {elapsed:.1f}s",
    )


def test_criterion_6_analytics_oracle_suite():
    """Closed forms vs quadrature at 1e-10; quartic residual; cooling sequence."""
    from zenosense.wavepacket import GaussianSum, lattice_density, lattice_weights
    from oracles import dense_overlap, moment, momentum_second_moment

    t0 = time.time()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        state = oracles.random_state(rng, max_components=16)
        worst = max(worst, abs(dense_overlap(state, state).real - oracles.quad_norm_sq(state)))
        worst = max(worst, abs(moment(state, 1) - oracles.quad_moment(state, 1)))
        worst = max(worst, abs(moment(state, 2) - oracles.quad_moment(state, 2)))
        worst = max(
            worst,
            abs(momentum_second_moment(state) - oracles.quad_momentum_second(state)),
        )
        other = GaussianSum(
            state.sigma,
            rng.normal(0.3, 1.0, size=3) + 1j * rng.normal(0.0, 0.5, size=3),
            rng.uniform(-2.0, 6.0, size=3) * state.sigma,
        )
        worst = max(worst, abs(dense_overlap(state, other) - oracles.quad_overlap(state, other)))
    # lattice survival (a row's sum) and density, the forms the pipeline uses
    lattice_rng = np.random.default_rng(607)
    lattice_worst = 0.0
    for _ in range(100):
        theta, sigma, h, multipliers, counts = oracles.random_lattice_rows(lattice_rng, 1)
        state = oracles.lattice_state(theta, sigma, h, multipliers, counts[0])
        weights = lattice_weights(theta, sigma, h, multipliers, counts)
        lattice_worst = max(lattice_worst, abs(float(weights.sum()) - oracles.quad_norm_sq(state)))
        x = float(lattice_rng.uniform(-2.0, 6.0) * sigma + 0.5 * h * lattice_rng.integers(0, weights.shape[1]))
        density = float(lattice_density(weights, sigma, h, [x])[0, 0])
        lattice_worst = max(lattice_worst, abs(density - oracles.quad_density(state, x)))
    closed_forms_ok = max(worst, lattice_worst) < 1e-10

    # residual of the second-order expansion 1 - G^2 DeltaS^2 / (4 sigma^2)
    # (sigma = 1) shrinks 16x (+/- 10%) when G halves
    def second_order(g_total):
        return 1.0 - g_total**2 * (math.sin(QUARTER) ** 2 * math.cos(QUARTER) ** 2) / 4.0

    residual_ok = True
    for g_total in (0.4, 0.2, 0.1):
        exact_hi = run_unprotected(QUARTER, 1.0, ChannelRealization((g_total,)))
        exact_lo = run_unprotected(QUARTER, 1.0, ChannelRealization((g_total / 2,)))
        r_hi = abs(exact_hi - second_order(g_total))
        r_lo = abs(exact_lo - second_order(g_total / 2))
        residual_ok &= abs(r_hi / r_lo - 16.0) <= 1.6

    # momentum moments strictly decrease along protected runs
    cooling_ok = True
    for rep in range(25):
        rng2 = make_rng(42, rep)
        couplings = tuple(rng2.uniform(0.2, 3.5, size=6))
        mm = run_protected(QUARTER, 1.0, ChannelRealization(couplings)).momentum_moments
        cooling_ok &= all(b < a for a, b in zip(mm, mm[1:]))

    elapsed = time.time() - t0
    ok = closed_forms_ok and residual_ok and cooling_ok and elapsed < 60.0
    _report(
        "criterion-6",
        ok,
        f"worst closed-form deviation {worst:.2e} (lattice {lattice_worst:.2e}), quartic residual ok={residual_ok}, "
        f"cooling ok={cooling_ok}, {elapsed:.1f}s",
    )


def test_criterion_7_exhaustive_oracle_equivalence():
    """Two-stage estimator matches the brute-force L2 oracle on all 210 truths."""
    t0 = time.time()
    g = _calibrated_unit_shift()
    alphabet = NoiseAlphabet(g, (0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
    candidates = tuple(enumerate_configurations(5, 6))
    states = [theoretical_state(c, QUARTER, SIGMA, alphabet.values) for c in candidates]

    # independent oracle: integrated squared distance on a dense grid,
    # moments by quadrature weights (trapezoid), degeneracy from moment pairs
    lo = min(s.centers.min() for s in states) - 8.0 * SIGMA
    hi = max(s.centers.max() for s in states) + 8.0 * SIGMA
    xs = np.linspace(lo, hi, 8001)
    dx = xs[1] - xs[0]
    dens = np.empty((len(candidates), xs.size))
    for i, state in enumerate(states):
        pref = (2.0 * math.pi * SIGMA**2) ** -0.25
        comps = pref * np.exp(-((xs[None, :] - state.centers[:, None]) ** 2) / (4 * SIGMA**2))
        psi = state.amplitudes @ comps
        rho = np.abs(psi) ** 2
        dens[i] = rho / np.trapezoid(rho, xs)
    gram = dens @ dens.T * dx
    d2 = np.add.outer(np.diag(gram), np.diag(gram)) - 2.0 * gram

    oracle_means = dens @ xs * dx
    oracle_vars = dens @ xs**2 * dx - oracle_means**2
    oracle_groups = oracles.moment_groups(
        oracle_means,
        oracle_vars,
        DEGENERATE_MEAN_TOL_FACTOR * SIGMA,
        DEGENERATE_VAR_TOL_FACTOR * SIGMA * SIGMA,
    )
    oracle_degenerate = {i for grp in oracle_groups for i in grp}

    mismatches = []
    flagged = set()
    for t, truth in enumerate(candidates):
        l2_oracle_pick = int(np.argmin(d2[t]))
        masses = oracles.pixel_masses(states[t], **GEOMETRY)
        est = estimate_from_masses(
            masses, GEOMETRY["pitch"], GEOMETRY["offset"],
            candidates, QUARTER, SIGMA, alphabet, method="moments",
        )
        if est.degenerate:
            flagged.add(t)
        if t not in oracle_degenerate:
            if est.config != candidates[l2_oracle_pick] or est.config != truth:
                mismatches.append(truth)
    flags_match = flagged == oracle_degenerate
    elapsed = time.time() - t0
    ok = not mismatches and flags_match and elapsed < 300.0
    _report(
        "criterion-7",
        ok,
        f"mismatches={len(mismatches)}, degenerate truths: estimator {sorted(flagged)} "
        f"vs oracle {sorted(oracle_degenerate)}, {elapsed:.1f}s",
    )
