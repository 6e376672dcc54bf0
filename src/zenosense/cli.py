"""Command-line front end: simulate, estimate, calibrate, reproduce, scaling-report.

Every command is a pure function of (config, seed) to bytes on disk; data
files and plots contain no timestamps, so re-running a command reproduces
them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from zenosense.channel import (
    CALIBRATION_THETA,
    ScalingRow,
    calibrate_unit_shift,
    constant_coupling,
    qze_scaling_report,
    run_unprotected,
    uniform_coupling,
)
from zenosense.config import ConfigError, ExperimentConfig, load_config, serialize_config
from zenosense.detector import read_histogram_csv, write_histogram_csv
from zenosense.estimator import EstimateReport, beta_ci
from zenosense.noise_model import Configuration, config_realization, enumerate_configurations
from zenosense.pipeline import (
    REFERENCE_CONFIG,
    check_geometry,
    estimate_trials,
    reference_shift_multiples,
    resolve_unit_shift,
    simulate_trials,
)
from zenosense.svgplot import Figure
from zenosense.wavepacket import lattice_density, lattice_weights

__all__ = ["main"]

FIG3_TARGETS = {
    "fig3a": (0.1, 0.3, 0.3, 0.2, 0.1),
    "fig3b": (0.2, 0.2, 0.2, 0.2, 0.2),
    "fig3c": (0.3, 0.4, 0.2, 0.1, 0.0),
}
# category highlighted in the corresponding convergence panel
FIG3_HIGHLIGHT = {"fig3a": 0, "fig3b": 2, "fig3c": 4}

_REPRODUCE_SEED = 20220914


def _write_json(path: Path, payload) -> None:
    # a non-finite value raises instead of writing an Infinity or NaN literal
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ensure_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_or_default_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    # the flags that set a config key store it under the key's name
    given = {f.name: v for f in fields(ExperimentConfig) if (v := getattr(args, f.name, None)) is not None}
    return replace(config, **given)


def cmd_simulate(args) -> int:
    config = _load_or_default_config(args)
    out = _ensure_dir(Path(config.output_dir))
    unit_shift = resolve_unit_shift(config)
    records = simulate_trials(config, unit_shift)
    resolved = replace(config, unit_shift_um=unit_shift)
    (out / "config.txt").write_text(serialize_config(resolved))
    trials_manifest = []
    for rec in records:
        name = f"trial_{rec.index:03d}.csv"
        write_histogram_csv(rec.histogram, out / name)
        report_name = f"run_report_{rec.index:03d}.json"
        _write_json(
            out / report_name,
            {
                "trial": rec.index,
                "seed": rec.seed,
                "configuration": list(rec.truth.counts),
                "couplings_um": list(rec.realization.couplings),
                "total_survival": rec.run.total_survival,
                "step_survivals": list(rec.run.step_survivals),
                "momentum_second_moments": list(rec.run.momentum_moments),
                "overflow": rec.histogram.overflow,
            },
        )
        trials_manifest.append(
            {
                "index": rec.index,
                "seed": rec.seed,
                "configuration": list(rec.truth.counts),
                "total_survival": rec.run.total_survival,
                "histogram": name,
                "run_report": report_name,
                "sha256": _sha256(out / name),
            }
        )
    _write_json(
        out / "manifest.json",
        {
            "command": "simulate",
            "master_seed": config.master_seed,
            "unit_shift_um": unit_shift,
            "n_trials": len(records),
            "photons_per_trial": config.photons_per_trial,
            "config_file": "config.txt",
            "trials": trials_manifest,
        },
    )
    print(f"simulated {len(records)} trials into {out}")
    return 0


def _format_table(
    report: EstimateReport, targets: tuple[float, ...] | None
) -> str:
    lines = []
    header = f"{'Target p_k':>10} | {'Estimated p_k':>13} | {'68% CI':^14} | {'95% CI':^14}"
    lines.append(header)
    lines.append("-" * len(header))
    for k, p in enumerate(report.probabilities):
        tgt = f"{targets[k]:.1f}" if targets is not None else "-"
        lo68, hi68 = report.ci68[k]
        lo95, hi95 = report.ci95[k]
        lines.append(
            f"{tgt:>10} | {p:>13.3f} | ({lo68:.3f}; {hi68:.3f}) | ({lo95:.3f}; {hi95:.3f})"
        )
    return "\n".join(lines) + "\n"


def cmd_estimate(args) -> int:
    config = _load_or_default_config(args)
    out = _ensure_dir(Path(config.output_dir))
    unit_shift = resolve_unit_shift(config)
    histograms = []
    for path in args.histograms:
        hist = read_histogram_csv(path)
        check_geometry(hist, config, str(path))
        if hist.total <= 0:
            raise ValueError(f"{path}: histogram is empty")
        histograms.append(hist)
    report, _ = estimate_trials(histograms, config, unit_shift)
    _write_json(out / "report.json", report.to_dict())
    table = _format_table(report, config.event_probabilities)
    (out / "table.txt").write_text(table)
    print(table, end="")
    print(f"report written to {out / 'report.json'}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_or_default_config(args)
    out = _ensure_dir(Path(config.output_dir))
    target = args.target if args.target is not None else config.calibration_target
    g = calibrate_unit_shift(config.sigma_um, target, reference_shift_multiples(config))
    sigma = config.sigma_um
    reference = Configuration(REFERENCE_CONFIG)
    alphabet = config.alphabet(g)
    unprotected = run_unprotected(CALIBRATION_THETA, sigma, config_realization(reference, alphabet))
    payload = {
        "target_survival": target,
        "unit_shift_um": g,
        "g_over_sigma": g / sigma,
        "u": g * g / (8.0 * sigma * sigma),
        "reference_configuration": list(REFERENCE_CONFIG),
        "unprotected_survival": unprotected,
    }
    _write_json(out / "calibration.json", payload)
    print(
        f"calibrated unit shift g = {g:.4f} um (g/sigma = {g / sigma:.4f}); "
        f"unprotected survival of the reference set = {unprotected:.4f}"
    )
    return 0


def _reproduce_fig2(out: Path, seed: int, photons: int) -> None:
    config = ExperimentConfig(
        forced_config=REFERENCE_CONFIG,
        n_trials=1,
        photons_per_trial=photons,
        master_seed=seed,
    )
    unit_shift = resolve_unit_shift(config)
    records = simulate_trials(config, unit_shift)
    rec = records[0]
    write_histogram_csv(rec.histogram, out / "fig2_histogram.csv")
    report_m, (est_m,) = estimate_trials([rec.histogram], config, unit_shift, method="moments")
    report_l, _ = estimate_trials([rec.histogram], config, unit_shift, method="l2")

    alphabet = config.alphabet(unit_shift)
    candidates = tuple(enumerate_configurations(alphabet.size, config.n_events))
    sigma = config.sigma_um
    grid = np.linspace(-3.0 * sigma, 10.0 * unit_shift + 3.0 * sigma, 600)

    weights = lattice_weights(config.theta_rad, sigma, unit_shift, alphabet.multipliers, [c.counts for c in candidates])
    densities = lattice_density(weights, sigma, unit_shift, grid)
    hist = rec.histogram
    centers = hist.centers()
    window = (centers >= grid[0]) & (centers <= grid[-1])
    measured_density = hist.counts[window] / (hist.total * hist.pitch)
    true_idx = candidates.index(rec.truth)
    recon_idx = est_m.index

    fig = Figure(
        title="Output spatial distribution and candidate densities",
        xlabel="x (um)",
        ylabel="probability density (1/um)",
    )
    for i, density in enumerate(densities):
        if i in (true_idx, recon_idx):
            continue
        color = "#d62728" if i in est_m.mean_window else "#c8c8c8"
        fig.add_line(grid, density, color=color, width=0.6)
    recon_density = densities[recon_idx]
    true_density = densities[true_idx]
    if recon_idx != true_idx:
        fig.add_line(grid, true_density, color="#1f77b4", width=2.0, dash="6,4", label="true set")
    fig.add_line(grid, recon_density, color="#2ca02c", width=2.5, label="reconstructed set")
    fig.add_points(centers[window], measured_density, color="#000000", radius=1.6, label="measured")
    fig.save(out / "fig2.svg")

    curve = np.column_stack([grid, true_density])
    _write_csv(out / "fig2_density_true.csv", ["x_um", "density_per_um"], curve)
    _write_json(
        out / "fig2_report.json",
        {
            "true_configuration": list(rec.truth.counts),
            "reconstructed_moments": report_m.to_dict(),
            "reconstructed_l2": report_l.to_dict(),
            "protected_survival": rec.run.total_survival,
            "unprotected_survival": run_unprotected(
                config.theta_rad, sigma, rec.realization
            ),
            "unit_shift_um": unit_shift,
            "mean_matched_subset": [list(candidates[i].counts) for i in est_m.mean_window],
        },
    )


def _reproduce_fig3(name: str, out: Path, seed: int, photons: int) -> None:
    targets = FIG3_TARGETS[name]
    config = ExperimentConfig(
        event_probabilities=targets,
        n_trials=10,
        photons_per_trial=photons,
        master_seed=seed,
    )
    unit_shift = resolve_unit_shift(config)
    records = simulate_trials(config, unit_shift)
    report, estimates = estimate_trials([r.histogram for r in records], config, unit_shift)
    _write_json(out / f"{name}_report.json", report.to_dict())
    (out / f"{name}_table.txt").write_text(_format_table(report, targets))

    k = FIG3_HIGHLIGHT[name]
    n = config.n_events
    rows = []
    for ell in range(1, len(estimates) + 1):
        s_k = sum(e.config.counts[k] for e in estimates[:ell])
        total = n * ell
        lo68, hi68 = beta_ci(s_k, total, 0.68)
        lo95, hi95 = beta_ci(s_k, total, 0.95)
        rows.append([ell, s_k / total, lo68, hi68, lo95, hi95])
    rows = np.asarray(rows)
    fig = Figure(
        title=f"Convergence of p_{k + 1} (target {targets[k]:.1f})",
        xlabel="number of trials L",
        ylabel=f"p_{k + 1}",
    )
    fig.add_band(rows[:, 0], rows[:, 4], rows[:, 5], color="#ff7f0e", opacity=0.35, label="95% CI")
    fig.add_band(rows[:, 0], rows[:, 2], rows[:, 3], color="#d62728", opacity=0.40, label="68% CI")
    fig.add_hline(targets[k], color="#1f77b4", label="target")
    fig.add_points(rows[:, 0], rows[:, 1], color="#000000", radius=3.0, label="estimate")
    fig.save(out / f"{name}.svg")
    _write_csv(
        out / f"{name}_convergence.csv",
        ["n_trials", "p_estimate", "ci68_lo", "ci68_hi", "ci95_lo", "ci95_hi"],
        rows,
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _scaling_rows_csv(path: Path, rows) -> None:
    _write_csv(path, [f.name for f in fields(ScalingRow)], [astuple(r) for r in rows])


def _reproduce_scaling(out: Path, seed: int) -> None:
    theta, sigma = math.pi / 4.0, 150.0
    g = 75.0  # dyadic coupling keeps the constant-coupling identity exact
    n_constant = list(range(1, 101))
    rows_const = qze_scaling_report(
        theta, sigma, constant_coupling(g), n_constant, ensemble_size=1, seed=seed
    )
    n_random = [1, 2, 5, 10, 20, 50, 100]
    rows_rand = qze_scaling_report(
        theta,
        sigma,
        uniform_coupling(g),
        n_random,
        ensemble_size=512,
        seed=seed,
        survival_samples=64,
    )
    _scaling_rows_csv(out / "scaling_constant.csv", rows_const)
    _scaling_rows_csv(out / "scaling_uniform.csv", rows_rand)
    fig = Figure(
        title="Zeno suppression of the decay parameter",
        xlabel="number of measurements N",
        ylabel="J_N / J_1",
    )
    ns = [r.n_events for r in rows_const]
    fig.add_line(ns, [1.0 / n for n in ns], color="#1f77b4", width=2.0, label="1/N")
    fig.add_points(ns, [r.j_ratio_mean for r in rows_const], color="#2ca02c", radius=1.8, label="constant coupling")
    fig.add_band(
        [r.n_events for r in rows_rand],
        [r.j_ratio_mean - r.j_ratio_std for r in rows_rand],
        [r.j_ratio_mean + r.j_ratio_std for r in rows_rand],
        color="#d62728",
        opacity=0.25,
        label="uniform couplings +/- std",
    )
    fig.add_line(
        [r.n_events for r in rows_rand],
        [r.j_ratio_mean for r in rows_rand],
        color="#d62728",
        width=1.5,
    )
    fig.save(out / "scaling.svg")


def cmd_reproduce(args) -> int:
    out = _ensure_dir(Path(args.out))
    seed = args.seed if args.seed is not None else _REPRODUCE_SEED
    photons = args.photons if args.photons is not None else 1_000_000
    if args.figure == "fig2":
        _reproduce_fig2(out, seed, photons)
    elif args.figure in FIG3_TARGETS:
        _reproduce_fig3(args.figure, out, seed, photons)
    elif args.figure == "scaling":
        _reproduce_scaling(out, seed)
    else:  # unreachable behind argparse choices
        raise ValueError(f"unknown figure {args.figure!r}")
    print(f"wrote {args.figure} artifacts to {out}")
    return 0


def cmd_scaling_report(args) -> int:
    config = _load_or_default_config(args)
    out = _ensure_dir(Path(config.output_dir))
    n_values = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if args.sampler == "constant":
        sampler = constant_coupling(args.coupling)
    else:
        sampler = uniform_coupling(args.coupling)
    rows = qze_scaling_report(
        config.theta_rad,
        config.sigma_um,
        sampler,
        n_values,
        ensemble_size=args.ensemble,
        seed=config.master_seed,
        survival_samples=args.survival_samples,
    )
    _scaling_rows_csv(out / "scaling_report.csv", rows)
    for r in rows:
        print(
            f"N={r.n_events:>4}  J_N/J_1 = {r.j_ratio_mean:.6f} +/- {r.j_ratio_std:.6f}  "
            f"survival ratio = {r.survival_ratio_mean:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosense",
        description="Simulate a Zeno-protected noisy photonic channel and "
        "reconstruct the statistics of its noise events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate trials and write histograms")
    p_sim.add_argument("--config", help="experiment config file")
    p_sim.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="override the master seed")
    p_sim.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p_sim.add_argument("--photons", dest="photons_per_trial", metavar="PHOTONS", type=int, help="photons per trial")
    p_sim.add_argument("--trials", dest="n_trials", metavar="TRIALS", type=int, help="number of trials")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="reconstruct noise statistics from histograms")
    p_est.add_argument("histograms", nargs="+", help="trial histogram CSV files")
    p_est.add_argument("--config", help="experiment config file")
    p_est.add_argument("--estimator", choices=["l2", "moments"])
    p_est.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p_est.set_defaults(func=cmd_estimate)

    p_cal = sub.add_parser("calibrate", help="solve for the unit shift g")
    p_cal.add_argument("--config", help="experiment config file")
    p_cal.add_argument("--target", type=float, help="protected survival target")
    p_cal.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p_cal.set_defaults(func=cmd_calibrate)

    p_rep = sub.add_parser("reproduce", help="run a canned figure recipe")
    p_rep.add_argument(
        "--figure",
        required=True,
        choices=["fig2", "fig3a", "fig3b", "fig3c", "scaling"],
    )
    p_rep.add_argument("--out", default="out", help="output directory")
    p_rep.add_argument("--seed", type=int, help="override the recipe seed")
    p_rep.add_argument("--photons", type=int, help="override photons per trial")
    p_rep.set_defaults(func=cmd_reproduce)

    p_scal = sub.add_parser("scaling-report", help="ensemble J_N/J_1 and survival ratios vs N")
    p_scal.add_argument("--config", help="experiment config file")
    p_scal.add_argument("--n-list", default="1,2,5,10,20,50,100")
    p_scal.add_argument("--ensemble", type=int, default=1000)
    p_scal.add_argument("--survival-samples", type=int, default=None)
    p_scal.add_argument("--sampler", choices=["constant", "uniform"], default="uniform")
    p_scal.add_argument("--coupling", type=float, default=75.0, help="coupling scale in um")
    p_scal.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    p_scal.set_defaults(func=cmd_scaling_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
