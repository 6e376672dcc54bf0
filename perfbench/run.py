"""Benchmark of zenosense: one workload per run, measured for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_l10 --seed 20220914 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep

Workloads (see DESIGN.md for why each was chosen):

* ``paper_l10``: the paper's Fig. 3 experiment. The three target sets, each
  run as two L=10 batches of 1e6-photon trials at N=6; both estimators on
  every trial, then the Beta reports.
* ``wide_n10``: N=10 (1001 candidates), 1e5 photons, one target set, twenty
  L=10 batches against a process-cold candidate table.
* ``long_channel``: the channel layer alone: seeded D=5 realizations at
  N=100 and N=200, the constant-coupling channel N=500, g=4 sigma, and a
  uniform-coupling scaling ensemble up to N=500.

Every input is generated from ``--seed``; zenosense receives only the
generated configs, seeds and realizations. Default seed 20220914; seed 7 is
held out for confirming a gain on a seed not used while writing it.

Each job runs in a fresh worker process (``worker.py``), one at a time
(closed loop, one operation in flight), with BLAS pinned to one thread, so
every job pays its own cold candidate-table builds as a command-line user
does. The same job repeats, with the same inputs, until ``--seconds`` is
spent and at least 100 trial latencies are recorded; the set-up (interpreter
start, imports, config, calibration) is timed in at least five processes.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same job runs untraced and then traced, and the last line
carries the per-layer metrics. ``--sweep`` records traced per-layer cost over
N x photons, outside the gated workloads. Results and spans are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("paper_l10", "wide_n10", "long_channel")
DEFAULT_SEED = 20220914
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 5
# enough latency samples for a p90 with ten samples beyond it
MIN_TRIAL_SAMPLES = 100
# protected_survival_spectral documents 1e-13 absolute accuracy; smaller
# differences from the component-resolved survival read as 1e-13
SURVIVAL_RESOLUTION = 1e-13
BLAS_THREADS = "1"
SWEEP_CELL_BUDGET_S = 60.0

FIG3_TARGETS = (
    (0.1, 0.3, 0.3, 0.2, 0.1),
    (0.2, 0.2, 0.2, 0.2, 0.2),
    (0.3, 0.4, 0.2, 0.1, 0.0),
)
TRIALS_PER_BATCH = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "recovery_rate_moments": "ratio",
    "recovery_rate_l2": "ratio",
    "survival_max_abs_err": "abs",
    "success_rate": "ratio",
}


class WorkerError(RuntimeError):
    """A worker process failed before reporting a result."""


def config_text(**values) -> str:
    """Config file text in the grammar of zenosense.config."""
    lines = []
    for key, value in values.items():
        if isinstance(value, tuple):
            value = ", ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def pipeline_spec(rng: random.Random, sets, n_events: int, photons: int, batches: int) -> dict:
    return {
        "kind": "pipeline",
        "configs": [
            config_text(
                event_probabilities=targets,
                n_events=n_events,
                n_trials=TRIALS_PER_BATCH,
                photons_per_trial=photons,
            )
            for targets in sets
        ],
        "sets": [
            {"batches": [[rng.getrandbits(32) for _ in range(TRIALS_PER_BATCH)] for _ in range(batches)]}
            for _ in sets
        ],
    }


def job_spec(workload: str, seed: int) -> dict:
    """Inputs of a job, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "paper_l10":
        return pipeline_spec(rng, FIG3_TARGETS, n_events=6, photons=1_000_000, batches=2)
    if workload == "wide_n10":
        return pipeline_spec(rng, FIG3_TARGETS[1:2], n_events=10, photons=100_000, batches=20)
    if workload == "long_channel":
        # few N=200 channels, so that the per-channel latency percentiles sit
        # among the N=100 ones rather than on the boundary between the two
        sizes = [100] * 120 + [200] * 4
        return {
            "kind": "channel",
            "configs": [config_text()],
            "realizations": [[rng.randrange(5) for _ in range(n)] for n in sizes],
            "constant": {"n_events": 500, "g_over_sigma": 4.0},
            "scaling": {
                "n_values": [1, 2, 5, 10, 20, 50, 100, 200, 500],
                "ensemble": 256,
                "survival_samples": 48,
                "coupling_um": 75.0,
                "seed": rng.getrandbits(32),
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def run_worker(spec: dict, deadline: float) -> dict:
    """Run one worker to completion; kill it if it outlives ``deadline``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - t_spawn))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    result["elapsed_s"] = time.monotonic() - t_spawn
    return result


def source_digest() -> str:
    """Digest of the measured code: the package and this benchmark."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "zenosense").glob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        **versions,
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def check_digests(workload: str, seed: int, jobs: list, source: str) -> list[str]:
    """Compare the jobs' output digests with each other and with earlier runs
    of the same seed and code, and record them. One message per mismatch."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    expected = known.setdefault(f"{workload} seed={seed} source={source}", jobs[0]["digest"])
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return [
        f"job {index}: output digest differs from an earlier job or run of this seed"
        for index, job in enumerate(jobs)
        if job["digest"] != expected
    ]


def end_to_end(jobs: list, setups: list, failed: int) -> dict:
    trial_ms = [ms for job in jobs for ms in job["trial_ms"]]
    recovered = {m: sum(j["recovered"][m] for j in jobs) for m in ("moments", "l2")}
    reconstructed = {m: sum(j["reconstructed"][m] for j in jobs) for m in ("moments", "l2")}
    attempted = sum(j["attempted"] for j in jobs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_p90": statistics.quantiles(trial_ms, n=10)[8],
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        # a workload that reconstructs nothing has missed nothing
        **{
            f"recovery_rate_{m}": recovered[m] / reconstructed[m] if reconstructed[m] else 1.0
            for m in ("moments", "l2")
        },
        "survival_max_abs_err": max([SURVIVAL_RESOLUTION] + [j["survival_err"] for j in jobs]),
        "success_rate": 1.0 - failed / attempted,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload and return its record, metrics included."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    if trace:
        spec = job_spec(workload, seed)
        plain = run_worker(spec, deadline)
        spans = OUT / f"{workload}-seed{seed}-spans.json"
        traced = run_worker(dict(spec, trace=True, spans_path=str(spans)), deadline)
        jobs = [plain, traced]
        notes = [] if traced["digest"] == plain["digest"] else ["traced and untraced outputs differ"]
        values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        units = {name: layer_unit(name) for name in sorted(values)}
    else:
        spec = job_spec(workload, seed)
        jobs = []
        while True:
            jobs.append(run_worker(spec, deadline))
            per_job = statistics.median(j["elapsed_s"] for j in jobs)
            samples = sum(len(j["trial_ms"]) for j in jobs)
            if samples >= MIN_TRIAL_SAMPLES and time.monotonic() + per_job > start + seconds:
                break
        setups = [j["setup_s"] for j in jobs]
        probe = {"probe": True, "configs": spec["configs"]}
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(probe, deadline)["setup_s"])
        notes = check_digests(workload, seed, jobs, source_digest())
        values = end_to_end(jobs, setups, sum(j["failed"] for j in jobs) + len(notes))
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "trace": int(trace),
        "env": environment(seed, jobs[0]["versions"]),
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs) + len(notes),
        "failures": notes + [msg for j in jobs for msg in j["failures"]],
        "jobs": [
            {k: j[k] for k in ("setup_s", "wall_s", "elapsed_s", "attempted", "failed", "digest", "peak_rss_mb")}
            for j in jobs
        ],
        "trial_samples": sum(len(j["trial_ms"]) for j in jobs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def sweep() -> int:
    """Traced per-layer cost of one cold L=10 batch over N x photons.

    Cells that outlive the budget are recorded as skipped."""
    OUT.mkdir(exist_ok=True)
    cells = []
    for n_events in (6, 8, 10, 20):
        for photons in (100_000, 1_000_000):
            rng = random.Random(f"sweep/{n_events}/{photons}")
            spec = dict(pipeline_spec(rng, FIG3_TARGETS[1:2], n_events, photons, batches=1), trace=True)
            cell = {"n_events": n_events, "photons": photons}
            try:
                res = run_worker(spec, time.monotonic() + SWEEP_CELL_BUDGET_S)
            except subprocess.TimeoutExpired:
                cell.update(status="skipped", reason=f"over the {SWEEP_CELL_BUDGET_S:g} s budget")
            except WorkerError as exc:
                cell.update(status="failed", reason=str(exc))
            else:
                cell.update(status="ok", wall_s=res["wall_s"], failed=res["failed"], layers=res["layers"])
            cells.append(cell)
            shown = f"{cell['wall_s']:9.3f} s" if cell["status"] == "ok" else f"  {cell['status']}"
            print(f"N={n_events:<3} photons={photons:<8} {shown}", flush=True)
    path = OUT / "sweep.json"
    path.write_text(json.dumps({"budget_s": SWEEP_CELL_BUDGET_S, "cells": cells}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="run the ungated N x photons sweep")
    args = parser.parse_args(argv)
    if args.sweep:
        return sweep()
    if args.workload is None:
        parser.error("--workload is required unless --sweep is given")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={len(record['jobs'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(
        f"attempted={record['attempted']} failed={record['failed']} "
        f"error_rate={record['failed'] / record['attempted']:.6g} trial_samples={record['trial_samples']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    for message in record["failures"]:
        print(f"  failure: {message}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
