"""Run one benchmark job of zenosense in a fresh process.

``run.py`` starts this script, writes the job spec as JSON to its stdin and
reads the result, one JSON object, from the last line of its stdout. The
worker imports zenosense from the checkout's ``src`` directory, parses the
generated configs, calibrates the unit shift (the set-up), then runs the
job's operations one at a time. Each operation is timed and its outputs are
checked afterwards, outside the timed region; an exception or a failed check
marks the operation failed and the job goes on.

A spec with ``"probe": true`` stops after the set-up. A spec with
``"trace": true`` wraps the layer modules' public functions first (see
``tracer.py``) and adds per-layer figures to the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import zenosense  # noqa: E402
from zenosense import (  # noqa: E402
    channel,
    config,
    detector,
    estimator,
    noise_model,
    pipeline,
    seeds,
    wavepacket,
)

from tracer import Tracer  # noqa: E402

LAYER_MODULES = (channel, wavepacket, noise_model, detector, estimator, pipeline, config, seeds)


class Job:
    """Times operations, records failures and digests the outputs."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.op_s: list[float] = []
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def op(self, kind: str, fn):
        """Run ``fn`` as one timed operation; return its result or None."""
        index = len(self.op_s)
        result = None
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                self.tracer.trial = index
                with self.tracer.span(f"perfbench.op.{kind}"):
                    result = fn()
        except Exception as exc:  # counted as a failed operation; the job goes on
            self.fail(index, f"{kind}: {exc!r}")
        self.op_s.append(time.perf_counter() - start)
        return result

    def fail(self, index: int, message: str) -> None:
        self.failed_ops.add(index)
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """Output check on the most recent operation."""
        if not ok:
            self.fail(len(self.op_s) - 1, message)

    def add_bytes(self, data: bytes) -> None:
        self.digest.update(len(data).to_bytes(8, "little"))
        self.digest.update(data)


def _report_bytes(report) -> bytes:
    return (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def run_pipeline_job(spec: dict, setups: list, job: Job, stats: dict) -> None:
    """Closed loop of trials: simulate one trial, estimate it with both
    estimators, and after each L-trial batch build both Beta reports.

    ``pipeline.estimate_trials`` enumerates the candidates, estimates every
    histogram and builds the report for a whole batch. Its three steps are
    made here one trial at a time, so that each trial's latency can be
    timed, while every call it makes is made exactly as often as it makes it.
    """
    paused = job.tracer.paused if job.tracer is not None else contextlib.nullcontext
    for (cfg, g), batches in zip(setups, (s["batches"] for s in spec["sets"])):
        alphabet = cfg.alphabet(g)
        photons = cfg.photons_per_trial
        for b, trial_seeds in enumerate(batches):
            candidates = job.op(
                "candidates", lambda: tuple(noise_model.enumerate_configurations(alphabet.size, cfg.n_events))
            )
            if candidates is None:
                continue
            estimates = {"moments": [], "l2": []}
            for t, trial_seed in enumerate(trial_seeds):
                splits: list[float] = []

                def trial():
                    t0 = time.perf_counter()
                    (record,) = pipeline.simulate_trials(cfg, g, n_trials=1, master_seed=trial_seed)
                    out = [record]
                    for method in ("moments", "l2"):
                        t1 = time.perf_counter()
                        out.append(
                            estimator.estimate_histogram(
                                record.histogram, candidates, cfg.theta_rad, cfg.sigma_um, alphabet, method=method
                            )
                        )
                        splits.append(time.perf_counter() - t1)
                    return out

                out = job.op("trial", trial)
                if out is None:
                    continue
                record, est_m, est_l = out
                # the first trial of a config in a process builds its candidate table
                if (b, t) != (0, 0):
                    stats["trial_ms"].append(1e3 * job.op_s[-1])
                    stats["moments_ms"].append(1e3 * splits[0])
                    stats["l2_ms"].append(1e3 * splits[1])
                h = record.histogram
                drawn = int(h.counts.sum()) + int(h.overflow)
                job.check(drawn == photons, f"histogram holds {drawn} of {photons} photons")
                stats["photons"] += drawn
                stats["overflow"] += int(h.overflow)
                job.add_bytes(h.counts.tobytes() + int(h.overflow).to_bytes(8, "little"))
                for method, est in (("moments", est_m), ("l2", est_l)):
                    estimates[method].append(est)
                    stats["recovered"][method] += int(est.config == record.truth)
                    stats["reconstructed"][method] += 1
                    stats["degenerate"] += int(est.degenerate)
                stats["widenings"] += est_m.widenings
                with paused():
                    spectral = channel.protected_survival_spectral(
                        cfg.theta_rad, cfg.sigma_um, record.realization.couplings
                    )
                stats["survival_err"] = max(stats["survival_err"], abs(spectral - record.run.total_survival))
            if any(len(v) != len(trial_seeds) for v in estimates.values()):
                continue  # a failed trial leaves no full batch to report on

            def reports():
                return [
                    _report_bytes(estimator.build_report(estimates[m], alphabet, cfg.n_events, len(trial_seeds)))
                    for m in ("moments", "l2")
                ]

            out = job.op("report", reports)
            if out is not None:
                for data in out:
                    job.add_bytes(data)


def run_channel_job(spec: dict, setups: list, job: Job, stats: dict) -> None:
    """The channel layer alone: seeded realizations, the long constant
    channel and a scaling ensemble."""
    ((cfg, g),) = setups
    theta, sigma = cfg.theta_rad, cfg.sigma_um

    def check_survivals(values) -> None:
        job.check(
            all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
            f"survival outside [0, 1]: {values!r}",
        )

    for multipliers in spec["realizations"]:

        def evaluate():
            realization = channel.ChannelRealization(tuple(m * g for m in multipliers))
            run = channel.run_protected(theta, sigma, realization)
            unprotected = channel.run_unprotected(theta, sigma, realization)
            spectral = channel.protected_survival_spectral(theta, sigma, realization.couplings)
            return run, unprotected, spectral

        out = job.op("channel", evaluate)
        if out is None:
            continue
        stats["trial_ms"].append(1e3 * job.op_s[-1])
        run, unprotected, spectral = out
        check_survivals((run.total_survival, unprotected, spectral))
        stats["survival_err"] = max(stats["survival_err"], abs(spectral - run.total_survival))
        job.add_bytes(repr((run.total_survival, run.final_state.n_components, unprotected, spectral)).encode())

    const = spec["constant"]

    def constant():
        realization = channel.ChannelRealization((const["g_over_sigma"] * sigma,) * const["n_events"])
        run = channel.run_protected(theta, sigma, realization)
        return run, channel.protected_survival_spectral(theta, sigma, realization.couplings)

    out = job.op("constant", constant)
    if out is not None:
        run, spectral = out
        check_survivals((run.total_survival, spectral))
        stats["survival_err"] = max(stats["survival_err"], abs(spectral - run.total_survival))
        job.add_bytes(repr((run.total_survival, run.final_state.n_components, spectral)).encode())

    scal = spec["scaling"]

    def scaling():
        return channel.qze_scaling_report(
            theta,
            sigma,
            channel.uniform_coupling(scal["coupling_um"]),
            scal["n_values"],
            ensemble_size=scal["ensemble"],
            seed=scal["seed"],
            survival_samples=scal["survival_samples"],
        )

    rows = job.op("scaling", scaling)
    if rows is not None:
        job.check(len(rows) == len(scal["n_values"]), "scaling report lost rows")
        check_survivals([r.protected_mean for r in rows] + [r.unprotected_mean for r in rows])
        job.add_bytes(repr([tuple(vars(r).values()) for r in rows]).encode())


def layer_metrics(tracer: Tracer, stats: dict) -> dict:
    """Per-layer figures of a traced job (names as listed in BENCHMARK.json)."""
    s = tracer.summary()
    incl, calls, counts = s["inclusive_s"], s["calls"], s["counts"]

    # the estimator calls into the detector and wavepacket layers only to
    # build candidate tables; an estimate call with such a call beneath it
    # built (rather than reused) its table
    builds = tracer.spans_under("zenosense.estimator.", ("detector", "wavepacket"))
    cold = {tracer.ancestor(i, "estimator.estimate_histogram") for i in builds} - {-1}
    estimate_calls = calls.get("estimator.estimate_histogram", 0)
    build_s = sum(tracer.end[i] - tracer.start[i] for i in builds)
    runs = calls.get("channel.run_protected", 0)

    def p50(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "detector.sample_positions_s": incl.get("detector.sample_positions", 0.0),
        "detector.bin_s": incl.get("detector.bin_to_pixels", 0.0),
        "detector.photons": stats["photons"],
        "detector.overflow_photons": stats["overflow"],
        "detector.pixel_masses_s": incl.get("detector.pixel_masses", 0.0),
        "detector.pixel_masses_calls": calls.get("detector.pixel_masses", 0),
        "wavepacket.cumulative_mass_s": incl.get("wavepacket.cumulative_mass", 0.0),
        "wavepacket.pair_terms": counts.get("wavepacket.pair_terms", 0),
        "estimator.table_build_s": build_s,
        "estimator.table_builds": len(cold),
        "estimator.table_hit_ratio": (estimate_calls - len(cold)) / estimate_calls if estimate_calls else 0.0,
        "noise_model.enumerate_s": incl.get("noise_model.enumerate_configurations", 0.0),
        "noise_model.candidates": counts.get("noise_model.candidates", 0),
        "estimator.moments_ms_p50": p50(stats["moments_ms"]),
        "estimator.l2_ms_p50": p50(stats["l2_ms"]),
        "estimator.widenings": stats["widenings"],
        "estimator.degenerate_trials": stats["degenerate"],
        "estimator.build_report_s": incl.get("estimator.build_report", 0.0),
        "channel.run_protected_s": incl.get("channel.run_protected", 0.0),
        "channel.run_protected_calls": runs,
        "channel.final_components_mean": counts.get("channel.final_components", 0) / runs if runs else 0.0,
        "wavepacket.apply_noise_kernel_s": incl.get("wavepacket.apply_noise_kernel", 0.0),
        "wavepacket.inner_product_s": incl.get("wavepacket.inner_product", 0.0),
        "channel.spectral_s": incl.get("channel.protected_survival_spectral", 0.0),
        "channel.spectral_calls": calls.get("channel.protected_survival_spectral", 0),
        "channel.calibrate_s": incl.get("channel.calibrate_unit_shift", 0.0),
        "noise_model.sample_realization_s": incl.get("noise_model.sample_realization", 0.0),
        "pipeline.simulate_s": incl.get("pipeline.simulate_trials", 0.0),
        "estimator.estimate_s": incl.get("estimator.estimate_histogram", 0.0),
        "trace.unattributed_s": s["unattributed_s"],
        "trace.wall_s": s["op_wall_s"],
    }
    for layer, value in s["layer_self_s"].items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def main() -> int:
    spec = json.loads(sys.stdin.read())
    if not Path(zenosense.__file__).resolve().is_relative_to(SRC):
        print(f"zenosense imported from {zenosense.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install(LAYER_MODULES)
    setups = []
    for text in spec["configs"]:
        cfg = config.parse_config(text, source="perfbench")
        setups.append((cfg, pipeline.resolve_unit_shift(cfg)))
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if not spec.get("probe"):
        job = Job(tracer)
        stats = {
            "trial_ms": [],
            "moments_ms": [],
            "l2_ms": [],
            "photons": 0,
            "overflow": 0,
            "widenings": 0,
            "degenerate": 0,
            "recovered": {"moments": 0, "l2": 0},
            "reconstructed": {"moments": 0, "l2": 0},
            "survival_err": 0.0,
        }
        if spec["kind"] == "pipeline":
            run_pipeline_job(spec, setups, job, stats)
        else:
            run_channel_job(spec, setups, job, stats)
        result.update(
            wall_s=sum(job.op_s),
            attempted=len(job.op_s),
            failed=len(job.failed_ops),
            failures=job.failures,
            digest=job.digest.hexdigest(),
            trial_ms=stats["trial_ms"],
            recovered=stats["recovered"],
            reconstructed=stats["reconstructed"],
            survival_err=stats["survival_err"],
        )
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, stats)
            if spec.get("spans_path"):
                tracer.dump(spec["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
