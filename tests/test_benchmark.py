"""The benchmark's worker runs against the package: one tiny job of each kind.

``perfbench/worker.py`` calls the package's public functions and keywords
directly; a change that removes one of them fails here rather than only as a
failed benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


def pipeline_spec():
    """One batch of two N=6 trials at 1e4 photons."""
    text = run.config_text(
        event_probabilities=run.FIG3_TARGETS[0], n_events=6, n_trials=2, photons_per_trial=10_000
    )
    return {"kind": "pipeline", "configs": [text], "sets": [{"batches": [[11, 12]]}]}


def channel_spec():
    """Two seeded realizations (N=6, and the first D=5, N=100 one of the benchmark's
    long_channel job), a 5-event constant channel, a 2-value scaling ensemble of 4."""
    long_channel = run.job_spec("long_channel", run.DEFAULT_SEED)
    return {
        "kind": "channel",
        "configs": [run.config_text()],
        "realizations": [[0, 3, 1, 4, 2, 2], long_channel["realizations"][0]],
        "constant": {"n_events": 5, "g_over_sigma": 4.0},
        "scaling": {"n_values": [1, 5], "ensemble": 4, "survival_samples": 4, "coupling_um": 75.0, "seed": 3},
    }


@pytest.mark.parametrize("spec", [pipeline_spec(), channel_spec()], ids=["pipeline", "channel"])
def test_worker_job_succeeds(spec):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(run.WORKER)],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert result["survival_err"] <= run.SURVIVAL_RESOLUTION
