"""CLI commands: determinism, file contracts, error diagnostics."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from zenosense import cli
from zenosense.cli import main
from zenosense.config import ExperimentConfig, serialize_config
from zenosense.detector import read_histogram_csv
from zenosense.noise_model import Configuration

import oracles


def write_config(path: Path, **kwargs) -> Path:
    cfg = ExperimentConfig(**kwargs)
    path.write_text(serialize_config(cfg))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def strict_json(path: Path):
    """Parse a file as strict JSON: an Infinity or NaN literal raises."""

    def refuse(literal):
        raise ValueError(f"{path.name} holds the non-JSON literal {literal}")

    return json.loads(path.read_text(), parse_constant=refuse)


SMALL = dict(
    n_trials=2,
    photons_per_trial=20_000,
    master_seed=7,
    unit_shift_um=114.051797,
)


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.txt", **SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", out_a) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == [
            "config.txt",
            "manifest.json",
            "run_report_000.json",
            "run_report_001.json",
            "trial_000.csv",
            "trial_001.csv",
        ]
        snapshot = {name: (out_a / name).read_bytes() for name in names}
        # re-running the same command reproduces every byte
        assert run("simulate", "--config", cfg, "--out", out_a) == 0
        for name in names:
            assert (out_a / name).read_bytes() == snapshot[name], name
        # a different output directory changes only the embedded output_dir
        assert run("simulate", "--config", cfg, "--out", out_b) == 0
        for name in names:
            if name != "config.txt":
                assert (out_b / name).read_bytes() == snapshot[name], name

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.txt", **SMALL)
        out = tmp_path / "out"
        run("simulate", "--config", cfg, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        for trial in manifest["trials"]:
            digest = hashlib.sha256((out / trial["histogram"]).read_bytes()).hexdigest()
            assert digest == trial["sha256"]

    def test_degenerate_distribution_single_peak(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.txt",
            event_probabilities=(1.0, 0.0, 0.0, 0.0, 0.0),
            **SMALL,
        )
        out = tmp_path / "out"
        run("simulate", "--config", cfg, "--out", out)
        for i in range(2):
            report = json.loads((out / f"run_report_{i:03d}.json").read_text())
            assert report["total_survival"] == pytest.approx(1.0, abs=1e-12)
            hist = read_histogram_csv(out / f"trial_{i:03d}.csv")
            centers = hist.centers()
            occupied = centers[np.asarray(hist.counts) > 0]
            assert np.all(np.abs(occupied) < 5 * 150.0)

    def test_override_flags_set_config_keys(self, tmp_path):
        out = tmp_path / "x"
        assert run("simulate", "--seed", 5, "--photons", 1000, "--trials", 2, "--out", out) == 0
        assert sorted(p.name for p in out.glob("trial_*.csv")) == ["trial_000.csv", "trial_001.csv"]
        lines = (out / "config.txt").read_text().splitlines()
        for line in ("master_seed = 5", "photons_per_trial = 1000", "n_trials = 2", f"output_dir = {out}"):
            assert line in lines
        est = tmp_path / "est"
        trials = sorted(out.glob("trial_*.csv"))
        assert run("estimate", *trials, "--config", out / "config.txt", "--estimator", "l2", "--out", est) == 0
        assert json.loads((est / "report.json").read_text())["diagnostics"]["method"] == "l2"

    def test_out_that_would_not_round_trip_rejected(self, tmp_path, capsys):
        out = tmp_path / "run#1"
        assert run("simulate", "--trials", 1, "--photons", 1000, "--out", out) == 2
        assert "output_dir" in capsys.readouterr().err
        assert not out.exists()

    def test_forced_configuration_recorded(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.txt", forced_config=(2, 0, 2, 2, 0), **SMALL)
        out = tmp_path / "out"
        run("simulate", "--config", cfg, "--out", out)
        report = json.loads((out / "run_report_000.json").read_text())
        assert report["configuration"] == [2, 0, 2, 2, 0]
        assert report["total_survival"] == pytest.approx(0.58, abs=1e-3)


class TestEstimate:
    def test_end_to_end_reference_recovery(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.txt",
            forced_config=(2, 0, 2, 2, 0),
            n_trials=1,
            photons_per_trial=200_000,
            master_seed=5,
            unit_shift_um=114.051797,
        )
        out = tmp_path / "out"
        run("simulate", "--config", cfg, "--out", out)
        est_dir = tmp_path / "est"
        assert run(
            "estimate", out / "trial_000.csv", "--config", cfg, "--out", est_dir
        ) == 0
        report = json.loads((est_dir / "report.json").read_text())
        assert report["n_R"] == [2, 0, 2, 2, 0]
        assert set(report) == {"n_R", "p_R", "ci68", "ci95", "diagnostics"}
        table = (est_dir / "table.txt").read_text()
        assert "68% CI" in table and "95% CI" in table
        assert len(table.strip().splitlines()) == 2 + 5

    def test_corrupt_csv_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", **SMALL)
        bad = tmp_path / "bad.csv"
        bad.write_text("pixel_index,center_x_um,count\n0,1.0,zap\n")
        assert run("estimate", bad, "--config", cfg, "--out", tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert "bad.csv:2" in err

    def test_geometry_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", **SMALL)
        out = tmp_path / "out"
        run("simulate", "--config", cfg, "--out", out)
        other = write_config(tmp_path / "other.txt", pixel_pitch_um=26.0, **SMALL)
        assert run(
            "estimate", out / "trial_000.csv", "--config", other, "--out", tmp_path / "e"
        ) == 2
        assert "geometry" in capsys.readouterr().err

    def test_crowded_candidate_means_estimate(self, tmp_path):
        # at N=10, theta=0.3 the candidate means crowd, and trial 3 of the
        # default seed needs more than 10 doublings of the mean tolerance
        cfg = write_config(tmp_path / "cfg.txt", theta_rad=0.3, n_events=10, n_trials=4, photons_per_trial=100_000)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        trials = sorted(out.glob("trial_*.csv"))
        assert run("estimate", *trials, "--config", cfg, "--out", tmp_path / "est") == 0
        report = json.loads((tmp_path / "est" / "report.json").read_text())
        assert max(report["diagnostics"]["widenings"]) > 10

    @pytest.mark.parametrize("estimator", ["moments", "l2"])
    def test_crowded_means_report_is_strict_json(self, tmp_path, estimator):
        # with few photons the moments windows hold fewer than five candidates,
        # so each top list holds only the window's scored candidates
        cfg = write_config(tmp_path / "cfg.txt", theta_rad=0.3, n_events=10, n_trials=3, photons_per_trial=2_000)
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        trials = sorted(out.glob("trial_*.csv"))
        est = tmp_path / "est"
        assert run("estimate", *trials, "--config", cfg, "--estimator", estimator, "--out", est) == 0
        tops = strict_json(est / "report.json")["diagnostics"]["top_candidates"]
        assert len(tops) == 3
        if estimator == "moments":
            assert min(len(top) for top in tops) < 5

    def test_non_finite_value_refused(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "x.json", {"objective": float("inf")})


class TestCalibrate:
    def test_writes_calibration(self, tmp_path):
        out = tmp_path / "out"
        assert run("calibrate", "--target", "0.58", "--out", out) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["g_over_sigma"] == pytest.approx(0.7603, abs=2e-3)
        assert payload["unprotected_survival"] == pytest.approx(0.50, abs=0.01)

    def test_unattainable_target(self, tmp_path, capsys):
        assert run("calibrate", "--target", "1.0", "--out", tmp_path) == 2
        assert "unattainable" in capsys.readouterr().err


class TestReproduce:
    def test_fig2_recipe(self, tmp_path):
        out = tmp_path / "fig2"
        assert run("reproduce", "--figure", "fig2", "--out", out, "--photons", 100_000) == 0
        report = json.loads((out / "fig2_report.json").read_text())
        assert report["reconstructed_moments"]["n_R"] == report["true_configuration"]
        assert report["reconstructed_l2"]["n_R"] == report["true_configuration"]
        assert report["reconstructed_moments"]["n_R"] in report["mean_matched_subset"]
        assert report["protected_survival"] == pytest.approx(0.58, abs=1e-3)
        assert report["unprotected_survival"] == pytest.approx(0.50, abs=0.01)
        svg = (out / "fig2.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert (out / "fig2_histogram.csv").exists()
        # the true set's density against the component sum of its folded state
        curve = np.loadtxt(out / "fig2_density_true.csv", delimiter=",", skiprows=1)
        cfg = ExperimentConfig()
        alphabet = cfg.alphabet(report["unit_shift_um"])
        state = oracles.theoretical_state(
            Configuration(tuple(report["true_configuration"])), cfg.theta_rad, cfg.sigma_um, alphabet.values
        )
        assert curve[:, 1] == pytest.approx(oracles.density_at(state, curve[:, 0]), rel=1e-13, abs=0.0)

    def test_fig3_recipe_small(self, tmp_path):
        out = tmp_path / "fig3"
        assert run(
            "reproduce", "--figure", "fig3c", "--out", out, "--photons", 50_000
        ) == 0
        report = json.loads((out / "fig3c_report.json").read_text())
        assert len(report["p_R"]) == 5
        # zero-probability category reconstructs one-sided
        assert report["p_R"][4] == pytest.approx(0.0, abs=0.05)
        assert report["ci95"][4][0] == 0.0
        rows = (out / "fig3c_convergence.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 10
        assert (out / "fig3c.svg").exists()

    def test_scaling_recipe(self, tmp_path):
        out = tmp_path / "scal"
        assert run("reproduce", "--figure", "scaling", "--out", out) == 0
        rows = (out / "scaling_constant.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 100
        for line in rows:
            fields = [float(tok) for tok in line.split(",")]
            assert fields[1] == 1.0 / fields[0]
        assert (out / "scaling.svg").exists()

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run("reproduce", "--figure", "fig9", "--out", tmp_path)

    def test_reproduce_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("reproduce", "--figure", "fig3a", "--out", out, "--photons", 20_000)
        for name in ("fig3a_report.json", "fig3a.svg", "fig3a_convergence.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestScalingReport:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            "scaling-report",
            "--n-list", "1,2,4",
            "--ensemble", "32",
            "--sampler", "constant",
            "--coupling", "75.0",
            "--out", out,
        ) == 0
        rows = (out / "scaling_report.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        n, jm, *_ = [float(t) for t in rows[2].split(",")]
        assert (n, jm) == (2.0, 0.5)

    @pytest.mark.parametrize("sampler", ["constant", "uniform"])
    @pytest.mark.parametrize("coupling", ["inf", "nan", "-5"])
    def test_bad_coupling_rejected(self, tmp_path, capsys, sampler, coupling):
        argv = ("scaling-report", "--n-list", "1,2", "--sampler", sampler, "--coupling", coupling, "--out", tmp_path)
        assert run(*argv) == 2
        assert "error: coupling scale must be finite and non-negative" in capsys.readouterr().err

    def test_negative_survival_samples_rejected(self, tmp_path, capsys):
        assert run("scaling-report", "--n-list", "1,2", "--survival-samples", "-2", "--out", tmp_path) == 2
        assert "survival_samples" in capsys.readouterr().err
