"""Every CLI verb's small run against a committed table of file hashes.

The set runs in-process into a temporary directory with relative output
paths, so ``config.txt`` holds the same ``output_dir`` on every machine.
Whole-file hashes agree with ``OPENBLAS_NUM_THREADS`` at 1 and at 2. A
change that moves any output byte must update the entries of exactly the
files it moves, and say so.
"""

import hashlib
from pathlib import Path

import numpy as np

from zenosense.cli import main
from zenosense.config import ExperimentConfig, serialize_config

# the numpy the table below was made with; another version may move float bits
TABLE_NUMPY = "2.4.6"

GOLDEN = {
    "cal/calibration.json": "aa298ae61b7260f41f9d76e98e2a133f63904f2106e9d0bc2bb1e5c263c97cb2",
    "est_l2/report.json": "fefdda3497c0b00191b581aadb7730ad4c8fa1f3f4f3fc188d182fabb62de335",
    "est_l2/table.txt": "e5f4bad01bc12ff1e86d965da779b846621339a23f3552c704de4f620a735d17",
    "est_moments/report.json": "5f10c6ca646d15ce0f92ef85c4108ed2edaf2dd5ef0364aeda5b9dd9f453e5cb",
    "est_moments/table.txt": "283bf024b387a4a44ef51a6bc3875d52f07ab79c8ac64930ce818cf76aec6907",
    "rep_fig2/fig2.svg": "2dc257a58cff6a4944e579fc31ab388d5201956e93feb51ca04d3b9a05bfaca7",
    "rep_fig2/fig2_density_true.csv": "6be3abe3260a1460fe2eb5989dfe4122e65398a85427bd5b4d25cc357da5cbe7",
    "rep_fig2/fig2_histogram.csv": "72d3c8427ca2dde032d897e0249f61ecb9beeed757dbbfe2c9ba7083b747de8f",
    "rep_fig2/fig2_report.json": "cfe925b6235c64df51347f8c722ebaf26a15017e5a6de00dd5ddb36f105204df",
    "rep_fig3a/fig3a.svg": "122fb40c3a79a2991ece8ff34eb6f6c0fd651d3caea4b48cc183e4529ab096b1",
    "rep_fig3a/fig3a_convergence.csv": "e2da55fa37475a4003aa7b6694a3d82123004e3b41123fca8687e8d4991dc2f3",
    "rep_fig3a/fig3a_report.json": "f22ab48808989b237950a9352c8d585a533c9c16d15bfeb34cdaaaace046d16f",
    "rep_fig3a/fig3a_table.txt": "bbd358642e1a8946cbc0fab15a7a1798d8478fee6e88ad3357f79a871862f74a",
    "rep_fig3b/fig3b.svg": "4ebb75915d5ff7f3d427864421c1d24d4947381441e919064ba0f4b6a35d160d",
    "rep_fig3b/fig3b_convergence.csv": "b50438e8b911f599974a58170e81af897af4c6a6d80dfba63326dac170a7a308",
    "rep_fig3b/fig3b_report.json": "1369cd8e459320938ed548d07c792dfb49bc8a647c2d16e75ce6e2cc3d42bb09",
    "rep_fig3b/fig3b_table.txt": "3be8e3a277c95a50bb527323b0176d46490c62e7dcbe571fdda1084fe3535769",
    "rep_fig3c/fig3c.svg": "2243525cbc40705c1d82bbf3ffce47e575502bf232eb6e4023f289e599fed984",
    "rep_fig3c/fig3c_convergence.csv": "c42f4fea1a80f33ed74aeb91423a0fa8b17ad14e14b08b847072d3716c8b8b3c",
    "rep_fig3c/fig3c_report.json": "1f9fa974e95e6af4976f7d0d076da94c136aa5aa7f70886d11cfbbd313f72cfb",
    "rep_fig3c/fig3c_table.txt": "0db911d85ff03c77cd41d2d2aeb38b436b28c1d10cf25d1c373fe57353370a3e",
    "rep_scaling/scaling.svg": "17c11668458c63aae8c2408107e3555bc626632c95bda1a247cc40538837a9e7",
    "rep_scaling/scaling_constant.csv": "49d96817fb338ba1b4c87860c805082225236f40d5bd4784adf0d51b94199c21",
    "rep_scaling/scaling_uniform.csv": "4094517ceed362dfa01c3564b932c98c329e880012905e2fd2d0569fc55db599",
    "scal/scaling_report.csv": "5436748b9008c4f5705572271a039b7f57f3421127abfa55c706fe8fec18ef00",
    "sim/config.txt": "650611994f5ae59d427b5c17c99aef04aa49b3ea00fc63b64cdfb5533567bdfd",
    "sim/manifest.json": "2c44e411eff7b00890df8fc19409a96d1d14f46991cf9754d527b4d739131b22",
    "sim/run_report_000.json": "07a8e777ab2da77cd5d94bd822ca14f80d8acd9ed4121acdad55bf39ad21a841",
    "sim/run_report_001.json": "3caf80a6519d9110df04e703348e72d578cc710ae5cbc2659c0a773aa35f3c40",
    "sim/run_report_002.json": "d6265bc3bf075446ff82e839d65604087f3485ebce31e502e7bf984d3e511eaa",
    "sim/run_report_003.json": "44ff033277d1f80ecefa9e7a52de9602a5620ab69a14251fb9677e802a35d912",
    "sim/trial_000.csv": "0e7553b6e68198593beb3c4e19485093c3b5baf658b4527c2ccf53b3c34bcc9a",
    "sim/trial_001.csv": "b7e657a414074951bc974412fa47dad08954cd76bc5aea8d8679fbefab6d3585",
    "sim/trial_002.csv": "bb7fcc7b3c0d291cec567adf1fc337587122466b07246536ee2bb0ddcc1b42e7",
    "sim/trial_003.csv": "1a659b89996e0457ef4c02c443613a264e23c6ed24ccac1290d8bf93b7365ba8",
}

TRIALS = [f"sim/trial_{i:03d}.csv" for i in range(4)]

VERBS = [
    ["simulate", "--config", "cfg.txt"],
    ["estimate", *TRIALS, "--config", "cfg.txt", "--estimator", "moments", "--out", "est_moments"],
    ["estimate", *TRIALS, "--config", "cfg.txt", "--estimator", "l2", "--out", "est_l2"],
    ["calibrate", "--config", "cfg.txt", "--out", "cal"],
    *(
        ["reproduce", "--figure", figure, "--out", f"rep_{figure}", "--photons", "20000"]
        for figure in ("fig2", "fig3a", "fig3b", "fig3c", "scaling")
    ),
    ["scaling-report", "--config", "cfg.txt", "--n-list", "1,2,5,10", "--ensemble", "64",
     "--survival-samples", "16", "--out", "scal"],
]


def test_every_verb_writes_the_committed_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = ExperimentConfig(n_trials=4, photons_per_trial=20_000, master_seed=7, output_dir="sim")
    Path("cfg.txt").write_text(serialize_config(config))
    for argv in VERBS:
        assert main(argv) == 0, argv
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file() and path.name != "cfg.txt"
    }
    moved = sorted(name for name in GOLDEN.keys() | written.keys() if GOLDEN.get(name) != written.get(name))
    assert not moved, (
        f"{len(moved)} output file(s) moved: {', '.join(moved)} "
        f"(table made with numpy {TABLE_NUMPY}, running numpy {np.__version__})"
    )
