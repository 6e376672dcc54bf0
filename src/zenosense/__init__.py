"""Zeno-protected photonic channel simulation and noise-event statistics recovery."""

# The package uses no scipy module. The benchmark worker
# (perfbench/worker.py), this import's only reader, records
# sys.modules["scipy"].__version__; the bare package loads no submodule.
import scipy  # noqa: F401

from zenosense.channel import (
    ChannelRealization,
    ProbeState,
    RunReport,
    ScalingRow,
    calibrate_unit_shift,
    constant_coupling,
    decay_parameter,
    protected_survival_spectral,
    qze_scaling_report,
    run_protected,
    run_unprotected,
    uniform_coupling,
)
from zenosense.config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from zenosense.detector import (
    SpatialHistogram,
    read_histogram_csv,
    sample_histogram,
    write_histogram_csv,
)
from zenosense.estimator import (
    EstimateReport,
    TrialEstimate,
    beta_ci,
    build_report,
    estimate_from_masses,
    estimate_histogram,
    pixel_moments,
)
from zenosense.noise_model import (
    NoiseAlphabet,
    config_realization,
    enumerate_configurations,
    sample_realization,
)
from zenosense.seeds import derive_seed, make_rng
from zenosense.wavepacket import GaussianSum, inner_product, make_gaussian

__version__ = "0.1.0"
