"""Zeno-protected photonic channel simulation and noise-event statistics recovery."""

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
    second_order_survival,
    uniform_coupling,
)
from zenosense.config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from zenosense.detector import (
    SpatialHistogram,
    pixel_masses,
    read_histogram_csv,
    sample_histogram,
    theoretical_state,
    write_histogram_csv,
)
from zenosense.estimator import (
    EstimateReport,
    TrialEstimate,
    aggregate_trials,
    beta_ci,
    build_report,
    estimate_from_masses,
    estimate_histogram,
    pixel_moments,
)
from zenosense.noise_model import (
    Configuration,
    NoiseAlphabet,
    config_realization,
    config_to_probs,
    configuration_of,
    enumerate_configurations,
    multinomial_pmf,
    sample_realization,
)
from zenosense.seeds import derive_seed, make_rng
from zenosense.wavepacket import (
    GaussianSum,
    apply_noise_kernel,
    cumulative_mass,
    density_at,
    inner_product,
    make_gaussian,
    moment,
    momentum_second_moment,
)

__version__ = "0.1.0"
