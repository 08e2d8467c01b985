"""Cyclic-prefix based OFDM symbol-timing estimation and channel simulation."""

from .channel import (
    CIR_FIXTURE,
    CfoParams,
    ChannelScenario,
    add_awgn,
    apply_cfo,
    apply_cir,
    apply_sto,
    random_cir,
    replicate_branches,
)
from .harness import (
    ALL_METHODS,
    DEFAULT_STO_VALUES,
    MethodStats,
    Scenario,
    ScenarioStats,
    TrialResult,
    derive_seed,
    freq_response,
    reference_scenarios,
    run_monte_carlo,
    run_trial,
)
from .spectral import dft, idft
from .sync import (
    EstimatorConfig,
    Method,
    MetricTrace,
    default_config,
    estimate_sto,
)
from .txgen import (
    Constellation,
    OfdmParams,
    SampleStream,
    build_frame,
    map_bits,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "CIR_FIXTURE",
    "DEFAULT_STO_VALUES",
    "CfoParams",
    "ChannelScenario",
    "Constellation",
    "EstimatorConfig",
    "Method",
    "MethodStats",
    "MetricTrace",
    "OfdmParams",
    "SampleStream",
    "Scenario",
    "ScenarioStats",
    "TrialResult",
    "add_awgn",
    "apply_cfo",
    "apply_cir",
    "apply_sto",
    "build_frame",
    "default_config",
    "derive_seed",
    "dft",
    "estimate_sto",
    "freq_response",
    "idft",
    "map_bits",
    "random_cir",
    "reference_scenarios",
    "replicate_branches",
    "run_monte_carlo",
    "run_trial",
]
