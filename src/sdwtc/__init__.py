"""Secrecy rates, soft-covering exponents, and coding-scheme simulation
for discrete memoryless wiretap channels with encoder state knowledge."""

__version__ = "0.1.0"

from .models import (
    ERASURE,
    InputPolicy,
    RlnModel,
    SdWtcModel,
    as_input_policy,
    assemble_joint,
    build_rln_example,
    build_semideterministic,
    gp_policy,
    lift_side_information,
    model_from_dict,
    model_to_dict,
)
from .optimize import (
    OptBudget,
    OptResult,
    exhaustive_small,
    maximize,
    rate_report,
)
from .prob import (
    Channel,
    JointPmf,
    Pmf,
    bernoulli,
    binary_entropy,
    channel_from_joint,
    entropy,
    inv_binary_entropy,
    is_letter_typical,
    marginalize,
    mutual_information,
    relative_entropy,
    renyi_divergence,
    total_variation,
    uniform,
)
from .rates import RateReport, constraint_gap, transform_to_alt
from .simulate import (
    BinningResult,
    CapacityResult,
    Codebook,
    CodeLaw,
    CodeRates,
    EncoderFailure,
    InducedVsIdealized,
    ReliabilityResult,
    TrialRecord,
    approximation_gap,
    binning_otp_protocol,
    exact_message_channel,
    exact_output_divergence,
    index_count,
    leakage_capacity,
    likelihood_encode,
    run_reliability_experiment,
    sample_codebook,
    typicality_decode,
    wilson_interval,
)
from .softcover import (
    BestGammaResult,
    FailureBound,
    GammaResult,
    SoftCoverSpec,
    best_gamma,
    failure_probability_bound,
    gamma_exponent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
