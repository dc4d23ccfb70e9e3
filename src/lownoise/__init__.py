"""Estimation toolkit for multi-parameter low-noise quantum channels.

Builds Kraus-form channels whose noise strengths enter linearly, analyzes
the output-state spectrum, computes quantum/classical/divergent Fisher
information, constructs the locally unbiased projective estimator, and
verifies Cramer-Rao attainment orders by scale sweeps and Monte Carlo
sampling.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelEvaluation,
    LowNoiseChannel,
    channel_from_config,
    channel_to_config,
    pure_state_density,
    sqrt_completion_channel,
)
from .curves import eigencurve_derivatives
from .errors import (
    BadProbabilities,
    ConfigInvalid,
    DegenerateSamples,
    DimensionMismatch,
    EmptySum,
    InconsistentKrausData,
    IOFailure,
    LowNoiseError,
    NoConvergence,
    NonHermitian,
    ReductionInvalid,
    SingularFisher,
    StepTooLarge,
    TPCPViolation,
)
from .estimator import (
    EstimatorPOVM,
    MSEMatrix,
    ScoreOperators,
    analytic_mse,
    build_povm,
    build_score_operators,
    cr_direction_margin,
    outcome_probabilities,
    raise_index,
    sample_measurements,
    unbiasedness_residual,
)
from .fisher import (
    FisherMatrix,
    classical_fisher,
    divergent_fisher,
    fisher_inverse,
    nondegeneracy_det,
    pure_input_dominance,
    quantum_fisher,
)
from .linalg import PowerFit
from .report import Report, emit_report, parse_csv, parse_jsonl, render_csv, render_jsonl
from .scenarios import (
    SCENARIO_BUILDERS,
    Scenario,
    SweepConfig,
    build_scenario,
    random_channel,
    random_input_state,
    scenario_ancilla_bell,
    scenario_from_config,
    scenario_pauli2,
    scenario_threelevel,
    scenario_to_config,
)
from .spectral import (
    OutputSpectrum,
    classify_shift_curves,
    complement_basis,
    deviation_eigenvalues,
    deviation_matrix,
    jump_covariance,
    output_deviation_matrix,
    output_shift_curves,
    output_spectrum_with_gradients,
    reduced_shifts,
    trace_power_residual,
)
from .sweep import run_sweep
from .verify import CheckResult, run_all
