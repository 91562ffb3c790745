"""Simulator and analysis toolkit for three-stage quantum key distribution.

The protocol sends a secret qubit (or qubit pair) across the channel three
times, each party applying and later undoing a secret unitary drawn from a
family whose members all commute up to a global phase.  This package builds
the operator families, runs the exchange with optional eavesdropping and
noise, computes exact disturbance and leakage rates by enumeration, and
cross-checks them by seeded Monte Carlo.  A CLI (``tristage``) drives
reproducible experiments.
"""

from .adversary import ChannelContext, EveStrategy, NoiseModel, transmit
from .analysis import (
    ExactAnalysis,
    MonteCarloAnalysis,
    exact_analysis,
    map_decision_table,
    map_guesser,
    monte_carlo_analysis,
)
from .opsets import (
    OperatorFamily,
    PhaseDecomposition,
    aggregate_outcome_distribution,
    basis_preserving,
    commutation_phase,
    controlled_pair_family,
    dft_family,
    family_names,
    get_family,
    hadamard_family,
    operator_catalog,
    pauli_family,
    pauli_tensor_decompose,
    quaternion_family,
    superposition_probability,
    verify_family,
)
from .protocol import (
    STAGES,
    NonCommutingOperatorsError,
    SessionConfig,
    SessionReport,
    StageLabel,
    Transcript,
    run_key_session,
    run_three_stage,
    verify_recovery,
)
from .qcore import (
    DEFAULT_TOL,
    Outcome,
    StateVector,
    UnitaryOperator,
    adjoint,
    apply,
    basis_state,
    equal_up_to_global_phase,
    is_basis_state,
    measure,
    outcome_distribution,
    proportional_phase,
    tensor,
)
from .sift import ParityRound, SiftReport, detection_probability, parity_check

__version__ = "0.1.0"

__all__ = [
    "ChannelContext",
    "DEFAULT_TOL",
    "EveStrategy",
    "ExactAnalysis",
    "MonteCarloAnalysis",
    "NoiseModel",
    "NonCommutingOperatorsError",
    "OperatorFamily",
    "Outcome",
    "ParityRound",
    "PhaseDecomposition",
    "STAGES",
    "SessionConfig",
    "SessionReport",
    "SiftReport",
    "StageLabel",
    "StateVector",
    "Transcript",
    "UnitaryOperator",
    "adjoint",
    "aggregate_outcome_distribution",
    "apply",
    "basis_preserving",
    "basis_state",
    "commutation_phase",
    "controlled_pair_family",
    "detection_probability",
    "dft_family",
    "equal_up_to_global_phase",
    "exact_analysis",
    "family_names",
    "get_family",
    "hadamard_family",
    "is_basis_state",
    "map_decision_table",
    "map_guesser",
    "measure",
    "monte_carlo_analysis",
    "operator_catalog",
    "outcome_distribution",
    "parity_check",
    "pauli_family",
    "pauli_tensor_decompose",
    "proportional_phase",
    "quaternion_family",
    "run_key_session",
    "run_three_stage",
    "superposition_probability",
    "tensor",
    "transmit",
    "verify_family",
    "verify_recovery",
]
