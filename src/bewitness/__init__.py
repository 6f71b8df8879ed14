"""Bound-entanglement witness toolkit.

Builds the Bloch-diagonal bound entangled state, checks PPT and CCNR
separability criteria, evaluates the communication-task witness that
the state powers (brute force, factored, and closed form), and runs
the heuristic searches for the best separable strategies and the
largest CCNR over PPT states.
"""

from .linalg import Spectrum, eigh, kron, partial_transpose, trace_norm
from .pauli import f_coeff, m_matrix, pauli_basis, w_value
from .protocol import (
    Strategy,
    TaskSpec,
    WitnessResult,
    be_strategy,
    classical_optimal_strategy_d4,
    critical_visibility,
    critical_visibility_numeric,
    overhead_dimension,
    sep_upper_bound,
    witness_brute_force,
    witness_closed_form,
    witness_factored,
)
from .states import (
    BlochDiagonalState,
    EntanglementReport,
    ccnr,
    check_be_convention,
    load_state,
    mix_with_white_noise,
    ppt_check,
    rho_be,
    tensor_power,
)
from .optimize import (
    AscentConfig,
    OptimizationReport,
    SeesawConfig,
    ccnr_ascent_bloch_ppt,
    optimal_measurement,
    seesaw_classical,
    seesaw_quantum,
)

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "BlochDiagonalState",
    "EntanglementReport",
    "OptimizationReport",
    "SeesawConfig",
    "Spectrum",
    "Strategy",
    "TaskSpec",
    "WitnessResult",
    "be_strategy",
    "ccnr",
    "ccnr_ascent_bloch_ppt",
    "check_be_convention",
    "classical_optimal_strategy_d4",
    "critical_visibility",
    "critical_visibility_numeric",
    "eigh",
    "f_coeff",
    "kron",
    "load_state",
    "m_matrix",
    "mix_with_white_noise",
    "optimal_measurement",
    "overhead_dimension",
    "partial_transpose",
    "pauli_basis",
    "ppt_check",
    "rho_be",
    "seesaw_classical",
    "seesaw_quantum",
    "sep_upper_bound",
    "tensor_power",
    "trace_norm",
    "w_value",
    "witness_brute_force",
    "witness_closed_form",
    "witness_factored",
]
