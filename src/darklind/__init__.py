"""Adiabatic dark-space manipulation under purely dissipative Lindblad dynamics.

The package integrates the exact time-dependent master equation (lab and
rotating frames), constructs the effective dark-space generator (Berry term
at first order in the adiabatic parameter, purity-degrading dissipator at
second order), and provides the analysis machinery to validate the effective
theory, its scaling laws and its gauge covariance against brute force.
"""

from .linalg import kernel_basis, matrix_exp, ordered_exponential, pseudo_inverse
from .engine import (
    ConvergenceError,
    GaplessLindbladianError,
    InvariantViolationError,
    LindbladGenerator,
    StepSizeUnderflowError,
    Trajectory,
    asymptotic_channel,
    dark_block_kraus,
    integrate,
    kraus_from_channel,
    lindblad_rhs,
    spectral_gap,
    validate_density_matrix,
    vectorize,
)
from .protocols import (
    PathSpec,
    Protocol,
    custom_protocol,
    fourier_path,
    lab_jump,
    linear_path,
    smoothstep_path,
    spin32_protocol,
    spin_operators,
)
from .effective import (
    DarkSpace,
    NoDarkSpaceError,
    adiabatic_hamiltonian,
    berry_holonomy,
    c_tau,
    dark_space,
    effective_jump,
    end_of_cycle_state,
    evolve_effective,
    lab_generator,
    projected_hamiltonian,
    reconstruct_full_state,
    rotating_generator,
    x_tau_adiabatic,
    x_tau_integral,
)
from .analysis import (
    SweepResult,
    bloch_of,
    bloch_transport,
    compare_effective_vs_full,
    convergence_sweep,
    gauge_covariance_check,
    gauge_transform,
    purity,
    purity_prediction_general,
    purity_prediction_spin32,
    trace_distance,
)

__version__ = "0.1.0"
