"""Thermofield dynamics of driven quadratic systems, with a built-in referee.

The analytic route solves small mode-function ODEs for invariant ladder
operators; the brute-force route re-derives every claim as dense matrix
mechanics on truncated or exact Fock spaces.  The public API re-exports the
pieces of both.
"""

from .errors import ConfigError, IntegrationError, TruncationError
from .protocols import (
    BosonProtocol,
    Constant,
    FermionProtocol,
    Finding,
    LinearRamp,
    OscillatorProtocol,
    Step,
    TanhRamp,
    ValidationReport,
    evaluate,
    from_config,
    make_tanh_ramp,
    statistics_of,
    validate,
)
from .mode_solver import (
    IntegratorConfig,
    IntegratorStats,
    ModeTrajectory,
    solve_boson_mode,
    solve_fermion_modes,
    solve_oscillator_mode,
)
from .bogoliubov import (
    BogoliubovCoefficients,
    ReferenceMode,
    boson_overlap,
    fermion_frame_coeffs,
    production_number,
    sudden_coeffs,
)
from .thermal_observables import (
    equilibrium_occupation,
    evolved_occupation_boson,
    q_moment,
    theta,
)
from .verification import CheckResult, run_all
from .cli_runner import (
    RunConfig,
    canonical_config_text,
    load_config,
    parse_config,
    run_quench,
    run_sweep,
    run_verify,
)
from .fock_oracle import (
    BasisDescriptor,
    DensityMatrix,
    DoubledTrajectory,
    OperatorMatrix,
    OracleConfig,
    StateVector,
    boson_doubled,
    boson_single,
    build_boson_hamiltonian,
    build_boson_ladder,
    build_fermion_hamiltonian,
    build_fermion_space,
    build_oscillator_hamiltonian,
    build_thermal_state_doubled,
    evolve_doubled_thermal,
    expectation,
    expectation_single_factor,
    fermion_doubled,
    fermion_single,
    frame_annihilation,
    invariant_operator_matrix,
    momentum_operator,
    oscillator_boson_coefficients,
    position_operator,
    thermal_density,
    thermal_state_condition_residual,
    truncation_report,
)

from ._version import __version__
