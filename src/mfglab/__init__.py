"""Desk-scale numerical laboratory for first-order mean field games.

Finite-horizon and stationary systems on a truncated box in one or two
dimensions, with the diagnostics needed to watch the long-time limit
converge at the predicted rate.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    convergence_metrics,
    critical_value_uniqueness_probe,
    interpolation_bound,
    interpolation_constant,
    l2_norm,
    monotonicity_check,
    rate_fit,
)
from .ergodic import (
    ErgodicSolution,
    critical_value,
    lambda_lipschitz_check,
    mather_point,
    solve_ergodic,
    verify_second_equation,
    weak_kam_solution,
)
from .hjb import (
    BellmanStep,
    TerminalDatum,
    ValueField,
    hopf_lax_oracle,
    lipschitz_estimate,
    solve_backward,
    time_lipschitz_estimate,
)
from .instances import Instance, from_config, load_instance
from .measure import (
    GridMeasure,
    MeasurePath,
    kantorovich_potential_1d,
    pushforward,
    wasserstein1,
)
from .mfg import (
    MFGSolution,
    SpaceTimeBump,
    default_probes,
    default_test_functions,
    energy_estimate,
    kfp_residual,
    solve_finite_horizon,
)
from .model import (
    Coupling,
    GridSpec,
    LagrangianModel,
    check_F4_gap,
    check_F5,
    check_strict_tonelli,
    interp_grid,
    legendre_transform,
    quadratic_kinetic,
    rest_landscape,
    separable_coupling,
)
from .transport import TrajectoryBundle, measure_path, trace_optimal_flow

__all__ = [name for name in dir() if not name.startswith("_")]
