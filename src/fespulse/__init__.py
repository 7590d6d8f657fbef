"""Pulse-train simulation and optimization for isometric FES force-fatigue
dynamics: exact concentration evaluation (a pulse-to-pulse state
recurrence), reference force oracles, a closed-form force approximation
(piecewise-affine Hill stand-ins, a solved linear ODE per segment) with computable error bounds, constrained impulse-timing
optimization and endurance program planning."""

__version__ = "0.1.0"

from .model import (
    ConcentrationState,
    ModelParams,
    PulseTrain,
    UnreachableForce,
    compute_scaling,
    concentration_state,
    eval_cn,
    eval_lobe,
    eval_m1,
    eval_m2,
    steady_state_root,
)
from .exppoly import PiecewisePoly
from .simulate import (
    QuadratureNoConvergence,
    Rest,
    Trajectory,
    oracle_force_quadrature,
    reparam_force_check,
    simulate_force,
    simulate_force_fatigue,
)
from .approx import (
    ForceApprox,
    ForceErrorBound,
    MApprox,
    TruncatedConcentration,
    build_m_approx,
    error_bound_persistent,
    force_error_bound,
    interval_averages,
    persistence_order,
    truncated_cn,
    upper_lower_envelope,
)
from .optimize import (
    DecisionVector,
    InfeasibleSigma,
    KKTReport,
    ObjectiveSpec,
    OptOutcome,
    SessionTooShort,
    SolveOptions,
    StepCollision,
    eval_constraints,
    fd_gradient,
    kkt_check,
    objective_value,
    solve,
)
from .planner import (
    ProgramSpec,
    StimulationProgram,
    TemplateNotConverged,
    derive_f_max,
    plan_endurance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
