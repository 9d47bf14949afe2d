"""Trajectory optimization with the horizon as a decision variable.

A DDP/iLQR solver that prices candidate horizons from a single backward
sweep (the value expansion at every steps-to-go is evaluated at the initial
state), plus exact linear-quadratic machinery, benchmark systems, an
exhaustive fixed-horizon baseline and a closed-loop MPC harness.
"""

from .backward import (BackwardResult, BackwardSweepError, QExpansion,
                       ValueExpansion, backward_sweep, q_expansion, regularize,
                       value_recurrence)
from .lti import (IllPosedStepError, LtiProblem, lqr_gain, lqr_rollout_cost,
                  lti_optimal_horizon, riccati_step, riccati_sweep)
from .model import (CostExpansion, DerivativeReport, DynamicsExpansion,
                    ExpansionError, SystemModel, check_derivatives,
                    expand_cost, expand_dynamics, expand_terminal)
from .models import (CartpoleModel, DoubleIntegratorModel, MODEL_REGISTRY,
                     Obstacle, PointMassNavModel, QuadrotorModel, make_model,
                     obstacle_schedule_advance, rk4_step,
                     rk4_step_with_jacobian)
from .mpc import EpisodeLog, MpcConfig, StepRecord, mpc_step, run_episode
from .oracle import (HorizonRecord, HorizonSweepResult, bracketed_horizon,
                     exhaustive_horizon, fixed_horizon_ddp)
from .solver import (CandidateEvaluation, SolverConfig, SolverResult,
                     evaluate_candidates, extend_backward, optimize_trajectory,
                     select_horizon)
from .trajectory import (Trajectory, initial_trajectory, rollout_controls,
                         trajectory_cost)

__all__ = [
    "BackwardResult", "BackwardSweepError", "QExpansion", "ValueExpansion",
    "backward_sweep", "q_expansion", "regularize", "value_recurrence",
    "IllPosedStepError", "LtiProblem", "lqr_gain", "lqr_rollout_cost",
    "lti_optimal_horizon", "riccati_step", "riccati_sweep",
    "CostExpansion", "DerivativeReport", "DynamicsExpansion", "ExpansionError",
    "SystemModel", "check_derivatives", "expand_cost",
    "expand_dynamics", "expand_terminal",
    "CartpoleModel", "DoubleIntegratorModel", "MODEL_REGISTRY", "Obstacle",
    "PointMassNavModel", "QuadrotorModel", "make_model",
    "obstacle_schedule_advance", "rk4_step", "rk4_step_with_jacobian",
    "EpisodeLog", "MpcConfig", "StepRecord", "mpc_step", "run_episode",
    "HorizonRecord", "HorizonSweepResult", "bracketed_horizon",
    "exhaustive_horizon", "fixed_horizon_ddp",
    "CandidateEvaluation", "SolverConfig", "SolverResult",
    "evaluate_candidates", "extend_backward", "optimize_trajectory",
    "select_horizon",
    "Trajectory", "initial_trajectory", "rollout_controls", "trajectory_cost",
]

__version__ = "0.1.0"
