"""Trajectory optimization with the horizon as a decision variable.

A DDP/iLQR solver that prices candidate horizons from a single backward
sweep (the value expansion at every steps-to-go is evaluated at the initial
state), plus exact linear-quadratic machinery, benchmark systems, an
exhaustive fixed-horizon baseline and a closed-loop MPC harness.

The package root exports the API of the method: the models, the
optimal-horizon solve, trajectories, the MPC episode, the fixed-horizon
oracle, the exact LQ horizon and the derivative check.  The solver's
building blocks are imported from their modules: the per-knot backup from
``horizonddp.backward``, the expansions from ``horizonddp.model``, the RK4
steps from ``horizonddp.models``, the Riccati step and LQR helpers from
``horizonddp.lti`` and the pricing helpers from ``horizonddp.solver``.
"""

from .backward import BackwardResult, BackwardSweepError, backward_sweep
from .lti import IllPosedStepError, LtiProblem, lti_optimal_horizon, riccati_sweep
from .model import (DerivativeReport, ExpansionError, SystemModel,
                    check_derivatives)
from .models import (CartpoleModel, DoubleIntegratorModel, MODEL_REGISTRY,
                     Obstacle, PointMassNavModel, QuadrotorModel, make_model,
                     obstacle_schedule_advance)
from .mpc import EpisodeLog, MpcConfig, StepRecord, mpc_step, run_episode
from .oracle import (HorizonRecord, HorizonSweepResult, bracketed_horizon,
                     exhaustive_horizon, fixed_horizon_ddp)
from .solver import (CandidateEvaluation, SolverConfig, SolverResult,
                     optimize_trajectory)
from .trajectory import (Trajectory, initial_trajectory, rollout_controls,
                         trajectory_cost)

__all__ = [
    # the models
    "CartpoleModel", "DoubleIntegratorModel", "MODEL_REGISTRY", "Obstacle",
    "PointMassNavModel", "QuadrotorModel", "SystemModel", "make_model",
    "obstacle_schedule_advance",
    # the solve
    "BackwardResult", "BackwardSweepError", "CandidateEvaluation",
    "SolverConfig", "SolverResult", "backward_sweep", "optimize_trajectory",
    # trajectories
    "Trajectory", "initial_trajectory", "rollout_controls", "trajectory_cost",
    # MPC
    "EpisodeLog", "MpcConfig", "StepRecord", "mpc_step", "run_episode",
    # the fixed-horizon oracle
    "HorizonRecord", "HorizonSweepResult", "bracketed_horizon",
    "exhaustive_horizon", "fixed_horizon_ddp",
    # the exact LQ horizon
    "IllPosedStepError", "LtiProblem", "lti_optimal_horizon", "riccati_sweep",
    # derivative checks
    "DerivativeReport", "ExpansionError", "check_derivatives",
]

__version__ = "0.1.0"
