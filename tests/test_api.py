"""The package root exports the method's API; the solver's building blocks
are imported from the modules they live in."""

import importlib

import pytest

import horizonddp

EXPORTED = {
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
}

BUILDING_BLOCKS = {
    "backward": ["QExpansion", "ValueExpansion", "q_expansion", "regularize",
                 "value_recurrence"],
    "model": ["CostExpansion", "DynamicsExpansion", "expand_cost",
              "expand_dynamics", "expand_terminal"],
    "models": ["rk4_step", "rk4_step_with_jacobian"],
    "lti": ["lqr_gain", "riccati_step", "lqr_rollout_cost"],
    "solver": ["evaluate_candidates", "extend_backward", "select_horizon"],
}


def test_root_exports_the_method_api():
    assert len(horizonddp.__all__) == len(EXPORTED) == 37
    assert set(horizonddp.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(horizonddp, name) is not None


@pytest.mark.parametrize("module", sorted(BUILDING_BLOCKS))
def test_building_blocks_have_one_import_path(module):
    mod = importlib.import_module(f"horizonddp.{module}")
    for name in BUILDING_BLOCKS[module]:
        assert getattr(mod, name).__module__ == mod.__name__
        assert not hasattr(horizonddp, name)
