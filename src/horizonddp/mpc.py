"""Optimal-horizon model-predictive control loop.

The episode loop follows the replan / apply / drop pattern: every step the
previous plan (first knot dropped) warm-starts a budgeted solve against the
current world snapshot, the first control is applied to the (possibly
noisy) plant, and the episode ends once the planned horizon counts down to
one.  A fixed receding-horizon baseline shares the same loop and logging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import ExpansionError, SystemModel, check_count
from .models import PointMassNavModel, obstacle_schedule_advance
from .solver import SolverConfig, optimize_trajectory
from .trajectory import Trajectory, rollout_controls, initial_trajectory


@dataclass
class MpcConfig:
    solver: SolverConfig
    inner_iterations: int = 5     # warm-start budget per MPC step
    noise_scale: float = 0.0      # additive plant state noise, stddev
    step_limit: int = 500
    seed: int = 0
    initial_horizon: int | None = None

    def __post_init__(self):
        if self.step_limit < 1:
            raise ValueError("step limit must be >= 1")
        check_count("inner_iterations", self.inner_iterations, 1)


@dataclass
class StepRecord:
    sim_time: float
    state: np.ndarray
    planned_horizon: int
    action: np.ndarray
    solve_time: float
    running_cost: float
    inner_iterations: int
    degraded: bool = False


@dataclass
class EpisodeLog:
    steps: list = field(default_factory=list)
    final_state: np.ndarray | None = None
    total_cost: float = 0.0
    terminal_cost: float = 0.0
    steps_used: int = 0
    terminated: bool = False


def _snapshot(model: SystemModel, sim_time: float) -> SystemModel:
    """World state the plant and planner see at sim_time.

    Only the navigation model carries a schedule; the planner receives the
    snapshot (current obstacle positions), never the schedule itself.
    """
    if isinstance(model, PointMassNavModel):
        return obstacle_schedule_advance(model, sim_time)
    return model


def mpc_step(plan: Trajectory, observed_x0, model_snapshot: SystemModel,
             cfg: MpcConfig, gamma: float):
    """One budgeted replan from the shifted previous plan.

    ``gamma`` is the regularization level carried from the previous step,
    so the schedule is not re-escalated from scratch every replan;
    ``info["gamma"]`` is the level to carry on.  Returns
    (action, new_plan, new_horizon, info).  When the replan meets a numeric
    failure (a non-finite expansion or state, or a failed factorization) the
    previous plan's first action is applied and the step is flagged; any
    other exception propagates.
    """
    inner_cfg = replace(cfg.solver, max_iterations=cfg.inner_iterations)
    try:
        warm = rollout_controls(model_snapshot, observed_x0, plan.controls)
        result = optimize_trajectory(model_snapshot, warm, inner_cfg, gamma)
        info = {"iterations": result.iterations, "degraded": False,
                "gamma": result.gamma_final}
        new_plan = result.trajectory
        return new_plan.controls[0], new_plan, new_plan.horizon, info
    except (ExpansionError, FloatingPointError, np.linalg.LinAlgError):
        info = {"iterations": 0, "degraded": True, "gamma": gamma}
        return plan.controls[0], plan, plan.horizon, info


def _pad_controls(controls: np.ndarray, target: int) -> np.ndarray:
    if controls.shape[0] >= target:
        return controls[:target]
    pad = np.tile(controls[-1], (target - controls.shape[0], 1))
    return np.vstack([controls, pad])


def run_episode(model: SystemModel, x_init, cfg: MpcConfig,
                mode: str = "optimal-horizon",
                t_fixed: int | None = None) -> EpisodeLog:
    """Closed-loop episode in either optimal-horizon or receding mode.

    Optimal-horizon mode terminates when the planned horizon reaches one;
    the receding baseline replans with the fixed horizon every step and
    always runs to the step limit.
    """
    if mode not in ("optimal-horizon", "receding-horizon"):
        raise ValueError(f"unknown mode {mode!r}")
    receding = mode == "receding-horizon"
    if receding and (t_fixed is None or t_fixed < 1):
        raise ValueError("receding-horizon mode requires t_fixed >= 1")
    if not receding and cfg.solver.horizon_bounds[0] > 1:
        # the horizon counts down to one, and every replan below the lower
        # bound would fail
        raise ValueError("optimal-horizon mode requires horizon_bounds[0] == 1")

    rng = np.random.default_rng(cfg.seed)
    dt = getattr(model, "dt", 1.0)
    x = np.asarray(x_init, dtype=float)
    log = EpisodeLog()

    # initial computed trajectory: full-budget solve against the t=0 world
    snapshot = _snapshot(model, 0.0)
    if receding:
        solver_cfg = replace(cfg.solver, window_s=0,
                             horizon_bounds=(t_fixed, t_fixed))
        t0_horizon = t_fixed
    else:
        solver_cfg = cfg.solver
        lo, hi = solver_cfg.horizon_bounds
        t0_horizon = cfg.initial_horizon or (lo + hi) // 2
    init = initial_trajectory(snapshot, x, t0_horizon)
    first = optimize_trajectory(snapshot, init, solver_cfg)
    plan, t_bar = first.trajectory, first.t_star
    gamma = first.gamma_final

    step_cfg = cfg if not receding else replace(cfg, solver=solver_cfg)
    sim_time = 0.0

    while len(log.steps) < cfg.step_limit:
        if not receding and t_bar <= 1:
            log.terminated = True
            break
        snapshot = _snapshot(model, sim_time)
        if receding:
            controls = _pad_controls(plan.controls, t_fixed)
            plan = Trajectory(states=np.vstack([plan.states[:controls.shape[0]],
                                                plan.states[-1:]]),
                              controls=controls)

        tic = time.perf_counter()
        action, plan, t_bar, info = mpc_step(plan, x, snapshot, step_cfg, gamma)
        solve_time = time.perf_counter() - tic
        gamma = info["gamma"]

        running = snapshot.running_cost(x, action)
        log.steps.append(StepRecord(
            sim_time=sim_time, state=x.copy(), planned_horizon=t_bar,
            action=np.asarray(action, dtype=float).copy(),
            solve_time=solve_time, running_cost=float(running),
            inner_iterations=info["iterations"], degraded=info["degraded"]))
        log.total_cost += float(running)

        x = snapshot.step(x, action)
        if cfg.noise_scale > 0.0:
            x = x + cfg.noise_scale * rng.standard_normal(x.shape)

        # drop the applied knot and count the horizon down
        plan = Trajectory(states=plan.states[1:], controls=plan.controls[1:])
        t_bar -= 1
        sim_time += dt

    log.final_state = x
    log.steps_used = len(log.steps)
    final_snapshot = _snapshot(model, sim_time)
    log.terminal_cost = float(final_snapshot.terminal_cost(x))
    log.total_cost += log.terminal_cost
    return log
