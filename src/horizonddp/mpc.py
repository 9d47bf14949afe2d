"""Optimal-horizon model-predictive control loop.

The episode loop follows the replan / apply / drop pattern: every step the
previous plan's controls (first knot dropped) warm-start a budgeted solve
against the current world snapshot from the observed state, the first
control is applied to the (possibly noisy) plant, and the episode ends
once the plan's last control has been applied.  Each replan resumes from
the previous solve's ``SolverResult``, and passing it makes the solve a
replan: one real-time iteration that ends on its first accepted step and
prices no horizon above its warm start (see ``solver.py``).  Its warm
start is the previous plan less its applied knot, so the planned horizon
falls by at least one every step, and an optimal-horizon episode ends
within its first solve's T* steps.  The solver alone decides what else it
reads from the result: the regularization and horizon trust radius that
solve ended on, and the sweep it ended on when it stopped at the
stationarity test.

What the previous solve computed is not computed again.  Along a
noise-free plan, under the snapshot object that simulated it, the observed
state is the plan's next state to the bit, so the warm start is read off
the plan instead of rolled out, however that solve ended
(``Trajectory.tail``).  When the solve also carried its sweep, the
replan's first pass takes that sweep's tail instead of sweeping again
(``BackwardResult.tail``).  Step 0 of an episode replans at the start its
first solve began from, with that solve's plan, against the same snapshot
object: when that solve converged, its plan is kept without a pass, as in
a real-time iteration scheme, where the initial solve serves the first
sampling instant (Diehl, Bock & Schloeder, SIAM J. Control Optim. 43(5),
2005).  Otherwise the warm start is rolled out under the snapshot the
replan solves against.  Either way it is simulated under that snapshot, so
the solve's entry check only tests it finite instead of stepping it again
(see ``trajectory.py``).  Passing ``t_fixed`` runs the fixed
receding-horizon baseline through the same loop: every replan solves at
that horizon, and the episode runs to the step limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import SystemModel, check_count, check_nonnegative
from .models import PointMassNavModel, obstacle_schedule_advance
from .solver import SolverConfig, SolverResult, optimize_trajectory
from .trajectory import rollout_controls, initial_trajectory


@dataclass
class MpcConfig:
    solver: SolverConfig
    # passes a replan may spend without accepting a step (its gamma
    # retries); a replan ends on its first accepted step
    inner_iterations: int = 5
    noise_scale: float = 0.0      # additive plant state noise, stddev
    step_limit: int = 500
    seed: int = 0
    initial_horizon: int | None = None

    def __post_init__(self):
        check_count("inner_iterations", self.inner_iterations, 1)
        check_count("step_limit", self.step_limit, 1)
        check_count("seed", self.seed, 0)
        if self.initial_horizon is not None:
            check_count("initial_horizon", self.initial_horizon, 1)
        check_nonnegative("noise_scale", self.noise_scale)


@dataclass(eq=False)
class StepRecord:
    sim_time: float
    state: np.ndarray
    planned_horizon: int
    action: np.ndarray
    solve_time: float
    running_cost: float
    inner_iterations: int
    degraded: bool = False


@dataclass(eq=False)
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


def mpc_step(controls: np.ndarray, observed_x0, model_snapshot: SystemModel,
             cfg: MpcConfig, previous: SolverResult | None = None):
    """One budgeted replan from the previous plan's remaining controls.

    The controls, with the last one held up to the solver's lower horizon
    bound, warm-start the solve from ``observed_x0``.
    ``previous`` is the result of the solve before, or None; the solve
    resumes from it (see ``optimize_trajectory``), so neither the
    regularization nor the horizon trust radius is re-learned every
    replan.  Given ``previous`` the solve is one real-time iteration: it
    ends on its first accepted step, within ``cfg.inner_iterations``
    passes, and returns a plan no longer than the warm start.  When
    ``previous``'s plan holds the warm start to the bit, it is read off
    that plan instead of rolled out (see ``Trajectory.tail``), and the
    tail of a sweep ``previous`` carries serves as the solve's first
    sweep (see ``optimize_trajectory`` and ``BackwardResult.tail``).  When
    the warm start is ``previous``'s plan itself and that solve converged,
    the replan is that solve's own problem: the plan is returned after 0
    passes, and ``previous`` is handed on unchanged.
    ``info["iterations"]`` and ``info["degraded"]`` describe the replan,
    and ``info["previous"]`` is the result the next replan resumes from.
    Returns (action, new_controls, new_horizon, info), and raises
    ValueError for a plan without controls.  When the replan
    raises ``FloatingPointError`` (a non-finite state, or an
    ``ExpansionError``) the first of the given controls is applied, they
    are returned as the plan, ``previous`` is handed on unchanged, and the
    step is flagged; any other exception propagates.
    """
    if controls.shape[0] < 1:
        raise ValueError("controls must hold at least one knot")
    inner_cfg = replace(cfg.solver, max_iterations=cfg.inner_iterations)
    short = cfg.solver.horizon_bounds[0] - controls.shape[0]
    if short > 0:
        controls = np.pad(controls, ((0, short), (0, 0)), mode="edge")
    try:
        warm = None if previous is None else previous.trajectory.tail(
            model_snapshot, observed_x0, controls)
        if warm is None:
            warm = rollout_controls(model_snapshot, observed_x0, controls)
        iterations = 0
        # the converged solve's own problem again: it is kept as it stands
        if not (previous is not None and previous.converged
                and warm is previous.trajectory):
            previous = optimize_trajectory(model_snapshot, warm, inner_cfg,
                                           previous)
            iterations = previous.iterations
        controls = previous.trajectory.controls
        info = {"iterations": iterations, "degraded": False}
    except FloatingPointError:
        info = {"iterations": 0, "degraded": True}
    info["previous"] = previous
    return controls[0], controls, controls.shape[0], info


def run_episode(model: SystemModel, x_init, cfg: MpcConfig,
                t_fixed: int | None = None) -> EpisodeLog:
    """Closed-loop optimal-horizon episode, or the receding baseline.

    Without ``t_fixed`` every replan chooses its horizon, no longer than
    its warm start, and the episode terminates once the planned horizon
    has counted down to zero, within the first solve's T* steps.  So a
    noise-free episode applies its plan to the end and costs what the plan
    costs.  With ``t_fixed`` every solve uses that horizon, each replan
    holding the last control to fill the knot the previous step dropped,
    so the episode always runs to the step limit.

    The world is snapshot once per simulation time: the first solve, step
    0's replan and the plant step from the start share the t = 0 snapshot
    object, and the terminal cost is taken on the snapshot of the time the
    episode ends at.  So when the first solve converged, step 0 keeps its
    plan without a pass (see ``mpc_step``).
    """
    if t_fixed is not None:
        # the controls left after the applied knot warm-start the next replan
        check_count("t_fixed", t_fixed, 2)
        cfg = replace(cfg, solver=replace(cfg.solver, window_s=0,
                                          horizon_bounds=(t_fixed, t_fixed)))
    elif cfg.solver.horizon_bounds[0] > 1:
        # mpc_step pads the plan up to the lower bound, so the horizon
        # would never count down to zero: the episode would run to the step
        # limit without terminating
        raise ValueError("an optimal-horizon episode requires "
                         "horizon_bounds[0] == 1")

    rng = np.random.default_rng(cfg.seed)
    dt = getattr(model, "dt", 1.0)
    x = np.asarray(x_init, dtype=float)
    log = EpisodeLog()

    # initial computed trajectory: full-budget solve against the t=0 world;
    # ``snapshot`` is the world at ``sim_time`` throughout
    snapshot = _snapshot(model, 0.0)
    lo, hi = cfg.solver.horizon_bounds
    init = initial_trajectory(snapshot, x,
                              t_fixed or cfg.initial_horizon or (lo + hi) // 2)
    previous = optimize_trajectory(snapshot, init, cfg.solver)
    controls = previous.trajectory.controls
    sim_time = 0.0

    while len(log.steps) < cfg.step_limit:
        if t_fixed is None and controls.shape[0] < 1:
            log.terminated = True
            break

        tic = time.perf_counter()
        action, controls, t_bar, info = mpc_step(controls, x, snapshot, cfg,
                                                 previous)
        solve_time = time.perf_counter() - tic
        previous = info["previous"]

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

        # drop the applied knot: the planned horizon counts down
        controls = controls[1:]
        sim_time += dt
        snapshot = _snapshot(model, sim_time)

    log.final_state = x
    log.steps_used = len(log.steps)
    log.terminal_cost = float(snapshot.terminal_cost(x))
    log.total_cost += log.terminal_cost
    return log
