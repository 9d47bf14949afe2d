"""Workload inputs, the two kinds of operation, and the checks on their outputs.

Every workload is a closed loop: each operation starts when the previous one
has finished.  A workload holds two kinds of operation:

* a case: an optimal-horizon solve from a start, followed by fixed-horizon
  DDP at the returned T* (the paper's baseline and the oracle's unit of
  work);
* an episode: one closed-loop MPC run that replans every step until the
  planned horizon counts down to one.

The program receives only the generated inputs; the seed stays here.
"""

from __future__ import annotations

import contextlib
import math
import sys
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from horizonddp import (CartpoleModel, MpcConfig, Obstacle, PointMassNavModel,
                        QuadrotorModel, SolverConfig, SystemModel, mpc, oracle,
                        solver, trajectory)
from refclock import RefClock

# an optimal-horizon J may exceed the fixed-horizon J at the same T* by this
# share before the case counts as failed
J_GAP_TOL = 0.005
# an episode fails when it ends farther from the goal than this share of the
# workload's goal scale
GOAL_TOL = 0.05
# output checks: a returned trajectory must satisfy the dynamics and its
# reported cost must match a recomputation to these tolerances
CONSISTENCY_TOL = 1e-8
COST_RTOL = 1e-9


@dataclass(frozen=True)
class Case:
    model: SystemModel
    x0: np.ndarray
    horizon: int          # initial T of the optimal-horizon solve
    cfg: SolverConfig


@dataclass(frozen=True)
class Episode:
    model: SystemModel
    x0: np.ndarray
    cfg: MpcConfig
    goal_error: Callable  # final state -> distance from goal / goal scale


@dataclass(frozen=True)
class Workload:
    cases: tuple
    episodes: tuple


@dataclass
class PassResult:
    """Samples and outcomes of one pass over a workload's operations; times
    are in reference seconds (see refclock.py)."""

    solve_s: list = field(default_factory=list)
    fixed_s: list = field(default_factory=list)
    solution_cost: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    episode_cost: list = field(default_factory=list)
    ops_s: float = 0.0    # all operations, without the checks
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)   # output-check violations


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

QUAD_START = np.array([1.5, 1.0, -1.0])   # the criterion-5 start
CARTPOLE_CT = (1.0, 3.0, 10.0, 30.0, 100.0)
CARTPOLE_MPC_CT = (10.0, 30.0)


def _quad_state(position) -> np.ndarray:
    x = np.zeros(12)
    x[:3] = position
    return x


def _antithetic(rng, n, sigma, dim):
    """n offsets in +/- pairs: the pairs cancel the first-order effect of
    the offsets on the mean cost, so the mean moves little between seeds."""
    half = sigma * rng.standard_normal((n // 2, dim))
    return np.concatenate([half, -half])


def quadrotor_oneshot(seed: int) -> Workload:
    """Eight starts around the criterion-5 start, offset in +/- pairs with
    sigma 0.1 per axis, plus one noise-free closed-loop episode from the
    start itself.

    The episode start is not jittered: its closed-loop cost is dominated by
    the terminal cost one step before the end and moves by 25% under a 0.1
    jitter, which would swamp episode_cost_mean.
    """
    rng = np.random.default_rng(seed)
    model = QuadrotorModel(c_t=1.0)
    cfg = SolverConfig(horizon_bounds=(5, 150), window_s=10)
    cases = tuple(Case(model, _quad_state(QUAD_START + offset), 40, cfg)
                  for offset in _antithetic(rng, 8, 0.1, 3))
    scale = float(np.linalg.norm(QUAD_START - model.goal[:3]))
    mpc_cfg = MpcConfig(solver=replace(cfg, horizon_bounds=(1, 150)),
                        inner_iterations=5, step_limit=200, initial_horizon=40)
    episode = Episode(model, _quad_state(QUAD_START), mpc_cfg,
                      lambda x: float(np.linalg.norm(x[:3] - model.goal[:3])) / scale)
    return Workload(cases=cases, episodes=(episode,))


def cartpole_sweep(seed: int) -> Workload:
    """Swing-up at the paper's c_t values from a start jittered with sigma
    0.01, plus noise-free closed-loop swing-ups from rest at c_t = 10 and 30.

    At sigma 0.05 two of eight c_t = 1 starts fall into a T* = 75 basin that
    takes 2.4x the iterations, which makes solve_s_total swing by half
    between seeds; sigma 0.01 keeps every start in the T* = 50 basin.  The
    episodes start at rest, because their p95 replan time rests on three
    replans and moves by 40% under a 0.01 start jitter.
    """
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10, max_iterations=300)
    cases = tuple(Case(CartpoleModel(c_t=c_t), 0.01 * rng.standard_normal(4), 150, cfg)
                  for c_t in CARTPOLE_CT)
    # the MPC horizon counts down to one, so its lower bound is one
    mpc_cfg = MpcConfig(solver=replace(cfg, horizon_bounds=(1, 400)),
                        inner_iterations=5, step_limit=500, initial_horizon=150)
    episodes = tuple(Episode(CartpoleModel(c_t=c_t), np.zeros(4), mpc_cfg,
                             lambda x: abs(x[2] - math.pi) / math.pi)
                     for c_t in CARTPOLE_MPC_CT)
    return Workload(cases=cases, episodes=episodes)


def nav_scenario():
    """The criterion-6 navigation model with two moving obstacles, and its
    MPC settings (noise 0.01, five inner iterations per replan)."""
    obstacles = (
        Obstacle(center=(3.0, 0.5), radius=0.8, weight=30.0,
                 schedule=((2.0, (0.0, -0.4)), (3.0, (0.2, 0.3)))),
        Obstacle(center=(5.5, -0.8), radius=0.7, weight=30.0,
                 schedule=((4.0, (0.0, 0.35)),)),
    )
    model = PointMassNavModel(obstacles=obstacles, c_t=5.0,
                              wf_pos=400.0, wf_vel=200.0)
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=5, max_iterations=100,
                       convergence_tol=1e-4, k_tol=1e-3)
    mpc_cfg = MpcConfig(solver=cfg, inner_iterations=5, noise_scale=0.01,
                        step_limit=200, initial_horizon=40)
    return model, mpc_cfg


def nav_mpc(seed: int) -> Workload:
    """Twelve criterion-6 episodes from the origin with noise seeds drawn
    from the workload seed, plus eight one-shot solves from starts offset
    from the origin in +/- pairs with sigma 0.1 in position."""
    rng = np.random.default_rng(seed)
    model, mpc_cfg = nav_scenario()
    cases = tuple(Case(model, np.concatenate([offset, np.zeros(2)]), 40, mpc_cfg.solver)
                  for offset in _antithetic(rng, 8, 0.1, 2))
    episodes = tuple(
        Episode(model, np.zeros(4), replace(mpc_cfg, seed=int(s)),
                lambda x: float(np.linalg.norm(x[:2] - model.goal)) / model.arena_scale)
        for s in rng.integers(0, 2 ** 31, size=12))
    return Workload(cases=cases, episodes=episodes)


WORKLOADS = {
    "quadrotor-oneshot": quadrotor_oneshot,
    "cartpole-sweep": cartpole_sweep,
    "nav-mpc": nav_mpc,
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _check_solution(model, x0, traj, cost, what) -> list:
    """Output checks that hold for any returned solution, converged or not."""
    wrong = []
    if not np.array_equal(traj.states[0], x0):
        wrong.append(f"{what}: trajectory does not start at x0")
    defect = traj.consistency_error(model)
    if not defect <= CONSISTENCY_TOL:
        wrong.append(f"{what}: dynamics defect {defect:.3e}")
    recomputed = trajectory.trajectory_cost(model, traj)
    if not abs(recomputed - cost) <= COST_RTOL * max(1.0, abs(recomputed)):
        wrong.append(f"{what}: reported cost {cost!r} != recomputed {recomputed!r}")
    return wrong


def run_case(case: Case, out: PassResult, clock: RefClock, recording) -> None:
    with recording():
        tic = clock.now()
        init = trajectory.initial_trajectory(case.model, case.x0, case.horizon)
        res = solver.optimize_trajectory(case.model, init, case.cfg)
        out.solve_s.append(clock.now() - tic)
        tic = clock.now()
        _, j_fixed, fixed = oracle.fixed_horizon_ddp(case.model, res.t_star, case.cfg,
                                                     x0=case.x0)
        out.fixed_s.append(clock.now() - tic)
    out.ops_s += out.solve_s[-1] + out.fixed_s[-1]

    out.solution_cost.append(res.cost)
    t_min, t_max = case.cfg.horizon_bounds
    if res.trajectory.horizon != res.t_star or not t_min <= res.t_star <= t_max:
        out.wrong.append(f"solve: T*={res.t_star} but horizon "
                         f"{res.trajectory.horizon}, bounds {case.cfg.horizon_bounds}")
    if fixed.trajectory.horizon != res.t_star:
        out.wrong.append(f"fixed: horizon {fixed.trajectory.horizon} != T*={res.t_star}")
    out.wrong += _check_solution(case.model, case.x0, res.trajectory, res.cost, "solve")
    out.wrong += _check_solution(case.model, case.x0, fixed.trajectory, j_fixed, "fixed")
    if (not res.converged or not fixed.converged
            or res.cost > j_fixed + J_GAP_TOL * abs(j_fixed)):
        out.failed += 1
        print(f"failed case: solve {res.status} J={res.cost!r}, fixed "
              f"{fixed.status} J={j_fixed!r} at T*={res.t_star}", file=sys.stderr)


def run_episode(ep: Episode, out: PassResult, clock: RefClock, recording) -> None:
    # each replan is timed on the reference clock at the binding the
    # episode loop calls
    replan_s = []
    step = mpc.mpc_step

    def timed_step(*args, **kwargs):
        tic = clock.now()
        result = step(*args, **kwargs)
        replan_s.append(clock.now() - tic)
        return result

    mpc.mpc_step = timed_step
    try:
        with recording():
            tic = clock.now()
            log = mpc.run_episode(ep.model, ep.x0, ep.cfg)
            out.ops_s += clock.now() - tic
    finally:
        mpc.mpc_step = step
    if len(replan_s) != log.steps_used:
        out.wrong.append(f"episode: {log.steps_used} steps but "
                         f"{len(replan_s)} replans timed")
    out.step_s += replan_s
    out.episode_cost.append(log.total_cost)
    running = math.fsum(rec.running_cost for rec in log.steps)
    if log.steps_used != len(log.steps) or not log.steps_used <= ep.cfg.step_limit:
        out.wrong.append(f"episode: steps_used {log.steps_used}, "
                         f"{len(log.steps)} step records")
    if not abs(running + log.terminal_cost - log.total_cost) <= (
            COST_RTOL * max(1.0, abs(log.total_cost))):
        out.wrong.append(f"episode: total cost {log.total_cost!r} != running "
                         f"{running!r} + terminal {log.terminal_cost!r}")
    if not all(np.all(np.isfinite(rec.action)) for rec in log.steps):
        out.wrong.append("episode: non-finite action")
    error = ep.goal_error(log.final_state)
    if not log.terminated or not error <= GOAL_TOL:
        out.failed += 1
        print(f"failed episode: terminated={log.terminated} after "
              f"{log.steps_used} steps, goal error {error:.4f}", file=sys.stderr)


def run_pass(workload: Workload, clock: RefClock,
             recording=contextlib.nullcontext) -> PassResult:
    """Run every operation once, in order.  An operation that raises counts
    as failed and the pass goes on.  ``recording`` brackets the program
    calls of each operation, leaving out the checks (see Tracer.recording)."""
    out = PassResult()
    for op, items in ((run_case, workload.cases), (run_episode, workload.episodes)):
        for item in items:
            out.attempted += 1
            try:
                op(item, out, clock, recording)
            except Exception:  # noqa: BLE001 - a failed op is reported, not fatal
                out.failed += 1
                traceback.print_exc(file=sys.stderr)
    return out
