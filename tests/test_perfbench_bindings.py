"""The benchmark tracer patches names in the package; these tests fail fast
when a refactor drops or bypasses one of those bindings."""

import importlib.util
from pathlib import Path

import numpy as np

from horizonddp import (CartpoleModel, backward, initial_trajectory, models,
                        mpc, oracle, solver, trajectory)

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _bindings():
    owners = (solver, mpc, oracle, backward, trajectory, trajectory.Trajectory,
              models.Obstacle, models.QuadrotorModel, models.CartpoleModel,
              models.PointMassNavModel)
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_uninstalls():
    before = _bindings()
    tracer = _tracer()
    tracer.install()      # raises if a patched binding no longer exists
    try:
        assert _bindings() != before
        m = CartpoleModel(c_t=30.0)
        traj = initial_trajectory(m, np.zeros(4), 20)
        prefix = solver.extend_backward(m, traj, 5)
        with tracer.recording():
            solver.backward_sweep(m, traj, (prefix.states, prefix.controls),
                                  gamma=1e-6)
        counts = tracer.counts()
        # step and dynamics_jacobians come from shared bases: the tracer
        # must still see them on each traced class
        for model in (models.QuadrotorModel(), m, models.PointMassNavModel()):
            x = np.zeros(model.dim_x)
            u = model.nominal_control(x)
            before_calls = tracer.calls.copy()
            with tracer.recording():
                model.step(x, u)
                model.dynamics_jacobians(x, u)
            added = tracer.calls - before_calls
            assert added["models.step"] == 1, type(model).__name__
            assert added["models.dynamics_jacobians"] == 1, type(model).__name__
    finally:
        tracer.uninstall()
    # the wrappers of inherited methods are removed, not left behind
    assert _bindings() == before
    assert counts["backward.sweeps"] == 1
    assert counts["backward.knots"] == 25
    # the per-knot backup keeps its three calls, so backward.q_backup_s
    # times a real layer
    assert (tracer.calls["backward.regularize"]
            == tracer.calls["backward.value_recurrence"] == 25)
    assert tracer.time["backward.q_expansion"] > 0
    # one stacked linearization per sweep, not one per knot
    assert counts["models.jacobian_calls"] == 1
    assert tracer.calls["model.expand_cost"] == 1


def test_tracer_hooks_read_solve_and_episode_records():
    m = models.DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2),
                                     Qf=10 * np.eye(2))
    cfg = solver.SolverConfig(horizon_bounds=(1, 120), window_s=10)
    x0 = np.array([2.0, 0.0])
    tracer = _tracer()
    tracer.install()
    try:
        with tracer.recording():
            res = solver.optimize_trajectory(m, initial_trajectory(m, x0, 40),
                                             cfg)
        solve_counts = tracer.counts()
        shifts_tried = tracer.events["shift_tried"]
        with tracer.recording():
            log = mpc.run_episode(m, x0, mpc.MpcConfig(solver=cfg,
                                                       step_limit=10))
    finally:
        tracer.uninstall()
    assert solve_counts["solver.iterations"] == res.iterations
    assert solve_counts["solver.accepted_iterations"] == sum(
        r["accepted"] for r in res.trace)
    assert solve_counts["solver.accepted_iterations"] > 0
    # the rollout hook reads t0 from the call: each iteration that first
    # tried a shifted horizon counts once
    assert shifts_tried == sum(r["t_tried"] != r["t_bar"] for r in res.trace)
    assert shifts_tried > 0
    assert tracer.counts()["mpc.replans"] == log.steps_used == 10


def test_tracer_hooks_count_prefix_candidates_and_fixed_solves():
    # the prefix, candidate and fixed-solve hooks read their counts from the
    # results they wrap
    m = models.DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2),
                                     Qf=10 * np.eye(2))
    cfg = solver.SolverConfig(horizon_bounds=(1, 120), window_s=10)
    x0 = np.array([2.0, 0.0])
    tracer = _tracer()
    tracer.install()
    try:
        with tracer.recording():
            res = solver.optimize_trajectory(m, initial_trajectory(m, x0, 40),
                                             cfg)
        solve_counts = tracer.counts()
        with tracer.recording():
            _, _, fixed = oracle.fixed_horizon_ddp(m, res.t_star, cfg, x0)
        counts = tracer.counts()
    finally:
        tracer.uninstall()
    assert res.iterations == 3
    # one prefix of window_s knots per pass
    assert solve_counts["solver.prefix_knots"] == cfg.window_s * res.iterations
    assert solve_counts["solver.candidates_priced"] == sum(
        len(r["candidates"]) for r in res.trace) == 63
    assert counts["oracle.fixed_solves"] == 1
    assert counts["oracle.fixed_iterations"] == fixed.iterations > 0
    # a fixed-horizon solve prices no horizon but its own
    assert counts["solver.prefix_knots"] == 30
