"""End-to-end acceptance suite over the benchmark problems.

Each test prints one line with the measured quantities so a log of the run
doubles as the benchmark report.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_lq
from horizonddp import (CartpoleModel, DoubleIntegratorModel, MpcConfig,
                        Obstacle, PointMassNavModel, QuadrotorModel,
                        SolverConfig, backward_sweep, bracketed_horizon,
                        check_derivatives, exhaustive_horizon,
                        initial_trajectory, lti_optimal_horizon,
                        optimize_trajectory, riccati_sweep, rollout_controls,
                        run_episode)
from horizonddp.solver import evaluate_candidates, extend_backward

CARTPOLE_CT = (1.0, 3.0, 10.0, 30.0, 100.0)


@pytest.fixture(scope="module")
def cartpole_sweep():
    """Solver run plus exhaustive oracle per c_t; shared by two tests."""
    x0 = np.zeros(4)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    rows = []
    tic = time.perf_counter()
    for c_t in CARTPOLE_CT:
        model = CartpoleModel(c_t=c_t)
        res = optimize_trajectory(model, initial_trajectory(model, x0, 150),
                                  cfg)
        assert res.converged, f"c_t={c_t}: {res.status}"
        sweep = bracketed_horizon(model, cfg, x0, res.t_star, 25)
        rows.append((c_t, res, sweep))
    return rows, time.perf_counter() - tic


def test_criterion_1_linear_single_iteration():
    # double integrator with a time price: one iteration, exact horizon
    model = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2),
                                  Qf=10 * np.eye(2))
    x0 = np.array([2.0, 0.0])
    t_exact, j_exact, _ = lti_optimal_horizon(model.to_lti_problem((1, 120)),
                                              x0)
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    tic = time.perf_counter()
    res = optimize_trajectory(model,
                              initial_trajectory(model, x0, t_exact + 5), cfg)
    wall = time.perf_counter() - tic
    print(f"\ncriterion 1: iterations={res.iterations} T*={res.t_star} "
          f"(exact {t_exact}) wall={wall * 1e3:.1f}ms")
    assert res.iterations == 1
    assert res.t_star == t_exact
    assert res.cost == pytest.approx(j_exact, abs=1e-9 * max(1.0, j_exact))
    assert wall < 0.1


def test_criterion_2_riccati_equivalence(rng):
    tic = time.perf_counter()
    max_v, max_j = 0.0, 0.0
    for _ in range(50):
        model = random_lq(rng, c_t=float(rng.uniform(0.01, 0.5)))
        T_bar = int(rng.integers(5, 101))
        x0 = rng.standard_normal(model.dim_x)
        traj = initial_trajectory(model, x0, T_bar)
        prefix = extend_backward(model, traj, 5)
        back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                              gamma=0.0)
        # value Hessians against the standalone Riccati recursion
        seq = riccati_sweep(model.to_lti_problem((1, T_bar + 5)))
        for s in range(T_bar + 1):
            err = np.max(np.abs(back.value_at(T_bar - s).V_xx - seq[s]))
            max_v = max(max_v, err)
        # candidate prices against the recursion plus c_t per step
        cfg = SolverConfig(horizon_bounds=(1, T_bar + 5), window_s=5)
        cands = evaluate_candidates(back, cfg.horizon_bounds, cfg.window_s,
                                    1e9)
        for c in cands:
            exact = 0.5 * float(x0 @ seq[c.T] @ x0) + model.c_t * c.T
            max_j = max(max_j, abs(c.J_T - exact) / max(1.0, abs(exact)))
    wall = time.perf_counter() - tic
    print(f"\ncriterion 2: max |V_xx err|={max_v:.2e} "
          f"max rel J_T err={max_j:.2e} wall={wall:.2f}s")
    assert max_v < 1e-10
    assert max_j < 1e-9
    assert wall < 10.0


def test_criterion_3_cartpole_horizon_sweep(cartpole_sweep):
    rows, wall = cartpole_sweep
    t_ours = [res.t_star for _, res, _ in rows]
    mismatches = 0
    for c_t, res, sweep in rows:
        err_pct = 100.0 * (res.cost - sweep.j_exact) / sweep.j_exact
        print(f"\ncriterion 3: c_t={c_t:6.1f} T*={res.t_star:3d} "
              f"oracle={sweep.t_exact:3d} cost_err={err_pct:+.3f}%")
        assert err_pct <= 0.5
        if abs(res.t_star - sweep.t_exact) > 2:
            mismatches += 1
    print(f"criterion 3: horizons {t_ours} wall={wall:.1f}s")
    assert all(b <= a for a, b in zip(t_ours, t_ours[1:]))
    assert mismatches <= 1
    assert wall < 300.0


def test_criterion_4_swing_up_terminal_state(cartpole_sweep):
    rows, _ = cartpole_sweep
    res = next(res for c_t, res, _ in rows if c_t == 30.0)
    xT = res.trajectory.states[-1]
    theta_err = abs(xT[2] - np.pi)
    print(f"\ncriterion 4: |theta-pi|={theta_err:.4f} "
          f"|xdot|={abs(xT[1]):.4f} |thetadot|={abs(xT[3]):.4f}")
    assert theta_err <= 0.05
    assert abs(xT[1]) <= 0.05
    assert abs(xT[3]) <= 0.05


def test_criterion_5_quadrotor_budget():
    model = QuadrotorModel(c_t=1.0)
    x0 = np.zeros(12)
    x0[:3] = [1.5, 1.0, -1.0]
    cfg = SolverConfig(horizon_bounds=(5, 150), window_s=10)
    tic = time.perf_counter()
    res = optimize_trajectory(model, initial_trajectory(model, x0, 40), cfg)
    wall = time.perf_counter() - tic
    print(f"\ncriterion 5: iterations={res.iterations} T*={res.t_star} "
          f"wall={wall * 1e3:.0f}ms status={res.status}")
    assert res.converged
    assert res.iterations <= 50
    assert wall <= 1.0


def nav_scenario():
    obstacles = (
        Obstacle(center=(3.0, 0.5), radius=0.8, weight=30.0,
                 schedule=((2.0, (0.0, -0.4)), (3.0, (0.2, 0.3)))),
        Obstacle(center=(5.5, -0.8), radius=0.7, weight=30.0,
                 schedule=((4.0, (0.0, 0.35)),)),
    )
    model = PointMassNavModel(obstacles=obstacles, c_t=5.0,
                              wf_pos=400.0, wf_vel=200.0)
    solver = SolverConfig(horizon_bounds=(1, 120), window_s=5,
                          max_iterations=100, convergence_tol=1e-4,
                          k_tol=1e-3)
    cfg = MpcConfig(solver=solver, inner_iterations=5, noise_scale=0.01,
                    step_limit=200, seed=0, initial_horizon=40)
    return model, cfg


def test_criterion_6_mpc_finite_termination():
    model, cfg = nav_scenario()
    log = run_episode(model, np.zeros(4), cfg)
    goal_dist = float(np.linalg.norm(log.final_state[:2] - model.goal))
    solve_ms = 1e3 * float(np.mean([r.solve_time for r in log.steps]))
    inner_max = max(r.inner_iterations for r in log.steps)
    baseline = run_episode(model, np.zeros(4), cfg, t_fixed=40)
    print(f"\ncriterion 6: terminated={log.terminated} steps={log.steps_used} "
          f"goal_dist={goal_dist:.3f} mean_solve={solve_ms:.1f}ms "
          f"max_inner={inner_max} baseline_terminated={baseline.terminated}")
    assert log.terminated
    assert goal_dist <= 0.05 * model.arena_scale
    assert solve_ms <= 25.0
    assert inner_max <= 15
    assert not baseline.terminated
    assert baseline.steps_used == cfg.step_limit


def test_criterion_7_value_error_scaling():
    # the quadratic value model of a converged solution should miss the
    # re-optimized cost by a cubic in the initial-state perturbation
    model = CartpoleModel(c_t=10.0)
    x0 = np.zeros(4)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=500, convergence_tol=1e-12,
                       k_tol=1e-9, second_order=True)
    res = optimize_trajectory(model, initial_trajectory(model, x0, 150), cfg)
    assert res.converged
    fixed_cfg = replace(cfg, window_s=0,
                        horizon_bounds=(res.t_star, res.t_star))
    back = backward_sweep(model, res.trajectory,
                          (np.zeros((0, 4)), np.zeros((0, 1))),
                          gamma=1e-9, second_order=True)
    V = back.value_at(0)
    rng = np.random.default_rng(0)
    direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    scales = np.array([0.01, 0.02, 0.04])
    errors = []
    for c in scales:
        warm = rollout_controls(model, x0 + c * direction,
                                res.trajectory.controls)
        reopt = optimize_trajectory(model, warm, fixed_cfg)
        errors.append(abs(reopt.cost - V.evaluate(c * direction)))
    slope = float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
    print(f"\ncriterion 7: errors={[f'{e:.3e}' for e in errors]} "
          f"slope={slope:.2f}")
    assert slope >= 2.5


def test_criterion_8_property_suites(rng):
    benchmarks = []
    di = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2),
                               Qf=10 * np.eye(2))
    benchmarks.append((di, np.array([2.0, 0.0]), 40,
                       SolverConfig(horizon_bounds=(1, 120), window_s=10)))
    benchmarks.append((CartpoleModel(c_t=30.0), np.zeros(4), 150,
                       SolverConfig(horizon_bounds=(10, 400), window_s=10,
                                    max_iterations=300)))
    xq = np.zeros(12)
    xq[:3] = [1.5, 1.0, -1.0]
    benchmarks.append((QuadrotorModel(c_t=1.0), xq, 40,
                       SolverConfig(horizon_bounds=(5, 150), window_s=10)))
    nav = PointMassNavModel(
        obstacles=(Obstacle(center=(3.0, 0.5), radius=0.8, weight=30.0),),
        c_t=5.0, wf_pos=400.0, wf_vel=200.0)
    benchmarks.append((nav, np.zeros(4), 40,
                       SolverConfig(horizon_bounds=(1, 120), window_s=5)))

    for model, x0, t_init, cfg in benchmarks:
        name = type(model).__name__
        res = optimize_trajectory(model, initial_trajectory(model, x0, t_init),
                                  cfg)
        assert res.converged, f"{name}: {res.status}"
        # monotone acceptance: accepted iterations never raise the cost
        costs = [r["j"] for r in res.trace] + [res.cost]
        for i, r in enumerate(res.trace):
            if r["accepted"]:
                assert costs[i + 1] <= costs[i], name
        # oracle dominance around the answer; the oracle solves run to a
        # much tighter tolerance so its optimum is trustworthy at 1e-9
        lo = max(cfg.horizon_bounds[0], res.t_star - 5)
        hi = min(cfg.horizon_bounds[1], res.t_star + 5)
        oracle_cfg = replace(cfg, convergence_tol=1e-13, k_tol=1e-9,
                             max_iterations=500)
        sweep = exhaustive_horizon(model, range(lo, hi + 1), oracle_cfg, x0)
        assert res.cost >= sweep.j_exact - 1e-9, name
        # bitwise-identical rerun
        res2 = optimize_trajectory(model,
                                   initial_trajectory(model, x0, t_init), cfg)
        assert res2.cost == res.cost and res2.t_star == res.t_star, name
        np.testing.assert_array_equal(res2.trajectory.states,
                                      res.trajectory.states)
        # analytic derivatives against differencing
        samples = []
        while len(samples) < 20:
            xs = 0.3 * rng.standard_normal(model.dim_x)
            us = model.nominal_control(xs) + 0.3 * rng.standard_normal(
                model.dim_u)
            if model.admissible(xs):
                samples.append((xs, us))
        report = check_derivatives(model, samples, tol=1e-4)
        assert report.passed, f"{name}: {report.summary()}"
        print(f"\ncriterion 8: {name} iters={res.iterations} "
              f"T*={res.t_star} dominance_gap="
              f"{res.cost - sweep.j_exact:.2e}")
