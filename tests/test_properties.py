"""Property tests of the paper's linear-quadratic claim: on LQ problems one
backward sweep prices every nearby horizon exactly, so the solver lands on
the horizon and cost of the exact recursion.  An MPC replan is one such
pass, and an optimal-horizon episode counts its horizon down to
termination.

Draws are derandomized, so every run checks the same instances.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NumericLq, random_lq
from horizonddp import (DoubleIntegratorModel, LtiProblem, MpcConfig,
                        PointMassNavModel, SolverConfig, backward_sweep,
                        initial_trajectory, lti_optimal_horizon,
                        optimize_trajectory, riccati_sweep, run_episode)
import horizonddp.mpc as mpc_mod
from horizonddp.solver import _STEP_SIZES, evaluate_candidates
from test_acceptance import nav_scenario

BOUNDS = (1, 60)
WINDOW = 10

lq_settings = settings(derandomize=True, deadline=None, database=None,
                       max_examples=150)
lq_cases = dict(seed=st.integers(0, 2 ** 32 - 1),
                c_t=st.floats(0.01, 1.0),
                scale=st.floats(0.5, 5.0),
                offset=st.integers(-WINDOW, WINDOW))


def _case(seed, c_t, scale, offset):
    """Random LQ model, start, its exact optimum and an initial horizon
    within the selection window of that optimum."""
    rng = np.random.default_rng(seed)
    model = random_lq(rng, c_t=c_t)
    x0 = scale * rng.standard_normal(model.dim_x)
    t_exact, j_exact, curve = lti_optimal_horizon(
        model.to_lti_problem(BOUNDS), x0)
    T0 = int(np.clip(t_exact + offset, *BOUNDS))
    return rng, model, x0, t_exact, j_exact, dict(curve), T0


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


@lq_settings
@given(**lq_cases)
def test_solve_reaches_the_exact_optimum(seed, c_t, scale, offset):
    _, model, x0, t_exact, j_exact, curve, T0 = _case(seed, c_t, scale,
                                                      offset)
    cfg = SolverConfig(horizon_bounds=BOUNDS, window_s=WINDOW)
    res = optimize_trajectory(model, initial_trajectory(model, x0, T0), cfg)
    assert res.converged
    assert res.t_star == t_exact
    assert _close(res.cost, j_exact)
    # inside the first window the first pass prices T* exactly and its
    # full step realizes that price
    if abs(t_exact - T0) < WINDOW:
        assert res.iterations == 1
    accepted = [r["j"] for r in res.trace if r["accepted"]]
    assert all(b <= a for a, b in zip(accepted, accepted[1:]))
    # an exact quadratic model leaves the tail's interpolated step at 1:
    # every accepted step is a ladder rung
    assert all(r["alpha"] in (None, *_STEP_SIZES) for r in res.trace)
    # the first pass prices every horizon as the Riccati curve does
    first = res.trace[0]["candidates"]
    assert [c.T for c in first] == list(range(max(BOUNDS[0], T0 - WINDOW),
                                              min(BOUNDS[1], T0 + WINDOW) + 1))
    for c in first:
        assert _close(c.J_T, curve[c.T])


@lq_settings
@given(**lq_cases)
def test_random_prefix_prices_the_riccati_curve(seed, c_t, scale, offset):
    # prefix knots off the dynamics carry their defects through the sweep,
    # so the prices above T-bar stay exact
    rng, model, x0, _, _, curve, T0 = _case(seed, c_t, scale, offset)
    traj = initial_trajectory(model, x0, T0)
    prefix = (scale * rng.standard_normal((WINDOW, model.dim_x)),
              rng.standard_normal((WINDOW, model.dim_u)))
    back = backward_sweep(model, traj, prefix, gamma=0.0)
    cands = evaluate_candidates(back, BOUNDS, WINDOW, np.inf)
    assert cands[-1].T == min(BOUNDS[1], T0 + WINDOW)
    for c in cands:
        assert _close(c.J_T, curve[c.T]), c


@lq_settings
@given(**lq_cases)
def test_sweep_rows_match_riccati_in_both_modes(seed, c_t, scale, offset):
    # every value row over a random prefix is the Riccati matrix of its
    # steps-to-go; the dynamics tensors of a linear model vanish, so the
    # second-order sweep is the first-order one
    rng, model, x0, _, _, _, T0 = _case(seed, c_t, scale, offset)
    traj = initial_trajectory(model, x0, T0)
    prefix = (scale * rng.standard_normal((WINDOW, model.dim_x)),
              rng.standard_normal((WINDOW, model.dim_u)))
    first, second = (backward_sweep(model, traj, prefix, gamma=0.0,
                                    second_order=mode) for mode in (False, True))
    N = T0 + WINDOW
    seq = riccati_sweep(model.to_lti_problem((1, N)))
    for g in range(N + 1):
        want = seq[N - g]
        assert np.max(np.abs(first.V_xx[g] - want)) <= 1e-9 * max(
            1.0, np.max(np.abs(want)))
    for a, b in zip((first.V_xx, first.V_x, first.V_0, first.K, first.k),
                    (second.V_xx, second.V_x, second.V_0, second.K, second.k)):
        npt.assert_allclose(b, a, rtol=1e-12,
                            atol=1e-12 * max(1.0, np.max(np.abs(a))))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(**lq_cases)
def test_differenced_derivatives_reach_the_exact_optimum(seed, c_t, scale,
                                                         offset):
    # the central-difference fallbacks are exact to rounding on an LQ
    # model, so a model without analytic derivatives solves as exactly
    _, model, x0, t_exact, j_exact, _, T0 = _case(seed, c_t, scale, offset)
    numeric = NumericLq(model.A, model.B, model.Q, model.R, model.Qf,
                        c_t=model.c_t)
    cfg = SolverConfig(horizon_bounds=BOUNDS, window_s=WINDOW)
    res = optimize_trajectory(numeric, initial_trajectory(numeric, x0, T0),
                              cfg)
    assert res.converged
    assert res.t_star == t_exact
    assert _close(res.cost, j_exact)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(**lq_cases)
def test_noise_free_episode_costs_its_plan(seed, c_t, scale, offset):
    # Bellman's principle: replanning along its own plan, a noise-free
    # episode applies the first solve's plan to the end and pays its cost
    _, model, x0, _, _, _, T0 = _case(seed, c_t, scale, offset)
    cfg = MpcConfig(solver=SolverConfig(horizon_bounds=BOUNDS,
                                        window_s=WINDOW), initial_horizon=T0)
    first = optimize_trajectory(model, initial_trajectory(model, x0, T0),
                                cfg.solver)
    log = run_episode(model, x0, cfg)
    assert log.terminated and log.steps_used == first.t_star
    assert abs(log.total_cost - first.cost) <= 1e-9 * abs(first.cost)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(goal=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
       c_t=st.floats(0.05, 2.0), w_u=st.floats(0.1, 1.0),
       w_vel=st.floats(0.01, 0.2),
       position=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       velocity=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_lq_tracking_reaches_the_exact_optimum(goal, c_t, w_u, w_vel,
                                               position, velocity):
    # an obstacle-free navigation model is LQ in coordinates shifted by its
    # reference, so one pass lands on the exact optimum from either side
    bounds = (1, 120)
    model = PointMassNavModel(goal=goal, c_t=c_t, w_u=w_u, w_vel=w_vel)
    x0 = np.array([*position, *velocity])
    t_exact, j_exact, _ = lti_optimal_horizon(
        LtiProblem(model.A, model.B, model.Q, model.R, model.Qf, bounds,
                   c_t=c_t), x0 - model.x_ref)
    cfg = SolverConfig(horizon_bounds=bounds, window_s=10)
    for offset in (-7, 5):
        T0 = int(np.clip(t_exact + offset, *bounds))
        res = optimize_trajectory(model, initial_trajectory(model, x0, T0),
                                  cfg)
        assert res.converged
        assert res.t_star == t_exact
        assert _close(res.cost, j_exact)
        assert res.iterations == 1


def _recorded_episode(model, x0, cfg):
    """The optimal-horizon episode and its solves, each as (initial,
    previous, result): the first solve, then one per replan."""
    solves = []

    def recording(model, initial, cfg, previous=None):
        result = optimize_trajectory(model, initial, cfg, previous)
        solves.append((initial, previous, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc_mod, "optimize_trajectory", recording)
        log = run_episode(model, x0, cfg)
    return log, solves


@pytest.mark.parametrize("c_t", [0.02, 0.2])
def test_noisy_lq_replan_is_one_exact_pass(c_t):
    # the criterion-1 double integrator under plant noise: every replan is
    # one pass whose exact step lands on the optimum over the horizons it
    # can count down to, [1, its warm start's length], from the observed
    # state
    model = DoubleIntegratorModel(c_t=c_t, Q=0.01 * np.eye(2),
                                  Qf=10 * np.eye(2))
    for seed in range(10):
        cfg = MpcConfig(solver=SolverConfig(horizon_bounds=(1, 120),
                                            window_s=10),
                        noise_scale=0.05, seed=seed)
        log, solves = _recorded_episode(model, np.array([2.0, 0.0]), cfg)
        assert log.terminated and not any(rec.degraded for rec in log.steps)
        for warm, previous, res in solves[1:]:
            assert previous is not None
            t_exact, j_exact, _ = lti_optimal_horizon(
                model.to_lti_problem((1, warm.horizon)), warm.states[0])
            assert res.iterations == 1
            assert res.t_star == t_exact
            assert abs(res.cost - j_exact) <= 1e-12 * abs(j_exact)


def _assert_counts_down(log, solves):
    """Each replan's plan is shorter than the one before, so the episode
    ends within the first solve's T* steps."""
    first = solves[0][2]
    horizons = [first.t_star] + [rec.planned_horizon for rec in log.steps]
    assert horizons[1] <= horizons[0]
    assert all(b <= a - 1 for a, b in zip(horizons[1:], horizons[2:]))
    assert log.terminated and log.steps_used <= first.t_star


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(**lq_cases, noise=st.floats(0.01, 0.5))
def test_noisy_lq_episode_counts_down(seed, c_t, scale, offset, noise):
    _, model, x0, _, _, _, T0 = _case(seed, c_t, scale, offset)
    cfg = MpcConfig(solver=SolverConfig(horizon_bounds=BOUNDS,
                                        window_s=WINDOW),
                    noise_scale=noise, seed=seed % 1000, initial_horizon=T0)
    _assert_counts_down(*_recorded_episode(model, x0, cfg))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_nav_episode_counts_down(seed):
    # moving obstacles and plant noise move every replan's start, and no
    # replan lengthens its plan
    model, cfg = nav_scenario()
    _assert_counts_down(*_recorded_episode(model, np.zeros(4),
                                           replace(cfg, seed=seed)))
