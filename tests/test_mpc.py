"""Closed-loop episode driver: termination, determinism, degraded steps."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import nan_derivative_cartpole, random_lq
from horizonddp import (CartpoleModel, DoubleIntegratorModel,
                        ExpansionError, MpcConfig, PointMassNavModel,
                        QuadrotorModel, SolverConfig, initial_trajectory,
                        mpc_step, optimize_trajectory, rollout_controls,
                        run_episode)
import horizonddp.backward as backward_mod
import horizonddp.mpc as mpc_mod
import horizonddp.solver as solver_mod
from horizonddp.backward import GAMMA_MIN, BackwardResult
from test_acceptance import nav_scenario
from test_backward import assert_same_sweep, empty_prefix


def lq_mpc_setup(rng, c_t=0.05):
    model = random_lq(rng, n_max=3, m_max=2, c_t=c_t)
    cfg = MpcConfig(
        solver=SolverConfig(horizon_bounds=(1, 60), window_s=5),
        inner_iterations=5, noise_scale=0.0, step_limit=100, seed=0,
        initial_horizon=30)
    return model, cfg


def test_noise_free_episode_matches_open_loop(rng):
    # without disturbances the replans just confirm the initial plan, so
    # the closed-loop actions and total cost reproduce the open-loop solve
    model, cfg = lq_mpc_setup(rng)
    x0 = rng.standard_normal(model.dim_x)
    first = optimize_trajectory(
        model, initial_trajectory(model, x0, 30), cfg.solver)
    log = run_episode(model, x0, cfg)
    assert log.terminated
    assert log.steps_used == first.t_star
    for i, rec in enumerate(log.steps):
        npt.assert_allclose(rec.action, first.trajectory.controls[i],
                            atol=1e-6)
    # the plan's last control is applied too, so the terminal cost is taken
    # where the plan ends
    assert log.total_cost == pytest.approx(first.cost, rel=1e-9)


@pytest.mark.parametrize("build,x0,cfg", [
    (lambda: QuadrotorModel(c_t=1.0),
     np.concatenate([[1.5, 1.0, -1.0], np.zeros(9)]),
     MpcConfig(solver=SolverConfig(horizon_bounds=(1, 150), window_s=10),
               inner_iterations=5, step_limit=200, initial_horizon=40)),
    (lambda: CartpoleModel(c_t=10.0), np.zeros(4),
     MpcConfig(solver=SolverConfig(horizon_bounds=(1, 400), window_s=10,
                                   max_iterations=300),
               inner_iterations=5, step_limit=500, initial_horizon=150))],
    ids=["quadrotor", "cartpole"])
def test_noise_free_nonlinear_episode_costs_its_plan(build, x0, cfg):
    # Bellman's principle: replanning along its own plan, a noise-free
    # episode applies that plan to the end and pays the one-shot cost
    model = build()
    first = optimize_trajectory(
        model, initial_trajectory(model, x0, cfg.initial_horizon), cfg.solver)
    log = run_episode(model, x0, cfg)
    assert log.terminated and log.steps_used == first.t_star
    assert log.total_cost == pytest.approx(first.cost, rel=1e-9)


def test_horizon_counts_down_each_step(rng):
    model, cfg = lq_mpc_setup(rng)
    log = run_episode(model, rng.standard_normal(model.dim_x), cfg)
    horizons = [rec.planned_horizon for rec in log.steps]
    assert all(b == a - 1 for a, b in zip(horizons, horizons[1:]))


def test_starting_at_goal_terminates_immediately(rng):
    model, cfg = lq_mpc_setup(rng, c_t=0.5)
    log = run_episode(model, np.zeros(model.dim_x), cfg)
    assert log.terminated and log.steps_used <= 2


def test_receding_baseline_never_terminates(rng):
    model, cfg = lq_mpc_setup(rng)
    cfg.step_limit = 40
    log = run_episode(model, rng.standard_normal(model.dim_x), cfg, t_fixed=20)
    assert not log.terminated
    assert log.steps_used == 40
    assert all(rec.planned_horizon == 20 for rec in log.steps)


def test_fixed_seed_is_bitwise_deterministic(rng):
    model = random_lq(rng, n_max=3, m_max=2, c_t=0.05)
    cfg = MpcConfig(solver=SolverConfig(horizon_bounds=(1, 60), window_s=5),
                    noise_scale=0.05, step_limit=30, seed=7,
                    initial_horizon=25)
    x0 = rng.standard_normal(model.dim_x)
    a = run_episode(model, x0, cfg)
    b = run_episode(model, x0, cfg)
    assert a.total_cost == b.total_cost
    for ra, rb in zip(a.steps, b.steps):
        npt.assert_array_equal(ra.state, rb.state)
        npt.assert_array_equal(ra.action, rb.action)
    # a different noise seed produces a different rollout
    c = run_episode(model, x0, MpcConfig(
        solver=cfg.solver, noise_scale=0.05, step_limit=30, seed=8,
        initial_horizon=25))
    assert c.total_cost != a.total_cost


def test_degraded_step_falls_back_to_previous_plan(rng, monkeypatch):
    model, cfg = lq_mpc_setup(rng)
    previous = optimize_trajectory(
        model, initial_trajectory(model, np.ones(model.dim_x), 20),
        cfg.solver)
    plan = previous.trajectory

    def boom(*args, **kwargs):
        raise ExpansionError("solver knocked out")

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", boom)
    # one ulp off the plan's start, so the replan is not the converged
    # solve's own problem, which mpc_step would keep without a solve
    x = np.ones(model.dim_x)
    x[0] = np.nextafter(1.0, 2.0)
    action, new_controls, t_bar, info = mpc_step(
        plan.controls, x, model, cfg, previous)
    assert info["degraded"] and info["iterations"] == 0
    # the next replan resumes from the same solve, sweep and all
    assert info["previous"] is previous
    npt.assert_array_equal(action, plan.controls[0])
    assert t_bar == plan.horizon


def test_nan_observed_state_is_a_degraded_step():
    model = PointMassNavModel()
    controls = initial_trajectory(model, np.zeros(4), 10).controls
    cfg = MpcConfig(solver=SolverConfig(horizon_bounds=(1, 20), window_s=3))
    with np.errstate(invalid="ignore"):
        action, new_controls, t_bar, info = mpc_step(
            controls, np.full(4, np.nan), model, cfg)
    assert info["degraded"] and info["iterations"] == 0
    npt.assert_array_equal(action, controls[0])
    assert new_controls is controls and t_bar == controls.shape[0]


def test_nan_derivative_replan_is_degraded():
    # the sweep names the NaN derivative instead of escalating gamma to a
    # backward failure, so the replan is flagged: ExpansionError is the
    # FloatingPointError of an expansion, the one failure mpc_step catches
    assert issubclass(ExpansionError, FloatingPointError)
    model = nan_derivative_cartpole("running_cost_derivatives", (2, 1, 1))
    controls = initial_trajectory(model, np.zeros(4), 20).controls
    cfg = MpcConfig(solver=SolverConfig(horizon_bounds=(1, 40), window_s=3))
    action, new_controls, t_bar, info = mpc_step(
        controls, np.zeros(4), model, cfg)
    assert info["degraded"] and info["iterations"] == 0
    npt.assert_array_equal(action, controls[0])
    assert new_controls is controls and t_bar == controls.shape[0]


def test_replan_holds_last_control_up_to_lower_bound(rng, monkeypatch):
    # the receding pad: five controls warm-start a solve fixed at eight
    model, cfg = lq_mpc_setup(rng)
    cfg.solver = SolverConfig(horizon_bounds=(8, 8), window_s=0)
    controls = rng.standard_normal((5, model.dim_u))
    x = rng.standard_normal(model.dim_x)
    warm_starts = []

    def recording(model, initial, cfg, previous=None):
        warm_starts.append(initial)
        return optimize_trajectory(model, initial, cfg, previous)

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording)
    action, new_controls, t_bar, info = mpc_step(controls, x, model, cfg)
    (warm,) = warm_starts
    npt.assert_array_equal(warm.states[0], x)
    npt.assert_array_equal(warm.controls[:5], controls)
    npt.assert_array_equal(warm.controls[5:], np.tile(controls[-1], (3, 1)))
    assert not info["degraded"]
    assert t_bar == new_controls.shape[0] == 8
    npt.assert_array_equal(action, new_controls[0])

    def knocked_out(*args, **kwargs):
        raise ExpansionError("solver knocked out")

    # a degraded replan returns the padded controls as the plan
    monkeypatch.setattr(mpc_mod, "optimize_trajectory", knocked_out)
    action, new_controls, t_bar, info = mpc_step(controls, x, model, cfg)
    assert info["degraded"] and t_bar == 8
    npt.assert_array_equal(new_controls, warm.controls)
    npt.assert_array_equal(action, controls[0])


@pytest.mark.parametrize("error", [TypeError, ValueError, RuntimeError])
def test_non_numeric_replan_error_propagates(rng, monkeypatch, error):
    # a bug in the replan is raised, not hidden as a degraded step
    model, cfg = lq_mpc_setup(rng)
    controls = initial_trajectory(model, np.ones(model.dim_x), 20).controls

    def bug(*args, **kwargs):
        raise error("not a numeric failure")

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", bug)
    with pytest.raises(error):
        mpc_step(controls, np.ones(model.dim_x), model, cfg)


def test_mpc_step_rejects_an_empty_plan():
    # a plan without controls has no last control to hold up to the lower
    # bound: the error names the argument instead of numpy's padding
    model = DoubleIntegratorModel()
    cfg = MpcConfig(solver=SolverConfig(horizon_bounds=(1, 30)))
    with pytest.raises(ValueError, match="controls"):
        mpc_step(np.zeros((0, model.dim_u)), np.zeros(model.dim_x), model, cfg)


def test_gamma_carries_between_steps(monkeypatch):
    # each replan starts from the regularization the previous solve ended
    # on; on the nav episode the obstacles keep it above the floor
    model, cfg = nav_scenario()
    solves = []

    def recording(model, initial, cfg, previous=None):
        result = optimize_trajectory(model, initial, cfg, previous)
        solves.append((previous, result))
        return result

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording)
    log = run_episode(model, np.zeros(4), cfg)
    assert not any(rec.degraded for rec in log.steps)
    # step 0 keeps the converged first plan without a solve
    assert len(solves) == log.steps_used
    # each replan resumes from the solve before it
    assert solves[0][0] is None
    assert all(previous is result for (previous, _), (_, result)
               in zip(solves[1:], solves[:-1]))
    starts = [previous.gamma_final for previous, _ in solves[1:]]
    assert starts == [result.gamma_final for _, result in solves[:-1]]
    assert sum(gamma > GAMMA_MIN for gamma in starts) >= len(starts) // 2


def test_trust_radius_carries_between_steps(monkeypatch):
    # each replan starts from the trust radius the previous solve ended on,
    # widened once by the regrowth factor before its first pricing
    model, cfg = nav_scenario()
    solves = []

    def recording(model, initial, cfg, previous=None):
        result = optimize_trajectory(model, initial, cfg, previous)
        # a one-shot solve starts from an infinite radius
        radius = math.inf if previous is None else previous.radius_final
        solves.append((radius, result))
        return result

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording)
    log = run_episode(model, np.zeros(4), cfg)
    assert not any(rec.degraded for rec in log.steps)
    # step 0 keeps the converged first plan without a solve
    assert len(solves) == log.steps_used
    assert solves[0][0] == math.inf
    starts = [radius for radius, _ in solves[1:]]
    assert starts == [result.radius_final for _, result in solves[:-1]]
    for radius, result in solves:
        assert (result.trace[0]["trust_radius"]
                == radius * solver_mod._RADIUS_REGROWTH)
    assert any(radius < math.inf for radius in starts)


def test_carried_radius_regrows_after_rejected_replans(monkeypatch):
    # the first replans reject every shifted try, which shrinks the carried
    # radius; the regrowth at each solve start lets a later replan admit
    # a horizon whose gap lies beyond the shrunk radius again
    model, cfg = nav_scenario()
    bad_replans = 8
    solves = []
    rollout = solver_mod.rollout

    def rejecting(model, back, t0, alpha, x0):
        if t0 != 0 and 1 <= len(solves) <= bad_replans:
            return None, math.inf
        return rollout(model, back, t0=t0, alpha=alpha, x0=x0)

    def recording(model, initial, cfg, previous=None):
        result = optimize_trajectory(model, initial, cfg, previous)
        solves.append(result)
        return result

    monkeypatch.setattr(solver_mod, "rollout", rejecting)
    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording)
    log = run_episode(model, np.zeros(4), cfg)
    assert not any(rec.degraded for rec in log.steps)
    bad = solves[1:bad_replans + 1]
    assert any(rec["rejected"] for result in bad for rec in result.trace)
    shrunk = min(result.radius_final for result in bad)
    assert shrunk < math.inf
    assert any(cand.admissible and cand.gap > shrunk
               for result in solves[bad_replans + 1:]
               for rec in result.trace for cand in rec["candidates"])


def test_log_serialization(rng):
    # the CLI writes the log as it stands; test_cli checks the artifacts
    model, cfg = lq_mpc_setup(rng)
    log = run_episode(model, rng.standard_normal(model.dim_x), cfg)
    assert log.terminated is True
    assert len(log.steps) == log.steps_used
    assert log.total_cost == pytest.approx(
        sum(rec.running_cost for rec in log.steps) + log.terminal_cost)
    assert log.final_state.shape == (model.dim_x,)


def test_config_and_mode_validation(rng):
    model, cfg = lq_mpc_setup(rng)
    with pytest.raises(ValueError):
        MpcConfig(solver=cfg.solver, step_limit=0)
    # the replan budget becomes the solver's max_iterations
    for budget in (0, 2.5):
        with pytest.raises(ValueError, match="inner_iterations"):
            MpcConfig(solver=cfg.solver, inner_iterations=budget)
    for field, value in [("step_limit", 2.5), ("seed", -1), ("seed", 1.5),
                         ("initial_horizon", 0),
                         ("initial_horizon", 40.5), ("noise_scale", -1.0),
                         ("noise_scale", np.nan), ("noise_scale", np.inf)]:
        with pytest.raises(ValueError, match=field):
            MpcConfig(solver=cfg.solver, **{field: value})
    # the receding baseline drops one knot per step and holds the last
    # control, so it needs at least two
    for t_fixed in (0, 1, 2.5):
        with pytest.raises(ValueError, match="t_fixed"):
            run_episode(model, np.zeros(model.dim_x), cfg, t_fixed=t_fixed)
    # the horizon counts down to one, below a lower bound above one
    with pytest.raises(ValueError, match="horizon_bounds"):
        run_episode(model, np.zeros(model.dim_x), MpcConfig(
            solver=SolverConfig(horizon_bounds=(10, 60), window_s=5)))


# ---------------------------------------------------------------------------
# the sweep carried between replans
# ---------------------------------------------------------------------------


def quadrotor_episode():
    """The noise-free MPC episode from the criterion-5 quadrotor start."""
    x0 = np.concatenate([[1.5, 1.0, -1.0], np.zeros(9)])
    return QuadrotorModel(c_t=1.0), x0, MpcConfig(
        solver=SolverConfig(horizon_bounds=(1, 150), window_s=10),
        inner_iterations=5, step_limit=200, initial_horizon=40)


def cartpole_episode(c_t, second_order=False):
    """A noise-free swing-up episode of the cartpole-sweep workload."""
    return CartpoleModel(c_t=c_t), np.zeros(4), MpcConfig(
        solver=SolverConfig(horizon_bounds=(1, 400), window_s=10,
                            max_iterations=300, second_order=second_order),
        inner_iterations=5, step_limit=500, initial_horizon=150)


def noise_free_nav_episode():
    model, cfg = nav_scenario()
    return model, np.zeros(4), replace(cfg, noise_scale=0.0)


def without_carried_sweeps(monkeypatch):
    """Solve every replan with no sweep carried in or out: every result
    drops its sweep, so no replan resumes from one."""
    def forgetful(model, initial, cfg, previous=None):
        return replace(optimize_trajectory(model, initial, cfg, previous),
                       sweep=None)

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", forgetful)


def checking_carried_sweeps(monkeypatch):
    """Check every carried sweep's tail a replan reads against a fresh
    sweep, and every warm start against ``rollout_controls``; count the
    replans, the tails asked of a carried sweep, those read, and the warm
    starts rolled out."""
    counts = Counter()
    tail, sweep_fn = BackwardResult.tail, backward_mod.backward_sweep

    def checked(self, model, traj, gamma, second_order):
        back = tail(self, model, traj, gamma, second_order)
        counts["carried"] += 1
        if back is not None:
            counts["reused"] += 1
            assert_same_sweep(back, sweep_fn(model, traj, empty_prefix(model),
                                             gamma=gamma,
                                             second_order=second_order))
        return back

    def replan(model, initial, cfg, previous=None):
        counts["solves"] += 1
        rolled = rollout_controls(model, initial.states[0], initial.controls)
        npt.assert_array_equal(initial.states, rolled.states)
        npt.assert_array_equal(initial.controls, rolled.controls)
        return optimize_trajectory(model, initial, cfg, previous)

    def counting_rollout(model, x0, controls):
        counts["rolled_out"] += 1
        return rollout_controls(model, x0, controls)

    monkeypatch.setattr(BackwardResult, "tail", checked)
    monkeypatch.setattr(mpc_mod, "optimize_trajectory", replan)
    monkeypatch.setattr(mpc_mod, "rollout_controls", counting_rollout)
    return counts


def assert_same_episode(a, b):
    assert a.steps_used == b.steps_used and a.total_cost == b.total_cost
    for ra, rb in zip(a.steps, b.steps):
        npt.assert_array_equal(ra.state, rb.state)
        npt.assert_array_equal(ra.action, rb.action)
        assert ra.planned_horizon == rb.planned_horizon
        assert ra.inner_iterations == rb.inner_iterations
    npt.assert_array_equal(a.final_state, b.final_state)


@pytest.mark.parametrize("build,carried,reused,rolled_out", [
    (quadrotor_episode, 31, 31, 0),
    (lambda: cartpole_episode(10.0), 28, 28, 0),
    (lambda: cartpole_episode(30.0), 21, 21, 0),
    (lambda: cartpole_episode(10.0, second_order=True), 29, 29, 0),
    (noise_free_nav_episode, 7, 0, 32)],
    ids=["quadrotor", "cartpole-10", "cartpole-30", "cartpole-ddp", "nav"])
def test_carried_sweep_is_a_fresh_sweep(build, carried, reused, rolled_out,
                                        monkeypatch):
    # along a noise-free plan a replan's warm start is read off the plan
    # before and its first sweep is the tail of the sweep the previous
    # solve ended on, to the bit, and the episode is the one solved
    # without carrying the sweep.  Every replan after a solve that ended at
    # the stationarity test carries its sweep, and a replan that steps
    # carries none: most nav replans step, since the obstacles move under
    # the plan.  Step 0 keeps the converged first plan without a solve.
    # The nav planner sees a new snapshot model every later step, so it
    # never reads a tail and rolls out every later warm start
    model, x0, cfg = build()
    without_carried_sweeps(monkeypatch)
    reference = run_episode(model, x0, cfg)
    monkeypatch.undo()
    counts = checking_carried_sweeps(monkeypatch)
    log = run_episode(model, x0, cfg)
    assert_same_episode(log, reference)
    assert not any(rec.degraded for rec in log.steps)
    # the first solve and one per step after step 0
    assert counts["solves"] == log.steps_used
    assert counts["carried"] == carried and counts["reused"] == reused
    assert counts["rolled_out"] == rolled_out


def recording_prefixes(monkeypatch):
    """Record (S, knots built) of every ``extend_backward`` call and count
    the quadrotor's ``inverse_step`` calls."""
    prefixes, counts = [], Counter()
    extend, inverse = solver_mod.extend_backward, QuadrotorModel.inverse_step

    def recording(model, traj, S):
        prefix = extend(model, traj, S)
        prefixes.append((S, len(prefix)))
        return prefix

    def counting_inverse(self, x_next, u):
        counts["inverse_steps"] += 1
        return inverse(self, x_next, u)

    monkeypatch.setattr(solver_mod, "extend_backward", recording)
    monkeypatch.setattr(QuadrotorModel, "inverse_step", counting_inverse)
    return prefixes, counts


def recorded_replans(monkeypatch):
    """The quadrotor episode's model, config and replans, each as the
    observed state and what ``mpc_step`` returned there."""
    model, x0, cfg = quadrotor_episode()
    replans = []
    step = mpc_mod.mpc_step

    def recording(controls, x, snapshot, cfg, previous):
        out = step(controls, x, snapshot, cfg, previous)
        replans.append((x, out))
        return out

    monkeypatch.setattr(mpc_mod, "mpc_step", recording)
    run_episode(model, x0, cfg)
    monkeypatch.undo()
    return model, cfg, replans


def first_carried_replan(monkeypatch):
    """The quadrotor episode's first replan that carries its sweep on and
    leaves the plant in a state x1 from which a full prefix chains back:
    (model, cfg, x1, plan, previous)."""
    model, cfg, replans = recorded_replans(monkeypatch)
    S = cfg.solver.window_s
    for x, (action, plan, _, info) in replans:
        x1 = model.step(x, action)
        if (info["previous"].sweep is not None and plan.shape[0] > S
                and len(solver_mod.extend_backward(
                    model, rollout_controls(model, x1, plan[1:]), S)) == S):
            return model, cfg, x1, plan, info["previous"]
    raise AssertionError("no carried replan chains a full prefix")


def test_replan_along_its_carried_plan_builds_no_prefix(monkeypatch):
    # a replan prices no horizon above its warm start's T-bar, so every
    # pass asks for 0 knots, with or without the carried sweep, though a
    # full prefix chains back from x1; the first pass along the carried
    # plan reads the carried sweep's tail and asks for none.  Both reach
    # the same replan
    model, cfg, x1, plan, previous = first_carried_replan(monkeypatch)
    prefixes, counts = recording_prefixes(monkeypatch)
    action, controls, t_bar, info = mpc_step(plan[1:], x1, model, cfg,
                                             previous)
    assert prefixes == [(0, 0)] * (info["iterations"] - 1)
    prefixes.clear()
    ref = mpc_step(plan[1:], x1, model, cfg, replace(previous, sweep=None))
    assert prefixes == [(0, 0)] * ref[3]["iterations"]
    assert counts["inverse_steps"] == 0
    npt.assert_array_equal(action, ref[0])
    npt.assert_array_equal(controls, ref[1])
    assert t_bar == ref[2]
    assert info["iterations"] == ref[3]["iterations"]


def test_nav_episode_builds_only_its_first_prefixes(monkeypatch):
    # every pass of the first solve builds its full prefix, so the
    # episode's first plan chooses its horizon freely; every pass of every
    # replan asks for 0 knots, so no replan prices a horizon above its plan
    model, x0, cfg = noise_free_nav_episode()
    prefixes, _ = recording_prefixes(monkeypatch)
    solves = []

    def recording(model, initial, cfg, previous=None):
        result = optimize_trajectory(model, initial, cfg, previous)
        solves.append((previous is None, result.iterations))
        return result

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording)
    log = run_episode(model, x0, cfg)
    assert log.terminated and not any(rec.degraded for rec in log.steps)
    S = cfg.solver.window_s
    assert solves[0][0] and solves[0][1] > 1
    assert prefixes == [(S, S) if first else (0, 0)
                        for first, iterations in solves
                        for _ in range(iterations)]


def test_one_ulp_off_the_plan_solves_afresh(monkeypatch):
    # a replan from a state one ulp away from the carried plan rolls its
    # warm start out and sweeps every knot, as a replan carrying nothing;
    # on the plan or off it, a replan builds no prefix, and a pass that
    # reads the carried sweep's tail asks for none
    model, cfg, x1, plan, previous = first_carried_replan(monkeypatch)
    sweep = previous.sweep
    npt.assert_array_equal(sweep.controls[sweep.prefix_len:], plan)
    nudged = x1.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    counts = checking_carried_sweeps(monkeypatch)
    prefixes, _ = recording_prefixes(monkeypatch)
    for x, reused in ((x1, 1), (nudged, 0)):
        counts.clear()
        prefixes.clear()
        action, controls, t_bar, info = mpc_step(plan[1:], x, model, cfg,
                                                 previous)
        assert counts["reused"] == reused
        assert counts["rolled_out"] == 1 - reused
        assert prefixes == [(0, 0)] * (info["iterations"] - reused)
        # the same replan resumed from the same levels without the sweep
        ref = mpc_step(plan[1:], x, model, cfg, replace(previous, sweep=None))
        npt.assert_array_equal(action, ref[0])
        npt.assert_array_equal(controls, ref[1])
        assert t_bar == ref[2]
        assert info["iterations"] == ref[3]["iterations"]
        result, ref_result = info["previous"], ref[3]["previous"]
        assert (result.gamma_final, result.radius_final) \
            == (ref_result.gamma_final, ref_result.radius_final)


def test_quadrotor_episode_work_counts(monkeypatch):
    # the criterion-5 quadrotor episode backs up 1309 knots and takes 2435
    # model steps when every replan, step 0's included, rolls out its warm
    # start and backs up every knot; the carried sweep spares 496 of each.
    # Every solve's initial trajectory is one the library simulated, so no
    # consistency check steps it again: that spares 635 more steps, the 40
    # knots of the first solve's initial trajectory and the 595 of the 34
    # warm starts.  A replan builds no prefix: 29 of the 34 replans would
    # have built 10 knots (the other chains leave the admissible region),
    # so 29 x 10 = 290 knots are spared, each a backup and a defect step.
    # The second replan's rejected shifted try is then T-bar - 1, not the
    # prefix's T-bar + 3, so its three rungs step 32 knots each, not 36: 12
    # steps fewer.  That leaves 523 backups and 1002 steps.  Step 0 keeps
    # the converged first plan: its replan's sweep of 34 knots, its 34-knot
    # warm start and its four rollouts (three rungs at T = 30 and the retry
    # at T-bar = 34, 124 steps) are spared, 34 backups and 158 steps.  The
    # replans at steps 1 and 2 follow solves that stopped on an exact step,
    # and their warm starts are read off the plan, not rolled out: 33 + 32
    # = 65 steps.  Step 1 then resumes from the first solve's trust radius,
    # so its rejected shifted try is T-bar - 2, not T-bar - 1: its three
    # rungs step 31 knots each, not 32, 3 steps fewer.  The first solve
    # runs 12 sweeps, and each of the 33 replans after step 0 one pass:
    # 45 sweeps.  31 of those replans follow a solve that ended at the
    # stationarity test, and their one pass reads the tail of that solve's
    # sweep instead of sweeping again, which backs up no knot: 14 sweeps
    counts = Counter()
    q_expansion, step = backward_mod.q_expansion, QuadrotorModel.step
    sweep = solver_mod.backward_sweep

    def counting_q_expansion(C, dyn, nxt):
        counts["backups"] += 1
        return q_expansion(C, dyn, nxt)

    def counting_sweep(*args, **kwargs):
        counts["sweeps"] += 1
        return sweep(*args, **kwargs)

    def counting_step(self, x, u):
        counts["steps"] += 1
        return step(self, x, u)

    monkeypatch.setattr(backward_mod, "q_expansion", counting_q_expansion)
    monkeypatch.setattr(QuadrotorModel, "step", counting_step)
    monkeypatch.setattr(solver_mod, "backward_sweep", counting_sweep)
    model, x0, cfg = quadrotor_episode()
    log = run_episode(model, x0, cfg)
    assert log.steps_used == 34
    assert counts == {"backups": 489, "steps": 776, "sweeps": 14}


# ---------------------------------------------------------------------------
# what the previous solve computed is not computed again
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build,t_fixed", [
    (quadrotor_episode, None),
    (lambda: cartpole_episode(10.0), None),
    (noise_free_nav_episode, None),
    (noise_free_nav_episode, 40)],
    ids=["quadrotor", "cartpole-10", "nav", "nav-receding"])
def test_step_0_keeps_the_first_plan(build, t_fixed, monkeypatch):
    # step 0 replans at the episode's start, with the converged first plan,
    # against the snapshot object the first solve used: that solve's own
    # problem, so its plan is kept without a solve or a model step
    model, x0, cfg = build()
    solves, calls, step0 = [], Counter(), []
    solve, replan, step = (mpc_mod.optimize_trajectory, mpc_mod.mpc_step,
                           type(model).step)

    def recording_solve(model, initial, cfg, previous=None):
        solves.append(solve(model, initial, cfg, previous))
        return solves[-1]

    def counting_step(self, x, u):
        calls["steps"] += 1
        return step(self, x, u)

    def recording_replan(controls, x, snapshot, cfg, previous):
        before = (len(solves), calls["steps"])
        out = replan(controls, x, snapshot, cfg, previous)
        if not step0:
            step0.append((before, (len(solves), calls["steps"]), out))
        return out

    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording_solve)
    monkeypatch.setattr(mpc_mod, "mpc_step", recording_replan)
    monkeypatch.setattr(type(model), "step", counting_step)
    log = run_episode(model, x0, replace(cfg, step_limit=2), t_fixed=t_fixed)
    [(before, after, (action, controls, t_bar, info))] = step0
    first = solves[0]
    assert first.converged and before == after
    assert log.steps[0].inner_iterations == info["iterations"] == 0
    assert not log.steps[0].degraded
    assert info["previous"] is first
    assert controls is first.trajectory.controls
    assert t_bar == first.t_star


@pytest.mark.parametrize("change", ["ulp", "snapshot", "max_iterations"])
def test_step_0_off_the_first_solve_runs_a_pass(change):
    # the plan is kept only for the converged solve's own problem: a state
    # one ulp off its start, a new snapshot object of the same world, or a
    # solve that ran out of iterations each make step 0 run a pass
    model, x0, cfg = noise_free_nav_episode()
    snapshot = mpc_mod._snapshot(model, 0.0)
    first = optimize_trajectory(
        snapshot, initial_trajectory(snapshot, x0, cfg.initial_horizon),
        cfg.solver)
    assert first.converged
    plan = first.trajectory
    if change == "ulp":
        x0 = x0.copy()
        x0[0] = np.nextafter(x0[0], 1.0)
    elif change == "snapshot":
        snapshot = mpc_mod._snapshot(model, 0.0)
        assert snapshot is not plan._simulated_by
    else:
        first = replace(first, status="max_iterations", converged=False)
    action, controls, t_bar, info = mpc_step(plan.controls, x0, snapshot,
                                             cfg, first)
    assert info["iterations"] >= 1 and not info["degraded"]
    assert info["previous"] is not first


def test_warm_start_after_an_exact_step_is_read_off_the_plan(monkeypatch):
    # a replan that converged on an exact step carries no sweep; the next
    # noise-free replan reads its warm start off that replan's plan, to the
    # bit of the rollout it spares
    model, cfg, replans = recorded_replans(monkeypatch)
    x, action, plan, previous = next(
        (x, action, plan, info["previous"])
        for x, (action, plan, _, info) in replans
        if info["iterations"] > 0 and info["previous"].converged
        and info["previous"].sweep is None)
    x1 = model.step(x, action)
    rolled_out, warm_starts = [], []

    def counting_rollout(model, x0, controls):
        rolled_out.append(x0)
        return rollout_controls(model, x0, controls)

    def recording(model, initial, cfg, previous=None):
        warm_starts.append(initial)
        return optimize_trajectory(model, initial, cfg, previous)

    monkeypatch.setattr(mpc_mod, "rollout_controls", counting_rollout)
    monkeypatch.setattr(mpc_mod, "optimize_trajectory", recording)
    mpc_step(plan[1:], x1, model, cfg, previous)
    assert rolled_out == []
    (warm,) = warm_starts
    ref = rollout_controls(model, x1, plan[1:])
    npt.assert_array_equal(warm.states, ref.states)
    npt.assert_array_equal(warm.controls, ref.controls)
