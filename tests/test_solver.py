"""Outer loop: prefix extension, candidate pricing, horizon selection."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import LinearQuadraticModel, random_lq
from horizonddp import (BackwardResult, CandidateEvaluation, CartpoleModel,
                        DoubleIntegratorModel, SolverConfig, SystemModel,
                        Trajectory, backward_sweep, initial_trajectory,
                        lti_optimal_horizon, optimize_trajectory,
                        riccati_sweep, rollout_controls, select_horizon,
                        trajectory_cost)
from horizonddp.model import running_costs
import horizonddp.solver as solver_mod
from horizonddp.solver import evaluate_candidates, extend_backward, rollout


def empty_prefix(model):
    return (np.zeros((0, model.dim_x)), np.zeros((0, model.dim_u)))


def open_loop(states, controls, k):
    """Sweep record whose policy is u = controls + alpha * k, no feedback."""
    T, m = controls.shape
    n = states.shape[1]
    return BackwardResult(states=states, controls=controls,
                          P=np.zeros((T + 1, n + 1, n + 1)),
                          K=np.zeros((T, m, n)), k=k,
                          gamma_used=0.0, prefix_len=0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(horizon_bounds=(0, 5))
    with pytest.raises(ValueError):
        SolverConfig(horizon_bounds=(6, 5))
    with pytest.raises(ValueError):
        SolverConfig(window_s=-1)
    for field, value in [("second_order", "false"), ("second_order", 1),
                         ("window_s", 2.5), ("window_s", np.nan),
                         ("window_s", "4"), ("max_iterations", 2.5),
                         ("max_iterations", 0), ("max_iterations", True),
                         ("convergence_tol", np.nan),
                         ("convergence_tol", np.inf), ("k_tol", -1.0),
                         ("k_tol", "1e-6"),
                         ("horizon_bounds", (1.7, 120.9)),
                         ("horizon_bounds", (1, 120.5)),
                         ("horizon_bounds", (0, 5)),
                         ("horizon_bounds", (6, 5)),
                         ("horizon_bounds", 5), ("horizon_bounds", [1])]:
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
    # regularization and the trust radius are solver state, not knobs
    for key in ("gamma_init", "trust_radius"):
        with pytest.raises(ValueError, match=key):
            SolverConfig.from_json({key: 1e-6})


def test_gamma_argument_rejects_nan_negative_and_inf():
    # a replan starts from the gamma its previous result ended on.  An
    # infinite gamma zeroes every gain: a cartpole solve then only
    # shortens its unmoved nominal and reports that as converged
    m = DoubleIntegratorModel()
    init = initial_trajectory(m, np.array([1.0, 0.0]), 10)
    cfg = SolverConfig(horizon_bounds=(1, 20))
    previous = optimize_trajectory(m, init, cfg)
    for gamma in (np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            optimize_trajectory(m, init, cfg,
                                replace(previous, gamma_final=gamma))


def test_radius_argument_regrows_once_and_is_returned():
    # a carried radius widens by the regrowth factor before the first
    # pass only; a zero radius would shut out T-bar, and NaN admits nothing
    m = DoubleIntegratorModel()
    init = initial_trajectory(m, np.array([1.0, 0.0]), 10)
    cfg = SolverConfig(horizon_bounds=(1, 20))
    previous = optimize_trajectory(m, init, cfg)
    for radius in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="radius"):
            optimize_trajectory(m, init, cfg,
                                replace(previous, radius_final=radius))
    res = optimize_trajectory(m, init, cfg,
                              replace(previous, radius_final=0.4))
    assert res.trace[0]["trust_radius"] == 0.4 * solver_mod._RADIUS_REGROWTH
    # the last pass accepted a shift and doubled the radius it priced with
    last = res.trace[-1]
    assert last["accepted"] and last["t_star"] != last["t_bar"]
    assert res.radius_final == 2.0 * last["trust_radius"]
    # infinity, the one-shot default, is the radius the first pass prices
    # with, and stays infinite
    res = optimize_trajectory(m, init, cfg)
    assert res.trace[0]["trust_radius"] == np.inf
    assert res.radius_final == np.inf


def test_result_carries_the_sweep_of_a_stationary_end(monkeypatch):
    # only a solve that ends at the stationarity test returns its last
    # sweep, whose nominal is the returned trajectory; a carried sweep goes
    # to the first pass, and a replan that steps carries none out
    m = DoubleIntegratorModel()
    init = initial_trajectory(m, np.array([1.0, 0.0]), 20)
    # a window of 2 walks from T = 20 to the lower edge, then to T* = 1
    cfg = SolverConfig(horizon_bounds=(1, 40), window_s=2)
    for max_iterations in (1, 100):
        res = optimize_trajectory(
            m, init, replace(cfg, max_iterations=max_iterations))
        assert res.trace[-1]["accepted"] and res.sweep is None
    assert res.status == "converged" and res.iterations == 2
    again = optimize_trajectory(m, res.trajectory, cfg)
    assert again.iterations == 1 and not again.trace[0]["accepted"]
    sweep = again.sweep
    npt.assert_array_equal(sweep.states[sweep.prefix_len:],
                           again.trajectory.states)
    npt.assert_array_equal(sweep.controls[sweep.prefix_len:],
                           again.trajectory.controls)
    tails = []
    tail = BackwardResult.tail

    def recording(self, *args):
        tails.append((self, tail(self, *args)))
        return tails[-1][1]

    monkeypatch.setattr(BackwardResult, "tail", recording)
    # given a result the solve is a replan: it ends on its first accepted
    # step, here onto its window's lower edge, T = 18.  Its initial
    # trajectory is not along the carried nominal, so its first pass
    # sweeps afresh
    replan = optimize_trajectory(m, init, cfg, again)
    assert tails == [(sweep, None)]
    assert replan.status == "replanned" and not replan.converged
    assert (replan.iterations, replan.t_star) == (1, 18)
    assert replan.sweep is None


@pytest.mark.parametrize("tol, J, iterations", [
    (1e-4, 82.40442581452723, 7),
    (1e-3, 82.4261276536489, 5),
], ids=["1e-4", "1e-3"])
def test_small_decrease_alone_does_not_end_a_solve(tol, J, iterations):
    # criterion-5 start with a loose k_tol: the last accepted step lowers J
    # by less than tol and is not exact, so the solve ends one pass later,
    # at a stationary sweep that it returns
    from horizonddp import QuadrotorModel

    m = QuadrotorModel(c_t=1.0)
    x0 = np.zeros(12)
    x0[:3] = [1.5, 1.0, -1.0]
    cfg = SolverConfig(horizon_bounds=(5, 150), window_s=10,
                       convergence_tol=tol, k_tol=0.1)
    res = optimize_trajectory(m, initial_trajectory(m, x0, 40), cfg)
    assert res.converged and not res.trace[-1]["accepted"]
    sweep = res.sweep
    assert sweep is not None
    npt.assert_array_equal(sweep.states[sweep.prefix_len:],
                           res.trajectory.states)
    npt.assert_array_equal(sweep.controls[sweep.prefix_len:],
                           res.trajectory.controls)
    assert res.t_star == 34
    assert (res.cost, res.iterations) == (J, iterations)


def test_config_from_json_rejects_unknown_fields():
    cfg = SolverConfig.from_json({"window_s": 4, "horizon_bounds": [2, 9]})
    assert cfg.window_s == 4 and cfg.horizon_bounds == (2, 9)
    with pytest.raises(ValueError, match="window_size"):
        SolverConfig.from_json({"window_size": 4})


# ---------------------------------------------------------------------------
# backward extension
# ---------------------------------------------------------------------------


def test_extend_backward_inverse_dynamics(rng):
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 6)
    prefix = extend_backward(model, traj, 4)
    assert len(prefix) == 4
    u0 = traj.controls[0]
    # each prefix knot must step forward onto the next one
    chain = np.vstack([prefix.states, traj.states[:1]])
    for s in range(4):
        npt.assert_allclose(model.step(chain[s], u0), chain[s + 1], atol=1e-10)


def test_extend_backward_zero_length(rng):
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 3)
    prefix = extend_backward(model, traj, 0)
    assert len(prefix) == 0


@pytest.mark.parametrize("count", [2.5, True, -1])
def test_knot_counts_are_checked_not_truncated(count):
    # int() would turn 2.5 into a 2-knot prefix or a 2-step trajectory,
    # and True into a 1-knot prefix
    m = DoubleIntegratorModel()
    traj = initial_trajectory(m, np.array([1.0, 0.0]), 3)
    with pytest.raises(ValueError, match="S must be an integer >= 0"):
        extend_backward(m, traj, count)
    with pytest.raises(ValueError, match="T must be an integer >= 0"):
        initial_trajectory(m, np.array([1.0, 0.0]), count)


def test_extend_backward_fixed_point_constant():
    # start at rest with zero control: the preimage guess stays at rest
    from horizonddp import CartpoleModel

    m = CartpoleModel()
    traj = initial_trajectory(m, np.zeros(4), 5)
    prefix = extend_backward(m, traj, 3)
    assert len(prefix) == 3
    npt.assert_allclose(prefix.states, 0.0, atol=1e-9)


class NoGuessModel(LinearQuadraticModel):
    """LQ model that leaves ``inverse_step`` to the base class."""

    inverse_step = SystemModel.inverse_step


def test_extend_backward_empty_without_a_guess():
    m = NoGuessModel(np.eye(2) * 0.9, np.array([[0.0], [1.0]]), np.eye(2),
                     np.eye(1), np.eye(2))
    traj = initial_trajectory(m, np.array([2.0, 1.0]), 5)
    prefix = extend_backward(m, traj, 3)
    assert len(prefix) == 0
    assert prefix.states.shape == (0, 2) and prefix.controls.shape == (0, 1)


def test_extend_backward_falls_back_off_the_admissible_region():
    # an inverse that overflows, an inverse of a singular A, a one-knot
    # kernel that raises on an overflowed state, and a quadrotor guess
    # pitched past pi/2 (where the Euler-angle kinematics are singular)
    # all leave the prefix empty
    from horizonddp import CartpoleModel, QuadrotorModel, Trajectory

    tiny = LinearQuadraticModel(1e-200 * np.eye(2), np.array([[0.0], [1.0]]),
                                np.eye(2), np.eye(1), np.eye(2))
    singular = LinearQuadraticModel([[1.0, 0.1], [0.0, 0.0]],
                                    np.array([[0.0], [1.0]]), np.eye(2),
                                    np.eye(1), np.eye(2))
    spinning = Trajectory(states=[[0.0, 0.0, 0.0, 1e200]] * 2,
                          controls=[[0.0]])
    quad = QuadrotorModel()
    pitching = np.zeros(12)
    pitching[4], pitching[10] = 1.55, -5.0     # pitch, pitch rate
    assert quad.admissible(pitching)
    pitched = Trajectory(states=[pitching] * 2, controls=[quad.u_ref])
    for model, traj in ((tiny, initial_trajectory(tiny, np.ones(2), 5)),
                        (singular, initial_trajectory(singular, np.ones(2), 5)),
                        (CartpoleModel(), spinning), (quad, pitched)):
        prefix = extend_backward(model, traj, 3)
        assert len(prefix) == 0
        assert prefix.states.shape == (0, model.dim_x)
        assert prefix.controls.shape == (0, model.dim_u)


# ---------------------------------------------------------------------------
# candidate pricing and selection
# ---------------------------------------------------------------------------


def test_candidate_prices_match_riccati(rng):
    # every candidate J_T equals 0.5 x0' P[T] x0 + c_t T on LQ
    model = random_lq(rng, c_t=0.3)
    T_bar = 12
    x0 = rng.standard_normal(model.dim_x)
    traj = initial_trajectory(model, x0, T_bar)
    prefix = extend_backward(model, traj, 5)
    back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                          gamma=0.0)
    cfg = SolverConfig(horizon_bounds=(1, 40), window_s=5)
    cands = evaluate_candidates(back, cfg.horizon_bounds, cfg.window_s, 1e9)
    seq = riccati_sweep(model.to_lti_problem((1, 40)))
    assert [c.T for c in cands] == list(range(7, 18))
    for c in cands:
        exact = 0.5 * float(x0 @ seq[c.T] @ x0) + model.c_t * c.T
        assert c.J_T == pytest.approx(exact, abs=1e-9 * max(1.0, exact))
        assert c.admissible


def test_infeasible_prefix_prices_exactly_on_lq(rng):
    # random prefix states and controls break the dynamics at every prefix
    # knot; the sweep carries those defects, so every candidate is still
    # priced as the recursion plus c_t per step prices it, to the tolerances
    # of acceptance criterion 2
    S = 5
    for _ in range(20):
        model = random_lq(rng, c_t=float(rng.uniform(0.01, 0.5)))
        T_bar = int(rng.integers(S + 1, 40))
        x0 = rng.standard_normal(model.dim_x)
        traj = initial_trajectory(model, x0, T_bar)
        prefix = (rng.standard_normal((S, model.dim_x)),
                  rng.standard_normal((S, model.dim_u)))
        chain = np.vstack([prefix[0], x0])
        defects = [model.step(x, u) - x_next for x, u, x_next
                   in zip(chain, prefix[1], chain[1:])]
        assert np.min(np.abs(defects).max(axis=1)) > 0.1
        back = backward_sweep(model, traj, prefix, gamma=0.0)
        cands = evaluate_candidates(back, (1, T_bar + S), S, np.inf)
        assert [c.T for c in cands] == list(range(T_bar - S, T_bar + S + 1))
        seq = riccati_sweep(model.to_lti_problem((1, T_bar + S)))
        for c in cands:
            assert np.max(np.abs(back.value_at(c.t0).V_xx - seq[c.T])) < 1e-10
            exact = 0.5 * float(x0 @ seq[c.T] @ x0) + model.c_t * c.T
            assert abs(c.J_T - exact) < 1e-9 * max(1.0, abs(exact))
        # the full step from the earliest prefix knot realizes its price
        _, j = rollout(model, back, t0=-S, alpha=1.0, x0=x0)
        assert j == pytest.approx(cands[-1].J_T, rel=1e-9)


def test_candidates_respect_bounds_and_window(rng):
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 4)
    prefix = extend_backward(model, traj, 2)
    back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                          gamma=0.0)
    cfg = SolverConfig(horizon_bounds=(3, 5), window_s=2)
    cands = evaluate_candidates(back, cfg.horizon_bounds, cfg.window_s, 1e9)
    assert [c.T for c in cands] == [3, 4, 5]


def test_trust_radius_marks_far_candidates(rng):
    model = random_lq(rng)
    x0 = rng.standard_normal(model.dim_x) + 5.0
    traj = initial_trajectory(model, x0, 8)
    prefix = extend_backward(model, traj, 4)
    back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                          gamma=0.0)
    tiny = evaluate_candidates(back, (1, 20), 4, 1e-12)
    # dx = 0 at the current horizon stays admissible, moved knots do not
    by_T = {c.T: c for c in tiny}
    assert by_T[8].admissible
    assert not by_T[4].admissible


def test_select_horizon_argmin_and_ties():
    cands = [CandidateEvaluation(T=3, t0=2, J_T=5.0, admissible=True,
                                 gap=0.2),
             CandidateEvaluation(T=4, t0=1, J_T=4.0, admissible=True,
                                 gap=0.1),
             CandidateEvaluation(T=5, t0=0, J_T=4.0, admissible=True,
                                 gap=0.0),
             CandidateEvaluation(T=6, t0=-1, J_T=4.5, admissible=True,
                                 gap=0.1)]
    assert select_horizon(cands, 6) == 4  # tie -> smaller T
    # a tie with T-bar keeps T-bar: only a strictly lower price moves
    assert select_horizon(cands, 5) == 5
    cands[0] = CandidateEvaluation(T=3, t0=2, J_T=1.0, admissible=False,
                                   gap=0.2)
    assert select_horizon(cands, 6) == 4  # inadmissible skipped
    none = [CandidateEvaluation(T=3, t0=0, J_T=1.0, admissible=False,
                                gap=0.0)]
    assert select_horizon(none, 3) == 3


def test_solve_started_at_its_optimum_converges_at_once():
    # at the origin with no time penalty every candidate is priced at
    # J = 0, and no rollout can lower J strictly: the tie keeps T-bar, so
    # the first sweep is stationary.  A move to a smaller tied horizon
    # would fail every ladder until gamma reached its ceiling
    m = DoubleIntegratorModel(c_t=0.0)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(2), 10),
                              SolverConfig(horizon_bounds=(1, 30), window_s=5))
    assert res.status == "converged" and res.iterations == 1
    assert res.t_star == 10 and res.cost == 0.0
    assert {c.J_T for c in res.trace[0]["candidates"]} == {0.0}


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def test_rollout_alpha_zero_reproduces_nominal(rng):
    model = random_lq(rng)
    x0 = rng.standard_normal(model.dim_x)
    traj = initial_trajectory(model, x0, 6)
    back = backward_sweep(model, traj, empty_prefix(model), gamma=0.0)
    new, cost = rollout(model, back, 0, 0.0, x0)
    npt.assert_allclose(new.states, traj.states, atol=1e-12)
    assert cost == pytest.approx(trajectory_cost(model, traj))


@pytest.mark.parametrize("t0", [-3, 2])
def test_rollout_alpha_zero_follows_extended_nominal(t0, rng):
    # from the extended nominal's state at t0, alpha = 0 replays its tail:
    # prefix knots for t0 < 0, a suffix of the trajectory for t0 > 0
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 6)
    prefix = extend_backward(model, traj, 3)
    back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                          gamma=0.0)
    g = t0 + back.prefix_len
    new, _ = rollout(model, back, t0, 0.0, back.states[g])
    npt.assert_allclose(new.states, back.states[g:], atol=1e-10)
    npt.assert_allclose(new.controls, back.controls[g:], atol=1e-10)


def test_rollout_flags_divergence():
    class Exploding(LinearQuadraticModel):
        def step(self, x, u):
            return 10.0 * np.asarray(x, dtype=float)

    m = Exploding(np.eye(2), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1),
                  np.eye(2))
    back = open_loop(np.ones((12, 2)), np.zeros((11, 1)), np.zeros((11, 1)))
    _, cost = rollout(m, back, 0, 1.0, np.ones(2))
    assert cost == np.inf


@pytest.mark.parametrize("feedforward", [1e308, 1e200])
def test_rollout_returns_inf_when_step_raises(feedforward):
    # the cartpole step raises FloatingPointError once its state overflows:
    # to inf at once (1e308), or past float range in a squared rate (1e200)
    from horizonddp import CartpoleModel

    m = CartpoleModel()
    T = 5
    back = open_loop(np.zeros((T + 1, 4)), np.zeros((T, 1)),
                     np.full((T, 1), feedforward))
    with np.errstate(over="ignore", invalid="ignore"):
        out = rollout(m, back, 0, 1.0, np.zeros(4))
    assert out == (None, np.inf)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e9])
def test_rollout_rejects_state_out_of_bounds(value, monkeypatch):
    # one test covers a non-finite state and one beyond the state bound
    model = DoubleIntegratorModel()
    # the models are frozen: patch the class
    monkeypatch.setattr(DoubleIntegratorModel, "step",
                        lambda self, x, u: np.array([0.0, value]))
    T = 3
    back = open_loop(np.zeros((T + 1, 2)), np.zeros((T, 1)), np.zeros((T, 1)))
    assert rollout(model, back, 0, 1.0, np.zeros(2)) == (None, np.inf)


def test_rollout_returns_inf_when_cost_overflows():
    # the states stay finite, but the terminal weight takes the terminal
    # cost past float range
    model = DoubleIntegratorModel()
    x0 = np.array([1.0, 0.0])
    back = backward_sweep(model, initial_trajectory(model, x0, 5),
                          empty_prefix(model))
    with np.errstate(over="ignore", invalid="ignore"):
        heavy = DoubleIntegratorModel(Qf=1e308 * np.eye(2))
        assert rollout(heavy, back, 0, 1.0, x0) == (None, np.inf)


def _nav_model():
    from horizonddp import Obstacle, PointMassNavModel

    return PointMassNavModel(
        obstacles=(Obstacle(center=(3.0, 0.5), radius=0.8, weight=30.0),
                   Obstacle(center=(5.5, -0.8), radius=0.7, weight=30.0)),
        c_t=5.0)


def _sweep_case(model, x0, T, S, rng):
    """Sweep along the nominal control perturbed by noise, so the knots
    move and the candidates' initial-state gaps are not zero."""
    controls = (np.tile(model.nominal_control(x0), (T, 1))
                + 0.3 * rng.standard_normal((T, model.dim_u)))
    traj = rollout_controls(model, x0, controls)
    prefix = extend_backward(model, traj, S)
    return traj, backward_sweep(model, traj, (prefix.states, prefix.controls))


def _counting_running_cost(model, monkeypatch):
    """Record the leading shape of every running_cost call on this model's
    class (the models are frozen, so the class is patched)."""
    shapes = []
    inner = type(model).running_cost

    def counted(self, x, u):
        shapes.append(np.shape(x)[:-1])
        return inner(self, x, u)

    monkeypatch.setattr(type(model), "running_cost", counted)
    return shapes


@pytest.mark.parametrize("name", ["cartpole", "nav", "per-knot"])
def test_rollout_cost_is_trajectory_cost_to_the_bit(name, rng, monkeypatch):
    from horizonddp import CartpoleModel

    model, x0 = {
        "cartpole": (CartpoleModel(c_t=3.0), np.zeros(4)),
        "nav": (_nav_model(), np.zeros(4)),
        "per-knot": (random_lq(rng, c_t=0.3), None),
    }[name]
    if x0 is None:
        x0 = rng.standard_normal(model.dim_x)
    traj, back = _sweep_case(model, x0, 30, 3, rng)
    shapes = _counting_running_cost(model, monkeypatch)
    for t0, alpha in ((0, 1.0), (0, 0.25), (-2, 0.5), (3, 1.0)):
        shapes.clear()
        new, cost = rollout(model, back, t0, alpha, x0)
        T = 30 - t0
        # one stacked call for the whole rollout, or one call per knot
        assert shapes == ([(T,)] if model.stacked_derivatives else [()] * T)
        assert cost == trajectory_cost(model, new)
        assert type(cost) is float


def per_step_rollout(model, back, t0, alpha, x0):
    """Reference rollout: each knot's control formed on its own from the
    sweep record's rows, and stepped until the first state out of the box."""
    g0 = t0 + back.prefix_len
    T = back.controls.shape[0] - g0
    states = np.zeros((T + 1, model.dim_x))
    controls = np.zeros((T, model.dim_u))
    states[0] = x0
    for t in range(T):
        g = g0 + t
        dx = states[t] - back.states[g]
        u = back.controls[g] + alpha * back.k[g] + back.K[g] @ dx
        controls[t] = u
        x_next = model.step(states[t], u)
        if not np.abs(x_next).max() <= solver_mod._STATE_BOUND:
            return None, np.inf
        states[t + 1] = x_next
    cost = 0.0
    for c in running_costs(model, states[:-1], controls):
        cost += c
    cost += model.terminal_cost(states[-1])
    return (states, controls), float(cost)


@pytest.mark.parametrize("name", ["cartpole", "quadrotor", "nav", "per-knot"])
def test_rollout_matches_per_step_reference(name, rng, monkeypatch):
    from horizonddp import CartpoleModel, QuadrotorModel

    x_quad = np.zeros(12)
    x_quad[:3] = [1.5, 1.0, -1.0]
    model, x0 = {
        "cartpole": (CartpoleModel(c_t=3.0), np.zeros(4)),
        "quadrotor": (QuadrotorModel(c_t=1.0), x_quad),
        "nav": (_nav_model(), np.zeros(4)),
        "per-knot": (random_lq(rng, c_t=0.3), None),
    }[name]
    if x0 is None:
        x0 = rng.standard_normal(model.dim_x)
    _, back = _sweep_case(model, x0, 10, 3, rng)
    S = back.prefix_len
    assert S == 3
    for t0, alpha in ((0, 1.0), (0, 0.25), (-S, 0.5), (3, 1.0)):
        (states, controls), cost = per_step_rollout(model, back, t0, alpha, x0)
        new, got = rollout(model, back, t0, alpha, x0)
        assert new.states.tobytes() == states.tobytes()
        assert new.controls.tobytes() == controls.tobytes()
        assert got == cost
    # a step that leaves the box at knot j is the last one taken
    step = type(model).step
    for j, value in ((0, np.nan), (4, np.inf), (9, 1e9)):
        calls = []

        def leaving(self, x, u):
            calls.append(None)
            x_next = step(self, x, u)
            return np.full_like(x_next, value) if len(calls) > j else x_next

        monkeypatch.setattr(type(model), "step", leaving)
        assert rollout(model, back, 0, 1.0, x0) == (None, np.inf)
        assert len(calls) == j + 1


def test_rollout_returns_inf_when_stacked_running_cost_raises(rng,
                                                             monkeypatch):
    model = _nav_model()
    _, back = _sweep_case(model, np.zeros(4), 10, 0, rng)

    def overflowing(self, x, u):
        raise FloatingPointError("running cost overflow")

    monkeypatch.setattr(type(model), "running_cost", overflowing)
    assert rollout(model, back, 0, 1.0, np.zeros(4)) == (None, np.inf)


@pytest.mark.parametrize("name", ["cartpole", "nav", "quadrotor", "lq"])
def test_stacked_pricing_matches_value_expansion(name, rng):
    # every candidate is priced to the bit as ValueExpansion.evaluate prices
    # it, from dx = x0 - states[t0 + S]
    from horizonddp import CartpoleModel, QuadrotorModel

    x_quad = np.zeros(12)
    x_quad[:3] = [1.5, 1.0, -1.0]
    model, x0 = {
        "cartpole": (CartpoleModel(c_t=3.0), np.zeros(4)),
        "nav": (_nav_model(), np.array([0.5, -0.2, 0.3, 0.1])),
        "quadrotor": (QuadrotorModel(c_t=1.0), x_quad),
        "lq": (random_lq(rng, c_t=0.3), None),
    }[name]
    if x0 is None:
        x0 = rng.standard_normal(model.dim_x)
    _, back = _sweep_case(model, x0, 20, 6, rng)
    S = back.prefix_len
    cands = evaluate_candidates(back, (1, 200), S, 1e9)
    assert [c.T for c in cands] == list(range(14, 27))
    assert any(c.gap > 0 for c in cands)
    for c in cands:
        dx = back.states[S] - back.states[c.t0 + S]
        assert c.J_T == back.value_at(c.t0).evaluate(dx)
        assert c.gap == float(np.linalg.norm(dx))
        assert type(c.J_T) is float and type(c.gap) is float


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_lq_single_iteration_convergence():
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    x0 = np.array([2.0, 0.0])
    t_exact, j_exact, _ = lti_optimal_horizon(m.to_lti_problem((1, 120)), x0)
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    res = optimize_trajectory(m, initial_trajectory(m, x0, t_exact + 5), cfg)
    assert res.converged and res.iterations == 1
    assert res.t_star == t_exact
    assert res.cost == pytest.approx(j_exact, abs=1e-9 * max(1.0, j_exact))


@pytest.mark.parametrize("T0", [3, 5, 10, 40])
def test_upper_window_edge_keeps_the_solve_climbing(T0):
    # from far below T* = 64 each pass but the last moves to the window's
    # top edge, T-bar + window_s, as an exact full step (the model is LQ);
    # the solve must not converge on that clamped edge, but climb on to T*
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    x0 = np.array([2.0, 0.0])
    t_exact, j_exact, _ = lti_optimal_horizon(m.to_lti_problem((1, 120)), x0)
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    res = optimize_trajectory(m, initial_trajectory(m, x0, T0), cfg)
    assert all(r["accepted"] and r["alpha"] == 1.0 for r in res.trace)
    assert all(r["t_star"] == r["t_bar"] + cfg.window_s
               for r in res.trace[:-1])
    assert res.converged
    assert res.t_star == t_exact
    assert res.cost == pytest.approx(j_exact, abs=1e-9)


def test_model_without_guess_never_lengthens_its_horizon():
    # no preimage guess, no prefix: a solve started below T* prices only
    # horizons up to T-bar, so it converges without growing
    di = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2),
                               Qf=10 * np.eye(2))
    lti = di.to_lti_problem((1, 120))
    m = NoGuessModel(lti.A, lti.B, lti.Q, lti.R, lti.Qf, c_t=lti.c_t)
    x0 = np.array([2.0, 0.0])
    t_exact, _, _ = lti_optimal_horizon(lti, x0)
    T0 = t_exact - 15
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    res = optimize_trajectory(m, initial_trajectory(m, x0, T0), cfg)
    assert res.converged
    for r in res.trace:
        assert all(c.T <= r["t_bar"] for c in r["candidates"])
    assert res.t_star <= T0


def test_already_optimal_start_returns_one_iteration():
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    x0 = np.array([2.0, 0.0])
    first = optimize_trajectory(m, initial_trajectory(m, x0, 60), cfg)
    again = optimize_trajectory(m, first.trajectory, cfg)
    assert again.converged and again.iterations == 1
    assert again.t_star == first.t_star
    assert again.cost == pytest.approx(first.cost, rel=1e-12)


def test_accepted_costs_monotone_on_cartpole():
    from horizonddp import CartpoleModel

    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    assert res.converged
    accepted = [r["j"] for r in res.trace if r["accepted"]]
    assert all(b <= a + 1e-12 for a, b in zip(accepted, accepted[1:]))
    # every pass prices [t_low, T-bar + S]; it reaches below T-bar -
    # window_s only right after an accepted move onto the lower edge of
    # the window the last accepted pass priced
    t_min = cfg.horizon_bounds[0]
    last = None
    lifted = 0
    for r in res.trace:
        assert [c.T for c in r["candidates"]] == list(
            range(r["t_low"], r["t_bar"] + cfg.window_s + 1))
        on_edge = (last is not None
                   and t_min < last["t_star"] == last["t_low"] < last["t_bar"])
        if r["t_low"] < r["t_bar"] - cfg.window_s:
            assert on_edge and r["t_low"] == t_min
            lifted += 1
        else:
            assert not on_edge
        if r["accepted"]:
            last = r
    assert lifted


def test_window_lifts_for_one_pass_after_a_lower_edge_move():
    # cartpole c_t = 10 from rest: pass 1 prices only its window and moves
    # onto its lower edge, so pass 2 prices every horizon down to t_min
    from horizonddp import CartpoleModel

    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    first, second, third = res.trace[:3]
    assert first["t_low"] == 140 and first["candidates"][-1].T == 160
    assert first["accepted"] and first["t_star"] == 140
    assert second["t_low"] == 10 and second["candidates"][-1].T == 150
    assert [c.T for c in second["candidates"]] == list(range(10, 151))
    assert second["accepted"] and second["t_star"] == 23
    assert third["t_low"] == 13
    assert res.converged and res.t_star == 31


def test_zero_window_prices_one_candidate():
    # window_s = 0 has no prefix and a lower edge at T-bar, so the window
    # never lifts, even where every step would land on that edge
    from horizonddp import CartpoleModel

    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=0,
                       max_iterations=300)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 60), cfg)
    assert res.converged and res.t_star == 60
    for r in res.trace:
        assert [c.T for c in r["candidates"]] == [60]
        assert r["t_low"] == r["t_bar"] == 60


def test_fixed_horizon_mode():
    m = DoubleIntegratorModel()
    cfg = SolverConfig(horizon_bounds=(20, 20), window_s=0)
    res = optimize_trajectory(m, initial_trajectory(m, np.array([1.0, 0.0]), 20),
                              cfg)
    assert res.converged and res.t_star == 20
    seq = riccati_sweep(m.to_lti_problem((1, 20)))
    x0 = np.array([1.0, 0.0])
    assert res.cost == pytest.approx(0.5 * float(x0 @ seq[20] @ x0), abs=1e-9)


def test_initial_horizon_out_of_bounds_rejected():
    m = DoubleIntegratorModel()
    cfg = SolverConfig(horizon_bounds=(5, 10), window_s=2)
    with pytest.raises(ValueError, match="bounds"):
        optimize_trajectory(m, initial_trajectory(m, np.ones(2), 20), cfg)


def _steps_before_first_rollout(monkeypatch, model, initial, cfg):
    """The model ``step`` calls a one-pass solve makes before its first
    line-search rollout."""
    events = []
    step, inner = type(model).step, solver_mod.rollout

    def counting_step(self, x, u):
        events.append("step")
        return step(self, x, u)

    def marking_rollout(*args, **kwargs):
        events.append("rollout")
        return inner(*args, **kwargs)

    monkeypatch.setattr(type(model), "step", counting_step)
    monkeypatch.setattr(solver_mod, "rollout", marking_rollout)
    optimize_trajectory(model, initial, replace(cfg, max_iterations=1))
    monkeypatch.undo()
    return events.index("rollout")


def test_simulated_initial_trajectory_is_not_stepped_again(monkeypatch):
    # window_s = 0 builds no prefix, whose defects would take steps: the
    # library's own initial trajectory is trusted, a caller-built copy of
    # it is stepped through knot by knot
    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(30, 30), window_s=0)
    init = initial_trajectory(m, np.zeros(4), 30)
    assert _steps_before_first_rollout(monkeypatch, m, init, cfg) == 0
    copied = Trajectory(states=init.states, controls=init.controls)
    assert _steps_before_first_rollout(monkeypatch, m, copied, cfg) == 30


def test_caller_built_initial_trajectory_gets_the_full_check():
    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 60), window_s=5)
    init = initial_trajectory(m, np.zeros(4), 30)
    states = init.states.copy()
    states[5, 1] += 1e-3
    with pytest.raises(ValueError, match="inconsistent"):
        optimize_trajectory(m, Trajectory(states=states,
                                          controls=init.controls), cfg)
    states[5, 1] = np.nan
    with pytest.raises(FloatingPointError, match="inconsistent"):
        optimize_trajectory(m, Trajectory(states=states,
                                          controls=init.controls), cfg)


def test_trace_keeps_rejected_horizon_on_quadrotor():
    # criterion-5 start: iteration 2 first tries a shifted horizon, finds
    # no decrease, and then accepts a step at T-bar; the shrunk trust
    # radius keeps later iterations at T-bar
    from horizonddp import QuadrotorModel

    m = QuadrotorModel(c_t=1.0)
    x0 = np.zeros(12)
    x0[:3] = [1.5, 1.0, -1.0]
    res = optimize_trajectory(m, initial_trajectory(m, x0, 40),
                              SolverConfig(horizon_bounds=(5, 150), window_s=10))
    assert res.converged and res.iterations == 12 and res.t_star == 34
    retried = [r for r in res.trace if r["t_tried"] != r["t_star"]]
    assert retried
    for r in retried:
        assert r["rejected"] == "no_decrease"
        assert r["t_star"] == r["t_bar"]
    for r in res.trace:
        if r["rejected"] is None:
            assert r["t_tried"] == r["t_star"]
            assert r["accepted"] or r is res.trace[-1]   # the last may converge


def test_trust_radius_stops_retrying_mispriced_shift(monkeypatch):
    # criterion-5 start: the one rejected shift shrinks the radius to half
    # its gap, so no later pass spends its backtracks on a shifted horizon
    from horizonddp import QuadrotorModel

    inner = solver_mod.rollout
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["t0"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "rollout", counted)
    m = QuadrotorModel(c_t=1.0)
    x0 = np.zeros(12)
    x0[:3] = [1.5, 1.0, -1.0]
    res = optimize_trajectory(m, initial_trajectory(m, x0, 40),
                              SolverConfig(horizon_bounds=(5, 150), window_s=10))
    # the rejected shift stops after three rungs (see the ladder tests)
    assert len(calls) == 17 and sum(t0 != 0 for t0 in calls) == 4
    assert res.converged and res.iterations == 12 and res.t_star == 34
    # pinned to the bit: a change in how the backup rounds moves it by ulps
    assert res.cost == 82.40213661604287
    rejected = [r for r in res.trace if r["rejected"] is not None]
    assert [(r["iteration"], r["t_tried"]) for r in rejected] == [(2, 30)]
    tried = next(c for c in rejected[0]["candidates"] if c.T == 30)
    assert tried.gap > 0
    for r in res.trace[2:]:
        assert r["trust_radius"] == 0.5 * tried.gap


def test_zero_gap_rejection_keeps_trust_radius(monkeypatch):
    # from rest every candidate of the first pass is priced at dx = 0; a
    # rejected shift there must not shrink the radius to zero, which would
    # shut out T-bar too and pin the solve at its initial horizon
    from horizonddp import CartpoleModel

    inner = solver_mod.rollout
    failed = []

    def fail_first_shifts(*args, **kwargs):
        if kwargs["t0"] != 0 and len(failed) < 10:
            failed.append(kwargs["t0"])
            return None, np.inf
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "rollout", fail_first_shifts)
    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    # all ten forced failures are the first pass's line search at 140
    assert failed == [10] * 10
    first = res.trace[0]
    assert first["rejected"] == "no_decrease" and first["t_tried"] == 140
    assert all(c.gap == 0.0 for c in first["candidates"])
    assert res.converged and res.iterations == 23 and res.t_star == 31
    assert all(r["trust_radius"] > 0 for r in res.trace)


# the three failed rungs j(1), j(1/2), j(1/4) of a rejected shifted ladder
# on nav-mpc at seed 1, where J = 392.79; its later rungs level off at
# J + 2.96
_NAV_PLATEAU = (392.79, (92.97, 26.89, 9.70))
# cartpole swing-up ladders whose fourth rung, alpha = 1/8, lowers J by
# 1315 and by 54: their first three rungs overshoot J by more than J
_CARTPOLE_CLIFFS = ((6529.83, (7.5e7, 3.2e7, 1.6e7)),
                    (8046.60, (4.8e8, 9.7e6, 9.4e6)))


def _rungs(J, excess):
    return [(alpha, J + d) for alpha, d in zip(solver_mod._STEP_SIZES, excess)]


def test_shifted_ladder_stops_on_a_plateau_above_J():
    J, excess = _NAV_PLATEAU
    rungs = _rungs(J, excess)
    steps = solver_mod._STEP_SIZES
    assert not solver_mod._rest_ruled_out(J, rungs[:2], steps[2:])
    assert solver_mod._rest_ruled_out(J, rungs, steps[3:])


@pytest.mark.parametrize("J, excess", _CARTPOLE_CLIFFS)
def test_shifted_ladder_keeps_going_past_a_cliff(J, excess):
    assert not solver_mod._rest_ruled_out(J, _rungs(J, excess),
                                          solver_mod._STEP_SIZES[3:])


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_shifted_ladder_never_stops_on_a_non_finite_rung(bad, position):
    J, excess = _NAV_PLATEAU
    rungs = _rungs(J, excess)
    rungs[position] = (rungs[position][0], bad)
    assert not solver_mod._rest_ruled_out(J, rungs,
                                          solver_mod._STEP_SIZES[3:])


def test_shifted_ladder_keeps_going_where_the_quadratic_dips_below_J():
    # J + 3, J + 1, J + 0.2 at alpha = 1, 1/2, 1/4: the quadratic through
    # them is J - 0.15 at alpha = 1/8.  Through J + 0.5 at 1/4 instead, it
    # stays above J + 1/3 on [0, 1/4]
    J = 100.0
    assert not solver_mod._rest_ruled_out(J, _rungs(J, (3.0, 1.0, 0.2)),
                                          solver_mod._STEP_SIZES[3:])
    assert solver_mod._rest_ruled_out(J, _rungs(J, (3.0, 1.0, 0.5)),
                                      solver_mod._STEP_SIZES[3:])


def test_only_a_shifted_ladder_stops_early(monkeypatch):
    # every rung lands on the same plateau above J: the shifted try stops
    # after three rungs, and the retry at T-bar, a descent direction whose
    # alpha floor is a safeguard, walks all ten
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    init = initial_trajectory(m, np.array([2.0, 0.0]), 40)
    plateau = trajectory_cost(m, init) + 1.0
    calls = []

    def flat(*args, **kwargs):
        calls.append(kwargs["t0"])
        return None, plateau

    monkeypatch.setattr(solver_mod, "rollout", flat)
    res = optimize_trajectory(m, init, SolverConfig(horizon_bounds=(1, 120),
                                                    window_s=10,
                                                    max_iterations=1))
    assert calls == [-10] * 3 + [0] * 10
    first = res.trace[0]
    assert first["t_tried"] == 50 and first["rejected"] == "no_decrease"


def _rung_or_none(alpha):
    return alpha is None or alpha in solver_mod._STEP_SIZES


def test_lq_tail_makes_no_interpolated_rollout(rng, monkeypatch):
    # criterion 1's double integrator: a full step realizes its price, so
    # alpha* = 1 to rounding.  A start near the optimum reaches the tail
    # rule on its first pass, and the others cross the window first; no
    # rollout leaves the ladder
    alphas = []
    inner = solver_mod.rollout

    def recorded(*args, **kwargs):
        alphas.append(kwargs["alpha"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "rollout", recorded)
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    x0 = np.array([2.0, 0.0])
    t_exact, _, _ = lti_optimal_horizon(m.to_lti_problem((1, 120)), x0)
    results = [optimize_trajectory(m, initial_trajectory(m, x0, T0), cfg)
               for T0 in (20, t_exact + 5, 120)]
    near = rollout_controls(m, x0, results[1].trajectory.controls + 1e-4
                            * rng.standard_normal((t_exact, 1)))
    results.append(optimize_trajectory(m, near, cfg))
    # the near start's first pass is a full step at T-bar below the
    # relative tolerance: the tail rule's condition
    first, J0 = results[-1].trace[0], trajectory_cost(m, near)
    assert first["alpha"] == 1.0 and first["t_star"] == first["t_bar"]
    assert J0 - first["j"] < cfg.convergence_tol * max(1.0, J0)
    for res in results:
        assert res.converged and res.t_star == t_exact
        assert all(_rung_or_none(r["alpha"]) for r in res.trace)
    assert alphas and all(a in solver_mod._STEP_SIZES for a in alphas)


def test_tail_interpolation_on_quadrotor():
    # criterion-5 start: the settled tail takes interpolated steps at T-bar
    # and ends in half the passes of the ladder alone (22), on the same
    # horizon and within 1e-9 of its cost
    from horizonddp import QuadrotorModel

    m = QuadrotorModel(c_t=1.0)
    x0 = np.zeros(12)
    x0[:3] = [1.5, 1.0, -1.0]
    res = optimize_trajectory(m, initial_trajectory(m, x0, 40),
                              SolverConfig(horizon_bounds=(5, 150), window_s=10))
    assert res.converged and res.iterations <= 12 and res.t_star == 34
    assert res.cost == pytest.approx(82.40213661605743, rel=1e-9)
    interpolated = [r for r in res.trace if not _rung_or_none(r["alpha"])]
    assert interpolated
    for r in interpolated:
        assert r["accepted"] and r["t_star"] == r["t_bar"]


def test_fixed_horizon_tail_converges():
    # the oracle's cartpole solve at T = 65, c_t = 3 crept to the iteration
    # budget on the ladder alone; the tail's interpolated steps end it
    from horizonddp import CartpoleModel, fixed_horizon_ddp

    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    _, _, res = fixed_horizon_ddp(CartpoleModel(c_t=3.0), 65, cfg,
                                  np.zeros(4))
    assert res.converged
    assert any(not _rung_or_none(r["alpha"]) for r in res.trace)


def test_trust_radius_halves_to_gap_and_doubles():
    # cartpole c_t = 1 alternates rejected and accepted shifts, and each
    # pass's radius follows from the one before: nothing else bounds it
    from horizonddp import CartpoleModel

    m = CartpoleModel(c_t=1.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    assert res.converged
    shrunk = doubled = 0
    for r, nxt in zip(res.trace, res.trace[1:]):
        gap = next(c.gap for c in r["candidates"] if c.T == r["t_tried"])
        if r["t_tried"] == r["t_bar"]:
            expected = r["trust_radius"]
        elif r["rejected"] is None:
            expected = 2.0 * r["trust_radius"]
            doubled += expected < np.inf
        else:
            expected = 0.5 * gap if gap > 0 else r["trust_radius"]
            shrunk += gap > 0
        assert nxt["trust_radius"] == expected
    assert shrunk and doubled


def test_line_search_failure_status(monkeypatch):
    # no rollout lowers the cost: each pass retries at T-bar, then raises
    # gamma tenfold until it reaches its ceiling.  Every candidate is priced
    # at a zero gap, so the radius never shrinks and the window stays whole
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    init = initial_trajectory(m, np.array([2.0, 0.0]), 40)
    monkeypatch.setattr(solver_mod, "rollout",
                        lambda *args, **kwargs: (None, np.inf))
    res = optimize_trajectory(m, init, SolverConfig(horizon_bounds=(1, 120),
                                                    window_s=10))
    assert res.status == "line_search_failure" and not res.converged
    assert res.iterations == len(res.trace) == 13
    windows = [(r["candidates"][0].T, r["candidates"][-1].T)
               for r in res.trace]
    assert windows == [(30, 50)] * 13
    assert [r["t_tried"] for r in res.trace] == [50] * 9 + [30] * 4
    for r in res.trace:
        assert r["rejected"] == "no_decrease" and not r["accepted"]
        assert r["t_star"] == 40 and r["alpha"] is None
    assert res.gamma_final == 1e6
    assert res.t_star == 40 and res.cost == trajectory_cost(m, init)
    npt.assert_array_equal(res.trajectory.states, init.states)
    npt.assert_array_equal(res.trajectory.controls, init.controls)


def test_backward_failure_status():
    # a state weight this large trips the sweep's 1e12 divergence check at
    # every gamma up to the ceiling
    m = DoubleIntegratorModel(Q=1e13 * np.eye(2))
    init = initial_trajectory(m, np.array([2.0, 0.0]), 40)
    res = optimize_trajectory(m, init, SolverConfig(horizon_bounds=(1, 120),
                                                    window_s=10))
    assert res.status == "backward_failure" and not res.converged
    assert res.iterations == 1 and res.trace == []
    npt.assert_array_equal(res.trajectory.states, init.states)


def test_max_iterations_status():
    from horizonddp import CartpoleModel

    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10, max_iterations=3)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    assert res.status == "max_iterations" and not res.converged
    assert res.iterations == 3
    assert [r["accepted"] for r in res.trace] == [True] * 3


def test_deterministic_reruns_bitwise(rng):
    from horizonddp import CartpoleModel

    m = CartpoleModel(c_t=30.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    a = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    b = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 150), cfg)
    assert a.t_star == b.t_star and a.iterations == b.iterations
    # fingerprint of this solve: a changed bit anywhere shows up here
    assert (a.iterations, a.t_star) == (16, 23)
    npt.assert_array_equal(a.trajectory.states, b.trajectory.states)
    npt.assert_array_equal(a.trajectory.controls, b.trajectory.controls)
    assert a.cost == b.cost


def test_solution_stable_under_nearby_starts(rng):
    # property: the chosen horizon barely moves for nearby initial horizons
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    x0 = np.array([1.5, -0.5])
    stars = []
    for t_init in (40, 60, 80):
        res = optimize_trajectory(m, initial_trajectory(m, x0, t_init), cfg)
        assert res.converged
        stars.append(res.t_star)
    assert max(stars) - min(stars) == 0
