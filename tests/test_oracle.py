"""Exhaustive fixed-horizon baseline."""

import numpy as np
import pytest
import scipy.optimize

from conftest import random_lq
from horizonddp import (DoubleIntegratorModel, SolverConfig, bracketed_horizon,
                        exhaustive_horizon, fixed_horizon_ddp,
                        initial_trajectory, lti_optimal_horizon, oracle,
                        optimize_trajectory, riccati_sweep)


def test_single_step_matches_scalar_minimization():
    # T=1: the objective is a 1-D function of the only control
    m = DoubleIntegratorModel(dt=0.1, Qf=5.0 * np.eye(2))
    x0 = np.array([1.0, -0.5])

    def j_of_u(u):
        u = np.array([u])
        x1 = m.step(x0, u)
        return m.running_cost(x0, u) + m.terminal_cost(x1)

    res = scipy.optimize.minimize_scalar(j_of_u)
    cfg = SolverConfig(horizon_bounds=(1, 50), window_s=0)
    _, J, result = fixed_horizon_ddp(m, 1, cfg, x0=x0)
    assert result.converged
    assert J == pytest.approx(res.fun, abs=1e-6)


def test_sweep_matches_lti_curve(rng):
    model = random_lq(rng, c_t=0.1)
    x0 = rng.standard_normal(model.dim_x)
    t_exact, j_exact, curve = lti_optimal_horizon(
        model.to_lti_problem((1, 25)), x0)
    cfg = SolverConfig(horizon_bounds=(1, 25), window_s=0)
    sweep = exhaustive_horizon(model, range(1, 26), cfg, x0)
    assert sweep.t_exact == t_exact
    assert sweep.j_exact == pytest.approx(j_exact, abs=1e-9 * max(1.0, j_exact))
    by_T = {rec.T: rec.J for rec in sweep.records}
    for T, J in curve:
        assert by_T[T] == pytest.approx(J, abs=1e-9 * max(1.0, J))


def test_solver_never_beats_oracle(rng):
    # dominance: a brute-force sweep bracketing T* can't be worse
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    x0 = np.array([2.0, 0.0])
    res = optimize_trajectory(m, initial_trajectory(m, x0, 40), cfg)
    lo, hi = max(1, res.t_star - 10), min(120, res.t_star + 10)
    sweep = exhaustive_horizon(m, range(lo, hi + 1), cfg, x0)
    assert res.cost >= sweep.j_exact - 1e-9


def test_bracket_widens_until_argmin_is_inside(monkeypatch):
    m = DoubleIntegratorModel(c_t=0.02, Q=0.01 * np.eye(2), Qf=10 * np.eye(2))
    x0 = np.array([2.0, 0.0])
    t_exact, j_exact, _ = lti_optimal_horizon(m.to_lti_problem((1, 120)), x0)
    cfg = SolverConfig(horizon_bounds=(1, 120), window_s=10)
    reference = exhaustive_horizon(m, range(t_exact - 1, t_exact + 12), cfg, x0)
    solved = []
    fixed = oracle.fixed_horizon_ddp

    def recording(model, T, cfg, x0):
        solved.append(T)
        return fixed(model, T, cfg, x0)

    monkeypatch.setattr(oracle, "fixed_horizon_ddp", recording)
    # the first bracket [t_exact + 2, t_exact + 8] has its argmin on its
    # lower edge, so the bracket widens once to [t_exact - 1, t_exact + 11];
    # the widening solves only the six horizons it adds
    sweep = bracketed_horizon(m, cfg, x0, t_exact + 5, 3)
    assert solved == (list(range(t_exact + 2, t_exact + 9))
                      + list(range(t_exact - 1, t_exact + 2))
                      + list(range(t_exact + 9, t_exact + 12)))
    assert sweep == reference
    assert sweep.t_exact == t_exact
    assert sweep.j_exact == pytest.approx(j_exact, abs=1e-9 * max(1.0, j_exact))
    with pytest.raises(ValueError):
        bracketed_horizon(m, cfg, x0, t_exact, 0)


def test_degenerate_single_horizon_range(rng):
    model = random_lq(rng)
    cfg = SolverConfig(horizon_bounds=(1, 30), window_s=0)
    x0 = rng.standard_normal(model.dim_x)
    sweep = exhaustive_horizon(model, [7], cfg, x0)
    assert sweep.t_exact == 7 and len(sweep.records) == 1
    seq = riccati_sweep(model.to_lti_problem((1, 30)))
    assert sweep.j_exact == pytest.approx(0.5 * float(x0 @ seq[7] @ x0),
                                          abs=1e-9)


def test_fixed_horizon_rejects_bad_T(rng):
    model = random_lq(rng)
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        fixed_horizon_ddp(model, 0, cfg, x0=np.zeros(model.dim_x))
    with pytest.raises(TypeError):
        fixed_horizon_ddp(model, 5, cfg)  # x0 is required
    with pytest.raises(ValueError, match="non-empty"):
        exhaustive_horizon(model, [], cfg, np.zeros(model.dim_x))


def test_oracle_counts_are_checked_by_name(rng, monkeypatch):
    # each bad count is named before any horizon is solved: t_range [2.5,
    # 3.9] used to solve T = 2 and 3, margin 2.5 and t_center 30.5 crashed
    # in range(), and t_center True was read as 1; t_center 40 above the
    # bounds gives an empty bracket, whose sweep reads as "no horizon
    # converged"
    model = random_lq(rng)
    cfg = SolverConfig(horizon_bounds=(1, 30), window_s=0)
    x0 = np.zeros(model.dim_x)
    monkeypatch.setattr(oracle, "optimize_trajectory", None)
    for t_range in ([2.5, 3.9], [3, 0], [2, "4"], [True]):
        with pytest.raises(ValueError, match="t_range"):
            exhaustive_horizon(model, t_range, cfg, x0)
    for T in (2.5, 0, np.nan):
        with pytest.raises(ValueError, match="T must be an integer"):
            fixed_horizon_ddp(model, T, cfg, x0=x0)
    for t_center, margin, name in ((10, 2.5, "margin"), (10, 0, "margin"),
                                   (30.5, 3, "t_center"),
                                   (True, 3, "t_center"),
                                   (0, 3, "t_center"),
                                   (40, 3, "t_center")):
        with pytest.raises(ValueError, match=name):
            bracketed_horizon(model, cfg, x0, t_center, margin)


def test_cartpole_bracket_keeps_its_records():
    # the oracle's fixed-horizon solves run with window_s = 0, which never
    # lifts the window's lower edge; each of these solves takes interpolated
    # steps in its tail, and each record is pinned to the bit
    from horizonddp import CartpoleModel

    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    sweep = bracketed_horizon(CartpoleModel(c_t=10.0), cfg, np.zeros(4), 31, 2)
    assert [(r.T, r.J, r.iterations, r.converged) for r in sweep.records] == [
        (29, 480.3858851039962, 22, True),
        (30, 477.5400391494149, 25, True),
        (31, 476.279710083485, 23, True),
        (32, 476.37421902675663, 24, True),
        (33, 477.6327667496056, 25, True)]
    assert (sweep.t_exact, sweep.j_exact) == (31, 476.279710083485)
