"""Exact LQ machinery: Riccati recursion and horizon pricing."""

import copy
import pickle

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_lq
from horizonddp import (DoubleIntegratorModel, IllPosedStepError,
                        LtiProblem, lqr_gain, lqr_rollout_cost,
                        lti_optimal_horizon, riccati_step, riccati_sweep)


def scalar_problem(q=1.0, r=1.0, qf=1.0, t_max=10, c_t=0.0):
    return LtiProblem(A=[[1.0]], B=[[1.0]], Q=[[q]], R=[[r]], Qf=[[qf]],
                      horizon_bounds=(1, t_max), c_t=c_t)


def condensed_lqr_cost(problem, x0, T):
    """Optimal T-step cost by direct minimization over the stacked controls.

    Builds x_t = A^t x0 + sum_s A^(t-1-s) B u_s and solves the normal
    equations of the resulting quadratic; no Riccati recursion involved.
    """
    A, B, Q, R, Qf = problem.A, problem.B, problem.Q, problem.R, problem.Qf
    n, m = problem.n, problem.m
    # G[t] maps the stacked controls to x_t; c[t] is the free response
    G = [np.zeros((n, T * m))]
    c = [np.asarray(x0, dtype=float)]
    for t in range(T):
        Gn = A @ G[t]
        Gn[:, t * m:(t + 1) * m] += B
        G.append(Gn)
        c.append(A @ c[t])
    H = np.kron(np.eye(T), R)
    g = np.zeros(T * m)
    const = 0.0
    for t in range(T + 1):
        W = Qf if t == T else Q
        H += G[t].T @ W @ G[t]
        g += G[t].T @ W @ c[t]
        const += 0.5 * float(c[t] @ W @ c[t])
    u = np.linalg.solve(H, -g)
    return 0.5 * float(u @ H @ u) + float(g @ u) + const


def test_riccati_step_scalar_hand_value():
    # A=B=Q=R=Qf=1: P' = 1 - 1/(1+1) + 1 = 1.5
    prob = scalar_problem()
    P1 = riccati_step(np.array([[1.0]]), prob)
    npt.assert_allclose(P1, [[1.5]], atol=1e-14)


def test_riccati_step_matches_control_grid_search():
    # one-step cost-to-go by brute force over a fine control grid
    prob = scalar_problem(q=2.0, r=0.5, qf=3.0)
    P1 = riccati_step(prob.Qf, prob)
    for x0 in (-1.5, 0.3, 2.0):
        us = np.linspace(-10, 10, 200001)
        j = 0.5 * (2.0 * x0 ** 2 + 0.5 * us ** 2) + 0.5 * 3.0 * (x0 + us) ** 2
        assert abs(j.min() - 0.5 * P1[0, 0] * x0 ** 2) < 1e-7


def test_riccati_sweep_matches_condensed_qp(rng):
    # independent oracle: direct normal-equation solve over stacked controls
    for _ in range(5):
        model = random_lq(rng, n_max=4, m_max=2)
        prob = model.to_lti_problem((1, 12))
        seq = riccati_sweep(prob)
        x0 = rng.standard_normal(prob.n)
        for T in (1, 5, 12):
            j_riccati = 0.5 * float(x0 @ seq[T] @ x0)
            j_direct = condensed_lqr_cost(prob, x0, T)
            assert abs(j_riccati - j_direct) < 1e-9 * max(1.0, abs(j_direct))


def test_riccati_sweep_grid_value_iteration():
    # grid-based dynamic programming on the double integrator
    from scipy.interpolate import RegularGridInterpolator

    dt = 0.1
    prob = LtiProblem(A=[[1.0, dt], [0.0, 1.0]], B=[[0.0], [dt]],
                      Q=np.eye(2), R=[[1.0]], Qf=np.eye(2),
                      horizon_bounds=(1, 6))
    seq = riccati_sweep(prob)
    grid = np.linspace(-4.0, 4.0, 161)
    us = np.linspace(-8.0, 8.0, 321)
    X, V = np.meshgrid(grid, grid, indexing="ij")
    value = 0.5 * (X ** 2 + V ** 2)  # terminal cost on the grid
    for _ in range(6):
        interp = RegularGridInterpolator((grid, grid), value,
                                         bounds_error=False, fill_value=None)
        best = np.full_like(value, np.inf)
        for u in us:
            xn = X + dt * V
            vn = V + dt * u
            stage = 0.5 * (X ** 2 + V ** 2 + u ** 2)
            cand = stage + interp(np.stack([xn, vn], axis=-1))
            best = np.minimum(best, cand)
        value = best
    for x0 in ([0.5, 0.0], [1.0, -0.5], [-0.8, 0.6]):
        x0 = np.array(x0)
        exact = 0.5 * float(x0 @ seq[6] @ x0)
        interp = RegularGridInterpolator((grid, grid), value)
        assert abs(float(interp(x0)[0]) - exact) / exact < 0.01


def test_riccati_matrices_are_psd(rng):
    model = random_lq(rng)
    seq = riccati_sweep(model.to_lti_problem((1, 40)))
    for P in seq:
        assert np.min(np.linalg.eigvalsh(P)) > -1e-8


def test_sequence_indexed_by_steps_to_go(rng):
    # the same problem with a larger t_max extends, not changes, the sequence
    model = random_lq(rng)
    short = riccati_sweep(model.to_lti_problem((1, 10)))
    long = riccati_sweep(model.to_lti_problem((1, 30)))
    for s in range(11):
        npt.assert_allclose(short[s], long[s], atol=1e-12)


def test_optimal_horizon_charges_ct_per_step(rng):
    # each horizon costs its optimal LQR cost, found without a Riccati
    # recursion, plus c_t per step; the LQR rollout realizes that price
    model = random_lq(rng, c_t=0.4)
    prob = model.to_lti_problem((1, 20))
    x0 = rng.standard_normal(prob.n)
    _, _, curve = lti_optimal_horizon(prob, x0)
    for T, J in curve:
        exact = condensed_lqr_cost(prob, x0, T) + prob.c_t * T
        assert J == pytest.approx(exact, rel=1e-10)
        assert lqr_rollout_cost(prob, x0, T) == pytest.approx(J, rel=1e-12)


def test_optimal_horizon_tie_breaks_small():
    # zero the state: every horizon costs c_t * T, a flat curve at c_t = 0,
    # so the minimizer is the smallest admissible horizon
    for c_t in (0.0, 0.25):
        prob = scalar_problem(t_max=10, c_t=c_t)
        t_star, j_star, curve = lti_optimal_horizon(prob, np.zeros(1))
        assert t_star == 1 and j_star == c_t
        assert [J for _, J in curve] == [c_t * T for T in range(1, 11)]


def test_optimal_horizon_upper_bound_from_time_penalty(rng):
    # J(T*) >= c_t*T* so T* <= J(T_min)/c_t
    model = random_lq(rng, c_t=0.2)
    x0 = rng.standard_normal(model.dim_x)
    t_star, j_star, curve = lti_optimal_horizon(
        model.to_lti_problem((1, 60)), x0)
    assert t_star <= curve[0][1] / 0.2 + 1e-9
    assert j_star <= min(j for _, j in curve) + 1e-15


def test_lqr_rollout_reproduces_value(rng):
    model = random_lq(rng)
    prob = model.to_lti_problem((1, 25))
    seq = riccati_sweep(prob)
    x0 = rng.standard_normal(prob.n)
    for T in (1, 10, 25):
        j = lqr_rollout_cost(prob, x0, T)
        assert abs(j - 0.5 * float(x0 @ seq[T] @ x0)) < 1e-9 * max(1.0, j)


def test_lqr_gain_shape(rng):
    model = random_lq(rng)
    prob = model.to_lti_problem((1, 5))
    K = lqr_gain(prob.Qf, prob)
    assert K.shape == (prob.m, prob.n)


def test_validation_rejects_bad_data():
    data = dict(A=np.eye(2), B=np.ones((2, 1)), Q=np.eye(2), R=[[1.0]],
                Qf=np.eye(2), horizon_bounds=(1, 5))
    for change, message in [
        ({"Q": [[1.0, 0.5], [0.0, 1.0]]}, "symmetric"),
        ({"R": [[0.0]]}, "R must be positive definite"),
        ({"R": [[np.nan]]}, "R must be a matrix of finite numbers"),
        ({"R": [["2"]]}, "R must be a matrix of finite numbers"),
        ({"R": [[True]]}, "R must be a matrix of finite numbers"),
        ({"A": "abc"}, "A must be a matrix of finite numbers"),
        ({"Q": -np.eye(2)}, "Q must be positive semidefinite"),
        ({"Qf": np.ones((2, 3))}, "Qf must be square"),
        ({"A": np.ones((2, 3))}, "A must be square"),
        ({"B": np.ones((3, 1))}, "B row count"),
        ({"A": [[1.0, np.inf], [0.0, 1.0]]},
         "A must be a matrix of finite numbers"),
        ({"horizon_bounds": (5, 1)}, "horizon_bounds must be an integer"),
        ({"horizon_bounds": (1.7, 5.9)}, "horizon_bounds must be an integer"),
        ({"horizon_bounds": (1, 5.5)}, "horizon_bounds must be an integer"),
        ({"horizon_bounds": 5}, "horizon_bounds must be a pair"),
        ({"horizon_bounds": (1,)}, "horizon_bounds must be a pair"),
        ({"c_t": -1.0}, "c_t"),
        ({"c_t": np.nan}, "c_t"),
        ({"c_t": np.inf}, "c_t must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            LtiProblem(**{**data, **change})


@pytest.mark.parametrize("route", [
    copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["deepcopy", "pickle"])
def test_copied_problem_stays_frozen(route):
    # numpy hands a copied or unpickled array back writable; a copy must not
    # be editable in place after __post_init__ checked the original
    problem = DoubleIntegratorModel().to_lti_problem((1, 30))
    copied = route(problem)
    assert (copied.horizon_bounds, copied.c_t) == (problem.horizon_bounds,
                                                   problem.c_t)
    for name in ("A", "B", "Q", "R", "Qf"):
        a = getattr(copied, name)
        npt.assert_array_equal(a, getattr(problem, name))
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] += 0.5


def test_ill_posed_step_reported():
    # R must stay PD after adding B'PB; an indefinite hack can't arise through
    # the validated constructor, so drive it through a huge negative Pnext
    prob = scalar_problem()
    with pytest.raises(IllPosedStepError):
        riccati_step(np.array([[-5.0]]), prob)
    # the gain shares the step's factorization, and its error
    with pytest.raises(IllPosedStepError):
        lqr_gain(np.array([[-5.0]]), prob)
    # numpy's Cholesky factors a NaN matrix without raising
    with pytest.raises(IllPosedStepError, match="not finite"):
        lqr_gain(np.array([[np.nan]]), prob)
    # Qf = -1e-11 passes as semidefinite to round-off, and a tinier R then
    # leaves R + B'QfB indefinite at the first step
    with pytest.raises(IllPosedStepError, match="steps-to-go 1"):
        riccati_sweep(scalar_problem(q=0.0, r=1e-12, qf=-1e-11))
