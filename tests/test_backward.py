"""Backward sweep: Q-expansion, regularization, value recurrence, gains."""

from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
import scipy.optimize

from conftest import LinearQuadraticModel, nan_derivative_cartpole, random_lq
from horizonddp import (CartpoleModel, DoubleIntegratorModel, QExpansion,
                        ValueExpansion, backward, backward_sweep, expand_cost,
                        expand_dynamics, expand_terminal, initial_trajectory,
                        optimize_trajectory, q_expansion, regularize,
                        riccati_sweep, rollout_controls, value_recurrence,
                        ExpansionError, SolverConfig, Trajectory,
                        trajectory_cost)
from horizonddp.backward import GAMMA_MIN, NeedsRegularization
from horizonddp.model import sym
from test_model_api import CubicModel


def empty_prefix(model):
    return (np.zeros((0, model.dim_x)), np.zeros((0, model.dim_u)))


def per_knot_sweep(model, traj, prefix, gamma, second_order=False):
    """Reference sweep: each knot expanded inside the recursion, one at a
    time, with no gamma escalation.  A prefix knot backs up the next value
    re-centred on the knot's own successor step(x, u), which lies the
    defect d = step(x, u) - x_next away from the next knot."""
    pairs = (list(zip(*prefix))
             + list(zip(traj.states[:-1], traj.controls)))
    nexts = np.vstack([prefix[0], traj.states])[1:]
    phi, phi_x, phi_xx = expand_terminal(model, traj.states[-1])
    value = [ValueExpansion(V_xx=phi_xx, V_x=phi_x, V_0=phi)]
    Ks, ks = [], []
    for i in range(len(pairs) - 1, -1, -1):
        x, u = pairs[i]
        nxt = value[0]
        if i < len(prefix[0]):
            # V(d + y) = V_0 + V_x·d + ½ d'V_xx d + (V_x + V_xx d)·y + ...
            d = model.step(x, u) - nexts[i]
            V_xx_d = nxt.V_xx @ d
            nxt = ValueExpansion(
                V_xx=nxt.V_xx, V_x=nxt.V_x + V_xx_d,
                V_0=nxt.V_0 + float(d @ (nxt.V_x + 0.5 * V_xx_d)))
        C = backward._cost_block(expand_cost(model, x, u))
        dyn = expand_dynamics(model, x, u, want_second_order=second_order)
        q = regularize(q_expansion(C, backward._dynamics_block(dyn), nxt),
                       gamma)
        v, K, k = value_recurrence(q)
        value.insert(0, v)
        Ks.insert(0, K)
        ks.insert(0, k)
    return value, Ks, ks


def _cubic_case(rng):
    m = CubicModel()
    x0 = np.array([0.3])
    traj = rollout_controls(m, x0, 0.1 * rng.standard_normal((6, 1)))
    return m, traj, (np.tile(x0, (3, 1)), np.zeros((3, 1)))


def _lq_case(rng):
    m = random_lq(rng)
    traj = initial_trajectory(m, rng.standard_normal(m.dim_x), 8)
    u0 = traj.controls[0]
    return m, traj, (np.array([m.inverse_step(traj.states[0], u0)]),
                     u0[None, :])


def _cartpole_case(rng):
    m = CartpoleModel(c_t=3.0)
    traj = rollout_controls(m, np.zeros(4), 3.0 * rng.standard_normal((20, 1)))
    return m, traj, empty_prefix(m)


@pytest.mark.parametrize("case,second_order", [
    (_lq_case, False), (_cubic_case, False), (_cubic_case, True),
    (_cartpole_case, False)])
def test_sweep_matches_per_knot_reference(case, second_order, rng):
    # models without stacked derivatives are expanded knot by knot, so the
    # sweep is the reference to the bit on the trajectory rows; stacked
    # models, and prefix rows (the defect rides in F, not in a shifted
    # value), agree to rounding
    model, traj, prefix = case(rng)
    back = backward_sweep(model, traj, prefix, gamma=1e-6,
                          second_order=second_order)
    assert back.gamma_used == 1e-6
    npt.assert_array_equal(back.states, np.vstack([prefix[0], traj.states]))
    npt.assert_array_equal(back.controls, np.vstack([prefix[1], traj.controls]))
    value, Ks, ks = per_knot_sweep(model, traj, prefix, 1e-6, second_order)
    got = [back.V_xx, back.V_x, back.V_0, back.K, back.k]
    want = [[v.V_xx for v in value], [v.V_x for v in value],
            [v.V_0 for v in value], Ks, ks]
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for g, (x, y) in enumerate(zip(a, b)):      # knot by knot
            if model.stacked_derivatives or g < back.prefix_len:
                npt.assert_allclose(x, y, rtol=1e-12,
                                    atol=1e-12 * max(1.0, np.max(np.abs(y))))
            else:
                npt.assert_array_equal(x, y)


def test_regularize_hand_example():
    q = QExpansion(Q_xx=np.eye(2), Q_ux=np.zeros((2, 2)),
                   Q_uu=np.diag([-1.0, 2.0]), Q_x=np.zeros(2),
                   Q_u=np.zeros(2), Q_0=0.0)
    out = regularize(q, 0.1)
    # shift = 0.1 - (-1) = 1.1 applied to the whole diagonal
    npt.assert_allclose(out.Q_uu, np.diag([0.1, 3.1]), atol=1e-14)
    # already above the floor: untouched
    ok = regularize(QExpansion(Q_xx=np.eye(2), Q_ux=np.zeros((2, 2)),
                               Q_uu=np.diag([0.5, 2.0]), Q_x=np.zeros(2),
                               Q_u=np.zeros(2), Q_0=0.0), 0.1)
    npt.assert_array_equal(ok.Q_uu, np.diag([0.5, 2.0]))
    for gamma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            regularize(q, gamma)


def test_value_recurrence_matches_numeric_minimization(rng):
    n, m = 3, 2
    Mu = rng.standard_normal((m, m))
    q = QExpansion(
        Q_xx=np.eye(n) + 0.1 * np.ones((n, n)),
        Q_ux=rng.standard_normal((m, n)),
        Q_uu=Mu.T @ Mu + np.eye(m),
        Q_x=rng.standard_normal(n),
        Q_u=rng.standard_normal(m),
        Q_0=1.7,
    )
    V, K, k = value_recurrence(q)

    def q_value(dx, du):
        return (0.5 * dx @ q.Q_xx @ dx + 0.5 * du @ q.Q_uu @ du
                + du @ q.Q_ux @ dx + q.Q_x @ dx + q.Q_u @ du + q.Q_0)

    for _ in range(5):
        dx = rng.standard_normal(n)
        res = scipy.optimize.minimize(lambda du: q_value(dx, du), np.zeros(m),
                                      method="BFGS", tol=1e-12)
        assert V.evaluate(dx) == pytest.approx(res.fun, abs=1e-7)
        npt.assert_allclose(K @ dx + k, res.x, atol=1e-5)


def test_value_recurrence_raises_on_indefinite():
    q = QExpansion(Q_xx=np.eye(1), Q_ux=np.zeros((1, 1)),
                   Q_uu=np.array([[-1.0]]), Q_x=np.zeros(1),
                   Q_u=np.zeros(1), Q_0=0.0)
    with pytest.raises(NeedsRegularization, match="positive definite"):
        value_recurrence(q)


def _q_with(Q_uu, rng, n=4):
    m = Q_uu.shape[0]
    return QExpansion(Q_xx=np.eye(n), Q_ux=rng.standard_normal((m, n)),
                      Q_uu=Q_uu, Q_x=rng.standard_normal(n),
                      Q_u=rng.standard_normal(m), Q_0=0.3)


def _counting_cholesky(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(M):
        calls.append(M.shape)
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_gains_match_solve(m, rng, monkeypatch):
    # m <= 2 inverts Q_uu in closed form, without a Cholesky test
    calls = _counting_cholesky(monkeypatch)
    for _ in range(200):
        Mu = rng.standard_normal((m, m))
        q = _q_with(sym(Mu.T @ Mu + 0.1 * np.eye(m)), rng)
        _, K, k = value_recurrence(q)
        ref = -np.linalg.solve(q.Q_uu, np.column_stack([q.Q_ux, q.Q_u]))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(K - ref[:, :-1])) <= 1e-12 * scale
        assert np.max(np.abs(k - ref[:, -1])) <= 1e-12 * scale
    assert calls == []


@pytest.mark.parametrize("Q_uu", [
    [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.0]],
    [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, 0.0], [0.0, np.nan]], [[np.nan]]],
    ids=["indefinite", "singular", "zero", "nan-a", "nan-b", "nan-d",
         "nan-1x1"])
def test_closed_form_rejects_non_positive_definite(Q_uu, rng):
    with pytest.raises(NeedsRegularization, match="positive definite"):
        value_recurrence(_q_with(np.array(Q_uu), rng))


def test_one_control_gain_is_bitwise_the_inverse_product(rng):
    # m = 1 scales Q_uz by -1/a and symmetrizes P in place; the product of
    # the 1x1 inverse with Q_uz and the out-of-place sym are the reference
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        Mx = rng.standard_normal((n, n))
        q = QExpansion(Q_xx=Mx.T @ Mx, Q_ux=rng.standard_normal((1, n)),
                       Q_uu=np.array([[np.exp(3.0 * rng.standard_normal())]]),
                       Q_x=rng.standard_normal(n), Q_u=rng.standard_normal(1),
                       Q_0=float(rng.standard_normal()))
        Q = q.Q
        Kk = np.array([[-1.0 / q.Q_uu.item()]]) @ Q[n + 1:, :n + 1]
        P = sym(Q[:n + 1, :n + 1] + Q[:n + 1, n + 1:] @ Kk)
        V, K, k = value_recurrence(q)
        assert V.P.tobytes() == P.tobytes()
        assert K.tobytes() == Kk[:, :n].tobytes()
        assert k.tobytes() == Kk[:, n].tobytes()


@pytest.mark.parametrize("m", [1, 2, 4])
def test_value_block_is_exactly_symmetric(m, rng):
    for _ in range(50):
        Mu = rng.standard_normal((m, m))
        Mx = rng.standard_normal((6, 6))
        q = QExpansion(Q_xx=Mx.T @ Mx, Q_ux=rng.standard_normal((m, 6)),
                       Q_uu=sym(Mu.T @ Mu + 0.1 * np.eye(m)),
                       Q_x=rng.standard_normal(6), Q_u=rng.standard_normal(m),
                       Q_0=0.3)
        P = value_recurrence(q)[0].P
        npt.assert_array_equal(P, P.T)


def test_four_controls_keep_the_cholesky_path(rng, monkeypatch):
    calls = _counting_cholesky(monkeypatch)
    Mu = rng.standard_normal((4, 4))
    q = _q_with(Mu.T @ Mu + np.eye(4), rng)
    _, K, k = value_recurrence(q)
    sol = np.linalg.solve(q.Q_uu, np.column_stack([q.Q_ux, q.Q_u]))
    npt.assert_array_equal(K, -sol[:, :-1])
    npt.assert_array_equal(k, -sol[:, -1])
    assert calls == [(4, 4)]
    with pytest.raises(NeedsRegularization, match="positive definite"):
        value_recurrence(_q_with(np.diag([1.0, 1.0, -1.0, 1.0]), rng))
    assert calls == [(4, 4), (4, 4)]


@pytest.mark.parametrize("Q_uu", [
    np.diag([np.nan, 1.0, 1.0]),
    [[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
    np.diag([1.0, 1.0, np.nan])], ids=["nan-first", "nan-offdiag", "nan-last"])
def test_cholesky_path_rejects_nan(Q_uu, rng):
    # numpy returns a NaN Cholesky factor for these instead of raising
    with pytest.raises(NeedsRegularization, match="positive definite"):
        value_recurrence(_q_with(np.array(Q_uu), rng))


def _draw_quu(kind, m, rng):
    """A random m x m Q_uu: diagonally dominant (the Gershgorin test passes),
    merely definite, indefinite, or dominant with a different upper
    triangle (which eigvalsh and cholesky do not read)."""
    Mu = rng.standard_normal((m, m))
    if kind == "dominant":
        return sym(Mu) * 0.1 + np.diag(rng.uniform(1.0, 5.0, m))
    if kind == "definite":
        return Mu.T @ Mu + 1e-3 * np.eye(m)
    if kind == "indefinite":
        return sym(Mu)
    Q_uu = _draw_quu("dominant", m, rng)
    return Q_uu + np.triu(rng.standard_normal((m, m)), 1)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("gamma", [0.0, GAMMA_MIN, 1e-2])
def test_gershgorin_skip_is_bitwise_equal(m, gamma, rng, monkeypatch):
    # regularize then value_recurrence, against the same two calls forced
    # down the eigvalsh and Cholesky path.  At gamma = 0 an indefinite draw
    # is lifted to a singular Q_uu, which either path may reject
    def backup(q):
        try:
            return value_recurrence(regularize(q, gamma))
        except NeedsRegularization as exc:
            return type(exc)

    proven = 0
    for kind in ("dominant", "definite", "indefinite", "asymmetric") * 25:
        q = _q_with(_draw_quu(kind, m, rng), rng)
        proven += regularize(q, gamma)._definite
        fast = backup(q)
        with monkeypatch.context() as mp:
            mp.setattr(backward, "_gershgorin_above", lambda M, g: False)
            ref = backup(q)
        if isinstance(ref, type):
            assert fast is ref
        else:
            for a, b in zip((fast[0].P, *fast[1:]), (ref[0].P, *ref[1:])):
                assert a.tobytes() == b.tobytes()
    # the dominant and asymmetric draws take the skip, the others need not
    assert proven >= 50


@pytest.mark.parametrize("m", [3, 4])
def test_gershgorin_skip_rejects_nan(m, rng):
    # a NaN anywhere in the lower triangle defeats the proof; regularize
    # does not lift it (eigvalsh is not asked), and the Cholesky test of
    # value_recurrence rejects the block
    for i in range(m):
        for j in range(i + 1):
            Q_uu = 4.0 * np.eye(m)
            Q_uu[i, j] = np.nan
            q = _q_with(Q_uu, rng)
            assert not backward._gershgorin_above(q.Q_uu, GAMMA_MIN)
            with pytest.raises(NeedsRegularization, match="positive definite"):
                value_recurrence(regularize(q, GAMMA_MIN))


def test_gamma_zero_lift_needs_regularization(rng):
    # at gamma = 0 an indefinite Q_uu is lifted to a smallest eigenvalue of
    # 0, a singular block that the backup rejects as not positive definite
    rejected = 0
    for _ in range(2000):
        q = _q_with(_draw_quu("indefinite", 3, rng), rng)
        try:
            value_recurrence(regularize(q, 0.0))
        except NeedsRegularization:
            rejected += 1
    assert rejected > 0


def test_gershgorin_skip_needs_a_positive_bound(rng):
    # at gamma = 0 a zero or singular Q_uu is not proven definite
    for Q_uu in (np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])):
        assert not regularize(_q_with(Q_uu, rng), 0.0)._definite


def test_nan_quu_knot_escalates_gamma(rng, monkeypatch):
    # a three-control knot whose Q_uu is NaN until gamma reaches 1e-3: the
    # sweep escalates to that level, and no attempt produced NaN gains
    regularize_ = backward.regularize
    raised = []

    def nan_below(q, gamma):
        q = regularize_(q, gamma)
        if gamma < 1e-3:
            q = QExpansion(Q_xx=q.Q_xx, Q_ux=q.Q_ux,
                           Q_uu=np.diag([np.nan, 1.0, 1.0]), Q_x=q.Q_x,
                           Q_u=q.Q_u, Q_0=q.Q_0)
        return q

    def recording(q):
        try:
            return value_recurrence(q)
        except NeedsRegularization as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(backward, "regularize", nan_below)
    monkeypatch.setattr(backward, "value_recurrence", recording)
    eye = np.eye(3)
    m = LinearQuadraticModel(0.9 * eye, eye, eye, eye, eye)
    traj = initial_trajectory(m, rng.standard_normal(3), 4)
    back = backward_sweep(m, traj, empty_prefix(m), gamma=1e-6)
    assert back.gamma_used == pytest.approx(1e-3)
    assert raised == ["Q_uu is not positive definite"] * 3
    assert np.isfinite(back.K).all() and np.isfinite(back.k).all()


def test_sweep_matches_riccati_on_lq(rng):
    for _ in range(10):
        model = random_lq(rng)
        T = int(rng.integers(3, 30))
        seq = riccati_sweep(model.to_lti_problem((1, T)))
        x0 = rng.standard_normal(model.dim_x)
        traj = initial_trajectory(model, x0, T)
        back = backward_sweep(model, traj, empty_prefix(model), gamma=0.0)
        for s in range(T + 1):
            V = back.value_at(T - s)
            npt.assert_allclose(V.V_xx, seq[s], atol=1e-10)


def test_sweep_gains_match_lqr(rng):
    from horizonddp import lqr_gain

    model = random_lq(rng)
    T = 12
    prob = model.to_lti_problem((1, T))
    seq = riccati_sweep(prob)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), T)
    back = backward_sweep(model, traj, empty_prefix(model), gamma=0.0)
    for t in range(T):
        K_lqr = -lqr_gain(seq[T - t - 1], prob)  # u = +K x convention here
        npt.assert_allclose(back.K[t + back.prefix_len], K_lqr, atol=1e-10)


def test_terminal_value_is_terminal_expansion(rng):
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 5)
    back = backward_sweep(model, traj, empty_prefix(model), gamma=0.0)
    V_T = back.value_at(5)
    npt.assert_allclose(V_T.V_xx, model.Qf, atol=1e-14)
    assert V_T.V_0 == pytest.approx(model.terminal_cost(traj.states[-1]))


def test_prefix_extends_value_indexing(rng):
    # shift invariance: values over a feasible prefix equal values of the
    # same stationary problem with a longer nominal
    model = random_lq(rng)
    x0 = rng.standard_normal(model.dim_x)
    traj = initial_trajectory(model, x0, 8)
    # prefix knots found by inverting the dynamics with the first control
    u0 = traj.controls[0]
    pre_states = []
    x = x0
    for _ in range(3):
        x = model.inverse_step(x, u0)
        pre_states.insert(0, x)
    prefix = (np.array(pre_states), np.tile(u0, (3, 1)))
    back = backward_sweep(model, traj, prefix, gamma=0.0)
    assert back.prefix_len == 3
    seq = riccati_sweep(model.to_lti_problem((1, 20)))
    for t in (-3, -1, 0, 4, 8):
        npt.assert_allclose(back.value_at(t).V_xx, seq[8 - t], atol=1e-9)
    with pytest.raises(ValueError, match="equal length"):
        backward_sweep(model, traj, (prefix[0], prefix[1][:2]))


def test_expected_improvement_nonpositive_off_optimum(rng):
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 10)
    back = backward_sweep(model, traj, empty_prefix(model), gamma=0.0)
    # V_0 at t = 0 is the cost the alpha = 1 step predicts from x0
    assert back.value_at(0).V_0 < trajectory_cost(model, traj)
    assert back.max_feedforward(0) > 0.0


def test_gamma_escalation_recovers_from_indefinite_quu():
    # strongly concave-in-u running cost forces the gamma schedule to act
    class ConcaveControl(LinearQuadraticModel):
        def running_cost(self, x, u):
            x = np.asarray(x, dtype=float)
            u = np.asarray(u, dtype=float)
            return 0.5 * float(x @ self.Q @ x) - 0.5 * float(u @ u)

        def running_cost_derivatives(self, x, u):
            x = np.asarray(x, dtype=float)
            u = np.asarray(u, dtype=float)
            return (self.Q @ x, -u, self.Q,
                    np.zeros((self.dim_u, self.dim_x)), -np.eye(self.dim_u))

    m = ConcaveControl(np.eye(2), np.array([[0.0], [1.0]]), np.eye(2),
                       np.eye(1), np.eye(2))
    traj = initial_trajectory(m, np.array([1.0, 0.0]), 4)
    back = backward_sweep(m, traj, empty_prefix(m), gamma=1e-6)
    assert back.gamma_used >= 1.0  # escalated well past the initial floor


def test_gamma_escalation_starts_from_floor_at_zero(monkeypatch):
    # tenfold escalation of gamma = 0 would stay at 0 and never reach
    # GAMMA_MAX; the first escalation lifts it to the floor instead
    sweep_once = backward._sweep_once
    calls = []

    def fails_once(costs, dyns, terminal, gamma, out):
        calls.append(gamma)
        if len(calls) == 1:
            raise NeedsRegularization("first sweep")
        sweep_once(costs, dyns, terminal, gamma, out)

    monkeypatch.setattr(backward, "_sweep_once", fails_once)
    m = DoubleIntegratorModel()
    traj = initial_trajectory(m, np.array([1.0, 0.0]), 4)
    back = backward_sweep(m, traj, empty_prefix(m), gamma=0.0)
    assert calls == [0.0, GAMMA_MIN]
    assert back.gamma_used == GAMMA_MIN


@pytest.mark.parametrize("model", [CartpoleModel(), CubicModel()])
def test_sweep_rejects_non_finite_running_cost(model):
    states = np.zeros((6, model.dim_x))
    states[2] = np.nan
    traj = Trajectory(states=states, controls=np.zeros((5, model.dim_u)))
    with pytest.raises(ExpansionError, match="running_cost"):
        backward_sweep(model, traj, empty_prefix(model))


@pytest.mark.parametrize("second_order", [False, True])
@pytest.mark.parametrize("method,entry", [
    ("running_cost_derivatives", (2, 1, 1)), ("dynamics_jacobians", (0, 2, 3)),
    ("terminal_cost_derivatives", (1, 2, 2))], ids=["l_xx", "f_x", "phi_xx"])
def test_nan_derivative_is_an_expansion_error(method, entry, second_order,
                                               rng):
    # a NaN that no gamma can repair is named, not escalated to failure
    model = nan_derivative_cartpole(method, entry)
    traj = rollout_controls(model, np.zeros(4), rng.standard_normal((10, 1)))
    with pytest.raises(ExpansionError, match=method):
        backward_sweep(model, traj, empty_prefix(model),
                       second_order=second_order)


def test_nan_second_order_tensor_is_an_expansion_error(rng):
    # the Jacobians are finite at every knot and NaN just past the largest
    # cart position among them, so that only the differenced second-order
    # tensors are not finite
    traj = rollout_controls(CartpoleModel(), np.zeros(4),
                            rng.standard_normal((10, 1)))
    edge = traj.states[:-1, 0].max()

    class PastTheEdge(CartpoleModel):
        def dynamics_jacobians(self, x, u):
            f_x, f_u = super().dynamics_jacobians(x, u)
            past = (np.asarray(x)[..., 0] > edge)[..., None, None]
            return np.where(past, np.nan, f_x), f_u

    model = PastTheEdge()
    backward_sweep(model, traj, empty_prefix(model))     # first order is fine
    with pytest.raises(ExpansionError, match="dynamics_jacobians"):
        backward_sweep(model, traj, empty_prefix(model), second_order=True)


@pytest.mark.parametrize("stacked,second_order",
                         [(True, False), (False, False), (True, True)],
                         ids=["True", "False", "second-order"])
def test_gamma_escalation_reuses_one_linearization(stacked, second_order,
                                                   monkeypatch):
    counts = Counter()
    expand_c, expand_d = backward.expand_cost, backward.expand_dynamics

    def counting_expand_cost(model, x, u):
        counts["expand_cost"] += 1
        return expand_c(model, x, u)

    def counting_expand_dynamics(model, x, u, want_second_order):
        counts["expand_dynamics"] += 1
        return expand_d(model, x, u, want_second_order)

    class Counting(DoubleIntegratorModel):
        stacked_derivatives = stacked

        def dynamics_jacobians(self, x, u):
            counts["dynamics_jacobians"] += 1
            return super().dynamics_jacobians(x, u)

    monkeypatch.setattr(backward, "expand_cost", counting_expand_cost)
    monkeypatch.setattr(backward, "expand_dynamics", counting_expand_dynamics)
    # a control cost concave enough that the sweep escalates gamma
    m = Counting(dt=1.0, R=-np.eye(1))
    traj = initial_trajectory(m, np.array([1.0, 0.0]), 4)
    counts.clear()
    back = backward_sweep(m, traj, empty_prefix(m), gamma=1e-6,
                          second_order=second_order)
    assert back.gamma_used >= 1e-4        # at least two escalations
    assert counts["expand_cost"] == counts["expand_dynamics"] == 1
    # the second-order tensors difference the Jacobians along each of the
    # n + m coordinates, both ways, at every knot at once
    per_point = 1 + 2 * (m.dim_x + m.dim_u) * second_order
    assert counts["dynamics_jacobians"] == per_point * (
        1 if stacked else traj.horizon)


def test_value_zero_order_matches_cost_on_converged_cartpole():
    m = CartpoleModel(c_t=10.0)
    cfg = SolverConfig(horizon_bounds=(10, 400), window_s=10,
                       max_iterations=300)
    res = optimize_trajectory(m, initial_trajectory(m, np.zeros(4), 100), cfg)
    assert res.converged
    back = backward_sweep(m, res.trajectory, empty_prefix(m), gamma=1e-6)
    # at the solution the value model's constant term reproduces the cost
    assert back.value_at(0).V_0 == pytest.approx(res.cost, rel=1e-4)


def test_value_expansion_evaluate():
    V = ValueExpansion(V_xx=np.diag([2.0, 4.0]), V_x=np.array([1.0, -1.0]),
                       V_0=3.0)
    assert V.evaluate(np.zeros(2)) == 3.0
    assert V.evaluate(np.array([1.0, 2.0])) == pytest.approx(
        0.5 * (2 + 16) + (1 - 2) + 3)


def test_records_round_trip_their_fields(rng):
    # the records hold one block each; their fields read it back bit for bit
    n, m = 3, 2
    q_fields = dict(Q_xx=rng.standard_normal((n, n)),
                    Q_ux=rng.standard_normal((m, n)),
                    Q_uu=rng.standard_normal((m, m)),
                    Q_x=rng.standard_normal(n), Q_u=rng.standard_normal(m),
                    Q_0=float(rng.standard_normal()))
    q = QExpansion(**q_fields)
    for name, want in q_fields.items():
        npt.assert_array_equal(getattr(q, name), want)
    V_xx = sym(rng.standard_normal((n, n)))
    V_x, V_0 = rng.standard_normal(n), float(rng.standard_normal())
    V = ValueExpansion(V_xx=V_xx, V_x=V_x, V_0=V_0)
    npt.assert_array_equal(V.V_xx, V_xx)
    npt.assert_array_equal(V.V_x, V_x)
    assert V.V_0 == V_0

    model, traj, prefix = _lq_case(rng)
    back = backward_sweep(model, traj, prefix, gamma=0.0)
    for t in range(-back.prefix_len, traj.horizon + 1):
        value, g = back.value_at(t), t + back.prefix_len
        npt.assert_array_equal(value.V_xx, back.V_xx[g])
        npt.assert_array_equal(value.V_x, back.V_x[g])
        assert value.V_0 == back.V_0[g]


def test_second_order_mode_matches_ilqr_on_linear_dynamics(rng):
    # the dynamics tensors vanish for linear systems, so DDP == iLQR
    model = random_lq(rng)
    traj = initial_trajectory(model, rng.standard_normal(model.dim_x), 6)
    a = backward_sweep(model, traj, empty_prefix(model), gamma=0.0,
                       second_order=False)
    b = backward_sweep(model, traj, empty_prefix(model), gamma=0.0,
                       second_order=True)
    for t in range(7):
        npt.assert_allclose(a.value_at(t).V_xx, b.value_at(t).V_xx, atol=1e-6)
        npt.assert_allclose(a.value_at(t).V_x, b.value_at(t).V_x, atol=1e-6)
