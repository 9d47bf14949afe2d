"""Benchmark systems: fixed points, integrator accuracy, obstacle math."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from horizonddp import (CartpoleModel, CostExpansion, DoubleIntegratorModel,
                        DynamicsExpansion, Obstacle, PointMassNavModel,
                        QuadrotorModel, Trajectory, check_derivatives,
                        expand_cost, expand_dynamics, initial_trajectory,
                        make_model,
                        obstacle_schedule_advance, rk4_step,
                        rk4_step_with_jacobian)


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------


def test_rk4_fourth_order_convergence():
    # xdot = -x from x(0)=1 over 1 s: halving dt shrinks the error ~16x
    deriv = lambda x, u: -x
    errors = []
    for dt in (0.1, 0.05):
        x = np.array([1.0])
        for _ in range(round(1.0 / dt)):
            x = rk4_step(deriv, x, None, dt)
        errors.append(abs(x[0] - math.exp(-1.0)))
    assert errors[0] / errors[1] > 12.0


def test_rk4_jacobian_matches_differencing(rng):
    # nonlinear 2-state system with coupled control
    def deriv(x, u):
        return np.array([x[1] + 0.2 * math.sin(x[0]), u[0] - 0.5 * x[1]])

    def jac(x, u):
        a = np.array([[0.2 * math.cos(x[0]), 1.0], [0.0, -0.5]])
        b = np.array([[0.0], [1.0]])
        return a, b

    x = rng.standard_normal(2)
    u = rng.standard_normal(1)
    x_next, fx, fu = rk4_step_with_jacobian(deriv, jac, x, u, 0.05)
    npt.assert_allclose(x_next, rk4_step(deriv, x, u, 0.05), atol=1e-14)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        col = (rk4_step(deriv, x + e, u, 0.05)
               - rk4_step(deriv, x - e, u, 0.05)) / (2 * h)
        npt.assert_allclose(fx[:, i], col, atol=1e-8)
    col = (rk4_step(deriv, x, u + h, 0.05)
           - rk4_step(deriv, x, u - h, 0.05)) / (2 * h)
    npt.assert_allclose(fu[:, 0], col, atol=1e-8)


@pytest.mark.parametrize("build,x,u", [
    (CartpoleModel, [0.3, -0.5, 2.0, 1.5], [4.0]),
    (QuadrotorModel, [1.5, 1.0, -1.0, 0.2, -0.1, 0.3, 0.5, -0.2, 0.1,
                      0.4, -0.3, 0.2], [11.0, 0.01, -0.02, 0.01])],
    ids=["cartpole", "quadrotor"])
def test_inverse_step_guess_defect_is_second_order(build, x, u):
    # one backward-Euler step: stepping the guess forward misses x by
    # O(dt^2), so a tenth of dt shrinks the defect about a hundredfold
    x, u = np.array(x), np.array(u)
    defects = []
    for dt in (0.02, 0.002):
        m = build(dt=dt)
        defects.append(np.max(np.abs(m.step(m.inverse_step(x, u), u) - x)))
    assert 0 < defects[1] < 1e-4
    assert 70 < defects[0] / defects[1] < 130


# ---------------------------------------------------------------------------
# double integrator
# ---------------------------------------------------------------------------


def test_double_integrator_exact_discrete_map():
    m = DoubleIntegratorModel(dt=0.1)
    x = np.array([1.0, -2.0])
    u = np.array([3.0])
    npt.assert_allclose(m.step(x, u), [1.0 - 0.2, -2.0 + 0.3], atol=1e-15)
    npt.assert_allclose(m.inverse_step(m.step(x, u), u), x, atol=1e-12)


def test_double_integrator_lti_bridge():
    m = DoubleIntegratorModel(dt=0.1, c_t=0.5)
    prob = m.to_lti_problem((1, 10))
    x = np.array([0.3, 0.7])
    u = np.array([-1.0])
    npt.assert_array_equal(prob.A @ x + prob.B @ u, m.step(x, u))
    assert m.running_cost(x, u) == pytest.approx(
        0.5 * float(x @ prob.Q @ x + u @ prob.R @ u) + 0.5)
    assert prob.c_t == 0.5


# ---------------------------------------------------------------------------
# cartpole
# ---------------------------------------------------------------------------


def test_cartpole_hanging_rest_is_fixed_point():
    m = CartpoleModel()
    x = np.zeros(4)
    npt.assert_allclose(m.step(x, np.zeros(1)), x, atol=1e-14)


def test_cartpole_upright_unstable():
    m = CartpoleModel()
    x = np.array([0.0, 0.0, math.pi - 1e-3, 0.0])
    for _ in range(50):
        x = m.step(x, np.zeros(1))
    assert abs(x[2] - math.pi) > 0.01  # perturbation grows


def test_cartpole_accelerations_match_hand_formula():
    m = CartpoleModel()
    x = np.array([0.1, 0.2, 0.6, -0.4])
    u = np.array([1.5])
    s, c = math.sin(0.6), math.cos(0.6)
    den = 1.0 + 0.1 * s * s
    xdd = (1.5 + 0.1 * s * (0.5 * 0.4 ** 2 + 9.81 * c)) / den
    thdd = -(xdd * c + 9.81 * s) / 0.5
    d = m._deriv(x, u)
    assert d[1] == pytest.approx(xdd)
    assert d[3] == pytest.approx(thdd)


def test_cartpole_rejects_bad_params():
    with pytest.raises(ValueError):
        CartpoleModel(dt=0.0)
    with pytest.raises(ValueError):
        CartpoleModel(pole_length=-1.0)
    # min(1.0, nan) is 1.0: each value is checked on its own
    for name in ("cart_mass", "pole_mass", "pole_length", "dt"):
        with pytest.raises(ValueError, match=name):
            CartpoleModel(**{name: np.nan})


@pytest.mark.parametrize("build,name", [
    (lambda v: DoubleIntegratorModel(dt=v), "dt"),
    (lambda v: QuadrotorModel(mass=v), "mass"),
    (lambda v: QuadrotorModel(inertia=(0.01, v, 0.02)), "inertia"),
    (lambda v: QuadrotorModel(dt=v), "dt"),
    (lambda v: PointMassNavModel(dt=v), "dt"),
    (lambda v: Obstacle(center=(0.0, 0.0), radius=v), "radius"),
    (lambda v: Obstacle(center=(0.0, 0.0), radius=1.0, weight=v), "weight"),
], ids=["integrator-dt", "quadrotor-mass", "quadrotor-inertia", "quadrotor-dt",
        "nav-dt", "obstacle-radius", "obstacle-weight"])
def test_model_params_reject_non_positive_and_nan(build, name):
    for value in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match=name):
            build(value)


# ---------------------------------------------------------------------------
# quadrotor
# ---------------------------------------------------------------------------


def test_quadrotor_hover_is_fixed_point():
    m = QuadrotorModel()
    x = np.zeros(12)
    npt.assert_allclose(m.step(x, m.u_ref), x, atol=1e-12)
    npt.assert_array_equal(m.nominal_control(x), m.u_ref)


def test_quadrotor_free_fall_without_thrust():
    m = QuadrotorModel(dt=0.05)
    x = m.step(np.zeros(12), np.zeros(4))
    # level attitude, zero thrust: vertical velocity picks up -g*dt
    assert x[8] == pytest.approx(-9.81 * 0.05, rel=1e-9)


def test_quadrotor_admissible_region():
    m = QuadrotorModel()
    x = np.zeros(12)
    assert m.admissible(x)
    x[3] = 0.5 * math.pi + 0.01
    assert not m.admissible(x)


@pytest.mark.parametrize("index,value,message", [
    # hover at an overflowing thrust: the RK4 sum leaves float range
    (12, 1e308, "QuadrotorModel state became non-finite"),
    # an infinite roll: the kernel's math.sin rejects it
    (3, math.inf, "quadrotor state became non-finite"),
])
def test_quadrotor_step_raises_on_non_finite_state(index, value, message):
    m = QuadrotorModel()
    xu = np.concatenate([np.zeros(12), m.u_ref])
    xu[index] = value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=message):
            m.step(xu[:12], xu[12:])


@pytest.mark.parametrize("model", [CartpoleModel(), QuadrotorModel()],
                         ids=["cartpole", "quadrotor"])
def test_float_step_matches_array_rk4(model, rng):
    # step runs RK4 on plain floats; the array form is the reference, bit
    # for bit
    for _ in range(50):
        x = rng.standard_normal(model.dim_x)
        u = rng.standard_normal(model.dim_u)
        assert (model.step(x, u).tobytes()
                == rk4_step(model._deriv, x, u, model.dt).tobytes())
    # an overflowing state still raises
    with pytest.raises(FloatingPointError, match="non-finite"):
        model.step(np.full(model.dim_x, 1e308), np.zeros(model.dim_u))


def per_stage_rk4_jacobian(deriv, jac, x, u, dt):
    """Reference: rk4_step_with_jacobian with one ``jac`` call per stage."""
    eye = np.eye(x.shape[-1])
    k1 = deriv(x, u)
    x2 = x + 0.5 * dt * k1
    k2 = deriv(x2, u)
    x3 = x + 0.5 * dt * k2
    k3 = deriv(x3, u)
    x4 = x + dt * k3
    k4 = deriv(x4, u)
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = (jac(v, u)
                                              for v in (x, x2, x3, x4))
    K2x = a2 @ (eye + 0.5 * dt * a1)
    K2u = b2 + a2 @ (0.5 * dt * b1)
    K3x = a3 @ (eye + 0.5 * dt * K2x)
    K3u = b3 + a3 @ (0.5 * dt * K2u)
    K4x = a4 @ (eye + dt * K3x)
    K4u = b4 + a4 @ (dt * K3u)
    return (x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            eye + (dt / 6.0) * (a1 + 2.0 * K2x + 2.0 * K3x + K4x),
            (dt / 6.0) * (b1 + 2.0 * K2u + 2.0 * K3u + K4u))


@pytest.mark.parametrize("model", [CartpoleModel(), QuadrotorModel()],
                         ids=["cartpole", "quadrotor"])
def test_stacked_stage_jacobians_match_per_stage_calls(model, rng,
                                                       monkeypatch):
    # stacked knots take one kernel call over all four stage points; each
    # knot's Jacobians are the four per-stage calls' to the bit
    states = rng.standard_normal((40, model.dim_x))
    controls = rng.standard_normal((40, model.dim_u))
    want = per_stage_rk4_jacobian(model._deriv, model._deriv_jacobians,
                                  states, controls, model.dt)
    calls = []
    kernel = model._deriv_jacobians

    def counted(x, u):
        calls.append(np.shape(x))
        return kernel(x, u)

    monkeypatch.setattr(model, "_deriv_jacobians", counted)
    got = rk4_step_with_jacobian(model._deriv, model._deriv_jacobians,
                                 states, controls, model.dt)
    assert calls == [(160, model.dim_x)]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    calls.clear()
    fx, fu = model.dynamics_jacobians(states, controls)
    assert calls == [(160, model.dim_x)]
    assert fx.tobytes() == want[1].tobytes()
    assert fu.tobytes() == want[2].tobytes()
    # one knot keeps one call per stage, on plain floats
    calls.clear()
    fx, fu = model.dynamics_jacobians(states[7], controls[7])
    assert calls == [(model.dim_x,)] * 4
    _, fx_1, fu_1 = per_stage_rk4_jacobian(model._deriv, kernel, states[7],
                                           controls[7], model.dt)
    assert fx.tobytes() == fx_1.tobytes() and fu.tobytes() == fu_1.tobytes()


# ---------------------------------------------------------------------------
# obstacles and navigation
# ---------------------------------------------------------------------------


def test_obstacle_cost_profile():
    obs = Obstacle(center=(1.0, 2.0), radius=0.5, weight=4.0)
    assert obs.cost(np.array([1.0, 2.0])) == pytest.approx(4.0)
    assert obs.cost(np.array([1.5, 2.0])) == pytest.approx(4.0 * math.exp(-0.5))
    far = obs.cost(np.array([10.0, 2.0]))
    assert far < 1e-10


def test_obstacle_derivatives_match_differencing():
    obs = Obstacle(center=(0.3, -0.2), radius=0.8, weight=2.0)
    p = np.array([0.9, 0.4])
    c, grad, hess = obs.cost_derivatives(p)
    assert c == pytest.approx(obs.cost(p))
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g = (obs.cost(p + e) - obs.cost(p - e)) / (2 * h)
        assert grad[i] == pytest.approx(g, abs=1e-8)
        h2 = 1e-4  # larger step: second differences lose half the digits
        e2 = np.zeros(2)
        e2[i] = h2
        hh = (obs.cost(p + e2) - 2 * obs.cost(p) + obs.cost(p - e2)) / h2 ** 2
        assert hess[i, i] == pytest.approx(hh, abs=1e-6)


def test_obstacle_schedule_displacement():
    obs = Obstacle(center=(0.0, 0.0), radius=1.0,
                   schedule=((2.0, (1.0, 0.0)), (1.0, (0.0, -2.0))))
    npt.assert_allclose(obs.displacement(0.0), [0.0, 0.0])
    npt.assert_allclose(obs.displacement(1.0), [1.0, 0.0])
    npt.assert_allclose(obs.displacement(2.5), [2.0, -1.0])
    # motion stops after the schedule runs out
    npt.assert_allclose(obs.displacement(100.0), [2.0, -2.0])


@pytest.mark.parametrize("duration", [np.nan, np.inf, -1.0])
def test_obstacle_rejects_bad_schedule_duration(duration):
    # min(remaining, nan) is remaining: a NaN duration moved the obstacle
    # for all time
    with pytest.raises(ValueError, match="schedule duration"):
        Obstacle(center=(0.0, 0.0), radius=1.0,
                 schedule=((duration, (1.0, 0.0)),))


@pytest.mark.parametrize("build,name", [
    (lambda: PointMassNavModel(goal=5), "goal must be 2 finite numbers"),
    (lambda: PointMassNavModel(goal=(1.0, 2.0, 3.0)), "goal must be 2"),
    (lambda: QuadrotorModel(goal=np.zeros(11)), "goal must be 12"),
    (lambda: QuadrotorModel(inertia=(0.01, 0.02)), "inertia must be 3"),
    (lambda: DoubleIntegratorModel(Q=5), "Q must be a 2x2 matrix"),
    (lambda: DoubleIntegratorModel(R=np.eye(2)), "R must be a 1x1 matrix"),
    (lambda: DoubleIntegratorModel(Qf=[[1.0, np.nan], [0.0, 1.0]]),
     "Qf must be a 2x2 matrix of finite numbers"),
], ids=["nav-goal-scalar", "nav-goal-3", "quadrotor-goal", "quadrotor-inertia",
        "integrator-Q", "integrator-R", "integrator-Qf-nan"])
def test_model_arrays_are_shape_checked(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_schedule_advance_hides_future_motion():
    obs = Obstacle(center=(1.0, 0.0), radius=0.5,
                   schedule=((5.0, (0.2, 0.0)),))
    m = PointMassNavModel(obstacles=(obs,))
    snap = obstacle_schedule_advance(m, 2.0)
    moved = snap.obstacles[0]
    npt.assert_allclose(moved.center, (1.4, 0.0))
    assert moved.schedule == ()  # the planner can't see where it goes next
    # the original model keeps its schedule for later snapshots
    assert m.obstacles[0].schedule != ()
    for sim_time in (-1.0, np.nan):
        with pytest.raises(ValueError, match="sim_time"):
            obstacle_schedule_advance(m, sim_time)
    with pytest.raises(ValueError, match="center"):
        Obstacle(center=(np.nan, 0.0), radius=0.5)


def test_nav_running_cost_includes_obstacles():
    obs = Obstacle(center=(1.0, 0.0), radius=0.5, weight=3.0)
    m = PointMassNavModel(obstacles=(obs,), c_t=0.25)
    x = np.array([1.0, 0.0, 0.5, 0.0])
    u = np.zeros(2)
    expected = 0.5 * 0.05 * 0.25 + 3.0 + 0.25
    assert m.running_cost(x, u) == pytest.approx(expected)


@pytest.mark.parametrize("model", [DoubleIntegratorModel(), PointMassNavModel()])
def test_consistency_check_rejects_nan_and_defects(model):
    traj = initial_trajectory(model, np.full(model.dim_x, 0.5), 6)
    assert traj.consistency_error(model) == 0.0
    traj.assert_consistent(model)
    states = traj.states.copy()
    states[3, 0] += 1e-3
    with pytest.raises(ValueError, match="inconsistent"):
        Trajectory(states=states, controls=traj.controls).assert_consistent(model)
    states[3, 0] = np.nan
    bad = Trajectory(states=states, controls=traj.controls)
    with np.errstate(invalid="ignore"):
        assert math.isnan(bad.consistency_error(model))
        with pytest.raises(FloatingPointError, match="inconsistent"):
            bad.assert_consistent(model)
    with pytest.raises(ValueError, match="2-D"):
        Trajectory(states=states[0], controls=traj.controls)
    with pytest.raises(ValueError, match="one more row"):
        Trajectory(states=states[1:], controls=traj.controls)


# ---------------------------------------------------------------------------
# derivative checks and registry
# ---------------------------------------------------------------------------


BUILTIN_MODELS = [
    ("double_integrator", lambda: DoubleIntegratorModel()),
    ("cartpole", lambda: CartpoleModel()),
    ("quadrotor", lambda: QuadrotorModel()),
    ("pointmass_nav", lambda: PointMassNavModel(
        obstacles=(Obstacle(center=(1.0, 1.0), radius=0.7, weight=2.0),
                   Obstacle(center=(-0.5, 0.2), radius=0.4, weight=5.0)))),
]


def _random_knots(m, rng, count, scale=0.4):
    samples = []
    while len(samples) < count:
        x = scale * rng.standard_normal(m.dim_x)
        u = m.nominal_control(x) + scale * rng.standard_normal(m.dim_u)
        if m.admissible(x):
            samples.append((x, u))
    return samples


@pytest.mark.parametrize("name,builder", BUILTIN_MODELS)
def test_analytic_derivatives_verified(name, builder, rng):
    m = builder()
    report = check_derivatives(m, _random_knots(m, rng, 25))
    assert report.passed, report.summary()


@pytest.mark.parametrize("name,builder", BUILTIN_MODELS)
def test_stacked_expansions_match_per_knot(name, builder, rng):
    m = builder()
    assert m.stacked_derivatives
    states, controls = map(np.array, zip(*_random_knots(m, rng, 30, scale=1.0)))
    n, k = m.dim_x, m.dim_u
    cost = expand_cost(m, states, controls)
    dyn = expand_dynamics(m, states, controls, want_second_order=True)
    assert cost.l.shape == (30,) and cost.l_ux.shape == (30, k, n)
    assert dyn.f_x.shape == (30, n, n) and dyn.f_u.shape == (30, n, k)
    assert dyn.f_xx.shape == (30, n, n, n) and dyn.f_uu.shape == (30, n, k, k)

    def close(stacked, knot):
        npt.assert_allclose(stacked, knot, rtol=1e-12,
                            atol=1e-12 * max(1.0, np.max(np.abs(knot))))

    for i, (x, u) in enumerate(zip(states, controls)):
        knot = expand_cost(m, x, u)
        for field in CostExpansion.__dataclass_fields__:
            close(getattr(cost, field)[i], getattr(knot, field))
        knot = expand_dynamics(m, x, u, want_second_order=True)
        for field in DynamicsExpansion.__dataclass_fields__:
            close(getattr(dyn, field)[i], getattr(knot, field))


def test_registry_builds_models():
    m = make_model({"model": "cartpole", "c_t": 5.0, "dt": 0.01})
    assert isinstance(m, CartpoleModel)
    assert m.c_t == 5.0 and m.dt == 0.01
    nav = make_model({"model": "pointmass_nav", "obstacles": [
        {"center": [1, 2], "radius": 0.5, "weight": 2.0,
         "schedule": [[1.0, [0.1, 0.0]]]}]})
    assert nav.obstacles[0].schedule == ((1.0, (0.1, 0.0)),)


def test_registry_rejects_unknown_model():
    with pytest.raises(ValueError, match="cartpole"):
        make_model({"model": "unicycle"})


@pytest.mark.parametrize("config,bad_key", [
    ({"model": "cartpole", "c_T": 30.0}, "c_T"),
    ({"model": "pointmass_nav",
      "obstacles": [{"centre": [1.0, 2.0], "radius": 0.5}]}, "centre"),
    ({"model": "pointmass_nav", "obstacles": [{"center": [1.0, 2.0]}]},
     "radius"),
])
def test_registry_rejects_unknown_or_missing_fields(config, bad_key):
    with pytest.raises(ValueError, match=bad_key):
        make_model(config)
