"""Expansion machinery: finite differences, derivative checking."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import horizonddp.model as model_api
from conftest import (LinearQuadraticModel, NumericLq, nan_derivative_cartpole,
                      random_lq)
from horizonddp import (ExpansionError, SystemModel, check_derivatives,
                        expand_cost, expand_dynamics, expand_terminal)


class CubicModel(SystemModel):
    """Scalar system with known non-quadratic derivatives."""

    dim_x = 1
    dim_u = 1

    def step(self, x, u):
        return np.array([x[0] + 0.1 * u[0] + 0.05 * x[0] ** 2])

    def running_cost(self, x, u):
        return float(x[0] ** 3 + x[0] * u[0] + 0.5 * u[0] ** 2)

    def terminal_cost(self, x):
        return float(math.cos(x[0]))


def test_fd_exact_on_quadratics(rng):
    # central differences are exact (to rounding) for quadratic costs
    analytic = random_lq(rng)
    numeric = NumericLq(analytic.A, analytic.B, analytic.Q, analytic.R,
                        analytic.Qf)
    x = rng.standard_normal(analytic.dim_x)
    u = rng.standard_normal(analytic.dim_u)
    ca = expand_cost(analytic, x, u)
    cn = expand_cost(numeric, x, u)
    npt.assert_allclose(cn.l_x, ca.l_x, atol=1e-8)
    npt.assert_allclose(cn.l_u, ca.l_u, atol=1e-8)
    npt.assert_allclose(cn.l_xx, ca.l_xx, atol=1e-6)
    npt.assert_allclose(cn.l_ux, ca.l_ux, atol=1e-6)
    npt.assert_allclose(cn.l_uu, ca.l_uu, atol=1e-6)
    da = expand_dynamics(analytic, x, u)
    dn = expand_dynamics(numeric, x, u)
    npt.assert_allclose(dn.f_x, da.f_x, atol=1e-8)
    npt.assert_allclose(dn.f_u, da.f_u, atol=1e-8)


def test_fd_step_sizes_pinned():
    assert model_api.FD_STEP_FIRST == 1e-6
    assert model_api.FD_STEP_SECOND == 1e-4


def test_fd_nonquadratic_derivatives():
    m = CubicModel()
    x, u = np.array([0.7]), np.array([-0.3])
    c = expand_cost(m, x, u)
    assert c.l_x[0] == pytest.approx(3 * 0.7 ** 2 + (-0.3), rel=1e-6)
    assert c.l_u[0] == pytest.approx(0.7 + (-0.3), rel=1e-6)
    assert c.l_xx[0, 0] == pytest.approx(6 * 0.7, rel=1e-4)
    assert c.l_ux[0, 0] == pytest.approx(1.0, rel=1e-4)
    phi, phi_x, phi_xx = expand_terminal(m, x)
    assert phi == pytest.approx(math.cos(0.7))
    assert phi_x[0] == pytest.approx(-math.sin(0.7), rel=1e-6)
    assert phi_xx[0, 0] == pytest.approx(-math.cos(0.7), rel=1e-4)
    d = expand_dynamics(m, x, u, want_second_order=True)
    assert d.f_x[0, 0] == pytest.approx(1 + 0.1 * 0.7, rel=1e-6)
    assert d.f_xx[0, 0, 0] == pytest.approx(0.1, rel=1e-3)
    assert d.f_uu[0, 0, 0] == pytest.approx(0.0, abs=1e-6)


def test_second_order_tensors_only_on_request(rng):
    m = random_lq(rng)
    d = expand_dynamics(m, np.zeros(m.dim_x), np.zeros(m.dim_u))
    assert d.f_xx is None and d.f_ux is None and d.f_uu is None


def test_expansion_error_names_the_evaluation():
    class BadCost(CubicModel):
        def running_cost(self, x, u):
            return float("nan") if abs(x[0]) > 0.75 else 0.0

    with pytest.raises(ExpansionError, match="running_cost"):
        expand_cost(BadCost(), np.array([0.75]), np.zeros(1))



class FiniteAtOneState(SystemModel):
    """One-state model whose costs and step are finite at x = 0.5 alone, so
    every differenced point is infinite on both sides of the nominal."""

    dim_x = 1
    dim_u = 1

    @staticmethod
    def _at(x, value):
        return value if x[0] == 0.5 else np.inf * np.ones_like(value)

    def step(self, x, u):
        return self._at(x, np.array([x[0] + u[0]]))

    # numpy floats: an inf - inf of the four-point stencil would warn too
    def running_cost(self, x, u):
        return self._at(x, np.float64(u[0] ** 2))

    def terminal_cost(self, x):
        return self._at(x, np.float64(1.0))


def test_infinite_differences_are_one_expansion_error():
    # inf - inf differences to a NaN without a RuntimeWarning, and the one
    # test of each expansion names its method
    m, x, u = FiniteAtOneState(), np.array([0.5]), np.array([0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpansionError, match="running_cost"):
            expand_cost(m, x, u)
        with pytest.raises(ExpansionError, match="terminal_cost"):
            expand_terminal(m, x)
        for second_order in (False, True):
            with pytest.raises(ExpansionError, match="step"):
                expand_dynamics(m, x, u, second_order)


def _expand_terminal(model, x, u):
    return expand_terminal(model, x)


@pytest.mark.parametrize("method,entry,expand,knots", [
    ("running_cost_derivatives", (2, 1, 1), expand_cost, ()),
    ("running_cost_derivatives", (2, 1, 1), expand_cost, (5,)),
    ("dynamics_jacobians", (0, 2, 3), expand_dynamics, ()),
    ("dynamics_jacobians", (0, 2, 3), expand_dynamics, (5,)),
    # a terminal expansion takes one state
    ("terminal_cost_derivatives", (1, 2, 2), _expand_terminal, ())],
    ids=["l_xx", "l_xx-stacked", "f_x", "f_x-stacked", "phi_xx"])
def test_nan_analytic_derivative_names_its_method(method, entry, expand,
                                                  knots, rng):
    # each public expansion tests the model's own derivatives, not only
    # the differenced ones
    model = nan_derivative_cartpole(method, entry)
    x, u = rng.standard_normal(knots + (4,)), rng.standard_normal(knots + (1,))
    with pytest.raises(ExpansionError, match=f"from {method}$"):
        expand(model, x, u)


def test_overflowing_second_order_tensor_is_an_expansion_error():
    # the Jacobians are finite at every point, but jump by 2e308 across
    # x = 0, so that only the tensor differenced from them is not finite
    class Jump(CubicModel):
        def dynamics_jacobians(self, x, u):
            return np.array([[math.copysign(1e308, x[0])]]), np.ones((1, 1))

    m = Jump()
    expand_dynamics(m, np.zeros(1), np.zeros(1))      # first order is fine
    with np.errstate(over="ignore"):
        with pytest.raises(ExpansionError, match="from dynamics_jacobians$"):
            expand_dynamics(m, np.zeros(1), np.zeros(1), True)


class AnalyticAtOneState(FiniteAtOneState):
    """FiniteAtOneState with finite analytic derivatives everywhere."""

    def dynamics_jacobians(self, x, u):
        return np.ones((1, 1)), np.ones((1, 1))

    def running_cost_derivatives(self, x, u):
        return (np.zeros(1), 2.0 * u, np.zeros((1, 1)), np.zeros((1, 1)),
                np.full((1, 1), 2.0))

    def terminal_cost_derivatives(self, x):
        return np.zeros(1), np.zeros((1, 1))


def test_check_derivatives_reports_non_finite_differences():
    # the analytic derivatives are finite, but every difference along x is
    # not: the report lists those entries as failures and raises nothing,
    # while the differences along u alone stay finite and pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_derivatives(AnalyticAtOneState(),
                                   [(np.array([0.5]), np.array([0.2]))])
    assert report.failures == ["f_x", "l_ux", "l_x", "l_xx", "phi_x", "phi_xx"]
    assert not any(map(math.isfinite, (report.discrepancies[name]
                                       for name in report.failures)))
    assert all(report.discrepancies[name] <= report.tol
               for name in ("f_u", "l_u", "l_uu"))


def test_check_derivatives_passes_clean_model(rng):
    m = random_lq(rng)
    samples = [(rng.standard_normal(m.dim_x), rng.standard_normal(m.dim_u))
               for _ in range(10)]
    report = check_derivatives(m, samples)
    assert report.passed
    assert report.discrepancies["f_x"] < 1e-6


@pytest.mark.parametrize("error, corrupted_samples", [
    (0.01, {0, 1, 2}),
    # a NaN from one sample outlives the finite samples after it
    (math.nan, {0}),
], ids=["offset", "nan-first-sample"])
def test_check_derivatives_flags_corruption(rng, error, corrupted_samples):
    base = random_lq(rng)
    calls = []

    class Corrupted(LinearQuadraticModel):
        def dynamics_jacobians(self, x, u):
            fx, fu = LinearQuadraticModel.dynamics_jacobians(self, x, u)
            if len(calls) in corrupted_samples:
                fx = fx.copy()
                fx[0, 0] += error
            calls.append(x)
            return fx, fu

    bad = Corrupted(base.A, base.B, base.Q, base.R, base.Qf)
    samples = [(rng.standard_normal(base.dim_x), rng.standard_normal(base.dim_u))
               for _ in range(3)]
    report = check_derivatives(bad, samples)
    assert len(calls) == 3
    assert not report.passed
    assert report.failures == ["f_x"]
    assert "FAIL" in report.summary()
    assert not report.discrepancies["f_x"] <= 0.01


def test_expansions_do_not_mutate_inputs(rng):
    m = random_lq(rng)
    x = rng.standard_normal(m.dim_x)
    u = rng.standard_normal(m.dim_u)
    x_copy, u_copy = x.copy(), u.copy()
    expand_cost(m, x, u)
    expand_dynamics(m, x, u, want_second_order=True)
    expand_terminal(m, x)
    npt.assert_array_equal(x, x_copy)
    npt.assert_array_equal(u, u_copy)
