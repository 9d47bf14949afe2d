"""Shared test fixtures and model helpers."""

import numpy as np
import pytest

from horizonddp import CartpoleModel, LtiProblem, SystemModel


class LinearQuadraticModel(SystemModel):
    """Generic LQ system as a SystemModel, with exact dynamics inverse."""

    def __init__(self, A, B, Q, R, Qf, c_t=0.0):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.Q = np.asarray(Q, dtype=float)
        self.R = np.asarray(R, dtype=float)
        self.Qf = np.asarray(Qf, dtype=float)
        self.c_t = float(c_t)
        self.dim_x = self.A.shape[0]
        self.dim_u = self.B.shape[1]

    def step(self, x, u):
        return self.A @ np.asarray(x, dtype=float) + self.B @ np.asarray(u, dtype=float)

    def running_cost(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return 0.5 * float(x @ self.Q @ x + u @ self.R @ u) + self.c_t

    def terminal_cost(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.Qf @ x)

    def dynamics_jacobians(self, x, u):
        return self.A, self.B

    def running_cost_derivatives(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return (self.Q @ x, self.R @ u, self.Q,
                np.zeros((self.dim_u, self.dim_x)), self.R)

    def terminal_cost_derivatives(self, x):
        x = np.asarray(x, dtype=float)
        return self.Qf @ x, self.Qf

    def inverse_step(self, x_next, u):
        return np.linalg.solve(self.A, np.asarray(x_next, dtype=float)
                               - self.B @ np.asarray(u, dtype=float))

    def to_lti_problem(self, horizon_bounds):
        return LtiProblem(A=self.A, B=self.B, Q=self.Q, R=self.R, Qf=self.Qf,
                          horizon_bounds=horizon_bounds, c_t=self.c_t)


class NumericLq(LinearQuadraticModel):
    """LQ model with every analytic derivative hidden, forcing differencing."""

    def dynamics_jacobians(self, x, u):
        return None

    def running_cost_derivatives(self, x, u):
        return None

    def terminal_cost_derivatives(self, x):
        return None


def nan_derivative_cartpole(method, entry):
    """A cartpole whose derivative ``method`` returns NaN at ``entry``, an
    (output, row, col) index applied to every knot."""
    def poisoned(self, *args):
        out = [np.array(a, dtype=float)
               for a in getattr(CartpoleModel, method)(self, *args)]
        out[entry[0]][(..., *entry[1:])] = np.nan
        return tuple(out)

    return type("NanCartpole", (CartpoleModel,), {method: poisoned})()


def random_lq(rng, n_max=6, m_max=3, c_t=0.0):
    """Random stabilized LQ instance.

    A is 0.95 times a random orthogonal matrix: spectral radius 0.95 with a
    well-conditioned inverse, so backward prefix extension stays bounded.
    """
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    A, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A *= 0.95
    B = rng.standard_normal((n, m))
    Mq = rng.standard_normal((n, n))
    Mr = rng.standard_normal((m, m))
    Mf = rng.standard_normal((n, n))
    Q = 0.1 * Mq.T @ Mq
    R = Mr.T @ Mr + 0.5 * np.eye(m)
    Qf = Mf.T @ Mf
    return LinearQuadraticModel(A, B, Q, R, Qf, c_t=c_t)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
