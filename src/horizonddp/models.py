"""Benchmark systems: double integrator, cartpole, quadrotor, point-mass nav.

Each model is a dataclass whose fields are its parameters, and so the keys
of its config document.  Cartpole and quadrotor integrate their continuous
equations of motion with fixed-step RK4 (``_RK4Dynamics``); the two
double-integrator variants use the exact discrete map (``_LinearDynamics``).
The double integrator and the quadrotor share one quadratic tracking cost
(``_QuadraticCost``).  Every model carries its own cost weights and
per-step time penalty.

The RK4 models serve a single knot on plain floats: ``step`` runs the four
stages of one knot through the model's float kernel ``_xdot`` and builds
one array at the end.  Each stage scales and adds in the order numpy does
in the array form ``rk4_step``, so the two give the same state to the bit,
while the float path pays numpy's per-call cost once instead of about a
dozen times.  ``rk4_step``, ``inverse_step`` and the stacked
``rk4_step_with_jacobian`` keep their array forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .lti import LtiProblem
from .model import SystemModel, from_fields, sym

GRAVITY = 9.81


# ---------------------------------------------------------------------------
# RK4 with Jacobian propagation
# ---------------------------------------------------------------------------


def rk4_step(deriv, x, u, dt):
    """Classic fixed-step RK4 for xdot = deriv(x, u)."""
    k1 = deriv(x, u)
    k2 = deriv(x + 0.5 * dt * k1, u)
    k3 = deriv(x + 0.5 * dt * k2, u)
    k4 = deriv(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_with_jacobian(deriv, jac, x, u, dt):
    """RK4 step plus the exact Jacobians of the discrete map.

    ``jac(x, u)`` must return the continuous-time (df/dx, df/du); the
    discrete Jacobians follow by chain rule through the four stages.  With
    a leading knot axis on x, u and the kernels' results, every knot is
    propagated at once, and ``jac`` is called once over the four stage
    points of every knot: its kernels are elementwise, so each knot's
    Jacobians are the same to the bit as from four calls.
    """
    n = x.shape[-1]
    eye = np.eye(n)

    k1 = deriv(x, u)
    x2 = x + 0.5 * dt * k1
    k2 = deriv(x2, u)
    x3 = x + 0.5 * dt * k2
    k3 = deriv(x3, u)
    x4 = x + dt * k3
    k4 = deriv(x4, u)

    if x.ndim == 1:
        a1, b1 = jac(x, u)
        a2, b2 = jac(x2, u)
        a3, b3 = jac(x3, u)
        a4, b4 = jac(x4, u)
    else:
        a, b = jac(np.concatenate((x, x2, x3, x4)), np.concatenate((u,) * 4))
        (a1, a2, a3, a4), (b1, b2, b3, b4) = np.split(a, 4), np.split(b, 4)

    K1x, K1u = a1, b1
    K2x = a2 @ (eye + 0.5 * dt * K1x)
    K2u = b2 + a2 @ (0.5 * dt * K1u)
    K3x = a3 @ (eye + 0.5 * dt * K2x)
    K3u = b3 + a3 @ (0.5 * dt * K2u)
    K4x = a4 @ (eye + dt * K3x)
    K4u = b4 + a4 @ (dt * K3u)

    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    f_x = eye + (dt / 6.0) * (K1x + 2.0 * K2x + 2.0 * K3x + K4x)
    f_u = (dt / 6.0) * (K1u + 2.0 * K2u + 2.0 * K3u + K4u)
    return x_next, f_x, f_u


# The stacked forms below round exactly as the single-point forms do, so a
# stacked expansion equals the per-knot one to the bit: a batched matmul of
# vectors runs the same BLAS dot as ``a @ b``, and numpy's vectorized exp can
# differ from math.exp in the last bit.

def _dot(a, b):
    """Dot product over the last axis, row by row for stacked arguments."""
    if a.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _exp(v):
    """math.exp of a number, or of each element of a 1-D array."""
    if not isinstance(v, np.ndarray):
        return math.exp(v)
    return np.array([math.exp(t) for t in v.tolist()])


def _per_knot(M, x):
    """Constant M repeated along the knot axes of x (a read-only view)."""
    return np.broadcast_to(M, np.shape(x)[:-1] + M.shape)


# The cartpole and quadrotor kernels serve one knot and stacked knots with one
# body.  A single knot runs on plain floats and math.sin/cos, because numpy
# scalar arithmetic costs several times more; stacked knots (N, k) run on
# columns and np.sin/cos.

def _kernel_inputs(x, u):
    """State and control coordinates, and the sin and cos to apply to them."""
    if x.ndim == 1:
        return x.tolist(), u.tolist(), math.sin, math.cos
    return x.T, u.T, np.sin, np.cos


def _knot_rows(entries):
    """Kernel results as a vector (k,), or as rows (N, k) when each entry
    holds N knots."""
    v = np.array(entries)
    return v if v.ndim == 1 else v.T


def _jacobian_buffers(x, n, m):
    """Zeroed (f_x, f_u), with a leading knot axis for stacked x, and views
    of both indexed [i, j] with any knot axis last: a kernel writes entry
    (i, j) of every knot at once, and a single knot keeps numpy's fast
    integer indexing."""
    fx = np.zeros(x.shape[:-1] + (n, n))
    fu = np.zeros(x.shape[:-1] + (n, m))
    if x.ndim == 1:
        return fx, fu, fx, fu
    return fx, fu, fx.transpose(1, 2, 0), fu.transpose(1, 2, 0)


def _as_floats(model):
    """Store each field whose default is a float as a float: the one-knot
    kernels run on plain floats, and a config may give an int."""
    for f in fields(model):
        if isinstance(f.default, float):
            setattr(model, f.name, float(getattr(model, f.name)))


def _finite_array(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float array of the given shape with finite entries;
    raises ValueError naming it."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.isfinite(a).all():
        what = (f"{shape[0]} finite numbers" if len(shape) == 1
                else f"a {shape[0]}x{shape[1]} matrix of finite numbers")
        raise ValueError(f"{name} must be {what}")
    return a


def _check_positive(**values):
    """Raise ValueError naming each value with an entry not > 0, which a
    NaN entry is not."""
    bad = [name for name, v in values.items() if not np.all(np.asarray(v) > 0)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be > 0")


# ---------------------------------------------------------------------------
# shared dynamics and cost
# ---------------------------------------------------------------------------


class _RK4Dynamics(SystemModel):
    """One fixed RK4 step of ``dt`` through the continuous dynamics and
    their Jacobians ``_deriv_jacobians``, which take one knot or stacked
    knots; one backward-Euler step guesses a preimage.  The costs of the
    models built on it stack too.

    A model gives its dynamics as the kernel ``_xdot(x, u, sin, cos)``
    over the coordinates of ``_kernel_inputs``, returning the entries of
    xdot; ``_deriv`` wraps it for arrays."""

    stacked_derivatives = True

    def _deriv(self, x, u):
        """xdot at one knot (k,), or at each of stacked knots (N, k)."""
        return _knot_rows(self._xdot(*_kernel_inputs(x, u)))

    def step(self, x, u):
        # rk4_step on plain floats: each stage adds and scales in the order
        # numpy does, so the state is the same to the bit
        x = np.asarray(x, dtype=float).tolist()
        u = np.asarray(u, dtype=float).tolist()
        xdot, sin, cos = self._xdot, math.sin, math.cos
        dt = self.dt
        h = 0.5 * dt
        k1 = xdot(x, u, sin, cos)
        k2 = xdot([a + h * b for a, b in zip(x, k1)], u, sin, cos)
        k3 = xdot([a + h * b for a, b in zip(x, k2)], u, sin, cos)
        k4 = xdot([a + dt * b for a, b in zip(x, k3)], u, sin, cos)
        c = dt / 6.0
        out = [a + c * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
               for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, out)):
            raise FloatingPointError(
                f"{type(self).__name__} state became non-finite")
        return np.array(out)

    def dynamics_jacobians(self, x, u):
        _, fx, fu = rk4_step_with_jacobian(
            self._deriv, self._deriv_jacobians, np.asarray(x, dtype=float),
            np.asarray(u, dtype=float), self.dt)
        return fx, fu

    def inverse_step(self, x_next, u):
        """``x_next - dt * xdot(x_next, u)``, whose defect under ``step`` is
        O(dt^2)."""
        x_next = np.asarray(x_next, dtype=float)
        return x_next - self.dt * self._deriv(x_next, np.asarray(u, dtype=float))


class _LinearDynamics(SystemModel):
    """Exact discrete map x' = A x + B u with invertible A.  The costs of
    the models built on it stack too."""

    stacked_derivatives = True

    def step(self, x, u):
        return self.A @ np.asarray(x, dtype=float) + self.B @ np.asarray(u, dtype=float)

    def dynamics_jacobians(self, x, u):
        return _per_knot(self.A, x), _per_knot(self.B, x)

    def inverse_step(self, x_next, u):
        return np.linalg.solve(self.A, np.asarray(x_next, dtype=float)
                               - self.B @ np.asarray(u, dtype=float))


class _QuadraticCost(SystemModel):
    """0.5 dx' Q dx + 0.5 du' R du + c_t per step and 0.5 dx' Qf dx at the
    end, with dx = x - goal and du = u - u_ref; u_ref seeds the initial
    trajectories."""

    def running_cost(self, x, u):
        dx = np.asarray(x, dtype=float) - self.goal
        du = np.asarray(u, dtype=float) - self.u_ref
        return 0.5 * (_dot(dx @ self.Q, dx) + _dot(du @ self.R, du)) + self.c_t

    def terminal_cost(self, x):
        dx = np.asarray(x, dtype=float) - self.goal
        return 0.5 * float(dx @ self.Qf @ dx)

    def running_cost_derivatives(self, x, u):
        dx = np.asarray(x, dtype=float) - self.goal
        du = np.asarray(u, dtype=float) - self.u_ref
        return (dx @ self.Q, du @ self.R, _per_knot(self.Q, dx),
                np.zeros(dx.shape[:-1] + (self.dim_u, self.dim_x)),
                _per_knot(self.R, dx))

    def terminal_cost_derivatives(self, x):
        dx = np.asarray(x, dtype=float) - self.goal
        return self.Qf @ dx, self.Qf

    def nominal_control(self, x):
        return self.u_ref.copy()


# ---------------------------------------------------------------------------
# double integrator
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DoubleIntegratorModel(_LinearDynamics, _QuadraticCost):
    """1-D double integrator with quadratic costs about the origin; exactly
    an LTI problem.  Q, R and Qf default to identities."""

    dt: float = 0.1
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    Qf: np.ndarray | None = None
    c_t: float = 0.0

    dim_x = 2
    dim_u = 1

    def __post_init__(self):
        _as_floats(self)
        _check_positive(dt=self.dt)
        for name, dim in (("Q", 2), ("R", 1), ("Qf", 2)):
            value = getattr(self, name)
            setattr(self, name, sym(_finite_array(
                np.eye(dim) if value is None else value, (dim, dim), name)))
        self.goal = np.zeros(2)
        self.u_ref = np.zeros(1)
        self.A = np.array([[1.0, self.dt], [0.0, 1.0]])
        self.B = np.array([[0.0], [self.dt]])

    def to_lti_problem(self, horizon_bounds) -> LtiProblem:
        return LtiProblem(A=self.A, B=self.B, Q=self.Q, R=self.R, Qf=self.Qf,
                          horizon_bounds=horizon_bounds, c_t=self.c_t)


# ---------------------------------------------------------------------------
# cartpole
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CartpoleModel(_RK4Dynamics):
    """Cart with a hanging pole; force on the cart is the only control.

    State (x, xdot, theta, thetadot) with theta = 0 hanging down and
    theta = pi upright.  The swing-up task penalizes cart and pole speed
    while running, arrival angle/velocities at the end, and time via c_t.
    """

    cart_mass: float = 1.0
    pole_mass: float = 0.1
    pole_length: float = 0.5
    gravity: float = GRAVITY
    dt: float = 0.02
    w_xdot: float = 0.1
    w_thetadot: float = 0.1
    w_u: float = 0.01
    wf_theta: float = 10000.0
    wf_xdot: float = 2500.0
    wf_thetadot: float = 2500.0
    c_t: float = 0.0

    dim_x = 4
    dim_u = 1

    def __post_init__(self):
        _as_floats(self)
        _check_positive(cart_mass=self.cart_mass, pole_mass=self.pole_mass,
                        pole_length=self.pole_length, dt=self.dt)

    # equations of motion in manipulator form, solved for the accelerations
    def _xdot(self, x, u, sin, cos):
        (_, xdot, theta, thetadot), (force,) = x, u
        try:
            s, c = sin(theta), cos(theta)
            spin = thetadot ** 2
        except (ValueError, OverflowError):
            # an overflowed state: math.sin rejects inf, and float ** raises
            # where a numpy scalar would return inf
            raise FloatingPointError("cartpole state became non-finite") from None
        den = self.cart_mass + self.pole_mass * s * s
        xddot = (force + self.pole_mass * s * (self.pole_length * spin
                                               + self.gravity * c)) / den
        thddot = -(xddot * c + self.gravity * s) / self.pole_length
        return [xdot, xddot, thetadot, thddot]

    def _deriv_jacobians(self, x, u):
        (_, _, theta, thetadot), (force,), sin, cos = _kernel_inputs(x, u)
        s, c = sin(theta), cos(theta)
        g, l, mp = self.gravity, self.pole_length, self.pole_mass
        den = self.cart_mass + mp * s * s
        num = force + mp * s * (l * thetadot ** 2 + g * c)
        xddot = num / den

        dnum_dth = mp * (c * l * thetadot ** 2 + g * (c * c - s * s))
        dden_dth = 2.0 * mp * s * c
        dxdd_dth = (dnum_dth * den - num * dden_dth) / (den * den)
        dxdd_dtd = 2.0 * mp * l * thetadot * s / den
        dxdd_du = 1.0 / den

        fx, fu, Fx, Fu = _jacobian_buffers(x, 4, 1)
        Fx[0, 1] = 1.0
        Fx[1, 2] = dxdd_dth
        Fx[1, 3] = dxdd_dtd
        Fx[2, 3] = 1.0
        Fx[3, 2] = -(dxdd_dth * c - xddot * s + g * c) / l
        Fx[3, 3] = -(dxdd_dtd * c) / l
        Fu[1, 0] = dxdd_du
        Fu[3, 0] = -(dxdd_du * c) / l
        return fx, fu

    def running_cost(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return (0.5 * (self.w_xdot * x[..., 1] ** 2 + self.w_thetadot * x[..., 3] ** 2
                       + self.w_u * _dot(u, u)) + self.c_t)

    def terminal_cost(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (self.wf_theta * (x[2] - math.pi) ** 2
                      + self.wf_xdot * x[1] ** 2
                      + self.wf_thetadot * x[3] ** 2)

    def running_cost_derivatives(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        l_x = np.zeros(x.shape)
        l_x[..., 1] = self.w_xdot * x[..., 1]
        l_x[..., 3] = self.w_thetadot * x[..., 3]
        l_xx = np.diag([0.0, self.w_xdot, 0.0, self.w_thetadot])
        return (l_x, self.w_u * u, _per_knot(l_xx, x),
                np.zeros(x.shape[:-1] + (1, 4)), _per_knot(self.w_u * np.eye(1), x))

    def terminal_cost_derivatives(self, x):
        x = np.asarray(x, dtype=float)
        phi_x = np.array([0.0, self.wf_xdot * x[1],
                          self.wf_theta * (x[2] - math.pi),
                          self.wf_thetadot * x[3]])
        phi_xx = np.diag([0.0, self.wf_xdot, self.wf_theta, self.wf_thetadot])
        return phi_x, phi_xx


# ---------------------------------------------------------------------------
# quadrotor
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QuadrotorModel(_RK4Dynamics, _QuadraticCost):
    """Euler-angle rigid-body quadrotor: 12 states, 4 controls.

    State: position (3), attitude roll/pitch/yaw (3), world-frame linear
    velocity (3), body angular rates (3).  Controls: total thrust plus the
    three body torques.  Hovering level at thrust m*g is a fixed point, and
    the cost is the weighted quadratic deviation from the goal state and
    from hover (``u_ref``).  ``admissible`` keeps |roll|, |pitch| < pi/2:
    that is the region the derivative checks sample from (CLI ``check``,
    acceptance criterion 8), not a constraint that ``rollout`` enforces.
    """

    mass: float = 1.0
    inertia: tuple = (0.01, 0.01, 0.02)
    gravity: float = GRAVITY
    dt: float = 0.05
    goal: np.ndarray | None = None
    w_pos: float = 1.0
    w_att: float = 1.0
    w_vel: float = 0.1
    w_rate: float = 0.1
    w_thrust: float = 0.5
    w_torque: float = 5.0
    wf: float = 500.0
    c_t: float = 0.0

    dim_x = 12
    dim_u = 4

    def __post_init__(self):
        _as_floats(self)
        # plain floats: the one-knot kernels read them
        self.inertia = tuple(_finite_array(self.inertia, (3,), "inertia").tolist())
        _check_positive(mass=self.mass, inertia=self.inertia, dt=self.dt)
        self.goal = (np.zeros(12) if self.goal is None
                     else _finite_array(self.goal, (12,), "goal"))
        self.Q = np.diag([self.w_pos] * 3 + [self.w_att] * 3
                         + [self.w_vel] * 3 + [self.w_rate] * 3)
        self.R = np.diag([self.w_thrust] + [self.w_torque] * 3)
        self.Qf = self.wf * np.eye(12)
        self.u_ref = np.array([self.mass * self.gravity, 0.0, 0.0, 0.0])

    def _xdot(self, x, u, sin, cos):
        (_, _, _, phi, th, psi, vx, vy, vz, p, q, r), (thrust, tx, ty, tz) = x, u
        jx, jy, jz = self.inertia
        try:
            sph, cph = sin(phi), cos(phi)
            sth, cth = sin(th), cos(th)
            sps, cps = sin(psi), cos(psi)
        except ValueError:  # an overflowed state: math.sin rejects inf
            raise FloatingPointError("quadrotor state became non-finite") from None
        tth = sth / cth

        return [
            vx, vy, vz,
            # Euler-angle rates
            p + (q * sph + r * cph) * tth,
            q * cph - r * sph,
            (q * sph + r * cph) / cth,
            # linear acceleration
            (thrust / self.mass) * (cph * sth * cps + sph * sps),
            (thrust / self.mass) * (cph * sth * sps - sph * cps),
            (thrust / self.mass) * (cph * cth) - self.gravity,
            # angular acceleration
            ((jy - jz) * q * r + tx) / jx,
            ((jz - jx) * p * r + ty) / jy,
            ((jx - jy) * p * q + tz) / jz,
        ]

    def _deriv_jacobians(self, x, u):
        ((_, _, _, phi, th, psi, _, _, _, p, q, r), (thrust, _, _, _),
         sin, cos) = _kernel_inputs(x, u)
        jx, jy, jz = self.inertia
        m = self.mass

        sph, cph = sin(phi), cos(phi)
        sth, cth = sin(th), cos(th)
        sps, cps = sin(psi), cos(psi)
        tth = sth / cth
        sec2 = 1.0 / (cth * cth)

        fx, fu, Fx, Fu = _jacobian_buffers(x, 12, 4)

        # position rates
        Fx[0, 6] = Fx[1, 7] = Fx[2, 8] = 1.0

        # Euler-angle rates
        Fx[3, 3] = (q * cph - r * sph) * tth
        Fx[3, 4] = (q * sph + r * cph) * sec2
        Fx[3, 9] = 1.0
        Fx[3, 10] = sph * tth
        Fx[3, 11] = cph * tth
        Fx[4, 3] = -q * sph - r * cph
        Fx[4, 10] = cph
        Fx[4, 11] = -sph
        Fx[5, 3] = (q * cph - r * sph) / cth
        Fx[5, 4] = (q * sph + r * cph) * sth * sec2
        Fx[5, 10] = sph / cth
        Fx[5, 11] = cph / cth

        # linear acceleration
        k = thrust / m
        Fx[6, 3] = k * (-sph * sth * cps + cph * sps)
        Fx[6, 4] = k * (cph * cth * cps)
        Fx[6, 5] = k * (-cph * sth * sps + sph * cps)
        Fx[7, 3] = k * (-sph * sth * sps - cph * cps)
        Fx[7, 4] = k * (cph * cth * sps)
        Fx[7, 5] = k * (cph * sth * cps + sph * sps)
        Fx[8, 3] = k * (-sph * cth)
        Fx[8, 4] = k * (-cph * sth)
        Fu[6, 0] = (cph * sth * cps + sph * sps) / m
        Fu[7, 0] = (cph * sth * sps - sph * cps) / m
        Fu[8, 0] = (cph * cth) / m

        # angular acceleration
        Fx[9, 10] = (jy - jz) * r / jx
        Fx[9, 11] = (jy - jz) * q / jx
        Fx[10, 9] = (jz - jx) * r / jy
        Fx[10, 11] = (jz - jx) * p / jy
        Fx[11, 9] = (jx - jy) * q / jz
        Fx[11, 10] = (jx - jy) * p / jz
        Fu[9, 1] = 1.0 / jx
        Fu[10, 2] = 1.0 / jy
        Fu[11, 3] = 1.0 / jz

        return fx, fu

    def admissible(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(x))
                    and abs(x[3]) < 0.5 * math.pi and abs(x[4]) < 0.5 * math.pi)


# ---------------------------------------------------------------------------
# point-mass navigation
# ---------------------------------------------------------------------------


_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


def _finite_pair(value, name: str) -> tuple:
    """value as a tuple of two finite floats; raises ValueError naming it."""
    try:
        pair = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        pair = ()
    if len(pair) != 2 or not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
        raise ValueError(f"{name} must be two finite numbers, got {value!r}")
    return pair


@dataclass(frozen=True)
class Obstacle:
    """Circular soft obstacle with Gaussian cost and an optional motion
    schedule (piecewise-constant velocity segments unknown to the planner)."""

    center: tuple
    radius: float
    weight: float = 1.0
    schedule: tuple = ()  # sequence of (duration, (vx, vy)) segments

    def __post_init__(self):
        _check_positive(radius=self.radius, weight=self.weight)
        object.__setattr__(self, "center", _finite_pair(self.center, "center"))
        try:
            schedule = tuple((float(d), _finite_pair(v, "velocity"))
                             for d, v in self.schedule)
        except (TypeError, ValueError):
            raise ValueError("schedule must be a list of [duration, [vx, vy]] "
                             f"segments, got {self.schedule!r}") from None
        if not all(0.0 <= d < math.inf for d, _ in schedule):
            raise ValueError("schedule duration must be finite and >= 0, "
                             f"got {self.schedule!r}")
        object.__setattr__(self, "schedule", schedule)

    def displacement(self, sim_time: float) -> np.ndarray:
        """Integrated schedule motion from t=0 to sim_time (zero afterwards)."""
        remaining = float(sim_time)
        disp = np.zeros(2)
        for duration, vel in self.schedule:
            dt = min(remaining, duration)
            if dt <= 0:
                break
            disp += dt * np.asarray(vel)
            remaining -= dt
        return disp

    def cost(self, pos: np.ndarray):
        """Cost at a position (2,), or at each row of positions (N, 2)."""
        pos = np.asarray(pos, dtype=float)
        if pos.ndim == 1:
            # every rollout step lands here: plain floats, same rounding
            px, py = pos.tolist()
            dx, dy = px - self.center[0], py - self.center[1]
            d2 = dx * dx + dy * dy
        else:
            d2 = np.sum((pos - np.asarray(self.center)) ** 2, axis=-1)
        return self.weight * _exp(-d2 / (2.0 * self.radius ** 2))

    def cost_derivatives(self, pos: np.ndarray):
        """(cost, gradient, Hessian) at a position (2,), or stacked over
        the rows of positions (N, 2)."""
        delta = pos - np.asarray(self.center)
        r2 = self.radius ** 2
        c = self.weight * _exp(-_dot(delta, delta) / (2.0 * r2))
        ck = np.expand_dims(c, -1)
        grad = -(ck / r2) * delta
        hess = (np.expand_dims(ck / (r2 * r2), -1) * (delta[..., :, None] * delta[..., None, :])
                - np.expand_dims(ck / r2, -1) * _EYE2)
        return c, grad, hess


@dataclass(eq=False)
class PointMassNavModel(_LinearDynamics):
    """Planar double integrator steering to a goal through soft obstacles.

    ``obstacles`` holds :class:`Obstacle` objects, or config entries with
    the fields of one.
    """

    dt: float = 0.1
    goal: tuple = (8.0, 0.0)
    w_u: float = 0.5
    w_vel: float = 0.05
    wf_pos: float = 50.0
    wf_vel: float = 50.0
    obstacles: tuple = ()
    c_t: float = 0.0
    arena_scale: float = 10.0

    dim_x = 4
    dim_u = 2

    def __post_init__(self):
        _as_floats(self)
        _check_positive(dt=self.dt)
        self.goal = _finite_array(self.goal, (2,), "goal")
        if not isinstance(self.obstacles, (list, tuple)):
            raise ValueError("obstacles must be a list of obstacles, "
                             f"got {self.obstacles!r}")
        self.obstacles = tuple(
            o if isinstance(o, Obstacle) else from_fields(Obstacle, o, "obstacle")
            for o in self.obstacles)
        dt_ = self.dt
        self.A = np.array([[1.0, 0.0, dt_, 0.0],
                           [0.0, 1.0, 0.0, dt_],
                           [0.0, 0.0, 1.0, 0.0],
                           [0.0, 0.0, 0.0, 1.0]])
        self.B = np.array([[0.0, 0.0], [0.0, 0.0], [dt_, 0.0], [0.0, dt_]])
        # hot-path constants for the cost expansion
        self._l_xx_base = np.diag([0.0, 0.0, self.w_vel, self.w_vel])
        self._l_ux = np.zeros((2, 4))
        self._l_uu = self.w_u * np.eye(2)
        for M in (self._l_xx_base, self._l_ux, self._l_uu):
            M.setflags(write=False)

    def running_cost(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        vel = x[..., 2:]
        total = 0.5 * (self.w_u * _dot(u, u) + self.w_vel * _dot(vel, vel))
        for obs in self.obstacles:
            total += obs.cost(x[..., :2])
        return total + self.c_t

    def terminal_cost(self, x):
        x = np.asarray(x, dtype=float)
        dp = x[:2] - self.goal
        return 0.5 * (self.wf_pos * float(dp @ dp)
                      + self.wf_vel * float(x[2:] @ x[2:]))

    def running_cost_derivatives(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        l_x = np.zeros(x.shape)
        l_x[..., 2:] = self.w_vel * x[..., 2:]
        l_xx = _per_knot(self._l_xx_base, x)
        if self.obstacles:
            l_xx = l_xx.copy()
            for obs in self.obstacles:
                _, grad, hess = obs.cost_derivatives(x[..., :2])
                l_x[..., :2] += grad
                l_xx[..., :2, :2] += hess
        return (l_x, self.w_u * u, l_xx, _per_knot(self._l_ux, x),
                _per_knot(self._l_uu, x))

    def terminal_cost_derivatives(self, x):
        x = np.asarray(x, dtype=float)
        phi_x = np.concatenate([self.wf_pos * (x[:2] - self.goal),
                                self.wf_vel * x[2:]])
        phi_xx = np.diag([self.wf_pos, self.wf_pos, self.wf_vel, self.wf_vel])
        return phi_x, phi_xx


def obstacle_schedule_advance(model: PointMassNavModel,
                              sim_time: float) -> PointMassNavModel:
    """Snapshot of the navigation model with obstacles moved to sim_time.

    The returned snapshot is what the plant (and the planner, blindly)
    sees at that instant; schedules are kept for later advancement but the
    planner never consults them.
    """
    if not sim_time >= 0:
        raise ValueError("sim_time must be >= 0")
    moved = tuple(
        Obstacle(center=tuple(np.asarray(o.center) + o.displacement(sim_time)),
                 radius=o.radius, weight=o.weight, schedule=())
        for o in model.obstacles)
    return replace(model, obstacles=moved)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


MODEL_REGISTRY = {
    "double_integrator": DoubleIntegratorModel,
    "cartpole": CartpoleModel,
    "quadrotor": QuadrotorModel,
    "pointmass_nav": PointMassNavModel,
}


def make_model(config: dict) -> SystemModel:
    """Build a benchmark model from a JSON-style config document: its
    ``model`` name plus any of that model's fields."""
    params = dict(config)
    name = params.pop("model", None)
    if name not in MODEL_REGISTRY:
        valid = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {name!r}; valid names: {valid}")
    return from_fields(MODEL_REGISTRY[name], params, f"{name} model")
