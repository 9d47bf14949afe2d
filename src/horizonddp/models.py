"""Benchmark systems: double integrator, cartpole, quadrotor, point-mass nav.

Each model is a frozen dataclass whose fields are its parameters, and so
the keys of its config document; every array it holds is a read-only
copy.  A carried sweep and ``Trajectory.assert_consistent`` trust a model
object's identity, which holds only while its parameters cannot change.
Cartpole and quadrotor integrate their continuous equations of motion
with fixed-step RK4 (``_RK4Dynamics``); the two double-integrator
variants use the exact discrete map (``_LinearDynamics``).
Every model's cost is one quadratic about a state reference ``x_ref`` and
a control reference ``u_ref`` (``_QuadraticCost``), whose weights each
model builds in its ``__post_init__`` from its own fields; the navigator
adds its obstacles on top.  Every model carries its own per-step time
penalty ``c_t``.

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
from .model import (SystemModel, _finite_array, _frozen_array,
                    check_nonnegative, from_fields, sym)

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


def _as_floats(obj, positive=()):
    """Check each field annotated ``float`` with ``check_nonnegative``, > 0
    for the fields named in ``positive``, and store it as a float: the
    one-knot kernels run on plain floats, and a config may give an int."""
    for f in fields(obj):
        if f.type == "float":
            object.__setattr__(obj, f.name, check_nonnegative(
                f.name, getattr(obj, f.name), f.name in positive))


def _set_arrays(model, **arrays):
    """Store each array on the frozen ``model`` as a read-only copy."""
    for name, value in arrays.items():
        object.__setattr__(model, name, _frozen_array(value))


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
    end, with dx = x - x_ref and du = u - u_ref; u_ref seeds the initial
    trajectories.  A model sets Q, R, Qf, x_ref and u_ref in its
    ``__post_init__``; a zero weight leaves its coordinate out of the cost,
    whatever its reference."""

    def running_cost(self, x, u):
        dx = np.asarray(x, dtype=float) - self.x_ref
        du = np.asarray(u, dtype=float) - self.u_ref
        return 0.5 * (_dot(dx @ self.Q, dx) + _dot(du @ self.R, du)) + self.c_t

    def terminal_cost(self, x):
        dx = np.asarray(x, dtype=float) - self.x_ref
        return 0.5 * float(dx @ self.Qf @ dx)

    def running_cost_derivatives(self, x, u):
        dx = np.asarray(x, dtype=float) - self.x_ref
        du = np.asarray(u, dtype=float) - self.u_ref
        return (dx @ self.Q, du @ self.R, _per_knot(self.Q, dx),
                np.zeros(dx.shape[:-1] + (self.dim_u, self.dim_x)),
                _per_knot(self.R, dx))

    def terminal_cost_derivatives(self, x):
        dx = np.asarray(x, dtype=float) - self.x_ref
        return self.Qf @ dx, self.Qf

    def nominal_control(self, x):
        return self.u_ref.copy()


# ---------------------------------------------------------------------------
# double integrator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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
        _as_floats(self, positive=("dt",))
        for name, dim in (("Q", 2), ("R", 1), ("Qf", 2)):
            value = getattr(self, name)
            _set_arrays(self, **{name: sym(_finite_array(
                np.eye(dim) if value is None else value, (dim, dim), name))})
        _set_arrays(self, goal=np.zeros(2), x_ref=np.zeros(2),
                    u_ref=np.zeros(1),
                    A=np.array([[1.0, self.dt], [0.0, 1.0]]),
                    B=np.array([[0.0], [self.dt]]))

    def to_lti_problem(self, horizon_bounds) -> LtiProblem:
        return LtiProblem(A=self.A, B=self.B, Q=self.Q, R=self.R, Qf=self.Qf,
                          horizon_bounds=horizon_bounds, c_t=self.c_t)


# ---------------------------------------------------------------------------
# cartpole
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CartpoleModel(_RK4Dynamics, _QuadraticCost):
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
        _as_floats(self, positive=("cart_mass", "pole_mass", "pole_length",
                                   "dt"))
        _set_arrays(
            self, x_ref=np.array([0.0, 0.0, math.pi, 0.0]), u_ref=np.zeros(1),
            Q=np.diag([0.0, self.w_xdot, 0.0, self.w_thetadot]),
            R=np.array([[self.w_u]]),
            Qf=np.diag([0.0, self.wf_xdot, self.wf_theta, self.wf_thetadot]))

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


# ---------------------------------------------------------------------------
# quadrotor
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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
        _as_floats(self, positive=("mass", "dt"))
        # plain floats: the one-knot kernels read them
        object.__setattr__(self, "inertia", tuple(
            check_nonnegative("inertia", v, positive=True)
            for v in _finite_array(self.inertia, (3,), "inertia").tolist()))
        goal = (np.zeros(12) if self.goal is None
                else _finite_array(self.goal, (12,), "goal"))
        _set_arrays(self, goal=goal, x_ref=goal,
                    Q=np.diag([self.w_pos] * 3 + [self.w_att] * 3
                              + [self.w_vel] * 3 + [self.w_rate] * 3),
                    R=np.diag([self.w_thrust] + [self.w_torque] * 3),
                    Qf=self.wf * np.eye(12),
                    u_ref=np.array([self.mass * self.gravity, 0.0, 0.0, 0.0]))

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


@dataclass(frozen=True)
class Obstacle:
    """Circular soft obstacle with Gaussian cost and an optional motion
    schedule (piecewise-constant velocity segments unknown to the planner)."""

    center: tuple
    radius: float
    weight: float = 1.0
    schedule: tuple = ()  # sequence of (duration, (vx, vy)) segments

    def __post_init__(self):
        _as_floats(self, positive=("radius", "weight"))
        object.__setattr__(self, "center", tuple(
            _finite_array(self.center, (2,), "center").tolist()))
        try:
            schedule = tuple(
                (d, tuple(_finite_array(v, (2,), "velocity").tolist()))
                for d, v in self.schedule)
        except (TypeError, ValueError):
            raise ValueError("schedule must be a list of [duration, [vx, vy]] "
                             f"segments, got {self.schedule!r}") from None
        try:
            schedule = tuple((check_nonnegative("schedule duration", d), v)
                             for d, v in schedule)
        except ValueError as exc:
            raise ValueError(f"{exc}, got {self.schedule!r}") from None
        object.__setattr__(self, "schedule", schedule)

    def displacement(self, sim_time: float) -> np.ndarray:
        """Integrated schedule motion from t=0 to sim_time (zero afterwards)."""
        remaining = float(sim_time)
        disp = np.zeros(2)
        for duration, vel in self.schedule:
            if remaining <= 0:
                break
            # a zero-duration segment adds nothing and ends nothing
            dt = min(remaining, duration)
            disp += dt * np.asarray(vel)
            remaining -= dt
        return disp

    def cost(self, pos: np.ndarray):
        """Cost at a position (2,), or at each row of positions (N, 2)."""
        delta = np.asarray(pos, dtype=float) - np.asarray(self.center)
        d2 = np.sum(delta ** 2, axis=-1)
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


@dataclass(frozen=True, eq=False)
class PointMassNavModel(_LinearDynamics, _QuadraticCost):
    """Planar double integrator steering to a goal through soft obstacles.

    State (px, py, vx, vy): the running cost weighs speed and control, the
    terminal cost the distance to ``goal`` and the arrival speed, and each
    obstacle adds its cost at the position of every running knot.

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
        _as_floats(self, positive=("dt", "arena_scale"))
        goal = _finite_array(self.goal, (2,), "goal")
        if not isinstance(self.obstacles, (list, tuple)):
            raise ValueError("obstacles must be a list of obstacles, "
                             f"got {self.obstacles!r}")
        object.__setattr__(self, "obstacles", tuple(
            o if isinstance(o, Obstacle) else from_fields(Obstacle, o, "obstacle")
            for o in self.obstacles))
        dt_ = self.dt
        _set_arrays(self, goal=goal,
                    A=np.array([[1.0, 0.0, dt_, 0.0],
                                [0.0, 1.0, 0.0, dt_],
                                [0.0, 0.0, 1.0, 0.0],
                                [0.0, 0.0, 0.0, 1.0]]),
                    B=np.array([[0.0, 0.0], [0.0, 0.0], [dt_, 0.0],
                                [0.0, dt_]]),
                    x_ref=np.concatenate([goal, np.zeros(2)]),
                    u_ref=np.zeros(2),
                    Q=np.diag([0.0, 0.0, self.w_vel, self.w_vel]),
                    R=self.w_u * np.eye(2),
                    Qf=np.diag([self.wf_pos, self.wf_pos, self.wf_vel,
                                self.wf_vel]))

    def running_cost(self, x, u):
        total = super().running_cost(x, u)
        pos = np.asarray(x, dtype=float)[..., :2]
        for obs in self.obstacles:
            total += obs.cost(pos)
        return total

    def running_cost_derivatives(self, x, u):
        l_x, l_u, l_xx, l_ux, l_uu = super().running_cost_derivatives(x, u)
        if self.obstacles:
            pos = np.asarray(x, dtype=float)[..., :2]
            l_xx = l_xx.copy()  # the base block is a read-only view
            for obs in self.obstacles:
                _, grad, hess = obs.cost_derivatives(pos)
                l_x[..., :2] += grad
                l_xx[..., :2, :2] += hess
        return l_x, l_u, l_xx, l_ux, l_uu


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
