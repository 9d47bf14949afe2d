"""System-model contract shared by every solver.

A model is a discrete-time map ``x' = step(x, u)`` together with a running
cost and a terminal cost.  Solvers only consume local quadratic expansions
of all three, built from analytic derivatives when the model provides them
and from central finite differences otherwise.

Non-finite values follow one policy.  An evaluation that turns non-finite
raises ``FloatingPointError``.  The exception is the exact linear map of
``models.py`` (double integrator, navigator): its ``step`` returns an
overflowed or NaN state as it is.  ``Trajectory.consistency_error``
reports a non-finite state's defect as non-finite rather than raising on
every model: NaN from such a step, inf where ``step`` raises.
``ExpansionError`` is the one a derivative expansion raises.  Each
expansion tests its own output once: its nominal value, then its
derivatives, naming the analytic method that made a non-finite one
(``running_cost_derivatives``, ``dynamics_jacobians``,
``terminal_cost_derivatives``) or, when the model returns None, the
evaluation the fallback differenced (``running_cost``, ``step``,
``terminal_cost``).  The second-order dynamics tensors are differenced
from the Jacobians, each of them such an expansion, and tested once more
as ``dynamics_jacobians``.  A rollout turns the error into an infinite
cost, a negative-time prefix into an empty one, and an MPC replan into a
degraded step.  A differenced expansion takes its slopes through one
central-difference routine and evaluates all of its points before its
test: an infinite value on both sides of a point differences to a NaN,
which that test rejects.  ``check_derivatives`` raises nothing for a
non-finite derivative; its report lists that entry as a failure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

# Finite-difference step sizes (relative, floored).  First derivatives use
# h = max(1e-6, 1e-6*|coord|); second derivatives h = max(1e-4, 1e-4*|coord|).
FD_STEP_FIRST = 1e-6
FD_STEP_SECOND = 1e-4

DERIVATIVE_CHECK_TOL = 1e-4


class ExpansionError(FloatingPointError):
    """A cost or dynamics expansion came out non-finite.  Each expansion
    tests its own output once, and the message names the analytic
    derivative method, or the evaluation a fallback differenced."""


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def check_count(name: str, value, low: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer >= low."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}")


def check_range(name: str, value, low: int) -> tuple:
    """``(lo, hi)`` as ints from a pair of integers low <= lo <= hi; raise
    ValueError naming ``name`` for anything else."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of integers") from None
    check_count(name, lo, low)
    check_count(name, hi, lo)
    return int(lo), int(hi)


def check_nonnegative(name: str, value, positive: bool = False) -> float:
    """value as a float; raises ValueError naming ``name`` unless it is a
    finite real >= 0, or > 0 with ``positive``.  This is the one rule for
    every numeric parameter: NaN, infinities, booleans and strings are
    rejected, as ``check_count`` rejects a boolean."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (0 < value if positive else 0 <= value) and value < math.inf):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}")
    return float(value)


def _finite_array(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float array of the given shape with finite real entries;
    raises ValueError naming it, for strings and booleans too.  A None in
    ``shape`` admits any length on that axis."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):
        a = None
    fits = a is not None and a.ndim == len(shape) and all(
        want in (None, got) for want, got in zip(shape, a.shape))
    if not fits or a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        what = (f"{shape[0]} finite numbers" if len(shape) == 1
                else "a matrix of finite numbers" if None in shape
                else f"a {shape[0]}x{shape[1]} matrix of finite numbers")
        raise ValueError(f"{name} must be {what}")
    return a.astype(float, copy=False)


def _frozen_array(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _setstate_frozen(self, state: dict) -> None:
    """``__setstate__`` of a frozen record: restore a pickled or
    deep-copied object, its arrays read-only again, as numpy hands their
    copies back writable."""
    for name, value in state.items():
        object.__setattr__(self, name, _frozen_array(value)
                           if isinstance(value, np.ndarray) else value)


def from_fields(cls, doc: dict, what: str):
    """``cls(**doc)`` for a dataclass ``cls`` built from a config document;
    raises ValueError naming each key of ``doc`` that is not a field, and
    each field without a default that ``doc`` lacks."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    known = [f for f in fields(cls) if f.init]
    unknown = sorted(set(doc) - {f.name for f in known})
    missing = [f.name for f in known if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    problems = []
    if unknown:
        problems.append(f"unknown {what} fields: {unknown}")
    if missing:
        problems.append(f"missing {what} fields: {missing}")
    if problems:
        raise ValueError("; ".join(problems))
    return cls(**doc)


class SystemModel:
    """Discrete-time system with running and terminal cost.

    Subclasses must set ``dim_x``/``dim_u`` and implement :meth:`step`,
    :meth:`running_cost` and :meth:`terminal_cost`.  Analytic derivatives
    are optional; expansions fall back to central finite differences.
    Models are immutable after construction and safe to share.
    """

    dim_x: int
    dim_u: int

    #: whether ``running_cost``, ``running_cost_derivatives`` and
    #: ``dynamics_jacobians`` also take states (N, dim_x) and controls
    #: (N, dim_u) and return each result with a leading knot axis; such a
    #: model must provide both derivative methods analytically
    stacked_derivatives: bool = False

    # -- required interface -------------------------------------------------

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def running_cost(self, x: np.ndarray, u: np.ndarray) -> float:
        raise NotImplementedError

    def terminal_cost(self, x: np.ndarray) -> float:
        raise NotImplementedError

    # -- optional analytic derivatives (return None to use differencing) ----

    def dynamics_jacobians(self, x, u):
        """Return (f_x, f_u) or None."""
        return None

    def running_cost_derivatives(self, x, u):
        """Return (l_x, l_u, l_xx, l_ux, l_uu) or None."""
        return None

    def terminal_cost_derivatives(self, x):
        """Return (phi_x, phi_xx) or None."""
        return None

    # -- optional hooks ------------------------------------------------------

    def admissible(self, x) -> bool:
        """Whether x lies in the region the derivative checks sample from
        (the CLI ``check`` command, acceptance criterion 8) and a chain of
        preimage guesses must stay in; ``rollout`` does not enforce it."""
        return bool(np.all(np.isfinite(x)))

    def nominal_control(self, x) -> np.ndarray:
        """Control used to seed initial trajectories (zero unless overridden)."""
        return np.zeros(self.dim_u)

    def inverse_step(self, x_next: np.ndarray, u: np.ndarray) -> np.ndarray:
        """A guess at the x with ``step(x, u) = x_next``; this base version
        raises NotImplementedError, so the solver prices no horizon above
        the current one for a model without a guess.

        The guess need not be exact: the backward sweep carries its defect
        ``step(x, u) - x_next``, so it only has to lie close enough to the
        preimage for the quadratic model around it to price the longer
        horizons.  A model that can invert its map exactly should.
        """
        raise NotImplementedError

    __setstate__ = _setstate_frozen


@dataclass(frozen=True, eq=False)
class CostExpansion:
    """Quadratic running-cost model at a nominal pair, or at a stack of
    pairs with a leading knot axis on every field."""

    l: float | np.ndarray
    l_x: np.ndarray
    l_u: np.ndarray
    l_xx: np.ndarray
    l_ux: np.ndarray
    l_uu: np.ndarray


@dataclass(frozen=True, eq=False)
class DynamicsExpansion:
    """Local dynamics model: Jacobians, optional second-order tensors.

    Tensor index convention: ``f_xx[i, j, k] = d2 f_i / dx_j dx_k``,
    ``f_ux[i, j, k] = d2 f_i / du_j dx_k``, ``f_uu[i, j, k] = d2 f_i / du_j du_k``.
    """

    f_x: np.ndarray
    f_u: np.ndarray
    f_xx: np.ndarray | None = None
    f_ux: np.ndarray | None = None
    f_uu: np.ndarray | None = None


# ---------------------------------------------------------------------------
# finite differencing
# ---------------------------------------------------------------------------


def _slopes(fun, v, rel):
    """Central differences of ``fun`` along each coordinate k of v's last
    axis, with step h_k = max(rel, rel*|v_k|), stacked on a new last axis:
    the Jacobian of a function of a vector, or a scalar function's
    gradient.  v may carry leading knot axes, which ``fun`` keeps in front
    of its own."""
    v = np.asarray(v, dtype=float)
    h = np.maximum(rel, rel * np.abs(v))
    cols = []
    # an inf on both sides differences to the NaN the caller's test rejects
    with np.errstate(invalid="ignore"):
        for k in range(v.shape[-1]):
            e = np.zeros_like(v)
            e[..., k] = h[..., k]
            fp, fm = (np.asarray(fun(p), dtype=float) for p in (v + e, v - e))
            # 2 h_k per knot, broadcast over the axes of fun's value
            step = 2.0 * h[..., k].reshape(h.shape[:-1]
                                           + (1,) * (fp.ndim - v.ndim + 1))
            cols.append((fp - fm) / step)
    return np.stack(cols, axis=-1)


def _fd_gradient_hessian(fun, v):
    """Central-difference gradient and Hessian of a scalar function of a
    vector: the gradient by ``_slopes`` with FD_STEP_FIRST, the Hessian by
    the four-point stencil with steps max(FD_STEP_SECOND,
    FD_STEP_SECOND*|v_i|)."""
    v = np.asarray(v, dtype=float)
    g = _slopes(fun, v, FD_STEP_FIRST)
    n = v.size
    h = np.maximum(FD_STEP_SECOND, FD_STEP_SECOND * np.abs(v))
    f0 = fun(v)
    H = np.zeros((n, n))
    with np.errstate(invalid="ignore"):
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h[i]
            H[i, i] = (fun(v + ei) - 2.0 * f0 + fun(v - ei)) / (h[i] ** 2)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h[j]
                H[i, j] = H[j, i] = (
                    fun(v + ei + ej) - fun(v + ei - ej) - fun(v - ei + ej)
                    + fun(v - ei - ej)) / (4.0 * h[i] * h[j])
    return g, H


def _fd_dynamics_jacobians(model: SystemModel, x, u):
    n = np.size(x)
    J = _slopes(lambda z: model.step(z[:n], z[n:]), np.concatenate([x, u]),
                FD_STEP_FIRST)
    return J[:, :n], J[:, n:]


def _fd_cost_derivatives(model: SystemModel, x, u):
    n = np.size(x)
    g, H = _fd_gradient_hessian(lambda z: model.running_cost(z[:n], z[n:]),
                                np.concatenate([x, u]))
    return g[:n], g[n:], sym(H[:n, :n]), H[n:, :n], sym(H[n:, n:])


def _fd_terminal_derivatives(model: SystemModel, x):
    phi_x, phi_xx = _fd_gradient_hessian(model.terminal_cost, x)
    return phi_x, sym(phi_xx)


# each optional derivative method: its central-difference fallback, the
# evaluation that fallback differences, and the names of its outputs
_OPTIONAL_DERIVATIVES = {
    "dynamics_jacobians": (_fd_dynamics_jacobians, "step", ("f_x", "f_u")),
    "running_cost_derivatives": (_fd_cost_derivatives, "running_cost",
                                 ("l_x", "l_u", "l_xx", "l_ux", "l_uu")),
    "terminal_cost_derivatives": (_fd_terminal_derivatives, "terminal_cost",
                                  ("phi_x", "phi_xx")),
}


def _require_finite(name: str, *values) -> list:
    """values as float arrays; raises ExpansionError naming ``name`` unless
    every entry is finite."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise ExpansionError(f"non-finite value from {name}")
    return arrays


def _derivatives(model: SystemModel, method: str, *args) -> list:
    """``model.<method>(*args)`` as float arrays or, when the model returns
    None, the central differences of the evaluation that method
    differentiates; an expansion's one test, naming the method or the
    differenced evaluation."""
    value = getattr(model, method)(*args)
    if value is None:
        fallback, method, _ = _OPTIONAL_DERIVATIVES[method]
        value = fallback(model, *args)
    return _require_finite(method, *value)


def running_costs(model: SystemModel, states, controls) -> list:
    """Running cost of each knot of states (N, n) and controls (N, m), as
    floats in knot order: one stacked call when the model declares
    ``stacked_derivatives``, one call per knot otherwise.  A path's total
    is added up in one place, ``trajectory._path_cost``."""
    if model.stacked_derivatives:
        return np.asarray(model.running_cost(states, controls),
                          dtype=float).tolist()
    return [model.running_cost(x, u) for x, u in zip(states, controls)]


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


def _knot_by_knot(expand, model: SystemModel, x, u, *args):
    """``expand(model, x_i, u_i, *args)`` at each knot of states (N, n) and
    controls (N, m), its fields stacked along a leading knot axis (a field
    that is None stays None): how a model without ``stacked_derivatives``
    expands stacked knots."""
    knots = [expand(model, xi, ui, *args) for xi, ui in zip(x, u)]
    columns = zip(*([getattr(k, f.name) for f in fields(k)] for k in knots))
    return type(knots[0])(*(None if c[0] is None else np.array(c)
                            for c in columns))


def expand_cost(model: SystemModel, x, u) -> CostExpansion:
    """Quadratic expansion of the running cost at (x, u).

    Given states (N, n) and controls (N, m), every field gains a leading
    knot axis: one vectorized call when the model declares
    ``stacked_derivatives``, one expansion per knot otherwise.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim == 2 and not model.stacked_derivatives:
        return _knot_by_knot(expand_cost, model, x, u)
    l, = _require_finite("running_cost at nominal", model.running_cost(x, u))
    l_x, l_u, l_xx, l_ux, l_uu = _derivatives(
        model, "running_cost_derivatives", x, u)
    # l[()] is a float at one knot and the (N,) array of stacked knots
    return CostExpansion(l=l[()], l_x=l_x, l_u=l_u, l_xx=sym(l_xx), l_ux=l_ux,
                         l_uu=sym(l_uu))


def expand_dynamics(model: SystemModel, x, u,
                    want_second_order: bool = False) -> DynamicsExpansion:
    """Expansion of the dynamics at (x, u).

    Given states (N, n) and controls (N, m), every field gains a leading
    knot axis, as in ``expand_cost``.  Second-order tensors are computed
    only on request (iLQR mode leaves them absent); they are differenced
    from the Jacobians, each of them tested as an expansion, and tested
    once as ``dynamics_jacobians``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim == 2 and not model.stacked_derivatives:
        return _knot_by_knot(expand_dynamics, model, x, u, want_second_order)
    f_x, f_u = _derivatives(model, "dynamics_jacobians", x, u)
    f_xx = f_ux = f_uu = None
    if want_second_order:
        f_xx, f_ux, f_uu = _require_finite(
            "dynamics_jacobians", *_dynamics_second_order(model, x, u))
    return DynamicsExpansion(f_x=f_x, f_u=f_u, f_xx=f_xx, f_ux=f_ux, f_uu=f_uu)


def _dynamics_second_order(model: SystemModel, x, u):
    """Second-order tensors as the slopes of [f_x | f_u] along each
    coordinate of z = (x, u), at one knot or at every knot of a leading
    axis at once."""
    n = x.shape[-1]

    def jacobians(z):
        return np.concatenate(_derivatives(
            model, "dynamics_jacobians", z[..., :n], z[..., n:]), axis=-1)

    d = _slopes(jacobians, np.concatenate([x, u], axis=-1), FD_STEP_SECOND)
    # d[..., i, j, k] is the slope of entry (i, j) of [f_x | f_u] along
    # z_k; symmetrize the Hessian slices
    return sym(d[..., :n, :n]), d[..., n:, :n], sym(d[..., n:, n:])


def expand_terminal(model: SystemModel, x):
    """Terminal-cost expansion: (phi, phi_x, phi_xx)."""
    x = np.asarray(x, dtype=float)
    phi, = _require_finite("terminal_cost at nominal", model.terminal_cost(x))
    phi_x, phi_xx = _derivatives(model, "terminal_cost_derivatives", x)
    return float(phi), phi_x, sym(phi_xx)


# ---------------------------------------------------------------------------
# derivative checking
# ---------------------------------------------------------------------------


@dataclass
class DerivativeReport:
    """Max relative discrepancy between analytic and differenced derivatives."""

    discrepancies: dict
    tol: float
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        for name, value in sorted(self.discrepancies.items()):
            mark = "ok" if value <= self.tol else "FAIL"
            lines.append(f"{name:8s} {value:10.3e}  {mark}")
        return "\n".join(lines)


def _rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def check_derivatives(model: SystemModel, samples,
                      tol: float = DERIVATIVE_CHECK_TOL) -> DerivativeReport:
    """Cross-check every analytic derivative the model provides against
    its central-difference fallback over the given (x, u) samples; the
    report names each output as ``_OPTIONAL_DERIVATIVES`` does."""
    worst: dict = {}

    def record(name, err):
        # np.maximum keeps a NaN that max(0.0, nan) would drop
        worst[name] = float(np.maximum(worst.get(name, 0.0), err))

    for x, u in samples:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        for method, (fd, evaluation, names) in _OPTIONAL_DERIVATIVES.items():
            # the terminal cost and its derivatives take the state alone
            args = (x,) if evaluation == "terminal_cost" else (x, u)
            analytic = getattr(model, method)(*args)
            if analytic is not None:
                for name, a, b in zip(names, analytic, fd(model, *args)):
                    record(name, _rel_err(a, b))

    failures = [name for name, value in worst.items() if not value <= tol]
    return DerivativeReport(discrepancies=worst, tol=tol, failures=sorted(failures))
