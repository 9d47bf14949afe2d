"""Exact one-pass solution of the linear-quadratic optimal-horizon problem.

For time-invariant linear dynamics with quadratic costs the cost-to-go with
``s`` steps remaining is ``0.5 * x' P[s] x`` where P follows the discrete
Riccati recursion.  Because the recursion only depends on steps-to-go, a
single backward sweep up to the largest admissible horizon prices every
candidate horizon at once.  The per-step cost c_t never couples to the
state, so a horizon T costs ``0.5 * x0' P[T] x0 + c_t * T``: the horizon
curve and the LQR rollout charge it per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (_finite_array, _frozen_array, _setstate_frozen,
                    check_nonnegative, check_range, sym)

_SYM_TOL = 1e-10
_PSD_TOL = 1e-10


class IllPosedStepError(RuntimeError):
    """The control-weight system (R + B'PB) could not be factorized."""


def _check_weight(M, name, semidefinite):
    """Raise unless M is square, symmetric and positive definite; with
    ``semidefinite``, positive semidefinite to round-off."""
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got {M.shape}")
    if np.max(np.abs(M - M.T)) > _SYM_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")
    lam = np.linalg.eigvalsh(sym(M))
    floor = -_PSD_TOL * max(1.0, abs(lam[-1])) if semidefinite else 0.0
    if not lam[0] > floor:
        kind = "semidefinite" if semidefinite else "definite"
        raise ValueError(f"{name} must be positive {kind} "
                         f"(min eigenvalue {lam[0]:.3e})")


@dataclass(frozen=True, eq=False)
class LtiProblem:
    """LQR data with a horizon window [t_min, t_max] and a time penalty c_t."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Qf: np.ndarray
    horizon_bounds: tuple[int, int]
    c_t: float = 0.0

    # a pickled or deep-copied problem keeps its matrices read-only
    __setstate__ = _setstate_frozen

    def __post_init__(self):
        for name in ("A", "B", "Q", "R", "Qf"):
            M = _finite_array(getattr(self, name), (None, None), name)
            object.__setattr__(self, name, _frozen_array(M))
        object.__setattr__(self, "horizon_bounds", check_range(
            "horizon_bounds", self.horizon_bounds, 1))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B row count must equal the state dimension")
        _check_weight(self.Q, "Q", semidefinite=True)
        _check_weight(self.Qf, "Qf", semidefinite=True)
        _check_weight(self.R, "R", semidefinite=False)
        check_nonnegative("c_t", self.c_t)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def lqr_gain(Pnext: np.ndarray, problem: LtiProblem) -> np.ndarray:
    """Feedback gain K = (R + B'PB)^-1 B'PA, with u = -K x, for the given
    next-step value matrix; IllPosedStepError when R + B'PB is not finite
    or does not factorize."""
    A, B, R = problem.A, problem.B, problem.R
    BtP = B.T @ sym(np.asarray(Pnext, dtype=float))
    M = sym(R + BtP @ B)
    # numpy's Cholesky returns NaN factors for a NaN matrix without raising
    if not np.isfinite(M).all():
        raise IllPosedStepError("ill-posed step: R + B'PB is not finite")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        lam = np.linalg.eigvalsh(M)
        raise IllPosedStepError(
            f"ill-posed step: R + B'PB not positive definite "
            f"(eigenvalues in [{lam[0]:.3e}, {lam[-1]:.3e}])") from exc
    return np.linalg.solve(M, BtP @ A)


def riccati_step(Pnext: np.ndarray, problem: LtiProblem) -> np.ndarray:
    """One backward step of the discrete Riccati recursion."""
    A = problem.A
    Pnext = sym(np.asarray(Pnext, dtype=float))
    BtPA = problem.B.T @ Pnext @ A
    return sym(A.T @ Pnext @ A - BtPA.T @ lqr_gain(Pnext, problem) + problem.Q)


def riccati_sweep(problem: LtiProblem) -> tuple:
    """Backward sweep from P[0] = Qf up to t_max steps-to-go: read-only
    value matrices indexed by steps-to-go, P[s] with s remaining steps."""
    P = [sym(problem.Qf)]
    for s in range(1, problem.horizon_bounds[1] + 1):
        try:
            P.append(riccati_step(P[-1], problem))
        except IllPosedStepError as exc:
            raise IllPosedStepError(f"at steps-to-go {s}: {exc}") from exc
    return tuple(_frozen_array(p) for p in P)


def lti_optimal_horizon(problem: LtiProblem, x0: np.ndarray):
    """Minimize J(T) = 0.5 x0' P[T] x0 + c_t T over the horizon window.

    Returns (T_star, J_star, curve) with curve a list of (T, J) pairs;
    ties break toward the smaller horizon.
    """
    x0 = np.asarray(x0, dtype=float)
    seq = riccati_sweep(problem)
    t_min, t_max = problem.horizon_bounds
    curve = [(T, 0.5 * float(x0 @ seq[T] @ x0) + problem.c_t * T)
             for T in range(t_min, t_max + 1)]
    t_star, j_star = min(curve, key=lambda entry: entry[1])
    return t_star, j_star, curve


def lqr_rollout_cost(problem: LtiProblem, x0: np.ndarray, T: int) -> float:
    """Cost of rolling out the LQR feedback law for T steps from x0,
    charging c_t per step."""
    seq = riccati_sweep(problem)
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for t in range(T):
        K = lqr_gain(seq[T - t - 1], problem)
        u = -K @ x
        total += 0.5 * float(x @ problem.Q @ x + u @ problem.R @ u)
        x = problem.A @ x + problem.B @ u
    total += 0.5 * float(x @ problem.Qf @ x)
    return total + problem.c_t * T
