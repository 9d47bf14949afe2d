"""Backward sweep: quadratic value expansions and feedback-gain extraction.

Sweeps run from the terminal step of the nominal trajectory down through an
optional prefix of negative-time knots, so every candidate horizon in the
selection window has a value expansion and gains available.  Every knot is
linearized once, before the recursion: the expansions along a fixed nominal
do not depend on each other, and a regularization retry reuses them.

The prefix knots need not be dynamically feasible.  A prefix knot g carries
the defect d = step(x_g, u_g) - x_{g+1}, and its backup reads the next value
expansion re-centred on step(x_g, u_g), as multiple-shooting DDP does, so on
a linear-quadratic problem every price is exact whatever the prefix states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (CostExpansion, DynamicsExpansion, SystemModel,
                    expand_cost, expand_dynamics, expand_terminal, sym)
from .trajectory import Trajectory

# Q_uu regularization bounds: gamma never relaxes below the floor, and a
# sweep that still fails above the ceiling gives up
GAMMA_MIN = 1e-6
GAMMA_MAX = 1e6


class NeedsRegularization(RuntimeError):
    """Q_uu failed to factorize or the value recursion diverged; the sweep
    escalates gamma tenfold and retries."""


class BackwardSweepError(RuntimeError):
    """Factorization kept failing after exhausting the gamma schedule."""


@dataclass(frozen=True)
class ValueExpansion:
    """Quadratic value model around a nominal state."""

    V_xx: np.ndarray
    V_x: np.ndarray
    V_0: float

    def evaluate(self, dx: np.ndarray) -> float:
        dx = np.asarray(dx, dtype=float)
        return float(0.5 * dx @ self.V_xx @ dx + self.V_x @ dx + self.V_0)

    def shifted(self, d: np.ndarray) -> "ValueExpansion":
        """The same quadratic expanded around the nominal state plus d."""
        V_xx_d = self.V_xx @ d
        return ValueExpansion(
            V_xx=self.V_xx, V_x=self.V_x + V_xx_d,
            V_0=self.V_0 + float(d @ (self.V_x + 0.5 * V_xx_d)))


@dataclass(frozen=True)
class QExpansion:
    Q_xx: np.ndarray
    Q_ux: np.ndarray
    Q_uu: np.ndarray
    Q_x: np.ndarray
    Q_u: np.ndarray
    Q_0: float


@dataclass(frozen=True)
class BackwardResult:
    """Sweep output over t in [-prefix_len, T], row g = t + prefix_len.

    ``states`` (N+1 rows) and ``controls`` (N rows) are the extended
    nominal the sweep linearized along: the prefix, then the trajectory.
    ``V_xx``, ``V_x`` and ``V_0`` hold the value expansion at each of the
    N+1 states, and ``K``, ``k`` the gains of the N steps, so the policy at
    time t is ``u = controls[g] + alpha * k[g] + K[g] @ (x - states[g])``.
    """

    states: np.ndarray
    controls: np.ndarray
    V_xx: np.ndarray
    V_x: np.ndarray
    V_0: np.ndarray
    K: np.ndarray
    k: np.ndarray
    gamma_used: float
    prefix_len: int

    def value_at(self, t: int) -> ValueExpansion:
        g = t + self.prefix_len
        return ValueExpansion(V_xx=self.V_xx[g], V_x=self.V_x[g],
                              V_0=float(self.V_0[g]))

    def max_feedforward(self, t0: int = 0) -> float:
        """Largest ||k_t||_inf over the policy from t0 onward."""
        return float(np.max(np.abs(self.k[t0 + self.prefix_len:]), initial=0.0))


def q_expansion(cost, dyn, nxt: ValueExpansion) -> QExpansion:
    """Bellman-backup quadratic model of one step plus the next value.

    The second-order dynamics terms are added when ``dyn`` carries them.
    """
    fx, fu = dyn.f_x, dyn.f_u
    Vxx, Vx = nxt.V_xx, nxt.V_x
    fu_Vxx = fu.T @ Vxx
    Q_xx = cost.l_xx + fx.T @ Vxx @ fx
    Q_ux = cost.l_ux + fu_Vxx @ fx
    Q_uu = cost.l_uu + fu_Vxx @ fu
    Q_x = cost.l_x + fx.T @ Vx
    Q_u = cost.l_u + fu.T @ Vx
    Q_0 = cost.l + nxt.V_0
    if dyn.f_xx is not None:
        Q_xx = Q_xx + np.tensordot(Vx, dyn.f_xx, axes=1)
        Q_ux = Q_ux + np.tensordot(Vx, dyn.f_ux, axes=1)
        Q_uu = Q_uu + np.tensordot(Vx, dyn.f_uu, axes=1)
    return QExpansion(Q_xx=sym(Q_xx), Q_ux=Q_ux, Q_uu=sym(Q_uu),
                      Q_x=Q_x, Q_u=Q_u, Q_0=float(Q_0))


def _min_eig(M: np.ndarray) -> float:
    # closed forms for the common tiny control dimensions
    if M.shape[0] == 1:
        return M.item()
    if M.shape[0] == 2:
        (a, b), (c, d) = M.tolist()
        disc = (0.5 * (a - d)) ** 2 + b * c
        return 0.5 * (a + d) - math.sqrt(max(disc, 0.0))
    return float(np.linalg.eigvalsh(M)[0])


def regularize(q: QExpansion, gamma: float) -> QExpansion:
    """Lift the smallest eigenvalue of Q_uu to at least gamma."""
    # an infinite gamma zeroes every gain and never relaxes again
    if not 0.0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and >= 0")
    lam_min = _min_eig(q.Q_uu)
    shift = max(0.0, gamma - lam_min)
    if shift == 0.0:
        return q
    Q_uu = q.Q_uu + shift * np.eye(q.Q_uu.shape[0])
    return QExpansion(Q_xx=q.Q_xx, Q_ux=q.Q_ux, Q_uu=Q_uu,
                      Q_x=q.Q_x, Q_u=q.Q_u, Q_0=q.Q_0)


def _neg_inverse(Q_uu: np.ndarray) -> np.ndarray:
    """-Q_uu^-1 of a 1x1 or 2x2 Q_uu in closed form, reading its lower
    triangle as Cholesky does; raises NeedsRegularization unless Q_uu is
    positive definite, which a NaN entry is not."""
    if Q_uu.shape[0] == 1:
        a = det = Q_uu.item()
        neg_adj = [[-1.0]]
    else:
        (a, _), (b, d) = Q_uu.tolist()
        det = a * d - b * b
        neg_adj = [[-d, b], [b, -a]]
    if not (a > 0 and det > 0):
        raise NeedsRegularization("Q_uu is not positive definite")
    return np.array(neg_adj) / det


def value_recurrence(q: QExpansion):
    """Minimize the Q model over the control to get (value, K, k)."""
    # closed forms for the common tiny control dimensions, as in _min_eig
    if q.Q_uu.shape[0] <= 2:
        neg_inv = _neg_inverse(q.Q_uu)
        K, k = neg_inv @ q.Q_ux, neg_inv @ q.Q_u
    else:
        # the Cholesky factor only tests definiteness: numpy has no
        # triangular solve, so the small system is factored again to solve it.
        # A NaN entry yields a NaN factor instead of an error
        try:
            factor = np.linalg.cholesky(q.Q_uu)
        except np.linalg.LinAlgError:
            factor = None
        if factor is None or not np.isfinite(factor).all():
            raise NeedsRegularization("Q_uu is not positive definite")
        sol = np.linalg.solve(q.Q_uu, np.column_stack([q.Q_ux, q.Q_u]))
        K, k = -sol[:, :-1], -sol[:, -1]
    V_xx = sym(q.Q_xx + q.Q_ux.T @ K)           # Q_xx - Q_ux' Quu^-1 Q_ux
    V_x = q.Q_x + q.Q_ux.T @ k                  # Q_x - Q_ux' Quu^-1 Q_u
    V_0 = q.Q_0 + 0.5 * float(q.Q_u @ k)        # Q_0 - 0.5 Q_u' Quu^-1 Q_u
    return ValueExpansion(V_xx=V_xx, V_x=V_x, V_0=V_0), K, k


def _linearize(model: SystemModel, states, controls, second_order):
    """Per-knot (cost, dynamics) expansions at stacked states and controls."""
    cost = expand_cost(model, states, controls)
    costs = [CostExpansion(*knot) for knot in zip(
        cost.l, cost.l_x, cost.l_u, cost.l_xx, cost.l_ux, cost.l_uu)]
    if model.stacked_derivatives and not second_order:
        f_x, f_u = model.dynamics_jacobians(states, controls)
        dyns = [DynamicsExpansion(f_x=a, f_u=b) for a, b in
                zip(np.asarray(f_x, dtype=float), np.asarray(f_u, dtype=float))]
    else:
        dyns = [expand_dynamics(model, x, u, want_second_order=second_order)
                for x, u in zip(states, controls)]
    return costs, dyns


def _sweep_once(costs, dyns, defects, terminal: ValueExpansion, gamma, out):
    """Fill the rows of ``out = (V_xx, V_x, V_0, K, k)`` below the terminal;
    row i < len(defects) backs up the next value shifted by defects[i]."""
    V_xx, V_x, V_0, K, k = out
    nxt = terminal
    for i in range(len(costs) - 1, -1, -1):
        if i < len(defects):
            nxt = nxt.shifted(defects[i])
        q = regularize(q_expansion(costs[i], dyns[i], nxt), gamma)
        nxt, K[i], k[i] = value_recurrence(q)
        # a diverging recursion only gets worse; escalate gamma right away
        if not math.isfinite(nxt.V_0) or abs(nxt.V_xx).max() > 1e12:
            raise NeedsRegularization("value recursion diverged")
        V_xx[i], V_x[i], V_0[i] = nxt.V_xx, nxt.V_x, nxt.V_0


def backward_sweep(model: SystemModel, traj: Trajectory, prefix,
                   gamma: float = GAMMA_MIN,
                   second_order: bool = False) -> BackwardResult:
    """Value expansions and gains for t from the terminal step down to -S.

    ``prefix`` is a (states, controls) pair of negative-time knots ordered
    t = -S..-1 (both may be empty), whose defects the sweep carries; the
    nominal trajectory must be feasible.  The prefix and nominal knots are
    linearized in one stacked call, and the S defects take one ``step``
    each; on factorization failure gamma is escalated tenfold, and from at
    least GAMMA_MIN, until it exceeds GAMMA_MAX, reusing both.
    """
    n, m = model.dim_x, model.dim_u
    pre_states, pre_controls = prefix
    pre_states = np.asarray(pre_states, dtype=float).reshape(-1, n)
    pre_controls = np.asarray(pre_controls, dtype=float).reshape(-1, m)
    if pre_states.shape[0] != pre_controls.shape[0]:
        raise ValueError("prefix states and controls must have equal length")
    states = np.vstack([pre_states, traj.states])
    controls = np.vstack([pre_controls, traj.controls])
    N = controls.shape[0]
    phi, phi_x, phi_xx = expand_terminal(model, traj.states[-1])
    terminal = ValueExpansion(V_xx=phi_xx, V_x=phi_x, V_0=phi)
    costs, dyns = _linearize(model, states[:-1], controls, second_order)
    defects = [model.step(x, u) - x_next for x, u, x_next
               in zip(pre_states, pre_controls, states[1:])]

    V_xx, V_x, V_0 = np.empty((N + 1, n, n)), np.empty((N + 1, n)), np.empty(N + 1)
    V_xx[N], V_x[N], V_0[N] = phi_xx, phi_x, phi
    K, k = np.empty((N, m, n)), np.empty((N, m))
    g = float(gamma)
    while True:
        try:
            _sweep_once(costs, dyns, defects, terminal, g,
                        (V_xx, V_x, V_0, K, k))
            break
        except NeedsRegularization:
            g = max(10.0 * g, GAMMA_MIN)
            if g > GAMMA_MAX:
                raise BackwardSweepError(
                    f"backward sweep failed up to gamma = {GAMMA_MAX:g}") from None

    return BackwardResult(states=states, controls=controls, V_xx=V_xx,
                          V_x=V_x, V_0=V_0, K=K, k=k, gamma_used=g,
                          prefix_len=pre_states.shape[0])
