"""Backward sweep: quadratic value expansions and feedback-gain extraction.

Sweeps run from the terminal step of the nominal trajectory down through an
optional prefix of negative-time knots, so every candidate horizon in the
selection window has a value expansion and gains available.  Every knot is
linearized once, before the recursion: the expansions along a fixed nominal
do not depend on each other, and a regularization retry reuses them.

A retry also reuses the backups above the first knot the new gamma lifts.
A knot's backup depends only on its cost block C, its dynamics block F, the
successor value block P and, through the lift alone, on gamma.  Each knot
records a floor, a gamma up to which ``regularize`` provably leaves its
Q_uu unlifted: lambda_min when the shift was 0, the attempt's own gamma
when Gershgorin proved it, -inf when lifted.  When the attempt at gamma
fails at row f, the retry at gamma' starts at the highest row above f whose
floor is not at least gamma', or at f itself.  Every row above that start
has a floor of at least gamma' and, by induction down from the terminal,
the same successor, so a restart from the terminal would back it up to the
same bits; the failed row is always backed up again.

A replan reads its first sweep off the sweep its previous solve ended on.
``BackwardResult.tail`` returns that record from the row at which the
replan's trajectory starts, with no prefix, when the same model object
made it, in the same mode, at the replan's gamma, and the trajectory is
the tail of its nominal to the bit.  A sweep of that tail at that gamma
would give the same rows: by the rule above, every row holds the bits of
a backup at ``gamma_used`` from the same terminal block, and the rows of
a tail depend on nothing below it.  A solve carries its sweep only when it
ended at the stationarity test, on the gamma that sweep used (see
``solver.py``), and a replan builds no prefix, so the tail serves as its
first pass's sweep.

Each quadratic is one symmetric block in homogeneous coordinates, with a
constant 1 appended to the state (Tassa, Erez & Todorov, IROS 2012).  Over
z = (dx, 1) the value is V(dx) = 1/2 z'Pz with

    P = [[V_xx, V_x], [V_x', 2 V_0]],

and over w = (dx, 1, du) a knot's running cost is 1/2 w'Cw and its
linearized step z_next = F w, with

    C = [[l_xx, l_x, l_ux'], [l_x', 2 l, l_u'], [l_ux, l_u, l_uu]],
    F = [[f_x, 0, f_u], [0, 1, 0]].

The backup of one knot is then Q = C + F'PF (plus V_x . f_** in
second-order mode), and one Schur complement of its control block,
[K | k] = -Q_uu^-1 Q_u(x,1) and P = Q_zz + Q_zu [K | k], gives the gains
and all three value terms at once; P is symmetrized once per knot.

For m >= 3 controls, ``regularize`` first bounds the spectrum of Q_uu by
Gershgorin's circle theorem (Golub & Van Loan, Matrix Computations, 7.2)
on its lower triangle, the one eigvalsh and cholesky read.  When every
disc lies above gamma, lambda_min > gamma is proven: the lift is 0, so
eigvalsh is skipped, and the proof rides on the returned QExpansion so
that ``value_recurrence`` skips its Cholesky test; both give the same
result to the bit as the full path.  m <= 2 keeps its closed forms.

The prefix knots need not be dynamically feasible.  A prefix knot g carries
the defect d = step(x_g, u_g) - x_{g+1}, which is the affine column of its
linearized step, F = [[f_x, d, f_u], [0, 1, 0]], as in multiple-shooting
DDP (Giftthaler et al., IROS 2018): dx_next = f_x dx + f_u du + d.  The
sweep writes it once, and every knot, prefix or not, backs up with the
same Q = C + F'PF; second-order terms are weighted by the value gradient
at the successor, V_x + V_xx d.  On a linear-quadratic problem every price
is then exact whatever the prefix states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (CostExpansion, DynamicsExpansion, SystemModel,
                    expand_cost, expand_dynamics, expand_terminal)
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


def _block(xx, x, ux, u, uu, c):
    """The symmetric block [[xx, x, ux'], [x', 2c, u'], [ux, u, uu]] over
    (dx, 1, du), or a stack of them when the terms carry a leading axis."""
    n, m = np.shape(x)[-1], np.shape(u)[-1]
    B = np.empty(np.shape(c) + (n + 1 + m, n + 1 + m))
    B[..., :n, :n] = xx
    B[..., :n, n] = B[..., n, :n] = x
    B[..., n, n] = 2.0 * c
    B[..., n + 1:, :n] = ux
    B[..., :n, n + 1:] = np.swapaxes(ux, -1, -2)
    B[..., n + 1:, n] = B[..., n, n + 1:] = u
    B[..., n + 1:, n + 1:] = uu
    return B


def _cost_block(cost: CostExpansion) -> np.ndarray:
    """C of a running-cost expansion, stacked if its fields are."""
    return _block(cost.l_xx, cost.l_x, cost.l_ux, cost.l_u, cost.l_uu, cost.l)


def _dynamics_block(dyn: DynamicsExpansion):
    """(F, F2) of a dynamics expansion, stacked if its fields are: F maps
    (dx, 1, du) to (dx_next, 1), and F2[i] holds the second derivatives of
    output i in the same layout, or is None without them."""
    n, m = np.shape(dyn.f_u)[-2:]
    lead = np.shape(dyn.f_x)[:-2]
    F = np.zeros(lead + (n + 1, n + 1 + m))
    F[..., :n, :n] = dyn.f_x
    F[..., :n, n + 1:] = dyn.f_u
    F[..., n, n] = 1.0
    if dyn.f_xx is None:
        return F, None
    F2 = np.zeros(lead + (n, n + 1 + m, n + 1 + m))
    F2[..., :n, :n] = dyn.f_xx
    F2[..., n + 1:, :n] = dyn.f_ux
    F2[..., :n, n + 1:] = np.swapaxes(dyn.f_ux, -1, -2)
    F2[..., n + 1:, n + 1:] = dyn.f_uu
    return F, F2


class ValueExpansion:
    """Quadratic value model around a nominal state, held as the block
    ``P = [[V_xx, V_x], [V_x', 2 V_0]]``; the fields read its blocks."""

    __slots__ = ("P",)

    def __init__(self, V_xx, V_x, V_0):
        n = np.shape(V_x)[0]
        self.P = P = np.empty((n + 1, n + 1))
        P[:n, :n] = V_xx
        P[:n, n] = P[n, :n] = V_x
        P[n, n] = 2.0 * V_0

    @classmethod
    def of_block(cls, P: np.ndarray) -> "ValueExpansion":
        value = object.__new__(cls)
        value.P = P
        return value

    V_xx = property(lambda self: self.P[:-1, :-1])
    # the last row, not the column: P is symmetric, and a contiguous vector
    # rounds its products as the stacked pricing does
    V_x = property(lambda self: self.P[-1, :-1])
    V_0 = property(lambda self: 0.5 * float(self.P[-1, -1]))

    def evaluate(self, dx: np.ndarray) -> float:
        dx = np.asarray(dx, dtype=float)
        return float(0.5 * dx @ self.V_xx @ dx + self.V_x @ dx + self.V_0)


class QExpansion:
    """Quadratic model of one step's cost plus the next value, held as the
    block ``Q = [[Q_xx, Q_x, Q_xu], [Q_x', 2 Q_0, Q_u'], [Q_ux, Q_u, Q_uu]]``
    over (dx, 1, du); the fields read its blocks."""

    # _definite: regularize proved Q_uu positive definite; floor: a gamma up
    # to which regularize provably leaves Q_uu unlifted, -inf until it has
    __slots__ = ("Q", "n", "_definite", "floor")

    def __init__(self, Q_xx, Q_ux, Q_uu, Q_x, Q_u, Q_0):
        self.Q = _block(Q_xx, Q_x, Q_ux, Q_u, Q_uu, Q_0)
        self.n = np.shape(Q_x)[0]
        self._definite = False
        self.floor = -math.inf

    @classmethod
    def of_block(cls, Q: np.ndarray, n: int, definite: bool = False,
                 floor: float = -math.inf) -> "QExpansion":
        q = object.__new__(cls)
        q.Q, q.n, q._definite, q.floor = Q, n, definite, floor
        return q

    Q_xx = property(lambda self: self.Q[:self.n, :self.n])
    Q_ux = property(lambda self: self.Q[self.n + 1:, :self.n])
    Q_uu = property(lambda self: self.Q[self.n + 1:, self.n + 1:])
    Q_x = property(lambda self: self.Q[:self.n, self.n])
    Q_u = property(lambda self: self.Q[self.n + 1:, self.n])
    Q_0 = property(lambda self: 0.5 * float(self.Q[self.n, self.n]))


@dataclass(frozen=True, eq=False)
class BackwardResult:
    """Sweep output over t in [-prefix_len, T], row g = t + prefix_len.

    ``states`` (N+1 rows) and ``controls`` (N rows) are the extended
    nominal the sweep linearized along: the prefix, then the trajectory,
    both read-only.
    ``P`` holds the value block at each of the N+1 states, read through
    ``V_xx``, ``V_x`` and ``V_0``, and ``K``, ``k`` the gains of the N
    steps, so the policy at time t is
    ``u = controls[g] + alpha * k[g] + K[g] @ (x - states[g])``.
    ``second_order`` is the mode and ``model`` the model the sweep
    linearized, which ``tail`` tests.  ``backups`` counts the knots its
    attempts backed up, a regularization retry's included, and is 0 on a
    ``tail``, which backs up none.
    """

    states: np.ndarray
    controls: np.ndarray
    P: np.ndarray
    K: np.ndarray
    k: np.ndarray
    gamma_used: float
    prefix_len: int
    second_order: bool = False
    model: SystemModel | None = None
    backups: int = 0

    V_xx = property(lambda self: self.P[:, :-1, :-1])
    V_x = property(lambda self: self.P[:, -1, :-1])
    V_0 = property(lambda self: self.P[:, -1, -1] / 2)

    def value_at(self, t: int) -> ValueExpansion:
        return ValueExpansion.of_block(self.P[t + self.prefix_len])

    def max_feedforward(self) -> float:
        """Largest ||k_t||_inf over the nominal's own steps, t >= 0: the
        feedforward of the policy at T-bar, without the prefix."""
        return float(np.max(np.abs(self.k[self.prefix_len:]), initial=0.0))

    def tail(self, model: SystemModel, traj: Trajectory, gamma: float,
             second_order: bool) -> "BackwardResult | None":
        """This sweep from the row at which ``traj`` starts on, with no
        prefix: the sweep of ``traj`` at ``gamma`` in that mode to the bit
        (see the module docstring).  None unless ``model`` is the model
        object this sweep linearized, in the same mode, at ``gamma_used ==
        gamma``, and ``traj`` is the tail of its nominal to the bit."""
        r0 = self.controls.shape[0] - traj.horizon
        if not (model is self.model and second_order == self.second_order
                and gamma == self.gamma_used and r0 >= 0
                and np.array_equal(self.controls[r0:], traj.controls)
                and np.array_equal(self.states[r0:], traj.states)):
            return None
        return replace(self, states=self.states[r0:],
                       controls=self.controls[r0:], P=self.P[r0:],
                       K=self.K[r0:], k=self.k[r0:], prefix_len=0,
                       backups=0)


def q_expansion(C: np.ndarray, dyn, nxt: ValueExpansion) -> QExpansion:
    """Bellman-backup quadratic model of one step plus the next value.

    ``C`` is the knot's cost block and ``dyn`` its pair (F, F2); the
    second-order dynamics terms are added when F2 is present, weighted by
    the value gradient at the successor, V_x + V_xx d.
    """
    F, F2 = dyn
    n = F.shape[0] - 1
    Q = F.T @ nxt.P @ F
    Q += C
    if F2 is not None:
        Q += np.tensordot(nxt.P[:n] @ F[:, n], F2, axes=1)
    return QExpansion.of_block(Q, n)


def _min_eig(M: np.ndarray) -> float:
    # closed forms for the common tiny control dimensions
    if M.shape[0] == 1:
        return M.item()
    if M.shape[0] == 2:
        (a, b), (c, d) = M.tolist()
        disc = (0.5 * (a - d)) ** 2 + b * c
        return 0.5 * (a + d) - math.sqrt(max(disc, 0.0))
    # eigvalsh may fail to converge on a non-finite matrix; NaN lifts
    # nothing, and the Cholesky test of value_recurrence rejects the block
    return float(np.linalg.eigvalsh(M)[0]) if np.isfinite(M).all() else math.nan


# relative slack of the Gershgorin test: far above the rounding of the bound
# and of eigvalsh and cholesky (a few ulps of the matrix scale), and far below
# GAMMA_MIN at the Q_uu scales of the benchmark models
_GERSHGORIN_SLACK = 1e-12


def _gershgorin_above(M: np.ndarray, gamma: float) -> bool:
    """Whether every Gershgorin disc of the symmetric matrix with M's lower
    triangle, the one eigvalsh and cholesky read, lies above gamma and
    above 0 (with a relative slack), which proves lambda_min > gamma.  A
    NaN entry fails the test: each row is compared on its own."""
    # plain loops over floats: a few microseconds, where eigvalsh and
    # cholesky each cost more than that in numpy's wrappers alone
    rows = M.tolist()
    m = len(rows)
    radii = [0.0] * m
    for i in range(1, m):
        row = rows[i]
        for j in range(i):
            a = abs(row[j])
            radii[i] += a
            radii[j] += a
    scale = sum(radii)
    for i in range(m):
        scale += abs(rows[i][i])
    bar = gamma + _GERSHGORIN_SLACK * scale
    for i in range(m):
        if not rows[i][i] - radii[i] > bar:
            return False
    return True


def regularize(q: QExpansion, gamma: float) -> QExpansion:
    """Lift the smallest eigenvalue of Q_uu to at least gamma, and record on
    the result a floor up to which gamma leaves it unlifted."""
    # an infinite gamma zeroes every gain and never relaxes again
    if not 0.0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and >= 0")
    Q_uu = q.Q_uu
    # for m >= 3, Gershgorin discs above gamma prove the shift is 0 without
    # eigvalsh, and let value_recurrence skip its Cholesky test
    if Q_uu.shape[0] > 2 and _gershgorin_above(Q_uu, gamma):
        return QExpansion.of_block(q.Q, q.n, definite=True, floor=gamma)
    lam = _min_eig(Q_uu)
    shift = max(0.0, gamma - lam)
    if shift == 0.0:
        q.floor = lam
        return q
    Q = q.Q.copy()
    Q[q.n + 1:, q.n + 1:] = Q_uu + shift * np.eye(Q_uu.shape[0])
    return QExpansion.of_block(Q, q.n)


def _neg_inverse(Q_uu: np.ndarray) -> np.ndarray:
    """-Q_uu^-1 of a 2x2 Q_uu in closed form, reading its lower triangle as
    Cholesky does; raises NeedsRegularization unless Q_uu is positive
    definite, which a NaN entry is not."""
    (a, _), (b, d) = Q_uu.tolist()
    det = a * d - b * b
    if not (a > 0 and det > 0):
        raise NeedsRegularization("Q_uu is not positive definite")
    return np.array([[-d / det, b / det], [b / det, -a / det]])


def value_recurrence(q: QExpansion):
    """Minimize the Q model over the control to get (value, K, k)."""
    Q, n = q.Q, q.n
    Q_uu, Q_uz = Q[n + 1:, n + 1:], Q[n + 1:, :n + 1]
    m = Q_uu.shape[0]
    # closed forms for the common tiny control dimensions, as in _min_eig;
    # the 1x1 gain is one scaling, the product of the 1x1 inverse with Q_uz
    if m == 1:
        a = Q.item(-1)
        if not a > 0:
            raise NeedsRegularization("Q_uu is not positive definite")
        Kk = (-1.0 / a) * Q_uz
    elif m == 2:
        Kk = _neg_inverse(Q_uu) @ Q_uz
    else:
        # the Cholesky factor only tests definiteness, unless regularize
        # proved it: numpy has no triangular solve, so the small system is
        # factored again to solve it.  A NaN entry yields a NaN factor
        # instead of an error, and a block lifted to exactly singular at
        # gamma = 0 may pass the factorization and fail the solve
        try:
            if not (q._definite or np.isfinite(np.linalg.cholesky(Q_uu)).all()):
                raise np.linalg.LinAlgError
            Kk = -np.linalg.solve(Q_uu, Q_uz)
        except np.linalg.LinAlgError:
            raise NeedsRegularization("Q_uu is not positive definite") from None
    # the Schur complement Q_zz - Q_zu Q_uu^-1 Q_uz gives V_xx, V_x and 2 V_0,
    # symmetrized in place: P += P.T buffers the overlapping operand
    P = Q[:n + 1, n + 1:] @ Kk
    P += Q[:n + 1, :n + 1]
    P += P.T
    P *= 0.5
    return ValueExpansion.of_block(P), Kk[:, :n], Kk[:, n]


def _linearize(model: SystemModel, states, controls, second_order):
    """The stacked cost blocks C, dynamics blocks F and second-order blocks
    F2 of the knots, F2 None in first-order mode."""
    if controls.shape[0] == 0:
        # a per-knot expansion of no knots has no shape to build blocks from
        n, w = model.dim_x, model.dim_x + 1 + model.dim_u
        return (np.empty((0, w, w)), np.zeros((0, n + 1, w)),
                np.zeros((0, n, w, w)) if second_order else None)
    C = _cost_block(expand_cost(model, states, controls))
    F, F2 = _dynamics_block(
        expand_dynamics(model, states, controls, second_order))
    return C, F, F2


def _sweep_once(costs, dyns, gamma, out, top):
    """Fill rows ``top`` down to 0 of ``out = (P, K, k, floors)`` from the
    value block P[top + 1], with each row's floor; a failed row's is -inf.
    Returns the failed row, which was backed up too, or None."""
    P, K, k, floors = out
    n = P.shape[1] - 1
    nxt = ValueExpansion.of_block(P[top + 1])
    try:
        for i in range(top, -1, -1):
            q = regularize(q_expansion(costs[i], dyns[i], nxt), gamma)
            nxt, K[i], k[i] = value_recurrence(q)
            P[i] = P_i = nxt.P
            # a diverging recursion only gets worse; escalate gamma right
            # away.  max() propagates a NaN, which fails the <= test
            if not (math.isfinite(P_i[n, n])
                    and abs(P_i[:n, :n]).max() <= 1e12):
                raise NeedsRegularization("value recursion diverged")
            floors[i] = q.floor
    except NeedsRegularization:
        floors[i] = -math.inf
        return i
    return None


def backward_sweep(model: SystemModel, traj: Trajectory, prefix,
                   gamma: float = GAMMA_MIN,
                   second_order: bool = False) -> BackwardResult:
    """Value expansions and gains for t from the terminal step down to -S.

    ``prefix`` is a (states, controls) pair of negative-time knots ordered
    t = -S..-1 (both may be empty), whose defects the sweep carries; the
    nominal trajectory must be feasible.  The prefix and nominal knots are
    linearized in one stacked call, and the S defects take one ``step``
    each; on factorization failure gamma is escalated tenfold, and from at
    least GAMMA_MIN, until it exceeds GAMMA_MAX, reusing both and every
    backup above the highest knot the new gamma may lift (see the module
    docstring).  An expansion that comes out non-finite, which would fail
    every gamma, raises its ExpansionError (see ``model.py``); the sweep
    raises ValueError unless gamma is finite and >= 0.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and >= 0")
    n, m = model.dim_x, model.dim_u
    pre_states, pre_controls = prefix
    pre_states = np.asarray(pre_states, dtype=float).reshape(-1, n)
    pre_controls = np.asarray(pre_controls, dtype=float).reshape(-1, m)
    if pre_states.shape[0] != pre_controls.shape[0]:
        raise ValueError("prefix states and controls must have equal length")
    S = pre_states.shape[0]
    states = np.vstack([pre_states, traj.states])
    controls = np.vstack([pre_controls, traj.controls])
    # read-only: a later replan reads its first sweep off these rows (see
    # ``BackwardResult.tail``)
    states.flags.writeable = controls.flags.writeable = False
    phi, phi_x, phi_xx = expand_terminal(model, traj.states[-1])
    C, F, F2 = _linearize(model, states[:-1], controls, second_order)
    for g, (x, u) in enumerate(zip(pre_states, pre_controls)):
        F[g, :n, n] = model.step(x, u) - states[g + 1]
    dyns = list(zip(F, [None] * len(F) if F2 is None else F2))

    P = np.empty((len(controls) + 1, n + 1, n + 1))
    P[-1] = ValueExpansion(V_xx=phi_xx, V_x=phi_x, V_0=phi).P
    K, k = np.empty(controls.shape + (n,)), np.empty(controls.shape)
    floors = [-math.inf] * len(controls)
    g, backups = float(gamma), 0
    while True:
        # from the terminal down: a row kept through a retry may be lifted
        # by this gamma, and a failed row's -inf ends the scan
        top = next((i for i in range(len(floors) - 1, -1, -1)
                    if not floors[i] >= g), -1)
        failed = _sweep_once(C, dyns, g, (P, K, k, floors), top)
        # rows top down to the failed one, or down to row 0
        backups += top + 1 - (failed or 0)
        if failed is None:
            break
        g = max(10.0 * g, GAMMA_MIN)
        if g > GAMMA_MAX:
            raise BackwardSweepError(
                f"backward sweep failed up to gamma = {GAMMA_MAX:g}")

    return BackwardResult(states=states, controls=controls, P=P, K=K, k=k,
                          gamma_used=g, prefix_len=S,
                          second_order=second_order, model=model,
                          backups=backups)
