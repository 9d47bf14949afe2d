"""Optimal-horizon DDP iteration.

Each outer pass expands the value function backward over the nominal
trajectory plus a negative-time prefix, prices every candidate horizon in
the selection window by evaluating the per-step quadratics at the initial
state, picks the cheapest admissible horizon, and rolls the shifted policy
forward under a backtracking line search.  Window size and regularization
adapt on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backward import (GAMMA_MAX, BackwardResult, BackwardSweepError,
                       backward_sweep)
from .model import InverseStepError, SystemModel, from_fields
from .trajectory import Trajectory, trajectory_cost

_FIXED_POINT_TOL = 1e-8
_EXACT_MODEL_RTOL = 1e-12
# line search: step sizes 1, 1/2, 1/4, ... down to the floor
_ALPHA_BACKTRACK = 0.5
_ALPHA_FLOOR = 1e-3
# regularization never relaxes below this floor between iterations
GAMMA_MIN = 1e-6


@dataclass
class SolverConfig:
    """Knobs of the optimal-horizon solver."""

    horizon_bounds: tuple = (1, 200)
    window_s: int = 10
    trust_radius: float | None = None  # None: 10x RMS state magnitude
    gamma_init: float = 1e-6
    max_iterations: int = 100
    convergence_tol: float = 1e-6
    k_tol: float = 1e-6
    second_order: bool = False

    def __post_init__(self):
        t_min, t_max = self.horizon_bounds
        self.horizon_bounds = (int(t_min), int(t_max))
        if not (1 <= t_min <= t_max):
            raise ValueError("horizon bounds must satisfy 1 <= t_min <= t_max")
        if self.window_s < 0:
            raise ValueError("window_s must be >= 0")
        if self.trust_radius is not None and not self.trust_radius > 0:
            raise ValueError("trust_radius must be > 0")

    @classmethod
    def from_json(cls, doc: dict) -> "SolverConfig":
        return from_fields(cls, doc, "solver config")


@dataclass(frozen=True)
class CandidateEvaluation:
    """Predicted cost of one candidate horizon."""

    T: int
    t0: int
    J_T: float
    admissible: bool


@dataclass
class SolverResult:
    """Outcome of a solve.

    ``trace`` holds one dict per iteration: ``iteration``, ``t_bar`` (the
    horizon the pass started from), ``j`` (the cost it ended on), ``alpha``
    (the accepted step size, or None), ``gamma``, ``t_star``, ``t_tried``,
    ``rejected``, ``accepted`` and ``candidates``, the
    :class:`CandidateEvaluation` list the pass priced.  ``t_tried`` is the
    horizon the line search tried first and ``t_star`` the one the
    iteration ended on: T-bar when a shifted try was rejected and retried.
    ``rejected`` is None unless the first try failed, and then names why:
    "no_decrease" when no step size down to the alpha floor lowered the
    cost.
    """

    trajectory: Trajectory
    t_star: int
    cost: float
    iterations: int
    converged: bool
    status: str
    trace: list = field(default_factory=list)
    gamma_final: float = 0.0


class Prefix:
    """Negative-time extension of the nominal trajectory (t = -S..-1)."""

    def __init__(self, states, controls, feasible):
        self.states = np.asarray(states, dtype=float)
        self.controls = np.asarray(controls, dtype=float)
        self.feasible = bool(feasible)

    def __len__(self):
        return self.states.shape[0]


def extend_backward(model: SystemModel, traj: Trajectory, S: int) -> Prefix:
    """Dynamically feasible prefix so candidate horizons above T-bar exist.

    Preference order: the model's inverse dynamics; constant extension when
    the start is a fixed point; otherwise a constant-state extension whose
    candidates are marked inadmissible.
    """
    S = int(S)
    n, m = model.dim_x, model.dim_u
    if S == 0:
        return Prefix(np.zeros((0, n)), np.zeros((0, m)), True)

    x0 = traj.states[0]
    u0 = traj.controls[0] if traj.horizon > 0 else model.nominal_control(x0)

    if model.has_inverse_step:
        states = np.zeros((S, n))
        x = x0
        ok = True
        for s in range(S):
            try:
                x = model.inverse_step(x, u0)
            except (InverseStepError, FloatingPointError, np.linalg.LinAlgError):
                ok = False
                break
            states[S - 1 - s] = x
        if ok:
            return Prefix(states, np.tile(u0, (S, 1)), True)

    defect = np.max(np.abs(model.step(x0, u0) - x0))
    fixed_point = defect <= _FIXED_POINT_TOL
    states = np.tile(x0, (S, 1))
    return Prefix(states, np.tile(u0, (S, 1)), fixed_point)


def _default_trust_radius(traj: Trajectory) -> float:
    rms = float(np.sqrt(np.mean(traj.states ** 2)))
    return 10.0 * max(rms, 1.0)


def _selection_window(cfg: SolverConfig, t_bar: int, window_s: int,
                      prefix: Prefix):
    """Horizons [lo, hi] a pass prices: T-bar - S to T-bar + S within the
    bounds, and above T-bar only as far as the prefix reaches."""
    t_min, t_max = cfg.horizon_bounds
    return (max(t_min, t_bar - window_s),
            min(t_max, t_bar + min(window_s, len(prefix))))


def evaluate_candidates(back: BackwardResult, x0: np.ndarray,
                        cfg: SolverConfig, t_bar: int, prefix: Prefix,
                        window_s: int, trust_radius: float):
    """Price every horizon in [T-bar - S, T-bar + S] within the bounds."""
    lo, hi = _selection_window(cfg, t_bar, window_s, prefix)
    out = []
    for T in range(lo, hi + 1):
        t0 = t_bar - T
        dx = np.asarray(x0, dtype=float) - back.states[t0 + back.prefix_len]
        J_T = back.value_at(t0).evaluate(dx)
        admissible = bool(np.linalg.norm(dx) < trust_radius
                          and math.isfinite(J_T)
                          and (t0 >= 0 or prefix.feasible))
        out.append(CandidateEvaluation(T=T, t0=t0, J_T=J_T, admissible=admissible))
    return out


def select_horizon(candidates, t_bar: int) -> int:
    """Cheapest admissible candidate, ties toward the smaller horizon.

    With no admissible candidate the current horizon is kept.  The outer
    loop never meets that case: T-bar is always in the window, priced at
    dx = 0, which a positive trust radius admits.
    """
    best_T, best_J = t_bar, math.inf
    for cand in sorted(candidates, key=lambda c: c.T):
        if cand.admissible and cand.J_T < best_J:
            best_T, best_J = cand.T, cand.J_T
    return best_T


def rollout(model: SystemModel, back: BackwardResult, t0: int, alpha: float,
            x0: np.ndarray):
    """Forward simulation applying the shifted affine policy from x0.

    Returns (trajectory, cost); a non-finite excursion yields cost inf so
    the line search rejects the step.
    """
    g0 = t0 + back.prefix_len
    T = back.controls.shape[0] - g0
    n = model.dim_x
    states = np.zeros((T + 1, n))
    controls = np.zeros((T, model.dim_u))
    states[0] = np.asarray(x0, dtype=float)
    cost = 0.0
    for t in range(T):
        g = g0 + t
        dx = states[t] - back.states[g]
        u = back.controls[g] + alpha * back.k[g] + back.K[g] @ dx
        controls[t] = u
        try:
            x_next = model.step(states[t], u)
            cost += model.running_cost(states[t], u)
        except FloatingPointError:
            return None, math.inf
        if not np.isfinite(x_next).all() or np.abs(x_next).max() > 1e8:
            return None, math.inf
        states[t + 1] = x_next
    cost += model.terminal_cost(states[-1])
    if not math.isfinite(cost):
        return None, math.inf
    return Trajectory(states=states, controls=controls), float(cost)


def optimize_trajectory(model: SystemModel, initial: Trajectory,
                        cfg: SolverConfig) -> SolverResult:
    """Outer loop: sweep, select horizon, line-searched forward pass.

    Iterations count outer passes (one backward sweep each).  Convergence
    is declared when the sweep is stationary at the selected horizon, or
    when an accepted full step was predicted exactly by the quadratic
    model, or when the relative cost decrease and feedforward gains both
    drop below tolerance.
    """
    t_min, t_max = cfg.horizon_bounds
    if not (t_min <= initial.horizon <= t_max):
        raise ValueError("initial horizon outside bounds")
    initial.assert_consistent(model)

    traj = initial
    t_bar = traj.horizon
    J = trajectory_cost(model, traj)
    gamma = cfg.gamma_init
    window = cfg.window_s
    trace: list = []
    converged = False
    status = "max_iterations"
    iterations = 0

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        prefix = extend_backward(model, traj, window)
        try:
            back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                                  gamma=gamma, second_order=cfg.second_order)
        except BackwardSweepError:
            status = "backward_failure"
            break
        gamma = max(back.gamma_used, GAMMA_MIN)

        trust = cfg.trust_radius
        if trust is None:
            trust = _default_trust_radius(traj)
        x0 = traj.states[0]
        candidates = evaluate_candidates(back, x0, cfg, t_bar, prefix, window,
                                         trust)
        t_star = select_horizon(candidates, t_bar)
        j_pred = next((c.J_T for c in candidates if c.T == t_star), math.inf)
        t0 = t_bar - t_star
        # a horizon clamped at the window edge may still improve next pass
        lo_w, hi_w = _selection_window(cfg, t_bar, window, prefix)
        at_window_edge = window > 0 and ((t_star == lo_w and lo_w > t_min)
                                         or (t_star == hi_w and hi_w < t_max))

        record = {
            "iteration": it, "t_bar": t_bar, "j": J, "alpha": None,
            "gamma": gamma, "t_star": t_star, "t_tried": t_star,
            "rejected": None, "accepted": False, "candidates": candidates,
        }

        # stationary at the current horizon: nothing left to do
        scale = max(1.0, abs(J))
        if (t_star == t_bar and not at_window_edge
                and back.max_feedforward(0) < cfg.k_tol
                and (J - j_pred) < cfg.convergence_tol * scale):
            converged = True
            status = "converged"
            trace.append(record)
            break

        def line_search(t0_try):
            a = 1.0
            while a >= _ALPHA_FLOOR:
                # t0 by keyword: perfbench/tracing.py reads it from the call
                cand_traj, j_try = rollout(model, back, t0=t0_try, alpha=a,
                                           x0=x0)
                if j_try < J:
                    return True, cand_traj, j_try, a
                a *= _ALPHA_BACKTRACK
            return False, None, math.inf, a

        accepted, new_traj, j_new, alpha = line_search(t0)
        if not accepted:
            record["rejected"] = "no_decrease"
        if not accepted and t_star != t_bar:
            # mispriced candidate; retry at the current horizon before
            # shrinking the window
            t_star, t0 = t_bar, 0
            j_pred = next((c.J_T for c in candidates if c.T == t_bar), math.inf)
            at_window_edge = False
            record["t_star"] = t_star
            accepted, new_traj, j_new, alpha = line_search(0)

        if accepted:
            rel = (J - j_new) / scale
            exact_model = (alpha == 1.0
                           and abs(j_new - j_pred)
                           <= _EXACT_MODEL_RTOL * max(1.0, abs(j_new)))
            traj, J, t_bar = new_traj, j_new, t_star
            record.update(alpha=alpha, accepted=True, j=J)
            trace.append(record)
            gamma = max(gamma / 2.0, GAMMA_MIN)
            window = min(window + 1, cfg.window_s)
            if not at_window_edge and (
                    exact_model or (rel < cfg.convergence_tol
                                    and back.max_feedforward(t0) < cfg.k_tol)):
                converged = True
                status = "converged"
                break
        else:
            trace.append(record)
            if window == 0 and gamma >= GAMMA_MAX:
                status = "line_search_failure"
                break
            window = window // 2
            gamma = min(gamma * 10.0, GAMMA_MAX)

    return SolverResult(trajectory=traj, t_star=t_bar, cost=J,
                        iterations=iterations, converged=converged,
                        status=status if not converged else "converged",
                        trace=trace, gamma_final=gamma)
