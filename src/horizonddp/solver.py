"""Optimal-horizon DDP iteration.

Each outer pass expands the value function backward over the nominal
trajectory plus a negative-time prefix, prices every candidate horizon in
the selection window by evaluating the per-step quadratics at the initial
state, picks the cheapest admissible horizon, and rolls the shifted policy
forward under a backtracking line search.  Only regularization and a trust
radius on the pricing adapt along the solve: a rejected shifted horizon
sets the radius to half that candidate's initial-state gap, so a horizon
the quadratic model misprices is not tried again every pass.  Both are
returned, so an MPC replan starts from where the previous solve ended; a
carried radius first regrows by ``_RADIUS_REGROWTH``, so one bad replan
cannot freeze the horizon for the rest of an episode.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .backward import (GAMMA_MAX, GAMMA_MIN, BackwardResult,
                       BackwardSweepError, backward_sweep)
from .model import (SystemModel, check_count, check_nonnegative,
                    check_range, from_fields, running_costs)
from .trajectory import Trajectory, trajectory_cost

_EXACT_MODEL_RTOL = 1e-12
# line search: step sizes 1, 1/2, 1/4, ... down to a 1e-3 floor
_STEP_SIZES = tuple(0.5 ** i for i in range(10))
# a solve started from a carried trust radius first widens it by this factor
_RADIUS_REGROWTH = 1.25

# a rollout whose state leaves this box, or turns non-finite, is rejected
_STATE_BOUND = 1e8


@dataclass
class SolverConfig:
    """Knobs of the optimal-horizon solver."""

    horizon_bounds: tuple = (1, 200)
    window_s: int = 10
    max_iterations: int = 100
    convergence_tol: float = 1e-6
    k_tol: float = 1e-6
    second_order: bool = False

    def __post_init__(self):
        self.horizon_bounds = check_range("horizon_bounds",
                                          self.horizon_bounds, 1)
        check_count("window_s", self.window_s, 0)
        check_count("max_iterations", self.max_iterations, 1)
        check_nonnegative("convergence_tol", self.convergence_tol)
        check_nonnegative("k_tol", self.k_tol)

    @classmethod
    def from_json(cls, doc: dict) -> "SolverConfig":
        return from_fields(cls, doc, "solver config")


@dataclass(frozen=True)
class CandidateEvaluation:
    """Predicted cost of one candidate horizon.

    ``gap`` is the norm of dx = x0 - states[g], the initial-state offset at
    which the candidate's value expansion was evaluated.
    """

    T: int
    t0: int
    J_T: float
    admissible: bool
    gap: float


@dataclass
class SolverResult:
    """Outcome of a solve.

    ``trace`` holds one dict per iteration: ``iteration``, ``t_bar`` (the
    horizon the pass started from), ``j`` (the cost it ended on), ``alpha``
    (the accepted step size, or None), ``gamma``, ``t_star``, ``t_tried``,
    ``rejected``, ``accepted``, ``trust_radius`` (the radius the pass
    priced with) and ``candidates``, the :class:`CandidateEvaluation` list
    the pass priced.  ``t_tried`` is the horizon the line search tried
    first and ``t_star`` the one the iteration ended on: T-bar when a
    shifted try was rejected and retried.
    ``rejected`` is None unless a try failed, and then names why:
    "no_decrease" when no step size down to the alpha floor lowered the
    cost.

    ``status`` is "converged"; "max_iterations" when the iteration budget
    ran out first; "backward_failure" when a sweep still failed at the
    regularization ceiling (the pass leaves no trace record); or
    "line_search_failure" when no step lowered the cost with regularization
    at its ceiling.  ``converged`` is ``status == "converged"``.  Along the
    solve only regularization and the trust radius adapt; every pass prices
    the same ``window_s``.  ``gamma_final`` and ``radius_final`` are the
    levels the solve ended on, for a warm-started replan to start from.
    """

    trajectory: Trajectory
    t_star: int
    cost: float
    iterations: int
    converged: bool
    status: str
    trace: list = field(default_factory=list)
    gamma_final: float = 0.0
    radius_final: float = math.inf


class Prefix:
    """Negative-time extension of the nominal trajectory (t = -S..-1)."""

    def __init__(self, states, controls):
        self.states = np.asarray(states, dtype=float)
        self.controls = np.asarray(controls, dtype=float)

    def __len__(self):
        return self.states.shape[0]


def extend_backward(model: SystemModel, traj: Trajectory, S: int) -> Prefix:
    """S-knot prefix so horizons above T-bar exist, or an empty one.

    Each knot is the model's preimage guess of the next one under the first
    control, and the backward sweep carries the guesses' defects.  The
    prefix is the whole chain or nothing: it is empty for a model without a
    guess, for a guess that raises ``LinAlgError`` (an inverse of a
    singular map), and for a chain that overflows or leaves the model's
    admissible region (a non-finite state does), since the linearization
    at a guess past a singularity of the dynamics would wreck the sweep at
    any regularization.
    """
    S = int(S)
    states = np.zeros((S, model.dim_x))
    x = x0 = traj.states[0]
    u0 = traj.controls[0] if traj.horizon > 0 else model.nominal_control(x0)
    # the base class has no guess; a one-knot kernel raises on an
    # overflowed state, and an exact inverse on a singular map
    with contextlib.suppress(NotImplementedError, FloatingPointError,
                             np.linalg.LinAlgError):
        for s in range(S - 1, -1, -1):
            x = states[s] = model.inverse_step(x, u0)
            if not model.admissible(x):
                break
        else:
            return Prefix(states, np.tile(u0, (S, 1)))
    return Prefix(states[:0], np.zeros((0, model.dim_u)))


def _default_trust_radius(traj: Trajectory) -> float:
    """Cap on the trust radius: 10x the nominal's RMS state, at least 10."""
    rms = float(np.sqrt(np.mean(traj.states ** 2)))
    return 10.0 * max(rms, 1.0)


def evaluate_candidates(back: BackwardResult, horizon_bounds, window_s: int,
                        trust_radius: float):
    """Price every horizon in [T-bar - window_s, T-bar + S] within the bounds.

    S is the sweep's prefix length and T-bar the horizon of the nominal it
    extends.  Horizon T is priced by the value expansion at t0 = T-bar - T,
    evaluated at the nominal's initial state.  Candidates come in
    increasing T.
    """
    S = back.prefix_len
    t_bar = back.controls.shape[0] - S
    t_min, t_max = horizon_bounds
    horizons = range(max(t_min, t_bar - window_s), min(t_max, t_bar + S) + 1)
    # rows g = t0 + S of the candidates; these batched products of row
    # vectors round as ValueExpansion.evaluate and np.linalg.norm do on one
    rows = t_bar + S - np.array(horizons, dtype=int)
    dx = back.states[S] - back.states[rows]
    col = dx[:, :, None]
    quad = ((0.5 * dx)[:, None] @ back.V_xx[rows] @ col)[:, 0, 0]
    lin = (back.V_x[rows][:, None] @ col)[:, 0, 0]
    prices = (quad + lin + back.V_0[rows]).tolist()
    gaps = np.sqrt((dx[:, None] @ col)[:, 0, 0]).tolist()
    return [CandidateEvaluation(T=T, t0=t_bar - T, J_T=J_T, gap=gap,
                                admissible=bool(gap < trust_radius
                                                and math.isfinite(J_T)))
            for T, J_T, gap in zip(horizons, prices, gaps)]


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
    the line search rejects the step, and no state past the first one out
    of the box is stepped from.  The feedforward of every knot is formed
    in one op, and each knot adds its feedback into its row in place, in
    the order of ``controls[g] + alpha * k[g] + K[g] @ dx``.  The running
    costs of all knots are taken in one call once the states are rolled
    out.
    """
    g0 = t0 + back.prefix_len
    T = back.controls.shape[0] - g0
    states = np.empty((T + 1, model.dim_x))
    states[0] = np.asarray(x0, dtype=float)
    controls = back.controls[g0:] + alpha * back.k[g0:]
    K, ref, step = back.K[g0:], back.states[g0:], model.step
    for t in range(T):
        x, u = states[t], controls[t]
        u += K[t] @ (x - ref[t])
        try:
            x_next = step(x, u)
        except FloatingPointError:
            return None, math.inf
        # NaN compares false, so this also rejects a non-finite state; a
        # loop over floats costs less than numpy's reduction of a few
        if not all(abs(v) <= _STATE_BOUND for v in x_next.tolist()):
            return None, math.inf
        states[t + 1] = x_next
    try:
        knot_costs = running_costs(model, states[:-1], controls)
    except FloatingPointError:
        return None, math.inf
    cost = 0.0
    for c in knot_costs:
        cost += c
    cost += model.terminal_cost(states[-1])
    if not math.isfinite(cost):
        return None, math.inf
    return Trajectory(states=states, controls=controls), float(cost)


def optimize_trajectory(model: SystemModel, initial: Trajectory,
                        cfg: SolverConfig,
                        gamma: float = GAMMA_MIN,
                        radius: float = math.inf) -> SolverResult:
    """Outer loop: sweep, select horizon, line-searched forward pass.

    Iterations count outer passes (one backward sweep each).  Convergence
    is declared when the sweep is stationary at the selected horizon, or
    when an accepted full step was predicted exactly by the quadratic
    model, or when the relative cost decrease and feedforward gains both
    drop below tolerance.

    ``gamma`` is the Q_uu regularization the first sweep starts from; a
    warm-started replan passes the previous solve's ``gamma_final``.  The
    first sweep raises ValueError unless it is finite and >= 0.  ``radius``
    is the horizon trust radius on the initial-state gap, which rejected
    shifted tries shrink and accepted ones widen; a replan passes the
    previous solve's ``radius_final``, widened once by ``_RADIUS_REGROWTH``
    here.  The default, infinity, stays infinite.  It must be > 0, or no
    horizon would be admissible.
    """
    t_min, t_max = cfg.horizon_bounds
    if not (t_min <= initial.horizon <= t_max):
        raise ValueError("initial horizon outside bounds")
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    initial.assert_consistent(model)

    traj = initial
    t_bar = traj.horizon
    J = trajectory_cost(model, traj)
    radius *= _RADIUS_REGROWTH
    trace: list = []
    status = "max_iterations"
    iterations = 0

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        prefix = extend_backward(model, traj, cfg.window_s)
        try:
            back = backward_sweep(model, traj, (prefix.states, prefix.controls),
                                  gamma=gamma, second_order=cfg.second_order)
        except BackwardSweepError:
            status = "backward_failure"
            break
        gamma = max(back.gamma_used, GAMMA_MIN)

        trust = min(_default_trust_radius(traj), radius)
        candidates = evaluate_candidates(back, cfg.horizon_bounds,
                                         cfg.window_s, trust)
        # the window's top edge is where a full prefix reaches, so a pass
        # with an empty prefix never selects a horizon on it
        lo = candidates[0].T
        hi = min(t_max, t_bar + cfg.window_s)
        t_tried = select_horizon(candidates, t_bar)
        record = {
            "iteration": it, "t_bar": t_bar, "j": J, "alpha": None,
            "gamma": gamma, "t_star": t_tried, "t_tried": t_tried,
            "rejected": None, "accepted": False, "trust_radius": trust,
            "candidates": candidates,
        }
        trace.append(record)

        # stationary at the current horizon: nothing left to do (T-bar sits
        # at a window edge only where that edge is a bound or the prefix is
        # empty)
        scale = max(1.0, abs(J))
        if (t_tried == t_bar and back.max_feedforward(0) < cfg.k_tol
                and (J - candidates[t_bar - lo].J_T)
                < cfg.convergence_tol * scale):
            status = "converged"
            break

        # a mispriced shifted horizon is retried at T-bar before gamma rises
        for t_star in dict.fromkeys((t_tried, t_bar)):
            record["t_star"] = t_star
            for alpha in _STEP_SIZES:
                # t0 by keyword: perfbench/tracing.py reads it from the call
                new_traj, j_new = rollout(model, back, t0=t_bar - t_star,
                                          alpha=alpha, x0=traj.states[0])
                if j_new < J:
                    break
            if j_new < J:
                break
            record["rejected"] = "no_decrease"

        # a shifted try tests the price at that candidate's gap: a rejection
        # shrinks the radius inside the gap, an acceptance widens it.  A
        # zero gap says nothing about the radius, and a zero radius would
        # shut out T-bar itself
        if t_tried != t_bar:
            gap = candidates[t_tried - lo].gap
            if record["rejected"] is None:
                radius *= 2.0
            elif gap > 0:
                radius = 0.5 * gap

        if not j_new < J:
            if gamma >= GAMMA_MAX:
                status = "line_search_failure"
                break
            gamma = min(gamma * 10.0, GAMMA_MAX)
            continue

        rel = (J - j_new) / scale
        exact_model = (alpha == 1.0
                       and abs(j_new - candidates[t_star - lo].J_T)
                       <= _EXACT_MODEL_RTOL * max(1.0, abs(j_new)))
        # a horizon clamped at the window edge may still improve next pass
        at_window_edge = cfg.window_s > 0 and ((t_star == lo and lo > t_min)
                                                or (t_star == hi and hi < t_max))
        t0 = t_bar - t_star
        traj, J, t_bar = new_traj, j_new, t_star
        record.update(alpha=alpha, accepted=True, j=J)
        gamma = max(gamma / 2.0, GAMMA_MIN)
        if not at_window_edge and (
                exact_model or (rel < cfg.convergence_tol
                                and back.max_feedforward(t0) < cfg.k_tol)):
            status = "converged"
            break

    return SolverResult(trajectory=traj, t_star=t_bar, cost=J,
                        iterations=iterations,
                        converged=status == "converged", status=status,
                        trace=trace, gamma_final=gamma, radius_final=radius)
