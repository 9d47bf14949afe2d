"""Optimal-horizon DDP iteration.

Each outer pass expands the value function backward over the nominal
trajectory plus a negative-time prefix, prices every candidate horizon in
the selection window by evaluating the per-step quadratics at the initial
state, picks the cheapest admissible horizon, and rolls the shifted policy
forward under a backtracking line search.  Regularization and a trust
radius on the pricing adapt along the solve: a rejected shifted horizon
sets the radius to half that candidate's initial-state gap, so a horizon
the quadratic model misprices is not tried again every pass, and an
accepted one doubles it.  Nothing else bounds the radius.  Both are
returned, so an MPC replan that passes the previous result starts from
where that solve ended; a carried radius first regrows by
``_RADIUS_REGROWTH``, so a later replan can admit again a shorter horizon
whose gap a rejected shifted try ruled out.  (The horizon cannot freeze
without it: every replan shortens the plan by at least one knot, below.)

A solve given a previous result is a replan, and it is one real-time
iteration (Diehl, Bock & Schloeder, SIAM J. Control Optim. 43(5), 2005):
it ends after its first accepted step, with status "replanned" unless
that step converged it.  A stationary pass would take no step, so it
could only certify the plan that step made.  Its passes build no prefix
either: a replan prices no horizon above its warm start's T-bar, which an
MPC loop makes the previous plan less its applied knot.  So every replan
shortens the plan by at least one knot, a degraded replan keeps its plan
and counts down too, and an episode ends within its first solve's T*
steps.  A replan gives up lengthening its plan for that; the first solve
and a one-shot solve build the full ``window_s`` prefix on every pass,
so an episode's first plan chooses its horizon freely.  A replan along a
plan its previous solve certified stationary needs no new backup either:
its first pass takes that solve's sweep from the replan's first knot on
(see ``BackwardResult.tail``).

The window is [T-bar - window_s, T-bar + S], except after an accepted move
onto its lower edge (with that edge above the lower bound): the next pass
then prices every horizon its sweep covers, down to the lower bound.  As
in a trust region that widens only after a step lands on its boundary
(Nocedal & Wright, Alg. 4.1), the first pass of every solve keeps the
cap: from a cold nominal every gap can be 0, and its prices of far
horizons are then optimistic with nothing to flag them.

The line search backtracks over ``_STEP_SIZES``.  Once the cost has
settled, first-order iLQR converges only linearly, so a full step at T-bar
that lowers J by less than ``convergence_tol`` relative is followed by one
rollout at alpha* = s / c, the minimizer of the quadratic through
J(0) = J, J'(0) = -s and J(1) = j_1 (Nocedal & Wright, eq. 3.58).  The
slope s = 2 (J - J_T-bar) comes from T-bar's price J + dV(1) = J - s/2
(Tassa, Erez & Todorov 2012), and c = 2 (j_1 - J + s).  It is made only
when c > 0 and |alpha* - 1| max|k| >= ``k_tol``, so an LQ problem, where
alpha* = 1 to rounding, never pays for it, and its step is kept only if
it lowers J below j_1.

A shifted try (T != T-bar) may stop its ladder early.  In a shifted
rollout alpha scales only ``k``: the gap term ``K dx`` stays, so phi(0)
is the shift-only rollout, not J, and a smaller alpha has no descent
guarantee.  After its third or a later failed rung alpha, the try stops
when j(alpha), j(2 alpha) and j(4 alpha) each lie within |J| of J and
the quadratic through them is >= J at every rung left below alpha
(interpolation line search, Nocedal & Wright, Sec. 3.5); the retry at
T-bar follows as after a full ladder.  Rungs farther than |J| from J have
left the region where a smooth interpolant means anything: a cartpole
swing-up ladder at J + 7.5e7, + 3.2e7, + 1.6e7 goes on to lower J by 1315
at alpha = 1/8.  The T-bar ladder is never cut: there phi(0) = J and the
step is a descent direction, so its alpha floor is a safeguard.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .backward import (GAMMA_MAX, GAMMA_MIN, BackwardResult,
                       BackwardSweepError, backward_sweep)
from .model import (SystemModel, check_count, check_nonnegative,
                    check_range, from_fields)
from .trajectory import Trajectory, _path_cost, trajectory_cost

_EXACT_MODEL_RTOL = 1e-12
# line search: the ten step sizes 1, 1/2, 1/4, ..., 2**-9 (about 0.00195)
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
        # a JSON string such as "false" is truthy
        if not isinstance(self.second_order, bool):
            raise ValueError("second_order must be a boolean, true or false")

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


@dataclass(eq=False)
class SolverResult:
    """Outcome of a solve.

    ``trace`` holds one dict per iteration: ``iteration``, ``t_bar`` (the
    horizon the pass started from), ``j`` (the cost it ended on), ``alpha``
    (the accepted step size: one of ``_STEP_SIZES``, or the tail's
    interpolated alpha*; None when no step was accepted), ``gamma``,
    ``t_star``, ``t_tried``, ``rejected``, ``accepted``, ``trust_radius``
    (the radius the pass priced with: infinite in a one-shot solve until a
    shifted try is rejected), ``t_low`` (the lowest horizon it priced),
    ``candidates``, the :class:`CandidateEvaluation` list the pass priced,
    and what the pass did: ``tried``, the (T, alpha) of every rollout it
    made, in order (a shifted ladder, the retry at T-bar, the tail's
    alpha*); ``backups``, the knots its sweep backed up over every gamma
    attempt (``BackwardResult.backups``: 0 when it took a carried sweep's
    tail); and ``prefix_knots``, the knots of the prefix it built.
    ``t_tried`` is the horizon the line search tried first and ``t_star``
    the one the iteration ended on: T-bar when a shifted try was rejected
    and retried.
    ``rejected`` is None unless a try failed, and then names why:
    "no_decrease" when no step size down to the alpha floor lowered the
    cost.  A shifted ladder may stop before that floor, once the quadratic
    through its last three failed rungs rules out the rest (see the module
    docstring).

    ``status`` is "converged"; "replanned" when a replan (a solve given
    ``previous``) ended after its first accepted step, which did not
    converge it; "max_iterations" when the iteration budget ran out first;
    "backward_failure" when a sweep still failed at the regularization
    ceiling (the pass leaves no trace record); or "line_search_failure"
    when no step lowered the cost with regularization at its ceiling.
    ``converged`` is ``status == "converged"``.  A replan's plan is never
    longer than its initial trajectory, so an MPC episode whose replans
    each start from the plan before less its applied knot counts down to
    termination (see the module docstring).  Along the
    solve regularization, the trust radius and the window's lower edge
    adapt: a pass prices down to T-bar - ``window_s``, or down to the
    lower bound right after an accepted move onto that edge.
    ``gamma_final`` and ``radius_final`` are the levels the solve ended on;
    a warm-started replan passes the whole result to
    ``optimize_trajectory`` as ``previous`` and starts from them, and from
    ``sweep``.  ``sweep`` is the last pass's
    :class:`BackwardResult` when the solve ended at the stationarity test,
    so that its nominal is the returned trajectory, and None otherwise; a
    converged solve carries it unless it ended on an exact step, and a
    replan that steps carries none.  Its ``gamma_used`` is then
    ``gamma_final``, so a replan along that trajectory's tail takes the
    sweep's tail as its first pass's sweep instead of sweeping again (see
    ``BackwardResult.tail``).  ``==`` is identity, as for every library
    record that holds arrays.
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
    sweep: BackwardResult | None = None


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
    any regularization.  Raises ValueError unless S is an integer >= 0.
    """
    check_count("S", S, 0)
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


def evaluate_candidates(back: BackwardResult, horizon_bounds, window_s: int,
                        trust_radius: float):
    """Price every horizon in [T-bar - window_s, T-bar + S] within the bounds.

    S is the sweep's prefix length and T-bar the horizon of the nominal it
    extends.  ``window_s`` is the lower reach: the sweep holds a value
    expansion at every row, so any reach up to T-bar is priced at the same
    cost per candidate, and a reach of T-bar prices every horizon down to
    the lower bound.  Horizon T is priced by the value expansion at
    t0 = T-bar - T, evaluated at the nominal's initial state.  Candidates
    come in increasing T, one per horizon, which ``select_horizon`` and
    the solver's ``candidates[T - lo]`` lookups rely on.
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
    """T-bar, unless an admissible candidate is priced strictly below
    T-bar's own price: then the cheapest one, ties toward the smaller
    horizon.

    ``candidates`` must come in increasing T, one per horizon, and hold
    T-bar, as ``evaluate_candidates`` returns them.  A tie with T-bar keeps
    T-bar: a move that the quadratic model prices no lower than staying
    cannot be expected to lower J, and where every price equals J (a solve
    started at its optimum) it would leave every rollout no better than J.
    With no admissible candidate below T-bar's price, and so with none at
    all, T-bar is kept.
    """
    best_T, best_J = t_bar, candidates[t_bar - candidates[0].T].J_T
    for cand in candidates:
        if cand.admissible and cand.J_T < best_J:
            best_T, best_J = cand.T, cand.J_T
    return best_T


def rollout(model: SystemModel, back: BackwardResult, t0: int, alpha: float,
            x0: np.ndarray):
    """Forward simulation applying the shifted affine policy from x0.

    Returns (trajectory, cost), or (None, inf) so the line search rejects
    the step when a ``step`` or the path cost raises FloatingPointError, a
    state leaves the box (no state past it is stepped from) or the cost
    is not finite: all four leave through one exit.  The trajectory is
    marked as ``model``'s own (see ``Trajectory.simulated``).  The
    feedforward of every knot is formed in one op, and each knot adds its
    feedback into its row in place, in the order of
    ``controls[g] + alpha * k[g] + K[g] @ dx``.  The running costs of all
    knots are taken in one call once the states are rolled out.
    """
    g0 = t0 + back.prefix_len
    T = back.controls.shape[0] - g0
    states = np.empty((T + 1, model.dim_x))
    states[0] = np.asarray(x0, dtype=float)
    controls = back.controls[g0:] + alpha * back.k[g0:]
    K, ref, step = back.K[g0:], back.states[g0:], model.step
    try:
        for t in range(T):
            x, u = states[t], controls[t]
            u += K[t] @ (x - ref[t])
            x_next = step(x, u)
            # NaN compares false, so this also rejects a non-finite state;
            # a loop over floats costs less than numpy's reduction of a few
            if not all(abs(v) <= _STATE_BOUND for v in x_next.tolist()):
                raise FloatingPointError("rollout left the state bound")
            states[t + 1] = x_next
        cost = float(_path_cost(model, states, controls))
        if not math.isfinite(cost):
            raise FloatingPointError("non-finite rollout cost")
    except FloatingPointError:
        return None, math.inf
    return Trajectory.simulated(model, states, controls), cost


def _rest_ruled_out(J: float, rungs, rest) -> bool:
    """Whether the quadratic through three failed rungs stays >= J at
    every step size in ``rest``.

    ``rungs`` holds the (alpha, j) pairs of the last failed rungs, largest
    alpha first.  It rules nothing out with fewer than three rungs, or when
    one of them lies farther than |J| from J (a non-finite one does):
    there the rollouts have left the region where a smooth interpolant
    means anything.  The quadratic is in Newton form over divided
    differences.
    """
    if len(rungs) < 3 or not all(abs(j - J) <= abs(J) for _, j in rungs):
        return False
    (a0, j0), (a1, j1), (a2, j2) = rungs
    d01 = (j1 - j0) / (a1 - a0)
    d012 = ((j2 - j1) / (a2 - a1) - d01) / (a2 - a0)
    return all(j0 + (b - a0) * (d01 + (b - a1) * d012) >= J for b in rest)


def optimize_trajectory(model: SystemModel, initial: Trajectory,
                        cfg: SolverConfig,
                        previous: SolverResult | None = None) -> SolverResult:
    """Outer loop: sweep, select horizon, line-searched forward pass.

    Iterations count outer passes (one backward sweep each, or one carried
    sweep's tail; see ``previous`` below).  Convergence
    is declared in one of two ways: before any rollout, when the sweep is
    stationary at T-bar (T-bar selected, feedforward below ``k_tol``, and
    T-bar's price within ``convergence_tol`` relative of J); or right after
    an accepted full step that lands on its sweep's price to rounding, the
    quadratic model being exact there, unless it landed on an end of the
    window its pass priced.  A small decrease alone ends nothing: the
    solve goes on until its sweep is stationary, unless it is a replan.

    ``previous`` is the result of the solve a warm-started replan resumes
    from.  Passing it makes the solve a replan, one real-time iteration
    (see the module docstring):
    - every pass that sweeps asks ``extend_backward`` for 0 knots, and a
      pass that takes a carried sweep's tail has no prefix either, so the
      solve prices no horizon above T-bar and the plan it returns is no
      longer than ``initial``; without ``previous`` every pass builds the
      full ``window_s`` prefix;
    - the solve ends after its first accepted step, with status
      "replanned" unless that step converged it, so ``max_iterations``
      bounds only the passes that accept no step, its gamma retries.

    This function alone decides what else it reads from ``previous``:
    - the first sweep's Q_uu regularization starts from its
      ``gamma_final`` (``GAMMA_MIN`` without one); that sweep raises
      ValueError unless it is finite and >= 0;
    - the horizon trust radius on the initial-state gap, which rejected
      shifted tries shrink and accepted ones widen, starts from its
      ``radius_final`` widened once by ``_RADIUS_REGROWTH``.  It must be
      > 0, or no horizon would be admissible.  Without ``previous`` it is
      infinite: every priced horizon is admitted until a shifted try is
      rejected, and a doubling keeps it infinite;
    - its ``sweep``, carried only by a solve that ended at the
      stationarity test: when ``BackwardResult.tail`` gives one for
      ``initial`` at the first pass's gamma, that pass takes it as its
      sweep, and neither builds a prefix nor sweeps.

    An inconsistent ``initial`` is rejected by ``assert_consistent``:
    FloatingPointError on a non-finite defect, ValueError on one above
    ``CONSISTENCY_TOL``.  One the library simulated under this model
    object (``initial_trajectory``, ``rollout_controls``, an MPC warm
    start) is only tested finite; any other is stepped through again.
    """
    t_min, t_max = cfg.horizon_bounds
    if not (t_min <= initial.horizon <= t_max):
        raise ValueError("initial horizon outside bounds")
    gamma, radius, back, sweep = GAMMA_MIN, math.inf, None, None
    if previous is not None:
        gamma, radius = previous.gamma_final, previous.radius_final
        if previous.sweep is not None:
            back = previous.sweep.tail(model, initial, gamma,
                                       cfg.second_order)
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    initial.assert_consistent(model)

    traj = initial
    t_bar = traj.horizon
    J = trajectory_cost(model, traj)
    radius *= _RADIUS_REGROWTH
    trace: list = []
    status = "max_iterations"
    lift = False
    iterations = 0
    # a replan prices no horizon above T-bar (module docstring)
    prefix_len = cfg.window_s if previous is None else 0

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        # the first pass of a replan along a plan its previous solve
        # certified stationary takes the tail of that solve's sweep
        if it > 1 or back is None:
            prefix = extend_backward(model, traj, prefix_len)
            try:
                back = backward_sweep(
                    model, traj, (prefix.states, prefix.controls),
                    gamma=gamma, second_order=cfg.second_order)
            except BackwardSweepError:
                status = "backward_failure"
                break
        gamma = max(back.gamma_used, GAMMA_MIN)

        candidates = evaluate_candidates(back, cfg.horizon_bounds,
                                         t_bar if lift else cfg.window_s,
                                         radius)
        lo, hi = candidates[0].T, candidates[-1].T
        t_tried = select_horizon(candidates, t_bar)
        record = {
            "iteration": it, "t_bar": t_bar, "j": J, "alpha": None,
            "gamma": gamma, "t_star": t_tried, "t_tried": t_tried,
            "rejected": None, "accepted": False, "trust_radius": radius,
            "t_low": lo, "candidates": candidates, "tried": [],
            "backups": back.backups, "prefix_knots": back.prefix_len,
        }
        trace.append(record)

        # stationary at the current horizon: nothing left to do (T-bar sits
        # at a window edge only where that edge is a bound or the prefix is
        # empty)
        scale = max(1.0, abs(J))
        if (t_tried == t_bar and back.max_feedforward() < cfg.k_tol
                and (J - candidates[t_bar - lo].J_T)
                < cfg.convergence_tol * scale):
            status = "converged"
            sweep = back
            break

        # a mispriced shifted horizon is retried at T-bar before gamma rises
        for t_star in dict.fromkeys((t_tried, t_bar)):
            record["t_star"] = t_star
            failed = []
            for i, alpha in enumerate(_STEP_SIZES):
                # t0 by keyword: perfbench/tracing.py reads it from the call
                new_traj, j_new = rollout(model, back, t0=t_bar - t_star,
                                          alpha=alpha, x0=traj.states[0])
                record["tried"].append((t_star, alpha))
                if j_new < J:
                    break
                # only a shifted ladder may stop early (module docstring)
                failed.append((alpha, j_new))
                if t_star != t_bar and _rest_ruled_out(J, failed[-3:],
                                                       _STEP_SIZES[i + 1:]):
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
        # settled tail (see the module docstring): unless the step is
        # exact, the solve goes on until a sweep is stationary, so try the
        # quadratic's minimizer once
        if alpha == 1.0 and t_star == t_bar and rel < cfg.convergence_tol:
            s = 2.0 * (J - candidates[t_bar - lo].J_T)
            c = 2.0 * (j_new - J + s)
            if c > 0 and (abs(s / c - 1.0) * back.max_feedforward()
                          >= cfg.k_tol):
                alpha_star = s / c
                step_traj, j_step = rollout(model, back, t0=0,
                                            alpha=alpha_star,
                                            x0=traj.states[0])
                record["tried"].append((t_bar, alpha_star))
                if j_step < j_new:
                    new_traj, j_new, alpha = step_traj, j_step, alpha_star
        exact_model = (alpha == 1.0
                       and abs(j_new - candidates[t_star - lo].J_T)
                       <= _EXACT_MODEL_RTOL * max(1.0, abs(j_new)))
        # a horizon clamped at the window edge may still improve next pass.
        # Landing on a lower edge above t_min lifts the cap for the next
        # pass only; a lifted pass's edge is t_min, and with window_s = 0
        # the edge is T-bar, so neither lifts
        lift = t_min < t_star == lo < t_bar
        at_window_edge = lift or t_bar < t_star == hi < t_max
        traj, J, t_bar = new_traj, j_new, t_star
        record.update(alpha=alpha, accepted=True, j=J)
        gamma = max(gamma / 2.0, GAMMA_MIN)
        if exact_model and not at_window_edge:
            status = "converged"
            break
        if previous is not None:
            status = "replanned"
            break

    return SolverResult(trajectory=traj, t_star=t_bar, cost=J,
                        iterations=iterations,
                        converged=status == "converged", status=status,
                        trace=trace, gamma_final=gamma, radius_final=radius,
                        sweep=sweep)
