"""Spans and counts recorded around the calls into each horizonddp module.

The tracer wraps public functions at the caller's binding, because solver,
mpc and oracle import what they call by name: wrapping
``horizonddp.backward.backward_sweep`` would miss the solver's calls, so the
tracer wraps ``horizonddp.solver.backward_sweep``.  Model methods are wrapped
on the model classes.  A binding that no longer exists raises on install, and
one that is no longer called shows as a zero count in the self-test.

A span is (name, start, end, parent); the layer is the part of the name
before the dot.  A layer's self time is its spans' time minus the time their
child spans cover.  Per-knot and per-model-call spans are only aggregated;
the others are also kept in memory and can be written out.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import Counter, defaultdict

from horizonddp import backward, models, mpc, oracle, solver, trajectory

MODEL_CLASSES = (models.QuadrotorModel, models.CartpoleModel,
                 models.PointMassNavModel)
MODEL_METHODS = ("step", "running_cost", "terminal_cost", "dynamics_jacobians",
                 "running_cost_derivatives", "terminal_cost_derivatives",
                 "inverse_step")
LAYERS = ("solver", "backward", "model", "models", "oracle", "trajectory", "mpc")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and counts while ``active``; costs one flag test per
    wrapped call otherwise.  ``now`` is the time source of the spans."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.active = False
        self.spans = []                   # (name, start, end, parent index)
        self.calls = Counter()            # span name -> calls
        self.time = defaultdict(float)    # span name -> total duration
        self.self_time = defaultdict(float)   # layer -> self time
        self.busy = defaultdict(float)    # layer -> time not nested in itself
        self.events = Counter()           # counts read from arguments/results
        self._stack = []                  # [name, layer, child time, span index]
        self._shift_tried = False
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, keep, hook):
        layer = name.split(".", 1)[0]
        stack = self._stack
        now = self.now

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = -1
            if keep:
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, layer, 0.0, index]
            stack.append(frame)
            start = now()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.events[name + ".raised"] += 1
                raise
            finally:
                end = now()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.time[name] += duration
                self.self_time[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[1] != layer:
                    self.busy[layer] += duration
                if keep:
                    self.spans[index] = (name, start, end,
                                         parent[3] if parent is not None else -1)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, name, keep=True, hook=None):
        original = getattr(owner, attr)   # raises if the binding is gone
        had_own = attr in vars(owner)
        setattr(owner, attr, self._wrap(original, name, keep, hook))
        self._patches.append((owner, attr, original if had_own else None))

    def install(self):
        p = self._patch
        for owner in (solver, mpc, oracle):
            p(owner, "optimize_trajectory", "solver.optimize_trajectory",
              hook=_on_solve)
        p(oracle, "fixed_horizon_ddp", "oracle.fixed_horizon_ddp", hook=_on_fixed)
        p(solver, "extend_backward", "solver.extend_backward", hook=_on_prefix)
        p(solver, "backward_sweep", "backward.backward_sweep", hook=_on_sweep)
        p(solver, "evaluate_candidates", "solver.evaluate_candidates",
          hook=_on_candidates)
        p(solver, "select_horizon", "solver.select_horizon")
        p(solver, "rollout", "solver.rollout", hook=_on_rollout)
        p(solver, "trajectory_cost", "trajectory.trajectory_cost")
        p(trajectory.Trajectory, "assert_consistent", "trajectory.assert_consistent")
        for owner in (trajectory, mpc, oracle):
            p(owner, "initial_trajectory", "trajectory.initial_trajectory")
        p(mpc, "run_episode", "mpc.run_episode")
        p(mpc, "mpc_step", "mpc.mpc_step", hook=_on_replan)
        p(mpc, "rollout_controls", "trajectory.rollout_controls")
        p(mpc, "obstacle_schedule_advance", "models.obstacle_schedule_advance")
        # once per knot of every sweep attempt
        for attr in ("q_expansion", "regularize", "value_recurrence"):
            p(backward, attr, "backward." + attr, keep=False)
        for attr in ("expand_cost", "expand_dynamics", "expand_terminal"):
            p(backward, attr, "model." + attr, keep=False)
        for cls in MODEL_CLASSES:
            for attr in MODEL_METHODS:
                p(cls, attr, "models." + attr, keep=False)
        p(models.Obstacle, "cost", "models.obstacle_cost", keep=False)
        p(models.Obstacle, "cost_derivatives", "models.obstacle_cost", keep=False)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextlib.contextmanager
    def recording(self):
        """Record what runs inside; the benchmark's own checks stay out."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Deterministic work counts: they repeat exactly for the same inputs."""
        c, e = self.calls, self.events
        return {
            "solver.rollouts": c["solver.rollout"],
            "solver.rollouts_shifted": e["rollouts_shifted"],
            "solver.prefix_knots": e["prefix_knots"],
            "solver.iterations": e["iterations"],
            "solver.accepted_iterations": e["accepted_iterations"],
            "solver.candidates_priced": e["candidates_priced"],
            "backward.sweeps": c["backward.backward_sweep"],
            "backward.knots": c["backward.q_expansion"],
            "backward.gamma_escalations": e["gamma_escalations"],
            "backward.factorization_failures": e["backward.value_recurrence.raised"],
            "models.step_calls": c["models.step"],
            "models.running_cost_calls": c["models.running_cost"],
            "models.jacobian_calls": c["models.dynamics_jacobians"],
            "models.inverse_step_calls": c["models.inverse_step"],
            "models.obstacle_cost_calls": c["models.obstacle_cost"],
            "oracle.fixed_solves": c["oracle.fixed_horizon_ddp"],
            "oracle.fixed_iterations": e["fixed_iterations"],
            "mpc.replans": c["mpc.mpc_step"],
            "mpc.inner_iterations": e["inner_iterations"],
            "mpc.degraded_steps": e["degraded_steps"],
        }

    def times(self) -> dict:
        """Busy and self times in units of ``now``; these vary with load."""
        t = self.time
        out = {
            "solver.rollout_s": t["solver.rollout"],
            "solver.prefix_s": t["solver.extend_backward"],
            "solver.pricing_s": t["solver.evaluate_candidates"] + t["solver.select_horizon"],
            "backward.sweep_s": t["backward.backward_sweep"],
            "backward.q_backup_s": (t["backward.q_expansion"] + t["backward.regularize"]
                                    + t["backward.value_recurrence"]),
            "model.expand_cost_s": t["model.expand_cost"],
            "models.busy_s": self.busy["models"],
            "trajectory.check_s": t["trajectory.assert_consistent"] + t["trajectory.trajectory_cost"],
            "trajectory.warm_start_s": t["trajectory.rollout_controls"],
            "mpc.snapshot_s": t["models.obstacle_schedule_advance"],
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_time[layer]
        return out

    def shift_accept_ratio(self) -> float:
        """Iterations that accepted a horizon other than T-bar, over
        iterations that tried one."""
        tried = self.events["shift_tried"]
        return self.events["shift_accepted"] / tried if tried else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- hooks: counts read from a wrapped call's arguments and result ----------


def _on_solve(tracer, args, kwargs, result):
    e = tracer.events
    e["iterations"] += result.iterations
    for rec in result.trace:
        if rec["accepted"]:
            e["accepted_iterations"] += 1
            if rec["t_star"] != rec["t_bar"]:
                e["shift_accepted"] += 1


def _on_fixed(tracer, args, kwargs, out):
    tracer.events["fixed_iterations"] += out[2].iterations


def _on_prefix(tracer, args, kwargs, prefix):
    tracer.events["prefix_knots"] += len(prefix)


def _on_sweep(tracer, args, kwargs, back):
    # each escalation multiplies gamma by ten
    gamma = _arg(args, kwargs, 3, "gamma")
    if gamma > 0 and back.gamma_used > gamma:
        tracer.events["gamma_escalations"] += round(math.log10(back.gamma_used / gamma))
    # one sweep per outer iteration: a new iteration has not tried a shift yet
    tracer._shift_tried = False


def _on_candidates(tracer, args, kwargs, candidates):
    tracer.events["candidates_priced"] += len(candidates)


def _on_rollout(tracer, args, kwargs, out):
    if _arg(args, kwargs, 4, "t0") != 0:
        tracer.events["rollouts_shifted"] += 1
        if not tracer._shift_tried:
            tracer._shift_tried = True
            tracer.events["shift_tried"] += 1


def _on_replan(tracer, args, kwargs, out):
    info = out[3]
    tracer.events["inner_iterations"] += info["iterations"]
    tracer.events["degraded_steps"] += bool(info["degraded"])

