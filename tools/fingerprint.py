"""One sha256 over a fixed set of solves and MPC episodes of a source tree.

Usage: python3 tools/fingerprint.py <tree> [<other-tree>]

Imports ``horizonddp`` from ``<tree>/src`` and runs:
- the cartpole solves at c_t = 1, 3, 10, 30 and 100 (bounds (10, 400),
  initial horizon 150);
- the noise-free cartpole MPC episodes from rest at c_t = 10 and 30 of the
  ``cartpole-sweep`` benchmark workload (bounds (1, 400), 5 inner
  iterations, step limit 500, initial horizon 150);
- the quadrotor solve of acceptance criterion 5, and the noise-free MPC
  episode from its start (bounds (1, 150), 5 inner iterations, initial
  horizon 40);
- the second-order (DDP) cartpole solve at c_t = 10;
- the cartpole solve at c_t = 30 with every derivative differenced knot by
  knot (a ``CartpoleModel`` without ``stacked_derivatives`` whose three
  derivative methods return None), which reaches the fallback paths of
  ``horizonddp.model``;
- the criterion-6 navigation episode, optimal-horizon and as the receding
  baseline at t_fixed = 40.

The digest covers every trajectory, cost, trace record and candidate, and
every MPC step record, except the wall-clock solve time and the work
counts a trace record and a ``BackwardResult`` carry (``tried``,
``backups``, ``prefix_knots``), so two trees with the same digest solve
these problems bit for bit alike.  One summary line per run goes to
stderr, with the run's final cost to the last bit and counts read off the
trace records of its solves (an episode's first solve and every replan,
kept as ``mpc``'s binding of ``optimize_trajectory`` returns them): the
line-search rollouts the run made (``tried``), how many of them rolled out
a shifted horizon (T != T-bar), how many rolled out the tail's
interpolated step size (an alpha not in ``solver._STEP_SIZES``), how many
shifted tries were rejected (a record with ``t_tried != t_bar ==
t_star``: the pass retried at T-bar) and how many rollouts those tries
spent, the model ``step`` calls the run made (the one count taken by a
wrapper, on the model classes), its knot backups, the knots of every
prefix it built, how its converged solves ended (``stationary``: the last
trace record was not accepted, so the solve stopped at a stationary
sweep; ``stepped``: it was, so the solve stopped on an exact step), on an
episode's line how many of its replans returned a plan longer than their
warm start (``grown``) and, read off its step records, how many steps
kept their previous solve (``kept``: not degraded, 0 inner iterations),
the first 12 hex digits of the digest of the run's answer (``plan``: a
solve's trajectory, or an episode's step states, actions and planned
horizons and its final state) and those of the run's own digest; the
digest of all runs goes to stdout.

Given two trees, each is fingerprinted in its own subprocess, and one line
per run says whether the two agree on iterations, T*, status, steps,
rollouts, shifted and interpolated rollouts, rejected shifted tries and
their rollouts, step calls, knot backups, prefix knots, stationary and
stepped ends, and grown and kept replans, with the relative gap between
their final costs, the two plan digests and the two run digests, so that
a moved total digest can be traced to its runs, and a moved run digest to
the answer or only to the trace.  The exit status is 1 when a count
differs or a gap exceeds 1e-12; plan or run digests that differ do not
change it.  Both trees must write the trace keys the counts are read
from; a tree older than them is fingerprinted with its own copy of this
script.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

# dataclass fields and trace keys left out of the digest: the wall-clock
# solve time, the only field that differs between identical runs, and the
# work counts, which the summary lines report
_UNHASHED = frozenset({"solve_time", "tried", "backups", "prefix_knots"})


def _feed(h, obj) -> None:
    """Hash obj by type and exact value."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode() + b";")
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"S" + str(len(obj)).encode() + b":" + obj.encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj, dtype=float)
        h.update(b"A" + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode() + b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        keys = sorted(obj.keys() - _UNHASHED)
        h.update(b"D" + str(len(keys)).encode() + b"{")
        for key in keys:
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(b"C" + type(obj).__name__.encode() + b"(")
        for f in dataclasses.fields(obj):
            if f.name not in _UNHASHED:
                _feed(h, f.name)
                _feed(h, getattr(obj, f.name))
        h.update(b")")
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _no_derivatives(self, *args):
    """A derivative method that leaves its derivatives to differencing."""
    return None


def _runs(hd):
    """Yield (label, result) for every fingerprinted run."""
    cartpole = hd.SolverConfig(horizon_bounds=(10, 400), window_s=10,
                               max_iterations=300)
    for c_t in (1.0, 3.0, 10.0, 30.0, 100.0):
        model = hd.CartpoleModel(c_t=c_t)
        yield f"cartpole c_t={c_t:g}", hd.optimize_trajectory(
            model, hd.initial_trajectory(model, np.zeros(4), 150), cartpole)
    cartpole_mpc = hd.MpcConfig(
        solver=dataclasses.replace(cartpole, horizon_bounds=(1, 400)),
        inner_iterations=5, step_limit=500, initial_horizon=150)
    for c_t in (10.0, 30.0):
        yield f"cartpole episode c_t={c_t:g}", hd.run_episode(
            hd.CartpoleModel(c_t=c_t), np.zeros(4), cartpole_mpc)

    model = hd.QuadrotorModel(c_t=1.0)
    x0 = np.zeros(12)
    x0[:3] = [1.5, 1.0, -1.0]
    quadrotor = hd.SolverConfig(horizon_bounds=(5, 150), window_s=10)
    yield "quadrotor", hd.optimize_trajectory(
        model, hd.initial_trajectory(model, x0, 40), quadrotor)
    yield "quadrotor episode", hd.run_episode(model, x0, hd.MpcConfig(
        solver=dataclasses.replace(quadrotor, horizon_bounds=(1, 150)),
        inner_iterations=5, step_limit=200, initial_horizon=40))

    model = hd.CartpoleModel(c_t=10.0)
    yield "cartpole ddp c_t=10", hd.optimize_trajectory(
        model, hd.initial_trajectory(model, np.zeros(4), 150),
        dataclasses.replace(cartpole, second_order=True))

    differenced = type("DifferencedCartpole", (hd.CartpoleModel,), {
        "stacked_derivatives": False, "dynamics_jacobians": _no_derivatives,
        "running_cost_derivatives": _no_derivatives,
        "terminal_cost_derivatives": _no_derivatives})(c_t=30.0)
    yield "cartpole differenced c_t=30", hd.optimize_trajectory(
        differenced, hd.initial_trajectory(differenced, np.zeros(4), 150),
        cartpole)

    obstacles = (
        hd.Obstacle(center=(3.0, 0.5), radius=0.8, weight=30.0,
                    schedule=((2.0, (0.0, -0.4)), (3.0, (0.2, 0.3)))),
        hd.Obstacle(center=(5.5, -0.8), radius=0.7, weight=30.0,
                    schedule=((4.0, (0.0, 0.35)),)),
    )
    model = hd.PointMassNavModel(obstacles=obstacles, c_t=5.0,
                                 wf_pos=400.0, wf_vel=200.0)
    solver = hd.SolverConfig(horizon_bounds=(1, 120), window_s=5,
                             max_iterations=100, convergence_tol=1e-4,
                             k_tol=1e-3)
    cfg = hd.MpcConfig(solver=solver, inner_iterations=5, noise_scale=0.01,
                       step_limit=200, seed=0, initial_horizon=40)
    yield "nav optimal-horizon", hd.run_episode(model, np.zeros(4), cfg)
    yield "nav receding-horizon", hd.run_episode(model, np.zeros(4), cfg,
                                                 t_fixed=40)


def _plan(result):
    """The run's answer: a solve's trajectory, or an episode's step states,
    actions and planned horizons and its final state."""
    if hasattr(result, "steps_used"):
        return ([(s.state, s.action, s.planned_horizon) for s in result.steps],
                result.final_state)
    return result.trajectory


def _summary(result) -> str:
    if hasattr(result, "steps_used"):
        return f"steps={result.steps_used} cost={result.total_cost!r}"
    return (f"iterations={result.iterations} T*={result.t_star} "
            f"status={result.status} J={result.cost!r}")


def _count_steps(models, steps: dict) -> None:
    """Wrap ``step`` on every registered model class so each call is
    counted."""
    for cls in models.MODEL_REGISTRY.values():
        inner = cls.step

        def step(self, x, u, inner=inner):
            steps["calls"] += 1
            return inner(self, x, u)

        cls.step = step


def _collect_solves(mpc, solves: list) -> None:
    """Wrap ``optimize_trajectory`` at ``mpc``'s binding, which an episode
    calls for its first solve and every replan, so each result is kept."""
    inner = mpc.optimize_trajectory

    def optimize_trajectory(*args, **kwargs):
        solves.append(inner(*args, **kwargs))
        return solves[-1]

    mpc.optimize_trajectory = optimize_trajectory


def _tally(solves, step_calls: int, step_sizes) -> dict:
    """The counts of a run's solves, read off their trace records."""
    records = [r for s in solves for r in s.trace]
    tried = [(r, T, alpha) for r in records for T, alpha in r["tried"]]
    # a rejected shifted try was retried at T-bar
    rejected = [r for r in records
                if r["t_tried"] != r["t_bar"] == r["t_star"]]
    ends = [s.trace[-1]["accepted"] for s in solves if s.converged]
    return {
        "rollouts": len(tried),
        "shifted": sum(T != r["t_bar"] for r, T, _ in tried),
        "interpolated": sum(a not in step_sizes for _, _, a in tried),
        "rejected_shifts": len(rejected),
        "rejected_rollouts": sum(T != r["t_bar"] for r in rejected
                                 for T, _ in r["tried"]),
        "step_calls": step_calls,
        "backups": sum(r["backups"] for r in records),
        "prefix_knots": sum(r["prefix_knots"] for r in records),
        "stationary": ends.count(False),
        "stepped": ends.count(True),
    }


def fingerprint(tree: Path) -> str:
    sys.path.insert(0, str(tree / "src"))
    import horizonddp as hd
    import horizonddp.models
    import horizonddp.mpc
    import horizonddp.solver

    if Path(hd.__file__).resolve().parent.parent != (tree / "src").resolve():
        raise ImportError(f"horizonddp was imported from {hd.__file__}")
    steps, solves = {"calls": 0}, []
    _count_steps(horizonddp.models, steps)
    _collect_solves(horizonddp.mpc, solves)
    h = hashlib.sha256()
    for label, result in _runs(hd):
        run, plan = hashlib.sha256(), hashlib.sha256()
        for digest in (h, run):
            _feed(digest, label)
            _feed(digest, result)
        _feed(plan, _plan(result))
        episode = hasattr(result, "steps_used")
        counts = _tally(solves if episode else [result], steps["calls"],
                        horizonddp.solver._STEP_SIZES)
        if episode:
            # replans only: the first solve chooses its horizon freely
            counts["grown"] = sum(s.t_star > s.trace[0]["t_bar"]
                                  for s in solves[1:] if s.trace)
            counts["kept"] = sum(not r.degraded and r.inner_iterations == 0
                                 for r in result.steps)
        tally = " ".join(f"{key}={value}" for key, value in counts.items())
        print(f"{label}: {_summary(result)} {tally} "
              f"plan={plan.hexdigest()[:12]} digest={run.hexdigest()[:12]}",
              file=sys.stderr)
        steps["calls"] = 0
        solves.clear()
    return h.hexdigest()


# relative cost gap two trees may show on one run
_COST_RTOL = 1e-12
_COST_KEYS = ("J", "cost")
# the per-run plan and run digests are reported, not compared
_DIGEST_KEYS = ("plan", "digest")


def _parse(stderr: str) -> dict:
    """{label: {key: value}} from the summary lines of one tree; other
    lines, such as warnings, are skipped."""
    runs = {}
    for line in stderr.splitlines():
        label, _, fields = line.rpartition(": ")
        pairs = [field.partition("=") for field in fields.split()]
        if label and pairs and all(sep for _, sep, _ in pairs):
            runs[label] = {key: value for key, _, value in pairs}
    return runs


def compare(tree: Path, other: Path) -> int:
    """Fingerprint both trees side by side; 1 when they differ beyond the
    cost tolerance or in any count."""
    procs = [subprocess.Popen([sys.executable, __file__, str(t)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for t in (tree, other)]
    outs = [p.communicate() for p in procs]
    for t, p, (_, err) in zip((tree, other), procs, outs):
        if p.returncode != 0:
            print(f"{t} failed:\n{err}", file=sys.stderr)
            return 1
    (digest_a, err_a), (digest_b, err_b) = outs
    runs_a, runs_b = _parse(err_a), _parse(err_b)
    status = 0 if runs_a and list(runs_a) == list(runs_b) else 1
    for label, a in runs_a.items():
        b = runs_b.get(label, {})
        counts = [key for key in a if key not in (*_COST_KEYS, *_DIGEST_KEYS)]
        differ = [key for key in counts if a[key] != b.get(key)]
        cost = next(key for key in _COST_KEYS if key in a)
        x, y = float(a[cost]), float(b.get(cost, "nan"))
        gap = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y), 1e-300)
        if differ or not gap <= _COST_RTOL:
            status = 1
        same = "differ in " + ", ".join(differ) if differ else "equal"
        digests = "; ".join(f"{key} {a.get(key)} {b.get(key)}"
                            for key in _DIGEST_KEYS)
        print(f"{label}: {'/'.join(counts)} {same}; {cost} gap {gap:.1e}; "
              f"{digests}")
    print(f"digests: {digest_a.strip()} {digest_b.strip()}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2:
        return compare(Path(argv[0]), Path(argv[1]))
    if len(argv) != 1:
        print("usage: fingerprint.py <tree> [<other-tree>]", file=sys.stderr)
        return 1
    print(fingerprint(Path(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
