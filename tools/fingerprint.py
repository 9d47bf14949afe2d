"""One sha256 over a fixed set of solves and MPC episodes of a source tree.

Usage: python3 tools/fingerprint.py <tree> [<other-tree>]

Imports ``horizonddp`` from ``<tree>/src`` and runs:
- the cartpole solves at c_t = 1, 3, 10, 30 and 100 (bounds (10, 400),
  initial horizon 150);
- the quadrotor solve of acceptance criterion 5, and the noise-free MPC
  episode from its start (bounds (1, 150), 5 inner iterations, initial
  horizon 40);
- the second-order (DDP) cartpole solve at c_t = 10;
- the criterion-6 navigation episode, optimal-horizon and as the receding
  baseline at t_fixed = 40.

The digest covers every trajectory, cost, trace record and candidate, and
every MPC step record except its wall-clock solve time, so two trees with
the same digest solve these problems bit for bit alike.  One summary line
per run goes to stderr, with the run's final cost to the last bit, the
line-search rollouts the run made, how many of them rolled out a shifted
horizon (t0 != 0), the model ``step`` calls the run made, and the first
12 hex digits of the run's own digest; the digest of all runs goes to
stdout.  The counts are reported, not hashed.

Given two trees, each is fingerprinted in its own subprocess, and one line
per run says whether the two agree on iterations, T*, status, steps,
rollouts, shifted rollouts and step calls, with the relative gap between
their final costs and the two run digests, so that a moved total digest
can be traced to its runs.  The exit status is 1 when a count differs or
a gap exceeds 1e-12; run digests that differ do not change it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

# wall-clock fields, the only ones that differ between identical runs
_SKIP_FIELDS = {"solve_time"}


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
        h.update(b"D" + str(len(obj)).encode() + b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(b"C" + type(obj).__name__.encode() + b"(")
        for f in dataclasses.fields(obj):
            if f.name not in _SKIP_FIELDS:
                _feed(h, f.name)
                _feed(h, getattr(obj, f.name))
        h.update(b")")
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _runs(hd):
    """Yield (label, result) for every fingerprinted run."""
    cartpole = hd.SolverConfig(horizon_bounds=(10, 400), window_s=10,
                               max_iterations=300)
    for c_t in (1.0, 3.0, 10.0, 30.0, 100.0):
        model = hd.CartpoleModel(c_t=c_t)
        yield f"cartpole c_t={c_t:g}", hd.optimize_trajectory(
            model, hd.initial_trajectory(model, np.zeros(4), 150), cartpole)

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


def _summary(result) -> str:
    if hasattr(result, "steps_used"):
        return f"steps={result.steps_used} cost={result.total_cost!r}"
    return (f"iterations={result.iterations} T*={result.t_star} "
            f"status={result.status} J={result.cost!r}")


def _count_rollouts(solver, counts: dict) -> None:
    """Wrap ``solver.rollout`` so each call, and each shifted one, is counted."""
    inner = solver.rollout

    def rollout(*args, **kwargs):
        counts["rollouts"] += 1
        counts["shifted"] += kwargs["t0"] != 0
        return inner(*args, **kwargs)

    solver.rollout = rollout


def _count_steps(models, counts: dict) -> None:
    """Wrap ``step`` on every registered model class so each call is
    counted."""
    for cls in models.MODEL_REGISTRY.values():
        inner = cls.step

        def step(self, x, u, inner=inner):
            counts["step_calls"] += 1
            return inner(self, x, u)

        cls.step = step


def fingerprint(tree: Path) -> str:
    sys.path.insert(0, str(tree / "src"))
    import horizonddp as hd
    import horizonddp.models
    import horizonddp.solver

    if Path(hd.__file__).resolve().parent.parent != (tree / "src").resolve():
        raise ImportError(f"horizonddp was imported from {hd.__file__}")
    counts = {"rollouts": 0, "shifted": 0, "step_calls": 0}
    _count_rollouts(horizonddp.solver, counts)
    _count_steps(horizonddp.models, counts)
    h = hashlib.sha256()
    for label, result in _runs(hd):
        run = hashlib.sha256()
        for digest in (h, run):
            _feed(digest, label)
            _feed(digest, result)
        print(f"{label}: {_summary(result)} rollouts={counts['rollouts']} "
              f"shifted={counts['shifted']} step_calls={counts['step_calls']} "
              f"digest={run.hexdigest()[:12]}", file=sys.stderr)
        counts.update(rollouts=0, shifted=0, step_calls=0)
    return h.hexdigest()


# relative cost gap two trees may show on one run
_COST_RTOL = 1e-12
_COST_KEYS = ("J", "cost")
# the per-run digest is reported, not compared
_DIGEST_KEY = "digest"


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
        counts = [key for key in a if key not in (*_COST_KEYS, _DIGEST_KEY)]
        differ = [key for key in counts if a[key] != b.get(key)]
        cost = next(key for key in _COST_KEYS if key in a)
        x, y = float(a[cost]), float(b.get(cost, "nan"))
        gap = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y), 1e-300)
        if differ or not gap <= _COST_RTOL:
            status = 1
        same = "differ in " + ", ".join(differ) if differ else "equal"
        print(f"{label}: {'/'.join(counts)} {same}; {cost} gap {gap:.1e}; "
              f"digest {a.get(_DIGEST_KEY)} {b.get(_DIGEST_KEY)}")
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
