"""Self-tests of the benchmark: tracing coverage, repeatable counts, and the
output checks.

    python3 perfbench/selftest.py

Each workload is cut to a few operations so the tests take under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it pins BLAS to one thread)
import numpy as np  # noqa: E402
from horizonddp import backward, oracle  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

SEED = 3
CLOCK = RefClock()   # not armed: these tests check counts, not times
LAYER_MAP = json.loads((HERE / "layers.json").read_text())["metrics"]


def small(name):
    """The workload cut to the operations that still exercise every layer
    it is predicted to exercise."""
    w = WORKLOADS[name](SEED)
    if name == "cartpole-sweep":
        return replace(w, cases=w.cases[3:4], episodes=w.episodes[:1])  # c_t = 30
    if name == "nav-mpc":
        return replace(w, cases=w.cases[:1], episodes=w.episodes[:2])
    return replace(w, cases=w.cases[:1], episodes=w.episodes[:1])


def traced(workload_or_fn):
    """Per-layer values of one traced pass (or call), and its pass result."""
    tracer = Tracer()
    with tracer:
        if callable(workload_or_fn):
            with tracer.recording():
                out = workload_or_fn()
        else:
            out = run_pass(workload_or_fn, CLOCK, tracer.recording)
    values = dict(tracer.counts())
    values.update(tracer.times())
    values["solver.shift_accept_ratio"] = tracer.shift_accept_ratio()
    return values, tracer.counts(), out


class TracingCoverage(unittest.TestCase):
    """A layer whose binding was renamed, inlined or bypassed records
    nothing; these tests turn that into a failure."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for name in WORKLOADS:
            cls.runs[name] = [traced(small(name)) for _ in range(2)]

    def test_every_layer_records_work_where_predicted(self):
        for name in WORKLOADS:
            values, _, _ = self.runs[name][0]
            for metric, entry in LAYER_MAP.items():
                self.assertIn(metric, values)
                if name in entry["exercised_on"]:
                    self.assertGreater(values[metric], 0, f"{metric} on {name}")
            for layer in LAYERS:
                self.assertGreater(values[layer + ".self_s"], 0, f"{layer} on {name}")

    def test_counts_repeat_exactly(self):
        for name in WORKLOADS:
            (_, first, _), (_, second, _) = self.runs[name]
            self.assertEqual(first, second, name)
            for key in ("solver.iterations", "solver.rollouts", "models.step_calls"):
                self.assertGreater(first[key], 0, f"{key} on {name}")

    def test_fixed_horizon_half_has_no_prefix(self):
        case = small("quadrotor-oneshot").cases[0]
        values, _, _ = traced(lambda: oracle.fixed_horizon_ddp(
            case.model, 34, case.cfg, x0=case.x0))
        self.assertGreater(values["solver.iterations"], 0)
        self.assertGreater(values["solver.prefix_s"], 0)   # called with S = 0
        self.assertEqual(values["solver.prefix_knots"], 0)
        self.assertEqual(values["solver.rollouts_shifted"], 0)

    def test_degraded_replans_are_counted(self):
        # a lower horizon bound above one makes the last replans of a
        # swing-up start outside the bounds; mpc_step then degrades
        w = small("cartpole-sweep")
        ep = w.episodes[0]
        cfg = replace(ep.cfg, solver=replace(ep.cfg.solver, horizon_bounds=(10, 400)))
        values, _, _ = traced(replace(w, cases=(), episodes=(replace(ep, cfg=cfg),)))
        self.assertGreater(values["mpc.degraded_steps"], 0)

    def test_factorization_failures_are_counted(self):
        # no workload fails a Q_uu factorization at this commit, so raise one
        # through the binding the sweep calls
        q = backward.QExpansion(Q_xx=np.eye(2), Q_ux=np.zeros((1, 2)),
                                Q_uu=-np.eye(1), Q_x=np.zeros(2), Q_u=np.zeros(1),
                                Q_0=0.0)

        def failing_backup():
            with self.assertRaises(backward.NeedsRegularization):
                backward.value_recurrence(q)

        values, _, _ = traced(failing_backup)
        self.assertEqual(values["backward.factorization_failures"], 1)


class OutputChecks(unittest.TestCase):

    def test_early_stop_counts_as_failed_op(self):
        w = small("nav-mpc")
        cases = tuple(replace(c, cfg=replace(c.cfg, max_iterations=1)) for c in w.cases)
        episodes = tuple(replace(e, cfg=replace(e.cfg, step_limit=2)) for e in w.episodes)
        result = run_pass(replace(w, cases=cases, episodes=episodes), CLOCK)
        self.assertEqual(result.attempted, len(cases) + len(episodes))
        self.assertEqual(result.failed, result.attempted)
        self.assertEqual(result.wrong, [])   # unconverged, but not wrong
        metrics = run.end_to_end([result, run_pass(w, CLOCK)], setup_s=1.0)
        self.assertEqual(metrics["ok_ops_frac"][0], 0.5)

    def test_exits_nonzero_without_the_program(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nav-mpc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
