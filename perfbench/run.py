"""Benchmark of horizonddp: one-shot optimal-horizon solves and closed-loop MPC.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  The
workload's inputs are generated from the seed, and its operations are run
in passes, one after another, until ``--seconds`` have gone by (at least one
pass).  Every output is checked.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give each metric with its sample count.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation installed.  With ``--trace 1`` plain and traced passes
alternate: the traced ones give the per-layer counts and times (see
tracing.py), and their time ratio to the plain ones is the tracing overhead.
All times are read from a clock that cancels the drift in machine speed
(see refclock.py), in reference seconds: unit ref_s or ref_ms, and s for
setup_s, whose unit the benchmark's contract fixes.
"""

import os

# one BLAS thread; this must happen before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from refclock import RefClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5


def load_program() -> None:
    """Import horizonddp from the checkout's source tree."""
    sys.path.insert(0, str(SRC))
    import horizonddp
    if Path(horizonddp.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"horizonddp was imported from {horizonddp.__file__}, "
                          f"not from {SRC}")


def set_up(build, seed):
    """Build the workload and run one short solve on its first case, so lazy
    initialisation is paid here and not by the first timed operation."""
    from horizonddp import solver, trajectory

    workload = build(seed)
    case = workload.cases[0]
    cfg = replace(case.cfg, horizon_bounds=(1, 20), max_iterations=2)
    solver.optimize_trajectory(
        case.model, trajectory.initial_trajectory(case.model, case.x0, 10), cfg)
    return workload


def run_until(seconds, one_pass):
    """Closed loop: call one_pass until the wall time is up, at least once."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        gc.collect()
        results.append(one_pass())
    return results


def end_to_end(passes, setup_s):
    """Metric name -> (value, unit, sample count)."""
    solve = [s for p in passes for s in p.solve_s]
    fixed = [s for p in passes for s in p.fixed_s]
    steps_ms = np.array([s for p in passes for s in p.step_s]) * 1e3
    solution = [c for p in passes for c in p.solution_cost]
    episode = [c for p in passes for c in p.episode_cost]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "solve_s_p50": (statistics.median(solve), "ref_s", len(solve)),
        "solve_s_total": (statistics.median(sum(p.solve_s) for p in passes), "ref_s",
                          len(passes)),
        "fixed_solve_s_p50": (statistics.median(fixed), "ref_s", len(fixed)),
        "mpc_step_ms_p50": (float(np.percentile(steps_ms, 50)), "ref_ms", steps_ms.size),
        "mpc_step_ms_p95": (float(np.percentile(steps_ms, 95)), "ref_ms", steps_ms.size),
        "solution_cost_mean": (statistics.fmean(solution), "cost", len(solution)),
        "episode_cost_mean": (statistics.fmean(episode), "cost", len(episode)),
        "ok_ops_frac": (1.0 - failed / attempted, "frac", attempted),
    }


def per_layer(plain, traced, tracers):
    """Metric name -> (value, unit, sample count) from the traced passes,
    one tracer each; the overhead compares their time with the plain
    passes'."""
    n = len(traced)
    out = {name: (value, "count", n) for name, value in tracers[0].counts().items()}
    times = [t.times() for t in tracers]
    for name in times[0]:
        out[name] = (statistics.median(t[name] for t in times), "ref_s", n)
    out["solver.shift_accept_ratio"] = (
        statistics.median(t.shift_accept_ratio() for t in tracers), "frac", n)
    overhead = (statistics.median(p.ops_s for p in traced)
                / statistics.median(p.ops_s for p in plain) - 1.0)
    out["trace.overhead_frac"] = (overhead, "frac", n)
    return out


def print_shares(metrics, traced):
    """Each layer time as a share of the traced passes' operation time."""
    ops = statistics.median(p.ops_s for p in traced)
    print(f"share of {ops:.3f} reference seconds of traced operations:")
    for name, (value, unit, _) in sorted(metrics.items()):
        if unit == "ref_s":
            print(f"  {name:28s} {value:10.4f} ref_s {100 * value / ops:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with RefClock() as clock:
        tic = clock.now()
        try:
            load_program()
        except ImportError as exc:
            print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
            return 2
        import_s = clock.now() - tic
        from tracing import Tracer
        from workloads import WORKLOADS, run_pass

        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        build = WORKLOADS[args.workload]

        setup_times = []
        for _ in range(SETUP_REPEATS):
            tic = clock.now()
            workload = set_up(build, args.seed)
            setup_times.append(clock.now() - tic)
        setup_s = import_s + statistics.median(setup_times)

        wrong = []
        if not args.trace:
            passes = run_until(args.seconds, lambda: run_pass(workload, clock))
            metrics = end_to_end(passes, setup_s)
        else:
            plain, tracers = [], []

            def traced_pass():
                plain.append(run_pass(workload, clock))
                gc.collect()
                tracer = Tracer(now=clock.now)
                with tracer:
                    result = run_pass(workload, clock, tracer.recording)
                tracers.append(tracer)
                return result

            traced = run_until(args.seconds, traced_pass)
            passes = plain + traced
            counts = [t.counts() for t in tracers]
            if any(c != counts[0] for c in counts):
                wrong.append(f"work counts differ between traced passes: {counts}")
            metrics = per_layer(plain, traced, tracers)
            print_shares(metrics, traced)
            SPAN_DIR.mkdir(exist_ok=True)
            tracers[-1].write_spans(SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"reference seconds per wall second: median "
          f"{statistics.median(clock.scales):.4f}, range {min(clock.scales):.4f}-"
          f"{max(clock.scales):.4f} (n={len(clock.scales)} samples)")

    wrong += [w for p in passes for w in p.wrong]
    for line in wrong:
        print(f"wrong output: {line}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
