"""Command-line driver for the benchmark experiments.

Subcommands: solve, sweep-ct, mpc, oracle, check.  Every command reads a
JSON config, writes machine-readable artifacts (CSV tables plus a JSON
summary embedding the resolved config) into --out, and uses exit codes
0 = success, 1 = usage/config error, 2 = non-convergence.  This is the only
module that formats artifacts: the library returns records, and two
writers here turn them into JSON and CSV.  The writers make --out, so a
command that fails on its config leaves no directory behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .model import (_finite_array, check_count, check_derivatives,
                    check_nonnegative, check_range)
from .models import make_model
from .mpc import MpcConfig, run_episode
from .oracle import bracketed_horizon, exhaustive_horizon
from .solver import SolverConfig, optimize_trajectory
from .trajectory import initial_trajectory

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2

# check draws at most this many states per sample before it gives up
DRAWS_PER_SAMPLE = 100

# top-level keys that mpc passes to MpcConfig as they stand
MPC_KEYS = ("inner_iterations", "noise_scale", "step_limit", "initial_horizon")
# top-level config keys that some command reads: one config file may serve
# every command, so a key only another command reads is not an error
CONFIG_KEYS = frozenset({
    "model", "solver", "x0", "initial_horizon",      # solve and the rest
    "c_t_list", "oracle_margin",                      # sweep-ct
    "t_range",                                        # oracle
    *MPC_KEYS, "receding_horizon",                    # mpc
    "samples", "sample_scale",                        # check
})


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{p} must hold a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValueError(f"missing config field: {key!r}")
    return cfg[key]


def _model_config(cfg: dict) -> dict:
    """A copy of the ``model`` entry: the model's name and its fields."""
    model_cfg = _require(cfg, "model")
    if not isinstance(model_cfg, dict):
        raise ValueError("model must be a JSON object naming a model")
    return dict(model_cfg)


def _build(cfg: dict, c_t=None):
    model_cfg = _model_config(cfg)
    if c_t is not None:
        model_cfg["c_t"] = c_t
    model = make_model(model_cfg)
    solver_cfg = SolverConfig.from_json(cfg.get("solver", {}))
    x0 = _finite_array(_require(cfg, "x0"), (model.dim_x,), "x0")
    return model, solver_cfg, x0


def _initial_horizon(cfg: dict, solver_cfg: SolverConfig) -> int:
    t0 = cfg.get("initial_horizon", sum(solver_cfg.horizon_bounds) // 2)
    check_count("initial_horizon", t0, 1)
    return t0


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, np.ndarray):
        return " ".join(f"{v:.9g}" for v in value)
    return "" if value is None else value


def _write_table(path: Path, header, rows):
    """CSV with one cell rule: bool -> 0/1, array -> space-joined %.9g,
    None -> empty."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, default=_json_default))


def _write_trajectory(path: Path, traj, dt):
    n, m = traj.states.shape[1], traj.controls.shape[1]
    header = (["t", "time"] + [f"x{i}" for i in range(n)]
              + [f"u{i}" for i in range(m)])
    _write_table(path, header, (
        [t, t * dt, *traj.states[t],
         *(traj.controls[t] if t < traj.horizon else [None] * m)]
        for t in range(traj.horizon + 1)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict, out: Path, seed: int) -> int:
    model, solver_cfg, x0 = _build(cfg)
    initial = initial_trajectory(model, x0, _initial_horizon(cfg, solver_cfg))
    tic = time.perf_counter()
    result = optimize_trajectory(model, initial, solver_cfg)
    wall = time.perf_counter() - tic

    _write_trajectory(out / "trajectory.csv", result.trajectory,
                      getattr(model, "dt", 1.0))
    columns = ("iteration", "t_bar", "j", "alpha", "gamma", "trust_radius",
               "t_tried", "t_star", "accepted", "rejected", "t_low")
    _write_table(out / "trace.csv", columns,
                 map(itemgetter(*columns), result.trace))
    _write_json(out / "summary.json", {
        "t_star": result.t_star,
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "status": result.status,
        "wall_time_s": wall,
        "config": cfg,
        "seed": seed,
        "trace": result.trace,
    })
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_sweep_ct(cfg: dict, out: Path, seed: int) -> int:
    c_t_list = _require(cfg, "c_t_list")
    if not isinstance(c_t_list, list):
        raise ValueError("c_t_list must be a list of numbers")
    oracle_margin = cfg.get("oracle_margin", 25)
    check_count("oracle_margin", oracle_margin, 1)
    rows = []
    all_ok = True
    for c_t in c_t_list:
        model, solver_cfg, x0 = _build(cfg, c_t=c_t)
        dt = getattr(model, "dt", 1.0)
        initial = initial_trajectory(model, x0,
                                     _initial_horizon(cfg, solver_cfg))
        result = optimize_trajectory(model, initial, solver_cfg)
        sweep = (bracketed_horizon(model, solver_cfg, x0, result.t_star,
                                   oracle_margin) if result.converged else None)
        # no oracle is run for a solve that did not converge, and an oracle
        # with no converged horizon leaves the row unconverged too
        if sweep is None or sweep.t_exact is None:
            all_ok = False
            rows.append((c_t, result.t_star, result.t_star * dt, None,
                         result.cost, None, None, False))
            continue
        # a relative error has no meaning against an exact cost of 0
        err_pct = (100.0 * (result.cost - sweep.j_exact) / sweep.j_exact
                   if sweep.j_exact != 0 else None)
        rows.append((c_t, result.t_star, result.t_star * dt, sweep.t_exact,
                     result.cost, sweep.j_exact, err_pct, True))
    _write_table(out / "sweep_ct.csv",
                 ("c_t", "T_ours_steps", "T_ours_seconds", "T_exact",
                  "cost_ours", "cost_exact", "cost_error_pct", "converged"),
                 rows)
    _write_json(out / "sweep_ct_summary.json", {"config": cfg, "seed": seed})
    return EXIT_OK if all_ok else EXIT_NONCONVERGED


def cmd_oracle(cfg: dict, out: Path, seed: int) -> int:
    model, solver_cfg, x0 = _build(cfg)
    t_lo, t_hi = check_range("t_range", _require(cfg, "t_range"), 1)
    sweep = exhaustive_horizon(model, range(t_lo, t_hi + 1), solver_cfg, x0)
    columns = ("T", "J", "iterations", "converged")
    _write_table(out / "horizon_sweep.csv", columns,
                 map(attrgetter(*columns), sweep.records))
    _write_json(out / "oracle_summary.json", {
        "t_exact": sweep.t_exact, "j_exact": sweep.j_exact,
        "config": cfg, "seed": seed,
    })
    if sweep.t_exact is None:
        print(f"error: no fixed-horizon solve converged for T in "
              f"[{t_lo}, {t_hi}]", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _episode_summary(model, log) -> dict:
    """One episode's entry of mpc_summary.json."""
    goal = getattr(model, "goal", None)
    goal_distance = None
    if goal is not None:
        goal = np.asarray(goal, dtype=float)
        goal_distance = float(np.linalg.norm(log.final_state[:goal.size] - goal))
    times = [rec.solve_time for rec in log.steps]
    stats = ((np.mean(times), *np.percentile(times, [50, 95]), max(times))
             if times else (0.0,) * 4)
    return {"terminated": log.terminated, "steps": log.steps_used,
            "total_cost": log.total_cost,
            "final_goal_distance": goal_distance,
            **{f"{name}_solve_time_s": float(value) for name, value
               in zip(("mean", "p50", "p95", "max"), stats)}}


def cmd_mpc(cfg: dict, out: Path, seed: int) -> int:
    model, solver_cfg, x0 = _build(cfg)
    mpc_cfg = MpcConfig(solver=solver_cfg, seed=seed, **{
        key: cfg[key] for key in MPC_KEYS if key in cfg})
    t_fixed = cfg.get("receding_horizon", 40)
    check_count("receding_horizon", t_fixed, 2)

    logs = {
        "optimal": run_episode(model, x0, mpc_cfg),
        "receding": run_episode(model, x0, mpc_cfg, t_fixed=t_fixed),
    }

    columns = ("sim_time", "planned_horizon", "solve_time", "running_cost",
               "inner_iterations", "degraded", "state", "action")
    for name, log in logs.items():
        _write_table(out / f"episode_{name}.csv", ("step",) + columns,
                     ((i, *attrgetter(*columns)(rec))
                      for i, rec in enumerate(log.steps)))
        _write_json(out / f"episode_{name}.json", log)
    _write_json(out / "mpc_summary.json", {
        **{name: _episode_summary(model, log) for name, log in logs.items()},
        "config": cfg, "seed": seed})
    return EXIT_OK


def cmd_check(cfg: dict, out: Path, seed: int) -> int:
    model_cfg = _model_config(cfg)
    model = make_model(model_cfg)
    rng = np.random.default_rng(seed)
    n_samples = cfg.get("samples", 100)
    check_count("samples", n_samples, 1)
    scale = check_nonnegative("sample_scale", cfg.get("sample_scale", 0.3),
                              positive=True)
    samples = []
    for _ in range(DRAWS_PER_SAMPLE * n_samples):
        x = scale * rng.standard_normal(model.dim_x)
        u = model.nominal_control(x) + scale * rng.standard_normal(model.dim_u)
        if model.admissible(x):
            samples.append((x, u))
            if len(samples) == n_samples:
                break
    else:
        # a scale far beyond the admissible region would draw forever
        raise ValueError(
            f"{len(samples)} of {n_samples} samples admissible after "
            f"{DRAWS_PER_SAMPLE * n_samples} draws; lower sample_scale "
            f"(now {scale:g})")
    report = check_derivatives(model, samples)
    _write_json(out / "derivative_report.json", {
        "model": model_cfg["model"],
        "passed": report.passed,
        "tol": report.tol,
        "discrepancies": report.discrepancies,
        "failures": report.failures,
        "config": cfg, "seed": seed,
    })
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NONCONVERGED


COMMANDS = {
    "solve": cmd_solve,
    "sweep-ct": cmd_sweep_ct,
    "mpc": cmd_mpc,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horizonddp",
        description="Optimal-horizon trajectory optimization benchmarks")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means
        # non-convergence, and 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK

    try:
        # numpy's generators take no negative seed
        check_count("--seed", args.seed, 0)
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, Path(args.out), args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
