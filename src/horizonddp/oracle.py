"""Brute-force exhaustive fixed-horizon baseline.

Running fixed-horizon DDP for every candidate horizon certifies the
optimal horizon; the optimal-horizon solver is compared against this
lower envelope in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import SystemModel, check_count
from .solver import SolverConfig, optimize_trajectory
from .trajectory import initial_trajectory


@dataclass(frozen=True)
class HorizonRecord:
    T: int
    J: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class HorizonSweepResult:
    """Per-horizon table with the argmin over converged entries; t_exact
    and j_exact are None when no entry converged."""

    records: tuple
    t_exact: int | None
    j_exact: float | None


def fixed_horizon_ddp(model: SystemModel, T: int, cfg: SolverConfig, x0):
    """DDP with horizon selection disabled: S = 0 and bounds (T, T),
    cold-started from x0."""
    check_count("T", T, 1)
    fixed_cfg = replace(cfg, window_s=0, horizon_bounds=(T, T))
    result = optimize_trajectory(model, initial_trajectory(model, x0, T),
                                 fixed_cfg)
    return result.trajectory, result.cost, result


def _solve_horizon(model, T, cfg, x0) -> HorizonRecord:
    _, J, result = fixed_horizon_ddp(model, T, cfg, x0=x0)
    return HorizonRecord(T=T, J=J, iterations=result.iterations,
                         converged=result.converged)


def _argmin(records) -> HorizonSweepResult:
    """Argmin over converged records, ties toward the smaller horizon."""
    best = min((r for r in records if r.converged),
               key=lambda r: (r.J, r.T), default=None)
    t_exact, j_exact = (best.T, best.J) if best else (None, None)
    return HorizonSweepResult(records=tuple(records), t_exact=t_exact,
                              j_exact=j_exact)


def exhaustive_horizon(model: SystemModel, t_range, cfg: SolverConfig,
                       x0) -> HorizonSweepResult:
    """fixed_horizon_ddp per T; argmin over converged entries, ties toward
    the smaller horizon.  Each solve is cold-started for independence."""
    t_values = list(t_range)
    if not t_values:
        raise ValueError("non-empty horizon range required")
    for t in t_values:
        check_count("t_range", t, 1)
    return _argmin([_solve_horizon(model, T, cfg, x0)
                    for T in sorted({int(t) for t in t_values})])


def bracketed_horizon(model: SystemModel, cfg: SolverConfig, x0,
                      t_center: int, margin: int) -> HorizonSweepResult:
    """Fixed-horizon sweep over t_center +- margin within the bounds; while
    the argmin lands on an edge that the bounds do not fix, the bracket
    widens by margin on both sides.  Each horizon is solved once: the
    cold-started solves are deterministic, so a widening reuses them.  A
    t_center outside the bounds raises ValueError before any solve, where
    an empty bracket would read as "no horizon converged"."""
    check_count("t_center", t_center, 1)
    check_count("margin", margin, 1)
    t_min, t_max = cfg.horizon_bounds
    if not t_min <= t_center <= t_max:
        raise ValueError(f"t_center must lie in horizon_bounds "
                         f"{cfg.horizon_bounds}, got {t_center}")
    lo, hi = max(t_min, t_center - margin), min(t_max, t_center + margin)
    solved = {}
    while True:
        for T in range(lo, hi + 1):
            if T not in solved:
                solved[T] = _solve_horizon(model, T, cfg, x0)
        sweep = _argmin([solved[T] for T in range(lo, hi + 1)])
        if not ((sweep.t_exact == lo and lo > t_min)
                or (sweep.t_exact == hi and hi < t_max)):
            return sweep
        lo, hi = max(t_min, lo - margin), min(t_max, hi + margin)
