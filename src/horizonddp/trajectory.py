"""Nominal trajectories and objective evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemModel, check_count, running_costs

CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Nominal state sequence x_0..x_T and control sequence u_0..u_{T-1}."""

    states: np.ndarray    # (T+1, dim_x)
    controls: np.ndarray  # (T, dim_u)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        if states.ndim != 2 or controls.ndim != 2:
            raise ValueError("states and controls must be 2-D arrays")
        if states.shape[0] != controls.shape[0] + 1:
            raise ValueError("states must have exactly one more row than controls")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]

    def consistency_error(self, model: SystemModel) -> float:
        """Max dynamics defect ||x_{t+1} - f(x_t, u_t)||_inf along the path,
        non-finite when any defect is."""
        defects = [self.states[t + 1] - model.step(self.states[t], self.controls[t])
                   for t in range(self.horizon)]
        return float(np.max(np.abs(defects), initial=0.0))

    def assert_consistent(self, model: SystemModel):
        """Raise FloatingPointError on a non-finite defect, ValueError on
        one above CONSISTENCY_TOL."""
        err = self.consistency_error(model)
        if not np.isfinite(err):
            raise FloatingPointError(
                f"trajectory dynamically inconsistent: defect {err}")
        if err > CONSISTENCY_TOL:
            raise ValueError(f"trajectory dynamically inconsistent: defect {err:.3e}")


def rollout_controls(model: SystemModel, x0: np.ndarray,
                     controls: np.ndarray) -> Trajectory:
    """Simulate an open-loop control sequence from x0."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    states = np.zeros((controls.shape[0] + 1, model.dim_x))
    states[0] = np.asarray(x0, dtype=float)
    for t in range(controls.shape[0]):
        states[t + 1] = model.step(states[t], controls[t])
    return Trajectory(states=states, controls=controls)


def initial_trajectory(model: SystemModel, x0: np.ndarray, T: int) -> Trajectory:
    """Default nominal: the model's nominal control held for T steps;
    raises ValueError unless T is an integer >= 0."""
    check_count("T", T, 0)
    x0 = np.asarray(x0, dtype=float)
    controls = np.tile(model.nominal_control(x0), (T, 1))
    return rollout_controls(model, x0, controls)


def _path_cost(model: SystemModel, states, controls):
    """The running costs of states[:-1] and controls added with ``+=`` in
    knot order, then the terminal cost of states[-1]: ``sum()`` compensates
    its rounding from Python 3.12 on, which would move the total's last
    bits."""
    total = 0.0
    for c in running_costs(model, states[:-1], controls):
        total += c
    return total + model.terminal_cost(states[-1])


def trajectory_cost(model: SystemModel, traj: Trajectory) -> float:
    """Objective sum(l) + Phi along the trajectory."""
    return float(_path_cost(model, traj.states, traj.controls))
