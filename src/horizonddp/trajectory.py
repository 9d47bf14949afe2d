"""Nominal trajectories and objective evaluation.

A trajectory is checked against a model by stepping every knot through it
again, except one the library simulated itself: ``rollout_controls`` (and
so ``initial_trajectory``), the solver's ``rollout`` and an MPC warm start
read off the previous plan (``Trajectory.tail``) build theirs with
``Trajectory.simulated``, which records the model object that stepped it
and makes both arrays read-only.  Checked against that same model
object, such a trajectory is only tested finite: its defects are 0 by
construction, and a warm start's are those of a plan that model
simulated.  A trajectory built by a caller, an edited copy (whose arrays
are new or writable again) and a check against any other model object,
such as a new navigation snapshot, are stepped through in full.  As a
carried sweep's tail (``BackwardResult.tail``) does, the mark keys on the
model object, whose parameters and arrays are frozen (see
``models.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemModel, check_count, running_costs

CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Nominal state sequence x_0..x_T and control sequence u_0..u_{T-1}.

    ``==`` is identity: compare the arrays to compare two trajectories."""

    states: np.ndarray    # (T+1, dim_x)
    controls: np.ndarray  # (T, dim_u)

    # the model object whose step made the arrays (see the module
    # docstring); not a field, so repr and fields() ignore it
    _simulated_by = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        if states.ndim != 2 or controls.ndim != 2:
            raise ValueError("states and controls must be 2-D arrays")
        if states.shape[0] != controls.shape[0] + 1:
            raise ValueError("states must have exactly one more row than controls")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)

    @classmethod
    def simulated(cls, model: SystemModel, states, controls) -> "Trajectory":
        """The trajectory ``model.step`` made (or a tail of one that passed
        ``assert_consistent(model)``), marked as that model object's own,
        with both arrays made read-only.  The caller hands the arrays
        over: no writable alias of them may survive."""
        traj = cls(states=states, controls=controls)
        traj.states.flags.writeable = traj.controls.flags.writeable = False
        object.__setattr__(traj, "_simulated_by", model)
        return traj

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]

    def _simulated_under(self, model: SystemModel) -> bool:
        """Whether this model object simulated the trajectory, and both
        arrays are still read-only (see the module docstring)."""
        return (self._simulated_by is model and not self.states.flags.writeable
                and not self.controls.flags.writeable)

    def tail(self, model: SystemModel, x0, controls) -> "Trajectory | None":
        """The rollout of ``controls`` from ``x0`` under ``model``, read off
        this trajectory from knot g = horizon - len(controls) on, or None.

        It is read off when ``model`` simulated this trajectory, ``g >=
        0``, ``x0`` is its state at g and ``controls`` its controls from g
        on, to the bit: stepping them again would give back its own
        states.  At ``g == 0`` the trajectory itself is returned; a later
        knot's tail is marked as ``model``'s own, as this one is.  The
        plan-side twin of ``BackwardResult.tail``.
        """
        g = self.horizon - controls.shape[0]
        if not (self._simulated_under(model) and g >= 0
                and np.array_equal(x0, self.states[g])
                and np.array_equal(controls, self.controls[g:])):
            return None
        if g == 0:
            return self
        return Trajectory.simulated(model, self.states[g:], self.controls[g:])

    def consistency_error(self, model: SystemModel) -> float:
        """Max dynamics defect ||x_{t+1} - f(x_t, u_t)||_inf along the path,
        stepping every knot: NaN or inf when a defect is non-finite, and inf
        when ``step`` raises FloatingPointError on a non-finite state."""
        try:
            defects = [self.states[t + 1]
                       - model.step(self.states[t], self.controls[t])
                       for t in range(self.horizon)]
        except FloatingPointError:
            return math.inf
        return float(np.max(np.abs(defects), initial=0.0))

    def assert_consistent(self, model: SystemModel):
        """Raise FloatingPointError on a non-finite defect, ValueError on
        one above CONSISTENCY_TOL.  A trajectory simulated by this model
        object, whose arrays are still read-only, has no defect: only its
        states are tested finite (see the module docstring)."""
        if self._simulated_under(model):
            err = 0.0 if np.isfinite(self.states).all() else math.inf
        else:
            err = self.consistency_error(model)
        if not np.isfinite(err):
            raise FloatingPointError(
                f"trajectory dynamically inconsistent: defect {err}")
        if err > CONSISTENCY_TOL:
            raise ValueError(f"trajectory dynamically inconsistent: defect {err:.3e}")


def rollout_controls(model: SystemModel, x0: np.ndarray,
                     controls: np.ndarray) -> Trajectory:
    """Simulate an open-loop control sequence from x0; the trajectory
    holds a copy of the controls.  Raises ValueError unless x0 has shape
    (dim_x,) and the controls (T, dim_u); their values are not checked."""
    x0 = np.asarray(x0, dtype=float)
    controls = np.array(controls, dtype=float)
    if x0.shape != (model.dim_x,):
        raise ValueError(f"x0 must have shape ({model.dim_x},), not {x0.shape}")
    if controls.ndim != 2 or controls.shape[1] != model.dim_u:
        raise ValueError(f"controls must have shape (T, {model.dim_u}), "
                         f"not {controls.shape}")
    states = np.zeros((controls.shape[0] + 1, model.dim_x))
    states[0] = x0
    for t in range(controls.shape[0]):
        states[t + 1] = model.step(states[t], controls[t])
    return Trajectory.simulated(model, states, controls)


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
