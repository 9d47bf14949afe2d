"""Command-line driver: artifacts, exit codes, config validation."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horizonddp import CandidateEvaluation
import horizonddp.oracle as oracle_mod
from horizonddp.cli import _write_json, main


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def di_solve_config():
    return {
        "model": {"model": "double_integrator", "c_t": 0.02},
        "solver": {"horizon_bounds": [1, 120], "window_s": 10},
        "x0": [2.0, 0.0],
        "initial_horizon": 40,
    }


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, di_solve_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert summary["t_star"] >= 1
    traj = read_csv(out / "trajectory.csv")
    assert traj[0][:2] == ["t", "time"]
    assert len(traj) == summary["t_star"] + 2  # header + T+1 knots
    trace = read_csv(out / "trace.csv")
    assert len(trace) == summary["iterations"] + 1
    assert trace[0] == ["iteration", "t_bar", "j", "alpha", "gamma",
                        "trust_radius", "t_tried", "t_star", "accepted",
                        "rejected", "t_low"]
    assert all(float(row[5]) > 0 for row in trace[1:])
    for row, rec in zip(trace[1:], summary["trace"]):
        assert row[6:] == [str(rec["t_tried"]), str(rec["t_star"]),
                           str(int(rec["accepted"])), rec["rejected"] or "",
                           str(rec["t_low"])]


def test_solve_reports_candidates_outside_trust_radius(tmp_path):
    # the criterion-5 quadrotor rejects a shifted try at iteration 2, which
    # shrinks the radius from infinity to half that try's gap; later passes
    # mark every horizon priced at a gap beyond it inadmissible
    cfg = write_config(tmp_path, {
        "model": {"model": "quadrotor", "c_t": 1.0},
        "solver": {"horizon_bounds": [5, 150], "window_s": 10},
        "x0": [1.5, 1.0, -1.0] + [0.0] * 9,
        "initial_horizon": 40,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    trace = json.loads((out / "summary.json").read_text())["trace"]
    # an infinite radius is written as Infinity and read back as inf
    assert trace[0]["trust_radius"] == np.inf
    assert read_csv(out / "trace.csv")[1][5] == "inf"
    outside = [(cand["gap"], rec["trust_radius"]) for rec in trace
               for cand in rec["candidates"] if not cand["admissible"]]
    assert outside
    assert all(gap >= radius for gap, radius in outside)


def test_solve_ddp_mode(tmp_path):
    doc = di_solve_config()
    doc["solver"]["second_order"] = True
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["solver"]["second_order"] is True
    assert "mode" not in summary


def test_missing_config_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--config", missing]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--config", str(p)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_model_lists_valid_names(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"model": "unicycle"}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "unicycle" in err and "cartpole" in err


def test_unknown_solver_field_exits_1(tmp_path, capsys):
    doc = di_solve_config()
    doc["solver"]["trust_region"] = 1.0
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "trust_region" in capsys.readouterr().err


def test_unknown_model_field_exits_1(tmp_path, capsys):
    doc = di_solve_config()
    doc["model"]["c_T"] = 0.02
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "c_T" in capsys.readouterr().err


def test_wrong_x0_size_exits_1(tmp_path, capsys):
    doc = di_solve_config()
    doc["x0"] = [1.0, 2.0, 3.0]
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "x0" in capsys.readouterr().err
    del doc["x0"]
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "missing config field: 'x0'" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("max_iterations", 2.5), ("window_s", float("nan")),
    ("horizon_bounds", [1.7, 120.9]), ("horizon_bounds", 5),
    ("horizon_bounds", [1]), ("second_order", "false")])
def test_bad_solver_value_exits_1(tmp_path, capsys, field, value):
    # one error line naming the field, not a traceback
    doc = di_solve_config()
    doc["solver"][field] = value
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and err.count("\n") == 1


@pytest.mark.parametrize("command,key,value", [
    ("solve", "initial_horizon", 40.5), ("sweep-ct", "oracle_margin", 2.5),
    ("oracle", "t_range", [20, 30.5]), ("oracle", "t_range", [0, 3]),
    ("check", "samples", 2.5), ("mpc", "initial_horizon", 40.5),
    ("mpc", "step_limit", 2.5), ("mpc", "inner_iterations", 2.5),
    ("mpc", "noise_scale", -1.0), ("mpc", "receding_horizon", 40.5),
    ("sweep-ct", "c_t_list", 5), ("oracle", "t_range", 5),
    ("solve", "x0", {"a": 1}), ("solve", "x0", [[2.0], [0.0]]),
    ("mpc", "x0", "origin"), ("solve", "x0", [float("nan"), 0.0]),
    ("mpc", "x0", [float("inf"), 0.0])])
def test_bad_top_level_value_exits_1(tmp_path, capsys, command, key, value):
    # counts are rejected by name, never truncated; mpc passes its keys to
    # MpcConfig as they stand
    doc = {**di_solve_config(), "c_t_list": [0.02], "t_range": [20, 22],
           key: value}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be") and err.count("\n") == 1


def test_unknown_top_level_key_exits_1(tmp_path, capsys):
    for typo in ("initial_horizn", "step_limt"):
        doc = {**di_solve_config(), typo: 40}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert typo in capsys.readouterr().err
    # a key that only another command reads is allowed: one config file
    # serves every command
    doc = {**di_solve_config(), "samples": 20, "sample_scale": 0.1,
           "t_range": [20, 30], "step_limit": 50}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    cfg = write_config(tmp_path, [1, 2])
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_runtime_loads_no_scipy():
    # numpy is the only runtime dependency: a solve, an LQR sweep and the
    # command line load no scipy module
    script = """
import sys
import numpy as np
import horizonddp as hd
import horizonddp.cli
m = hd.DoubleIntegratorModel()
res = hd.optimize_trajectory(m, hd.initial_trajectory(m, np.ones(2), 10),
                             hd.SolverConfig(horizon_bounds=(1, 20)))
assert res.converged
hd.lti_optimal_horizon(m.to_lti_problem((1, 20)), np.ones(2))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


_MODEL_ERRORS = {"mass": "finite and > 0", "dt": "finite and > 0",
                 "model": "a JSON object naming a model",
                 "obstacle": "a JSON object, got 5",
                 "obstacles": "a list of obstacles, got 5",
                 "center": "2 finite numbers",
                 "schedule": "a list of [duration, [vx, vy]] segments, got 5",
                 "schedule duration": "finite and >= 0, got [[nan, [1, 0]]]",
                 "goal": "2 finite numbers",
                 "Q": "a 2x2 matrix of finite numbers",
                 "c_t": "finite and >= 0"}


@pytest.mark.parametrize("model,name", [
    ({"model": "quadrotor", "mass": 0.0}, "mass"),
    ({"model": "double_integrator", "dt": float("nan")}, "dt"),
    (5, "model"),
    ({"model": "pointmass_nav", "obstacles": [5]}, "obstacle"),
    ({"model": "pointmass_nav", "obstacles": 5}, "obstacles"),
    ({"model": "pointmass_nav",
      "obstacles": [{"center": 5, "radius": 1.0}]}, "center"),
    ({"model": "pointmass_nav",
      "obstacles": [{"center": [0, 0], "radius": 1.0, "schedule": 5}]},
     "schedule"),
    ({"model": "pointmass_nav", "obstacles": [
        {"center": [0, 0], "radius": 1.0, "schedule": [[float("nan"), [1, 0]]]}]},
     "schedule duration"),
    ({"model": "pointmass_nav", "goal": 5}, "goal"),
    ({"model": "pointmass_nav", "goal": [1.0, 2.0, 3.0]}, "goal"),
    ({"model": "double_integrator", "Q": 5}, "Q"),
    ({"model": "cartpole", "c_t": float("nan")}, "c_t"),
    ({"model": "quadrotor", "c_t": -1.0}, "c_t"),
])
def test_bad_model_value_exits_1(tmp_path, capsys, model, name):
    # caught by the model's own checks: one error line, no traceback
    doc = di_solve_config()
    doc["model"] = model
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (capsys.readouterr().err
            == f"error: {name} must be {_MODEL_ERRORS[name]}\n")


@pytest.mark.parametrize("model,line", [
    ('{"model": "cartpole", "dt": Infinity}', "dt must be finite and > 0"),
    ('{"model": "pointmass_nav", "w_u": NaN}', "w_u must be finite and >= 0"),
])
def test_non_finite_json_model_value_exits_1(tmp_path, capsys, model, line):
    # Python's json reads Infinity and NaN; the model rejects them by name
    # before any solve runs, so no traceback follows
    doc = json.dumps({**di_solve_config(), "model": 0, "x0": [0.0] * 4})
    cfg = tmp_path / "config.json"
    cfg.write_text(doc.replace('"model": 0', f'"model": {model}'))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_check_command_reports_clean_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"model": "double_integrator"}, "samples": 20})
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "derivative_report.json").read_text())
    assert report["passed"] and report["failures"] == []
    out_text = capsys.readouterr().out
    assert "f_x" in out_text and "FAIL" not in out_text


def run_check(tmp_path, cfg):
    """``horizonddp check`` in a subprocess with a timeout, so a sampling
    loop that never ends fails the test instead of hanging it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "horizonddp.cli", "check", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, "0.3"])
def test_check_rejects_bad_sample_scale(tmp_path, scale):
    # a NaN scale once made sampling loop forever, as no non-finite state
    # is admissible
    cfg = write_config(tmp_path, {
        "model": {"model": "double_integrator"}, "samples": 3,
        "sample_scale": scale})
    out = run_check(tmp_path, cfg)
    assert out.returncode == 1
    assert out.stderr == "error: sample_scale must be finite and > 0\n"


def test_check_without_admissible_draws_exits_1(tmp_path):
    # a quadrotor state drawn at this scale almost never has |roll| and
    # |pitch| below pi/2: the draws are bounded, and the error names the
    # scale
    cfg = write_config(tmp_path, {
        "model": {"model": "quadrotor"}, "samples": 5, "sample_scale": 1e6})
    out = run_check(tmp_path, cfg)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "sample_scale" in out.stderr


def test_oracle_command(tmp_path):
    doc = di_solve_config()
    doc["t_range"] = [20, 30]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "horizon_sweep.csv")
    assert rows[0] == ["T", "J", "iterations", "converged"]
    assert len(rows) == 12
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert 20 <= summary["t_exact"] <= 30


def test_oracle_without_converged_horizon_exits_2(tmp_path, capsys):
    doc = {"model": {"model": "cartpole", "c_t": 30.0},
           "solver": {"max_iterations": 1}, "x0": [0.0] * 4,
           "t_range": [20, 22]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no fixed-horizon solve converged")
    assert err.count("\n") == 1
    rows = read_csv(out / "horizon_sweep.csv")
    assert [row[0] for row in rows[1:]] == ["20", "21", "22"]
    assert all(row[3] == "0" for row in rows[1:])
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert summary["t_exact"] is None and summary["j_exact"] is None


def test_sweep_ct_command(tmp_path):
    doc = di_solve_config()
    doc["c_t_list"] = [0.02, 0.05]
    doc["oracle_margin"] = 10
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep-ct", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep_ct.csv")
    assert len(rows) == 3
    # a larger per-step price shortens the chosen horizon
    assert int(rows[2][1]) <= int(rows[1][1])


@pytest.mark.parametrize("bounds, window_s", [([10, 10], 0), ([1, 30], 5)])
def test_sweep_ct_leaves_error_empty_at_zero_exact_cost(tmp_path, bounds,
                                                        window_s):
    # a start at the optimum with no time penalty costs 0 at every horizon:
    # there is no relative error to report, and no division by zero
    cfg = write_config(tmp_path, {
        "model": {"model": "double_integrator"}, "x0": [0.0, 0.0],
        "solver": {"horizon_bounds": bounds, "window_s": window_s},
        "c_t_list": [0]})
    out = tmp_path / "out"
    assert main(["sweep-ct", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_csv(out / "sweep_ct.csv")[1:]
    assert row[4] == row[5] == "0.0"
    assert row[6] == "" and row[7] == "1"


def test_sweep_ct_reports_non_converged_rows(tmp_path):
    doc = di_solve_config()
    doc["solver"]["max_iterations"] = 1
    doc["c_t_list"] = [0.02, 0.5]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep-ct", "--config", cfg, "--out", str(out)]) == 2
    rows = read_csv(out / "sweep_ct.csv")
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[-1] == "0"
        # no oracle is run for a solve that did not converge
        assert row[3] == row[5] == row[6] == ""


def test_sweep_ct_marks_row_whose_oracle_fails(tmp_path, monkeypatch):
    # every solve converges, but no fixed-horizon solve of the second
    # c_t's bracket does: that row is unconverged, the first row is kept
    fixed = oracle_mod.fixed_horizon_ddp

    def failing_at_high_ct(model, T, cfg, x0):
        traj, J, result = fixed(model, T, cfg, x0)
        result.converged = result.converged and model.c_t < 0.1
        return traj, J, result

    monkeypatch.setattr(oracle_mod, "fixed_horizon_ddp", failing_at_high_ct)
    doc = di_solve_config()
    doc["c_t_list"] = [0.02, 0.5]
    doc["oracle_margin"] = 3
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep-ct", "--config", cfg, "--out", str(out)]) == 2
    rows = read_csv(out / "sweep_ct.csv")
    assert rows[1][-1] == "1" and rows[1][3] != ""
    assert rows[2][-1] == "0"
    assert rows[2][3] == rows[2][5] == rows[2][6] == ""


def test_mpc_command(tmp_path):
    doc = {
        "model": {"model": "pointmass_nav", "c_t": 5.0,
                  "wf_pos": 400.0, "wf_vel": 200.0},
        "solver": {"horizon_bounds": [1, 80], "window_s": 5,
                   "convergence_tol": 1e-4, "k_tol": 1e-3},
        "x0": [0.0, 0.0, 0.0, 0.0],
        "initial_horizon": 40,
        "step_limit": 120,
        "noise_scale": 0.01,
        "receding_horizon": 40,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mpc", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    summary = json.loads((out / "mpc_summary.json").read_text())
    assert summary["optimal"]["terminated"]
    assert not summary["receding"]["terminated"]
    assert summary["optimal"]["final_goal_distance"] is not None
    for name in ("optimal", "receding"):
        rows = read_csv(out / f"episode_{name}.csv")
        assert rows[0][0] == "step"
        assert len(rows) == summary[name]["steps"] + 1
        assert rows[1][6] in ("0", "1")                  # degraded
        assert len(rows[1][7].split()) == 4              # state
        log = json.loads((out / f"episode_{name}.json").read_text())
        assert log["terminated"] is summary[name]["terminated"]
        assert len(log["steps"]) == log["steps_used"] == summary[name]["steps"]
        assert log["total_cost"] == summary[name]["total_cost"]
        assert len(log["final_state"]) == 4
        assert len(log["steps"][0]["action"]) == 2


def test_mpc_summary_reports_solve_time_percentiles(tmp_path):
    # each episode's replan solve times at p50, p95 and max, beside the mean
    doc = {"model": {"model": "pointmass_nav", "c_t": 5.0},
           "solver": {"horizon_bounds": [1, 40], "window_s": 5},
           "x0": [0.0, 0.0, 0.0, 0.0], "initial_horizon": 20,
           "step_limit": 30, "receding_horizon": 10}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mpc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mpc_summary.json").read_text())
    for name in ("optimal", "receding"):
        log = json.loads((out / f"episode_{name}.json").read_text())
        times = [step["solve_time"] for step in log["steps"]]
        assert len(times) > 1
        entry = summary[name]
        assert entry["mean_solve_time_s"] == np.mean(times)
        assert entry["p50_solve_time_s"] == np.percentile(times, 50)
        assert entry["p95_solve_time_s"] == np.percentile(times, 95)
        assert entry["max_solve_time_s"] == max(times)


def test_write_json_encodes_numpy_and_dataclasses(tmp_path):
    path = tmp_path / "doc.json"
    _write_json(path, {
        "flag": np.bool_(True), "count": np.int64(7), "cost": np.float64(0.1),
        "state": np.array([1.5, -2.0]),
        "candidate": CandidateEvaluation(T=np.int64(3), t0=-1, J_T=2.5,
                                         admissible=np.bool_(False), gap=0.75),
    })
    assert json.loads(path.read_text()) == {
        "flag": True, "count": 7, "cost": 0.1, "state": [1.5, -2.0],
        "candidate": {"T": 3, "t0": -1, "J_T": 2.5, "admissible": False,
                      "gap": 0.75},
    }


def test_write_json_rejects_what_it_cannot_encode(tmp_path):
    with pytest.raises(TypeError, match="^object is not JSON serializable$"):
        _write_json(tmp_path / "doc.json", {"x": object()})


def test_requires_config_flag(capsys):
    # a usage error exits 1, as a config error does: 2 is non-convergence
    assert main(["solve"]) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep-ct", "mpc", "oracle",
                                     "check"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    # numpy takes no negative seed, and solve once recorded one
    cfg = write_config(tmp_path, {**di_solve_config(), "c_t_list": [0.02],
                                  "t_range": [20, 22]})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--seed", "-2"]) == 1
    assert capsys.readouterr().err == \
        "error: --seed must be an integer >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,value", [
    ("solve", "solver", {"window_s": 2.5}),
    ("sweep-ct", "solver", {"window_s": 2.5}),
    ("oracle", "solver", {"window_s": 2.5}),
    ("mpc", "solver", {"window_s": 2.5}), ("check", "samples", 2.5)])
def test_config_error_makes_no_out_directory(tmp_path, capsys, command, key,
                                             value):
    # the writers make --out, so a command that rejects its config leaves
    # no directory behind
    cfg = write_config(tmp_path, {**di_solve_config(), "c_t_list": [0.02],
                                  "t_range": [20, 22], key: value})
    out = tmp_path / "new" / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv,code,err", [
    (["bogus", "--config", "c.json"], 1, "invalid choice: 'bogus'"),
    (["solve", "--config", "c.json", "--seed", "abc"], 1,
     "argument --seed: invalid int value: 'abc'"),
    (["--help"], 0, "")], ids=["command", "seed", "help"])
def test_usage_exit_codes(capsys, argv, code, err):
    assert main(argv) == code
    assert err in capsys.readouterr().err
