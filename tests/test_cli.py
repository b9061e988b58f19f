"""End-to-end command-line runs, exercised in process via main(argv).

Every run directory is under tmp_path; exit codes follow the contract
0 = ok, 2 = bad configuration, 3 = solver gave up, 4 = missing input.
"""

import ast
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from quenchlab import bounds, cli, dynamics, steady
from quenchlab.bounds import BoundsReport, MeasuredReport, evaluate_all, large_lambda_bounds
from quenchlab.cli import main
from quenchlab.mesh import RadialBall, Slab, build_mesh
from quenchlab.profiles import Constant, SlabSinPiecewise, evaluate
from quenchlab.selfsim import energy_trace, rescale, write_energy_csv, write_frame_csv

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_sweep(out):
    """The rows of out/sweep.csv, column name -> number (None for a blank cell)."""
    with open(os.path.join(out, "sweep.csv"), newline="") as fh:
        return [{k: float(v) if v else None for k, v in row.items()} for row in csv.DictReader(fh)]


def artifact_names(report_type, artifact):
    """The names `report_type`'s fields take in `artifact`, in field order; sweep.csv has no flags."""
    names = cli.ARTIFACT_NAMES[artifact]
    fields = [f.name for f in dataclasses.fields(report_type)]
    return [names.get(f, f) for f in fields if artifact == "bounds.json" or f != "flags"]


def sandwich_alone(out, lam, mesh):
    """Check the one sweep.csv row of an f = 1 run without fold data: of the
    estimates only the large-lam sandwich, and the measured columns written."""
    row, = read_sweep(out)
    ll = large_lambda_bounds(lam, Constant(1.0), mesh)
    assert row["bound_1_2"] is row["T_L"] is row["T1_simplified"] is row["T1_arctan"] is None
    assert [row["lower_1_7"], row["upper_1_7"]] == [ll.lower, ll.upper]
    assert row["T_measured"] is not None and row["ordering_upper_pass"] is None
    assert row["location_defect"] == 0 and row["ordering_lower_pass"] is not None  # f(a) = sup f


def stall_eigen_solves(monkeypatch, caller):
    """Make the steady eigen solves called from `caller` stall; returns the
    names of the callers of every eigen solve."""
    callers = []
    eigen = steady.smallest_eigenvalue_bands

    def stalled(ab, weights, start=None, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        if callers[-1] == caller:
            raise steady.IterationLimit("eigen-residual forced above its target")
        return eigen(ab, weights, start=start, **kwargs)

    monkeypatch.setattr(steady, "smallest_eigenvalue_bands", stalled)
    return callers


# ---------------------------------------------------------------------------
# steady


def test_steady_continuation_and_manifest(tmp_path):
    cfg = write_config(tmp_path, "steady.json", {"node_count": 201})
    out = str(tmp_path / "steady_out")
    assert main(["steady", "--config", cfg, "--out", out]) == 0

    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["lambda_star"] == pytest.approx(1.40, abs=0.01)
    lines = Path(os.path.join(out, "branch.csv")).read_text().splitlines()
    assert lines[0] == "lambda,sup_w,mu1"
    assert len(lines) > 20

    record = read_json(os.path.join(out, "run.json"))
    assert record["command"] == "steady"
    assert set(record["files"]) == {"branch.csv", "summary.json"}
    for rel, digest in record["files"].items():
        assert sha256(os.path.join(out, rel)) == digest


def test_steady_outputs_independent_of_out_dir(tmp_path):
    cfg = write_config(tmp_path, "steady.json", {"node_count": 201})
    outs = [str(tmp_path / "a"), str(tmp_path / "deeper" / "b")]
    for out in outs:
        assert main(["steady", "--config", cfg, "--out", out]) == 0
    for name in ("summary.json", "branch.csv"):
        first, second = (Path(os.path.join(out, name)).read_bytes() for out in outs)
        assert first == second
    assert "out" not in read_json(os.path.join(outs[0], "summary.json"))["config"]
    assert read_json(os.path.join(outs[1], "run.json"))["config"]["out"] == outs[1]


def test_steady_lambda_grid_rows(tmp_path):
    cfg = write_config(tmp_path, "grid.json",
                       {"node_count": 201, "lambda_grid": [0.3, 0.6, 0.9]})
    out = str(tmp_path / "grid_out")
    assert main(["steady", "--config", cfg, "--out", out]) == 0
    lines = Path(os.path.join(out, "branch.csv")).read_text().splitlines()
    assert len(lines) == 4
    lams = [float(line.split(",")[0]) for line in lines[1:]]
    assert lams == [0.3, 0.6, 0.9]
    assert read_json(os.path.join(out, "summary.json"))["lambda_star"] is None


def test_steady_grid_beyond_fold_is_solver_error(tmp_path):
    cfg = write_config(tmp_path, "bad_grid.json",
                       {"node_count": 201, "lambda_grid": [0.5, 2.0]})
    out = str(tmp_path / "bad_grid_out")
    assert main(["steady", "--config", cfg, "--out", out]) == 3


# ---------------------------------------------------------------------------
# configuration errors


def test_missing_config_file(tmp_path):
    out = str(tmp_path / "nope_out")
    code = main(["steady", "--config", str(tmp_path / "absent.json"),
                 "--out", out])
    assert code == 2
    assert not os.path.exists(out)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    out = str(tmp_path / "broken_out")
    assert main(["steady", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)


SLAB_RUN, BALL_RUN, TWO_BUMP_RUN = "<slab run>", "<ball run>", "<two-bump run>"
RUNS = {
    SLAB_RUN: {"node_count": 101, "lambda": 5.0},
    BALL_RUN: {"node_count": 101, "lambda": 5.0, "geometry": {"kind": "ball", "dimension": 2}},
    TWO_BUMP_RUN: {"node_count": 101, "lambda": 10.0, "profile": {"kind": "sin_piecewise"}},
}
NAN_VALUE_TABLE, NAN_X_TABLE, INFINITE_X_TABLE, ONE_COLUMN_TABLE = (
    "<nan value table>", "<nan x table>", "<infinite x table>", "<one-column table>")
TEXT_ROW_TABLE, THREE_COLUMN_TABLE = "<table with a text row>", "<three-column table>"
GOOD_TABLE = "<good table>"
NARROW_PEAK_TABLE = "<peak of half-width 1e-4>"
TABLES = {
    GOOD_TABLE: "x,f\n-0.5,0.5\n0.0,1.0\n0.5,0.5\n",
    NARROW_PEAK_TABLE: "x,f\n-0.5,0.5\n-0.0001,0.5\n0.0,1.0\n0.0001,0.5\n0.5,0.5\n",
    NAN_VALUE_TABLE: "x,f\n-0.5,0.5\n0.0,nan\n0.5,0.5\n",
    NAN_X_TABLE: "x,f\n-0.5,0.5\nnan,0.5\n0.5,0.5\n",
    INFINITE_X_TABLE: "x,f\n-0.5,0.5\n0.5,0.5\ninf,0.5\n",
    ONE_COLUMN_TABLE: "x,f\n-0.5,0.5\n0.0\n0.5,0.5\n",
    TEXT_ROW_TABLE: "x,f\n-0.5,0.5\n0.0,abc\n0.5,0.5\n",
    THREE_COLUMN_TABLE: "x,f\n-0.5,0.5\n0.0,0.9,7\n0.5,0.5\n",
}


@pytest.mark.parametrize("command,payload", [
    ("steady", {"bogus": 1}),
    ("steady", {"geometry": {"kind": "slab", "bogus": 1}}),
    ("steady", {"profile": {"kind": "constant", "bogus": 1}}),
    ("simulate", {"time": {"bogus": 1}}),
    ("steady", {"node_count": "many"}),
    ("sweep", {"lambda_grid": []}),
    ("simulate", {"time": {"snapshot_stride": 2.5}}),
    ("simulate", {"time": {"snapshot_stride": True}}),
    # ds, the walk's step, is no longer a key; a float key takes a JSON number only
    ("bounds", {"ds": 0.02}),
    ("steady", {"geometry": {"kind": "slab", "x_left": "-0.5"}}),
    ("bounds", {"lambda": "5"}),
    ("sweep", {"lambda_grid": ["4.0"]}),
    ("rescale", {"rescale": {"run": "somewhere", "T": "abc"}}),
    ("rescale", {"rescale": {"run": "somewhere", "center": "mid"}}),
    ("rescale", {"rescale": {"run": SLAB_RUN, "T": 0.01}}),
    ("rescale", {"rescale": {"run": SLAB_RUN, "T": -1}}),
    ("rescale", {"rescale": {"run": SLAB_RUN, "T": "nan"}}),
    ("rescale", {"rescale": {"run": SLAB_RUN, "T": "inf"}}),
    ("rescale", {"rescale": {"run": SLAB_RUN, "center": 2.0}}),
    ("rescale", {"rescale": {"run": SLAB_RUN, "center": "nan"}}),
    ("rescale", {"rescale": {"run": BALL_RUN, "center": 0.1}}),
    ("simulate", {"time": {"t_max": float("nan")}}),
    ("simulate", {"time": {"t_max": float("inf")}}),
    ("simulate", {"time": {"eta_step": float("nan")}}),
    ("simulate", {"time": {"eta_step": float("inf")}}),
    ("simulate", {"time": {"dt_max": 0.01}}),
    ("simulate", {"time": {"dt_initial": 1e-6}}),
    ("simulate", {"time": {"eta_step": 1000}}),
    # integer fields take JSON integers only, as time.snapshot_stride does
    ("steady", {"node_count": 101.7}),
    ("steady", {"node_count": "101"}),
    ("steady", {"node_count": True}),
    ("steady", {"geometry": {"kind": "ball", "dimension": 2.5}}),
    ("steady", {"geometry": {"kind": "ball", "dimension": "2"}}),
    ("sweep", {"workers": 1.9, "lambda_grid": [4.0]}),
    ("sweep", {"workers": True, "lambda_grid": [4.0]}),
    ("sweep", {"workers": 0, "lambda_grid": [4.0]}),
    ("steady", {"lambda_grid": ["x"]}),
    # the two-bump profile vanishes at x = 0
    ("rescale", {"rescale": {"run": TWO_BUMP_RUN, "center": 0.0}}),
    # a quench_eps the stepper cannot reach
    ("simulate", {"time": {"quench_eps": 1e-5}}),
    # profile values that are not finite, and a table row with one column
    ("simulate", {"profile": {"kind": "power", "exponent": float("nan")}}),
    ("simulate", {"profile": {"kind": "tabulated", "path": NAN_VALUE_TABLE}}),
    ("simulate", {"profile": {"kind": "tabulated", "path": NAN_X_TABLE}}),
    ("simulate", {"profile": {"kind": "tabulated", "path": INFINITE_X_TABLE}}),
    ("simulate", {"profile": {"kind": "tabulated", "path": ONE_COLUMN_TABLE}}),
    # a text row after the first line, and a row of three cells
    ("simulate", {"profile": {"kind": "tabulated", "path": TEXT_ROW_TABLE}}),
    ("simulate", {"profile": {"kind": "tabulated", "path": THREE_COLUMN_TABLE}}),
    # each kind takes exactly its constructor's keys
    ("steady", {"geometry": {"kind": "slab", "radius": 2}}),
    ("steady", {"geometry": {"kind": "slab", "dimension": 2}}),
    ("steady", {"geometry": {"kind": "ball", "dimension": 2, "x_left": 0.0}}),
    ("steady", {"profile": {"kind": "constant", "exponent": 2}}),
    ("steady", {"profile": {"kind": "power", "exponent": 1.0, "value": 0.5}}),
    ("steady", {"profile": {"kind": "sin_piecewise", "path": "f.csv"}}),
    ("steady", {"profile": {"kind": "tabulated", "path": GOOD_TABLE, "value": 1.0}}),
    # the Hoelder exponent is the profile's own, not a key
    ("steady", {"profile": {"kind": "constant", "holder_exponent": 1.0}}),
    ("steady", {"profile": {"kind": "power", "exponent": 1.0, "holder_exponent": 1.0}}),
    ("steady", {"profile": {"kind": "sin_piecewise", "holder_exponent": 1.0}}),
    ("steady", {"profile": {"kind": "tabulated", "path": GOOD_TABLE, "holder_exponent": 1.0}}),
    # a path is a string, not a file descriptor
    ("steady", {"profile": {"kind": "tabulated", "path": 5}}),
    # a config root or section that is not an object, and required keys left out
    ("steady", [{"node_count": 101}]),
    ("simulate", {"time": 5}),
    ("steady", {"geometry": 5}),
    ("steady", {"geometry": {"kind": "ball"}}),
    ("steady", {"profile": {"kind": "power"}}),
    ("steady", {"node_count": 2}),
    ("steady", {"geometry": {"kind": "ball", "dimension": 2}, "profile": {"kind": "sin_piecewise"}}),
    ("rescale", {}),
    # rescale.run is a nonempty string
    ("rescale", {"rescale": {"run": ""}}),
    ("rescale", {"rescale": {"run": 5}}),
])
def test_unknown_or_invalid_keys(tmp_path, command, payload):
    if isinstance(payload, dict):
        run = payload.get("rescale", {}).get("run")
        if run in RUNS:  # a real quenched run, so that only the rescale value is wrong
            payload = {"rescale": dict(payload["rescale"], run=simulate_run(tmp_path, "ok", RUNS[run]))}
        table = payload.get("profile", {}).get("path")
        if table in TABLES:
            path = tmp_path / "table.csv"
            path.write_text(TABLES[table])
            payload = dict(payload, profile=dict(payload["profile"], path=str(path)))
        payload = dict(payload, node_count=payload.get("node_count", 101))
    cfg = write_config(tmp_path, "bad.json", payload)
    out = str(tmp_path / "bad_out")
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)  # every value is checked before the output directory is made


@pytest.mark.parametrize("payload, argv", [
    ({"out": None}, []),
    ({"out": 5}, []),
    ({"out": ""}, []),
    ({}, ["--out", ""]),
])
def test_out_must_be_a_nonempty_string(tmp_path, monkeypatch, payload, argv):
    # null and 5 would be written into ./None and ./5, and "" has no directory
    # to make; each is a config error found before anything is solved or made
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "out.json", {**payload, "node_count": 51, "lambda": 5.0})
    assert main(["simulate", "--config", cfg] + argv) == 2
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("argv", [
    ["steady", "--lambda", "7"],
    ["steady", "--quench-eps", "0.01"],
    ["sweep", "--lambda", "7"],
    ["bounds", "--quench-eps", "0.01"],
    ["rescale", "--lambda", "99"],
    ["rescale", "--nodes", "7"],
    ["rescale", "--profile", "constant"],
    ["rescale", "--quench-eps", "0.01"],
])
def test_flag_the_command_does_not_read_is_rejected(tmp_path, argv):
    # a flag that a command would ignore would still reach its run.json or summary.json
    cfg = write_config(tmp_path, "flags.json", {"node_count": 101})
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg, "--out", str(tmp_path / "flags_out")])
    assert exc.value.code == 2
    assert not os.path.exists(tmp_path / "flags_out")


def test_parser_is_built_once_and_keeps_no_flags(tmp_path, capsys):
    # one parser serves every call; a flag of one call does not reach the next
    assert cli._parser() is cli._parser()
    cfg = write_config(tmp_path, "once.json", {"node_count": 51, "lambda": 5.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--lambda", "6.0"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert read_json(tmp_path / "a" / "run.json")["config"]["lambda"] == 6.0
    assert read_json(tmp_path / "b" / "run.json")["config"]["lambda"] == 5.0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quenchlab ")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "c"), "--nodes", "many"])
    assert exc.value.code == 2
    assert "argument --nodes: invalid int value" in capsys.readouterr().err


def test_rescale_unknown_key(tmp_path):
    cfg = write_config(tmp_path, "r.json",
                       {"rescale": {"run": "somewhere", "bogus": 1}})
    assert main(["rescale", "--config", cfg,
                 "--out", str(tmp_path / "r_out")]) == 2


@pytest.mark.parametrize("argv,payload", [
    (["bounds", "--lambda", "0"], {}),
    (["bounds", "--lambda", "nan"], {}),
    (["bounds", "--lambda", "inf"], {}),
    (["simulate", "--lambda", "-1"], {}),
    (["simulate", "--lambda", "nan"], {}),
    (["steady"], {"lambda_grid": [0.5, -1.0]}),
    (["steady"], {"lambda_grid": [float("inf")]}),
    (["sweep"], {"lambda_grid": [4.0, -1.0]}),
    (["sweep"], {"lambda_grid": [0.0]}),
    (["sweep"], {"lambda_grid": [float("nan")]}),
])
def test_unusable_lambda_is_config_error(tmp_path, monkeypatch, argv, payload):
    # lambda is finite everywhere, positive for bounds and sweep, and
    # nonnegative for simulate and the steady grid; nothing is solved first
    def unreachable(*args, **kwargs):
        raise AssertionError("solver reached with an unusable lambda")

    monkeypatch.setattr(dynamics, "integrate", unreachable)
    monkeypatch.setattr(steady, "continue_branch", unreachable)
    monkeypatch.setattr(steady, "_walk", unreachable)
    monkeypatch.setattr(steady, "minimal_states", unreachable)
    cfg = write_config(tmp_path, "lam.json", dict(payload, node_count=101))
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "lam_out")]) == 2


@pytest.mark.parametrize("spec,alpha,K", [
    ({"kind": "power", "exponent": 0.5}, 0.5, 1.0),
    ({"kind": "tabulated", "path": GOOD_TABLE}, 1.0, 1.0),
    ({"kind": "power", "exponent": 3.0}, 1.0, 3.0),
    ({"kind": "tabulated", "path": NARROW_PEAK_TABLE}, 1.0, 5000.0),
])
def test_derived_holder_exponent_reaches_epsilon(tmp_path, spec, alpha, K):
    # the profile's own exponent a and exact constant K enter
    # eps(lam) = 2 D^(a/(2+a)) K^(2/(2+a)) / lam^(a/(2+a)), with D = (pi/2)^2 on
    # the slab, here the profile's whole domain
    if spec.get("path") in TABLES:
        (tmp_path / "f.csv").write_text(TABLES[spec["path"]])
        spec = dict(spec, path=str(tmp_path / "f.csv"))
    lo, hi = cli._build("profile", spec).domain()
    cfg = write_config(tmp_path, "a.json", {
        "node_count": 101, "profile": spec, "geometry": {"kind": "slab", "x_left": lo, "x_right": hi}})
    out = str(tmp_path / "a_out")
    assert main(["bounds", "--lambda", "1e4", "--config", cfg, "--out", out]) == 0
    eps = read_json(os.path.join(out, "bounds.json"))["epsilon"]
    frac = alpha / (2.0 + alpha)
    assert eps == pytest.approx(2.0 * (math.pi**2 / 4.0) ** frac * K ** (2.0 / (2.0 + alpha)) / 1e4**frac, rel=1e-12)


def test_missing_profile_table(tmp_path):
    for name in ("absent.csv", "."):  # no file, and a directory
        cfg = write_config(tmp_path, "tab.json", {
            "node_count": 101,
            "profile": {"kind": "tabulated", "path": str(tmp_path / name)},
        })
        assert main(["steady", "--config", cfg,
                     "--out", str(tmp_path / "tab_out")]) == 4


# ---------------------------------------------------------------------------
# simulate


QUENCH_KEYS = {"lambda", "quenched", "T", "quench_set", "M", "p",
               "fit_residual", "last_resolved_gap", "decades", "low_confidence"}


def test_simulate_quenching_run(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {"node_count": 201, "lambda": 5.0})
    out = str(tmp_path / "sim_out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0

    quench = read_json(os.path.join(out, "quench.json"))
    assert set(quench) == QUENCH_KEYS
    assert quench["quenched"] is True
    assert quench["T"] == pytest.approx(0.081, abs=0.01)
    assert quench["quench_set"] == pytest.approx([0.0], abs=1e-9)
    assert quench["lambda"] == 5.0
    assert quench["decades"] > 1.5 and quench["low_confidence"] is False

    assert sorted(os.listdir(out)) == ["max_history.csv", "quench.json", "run.json", "trajectory.npz"]
    record = read_json(os.path.join(out, "run.json"))
    assert set(record["files"]) == {"max_history.csv", "quench.json", "trajectory.npz"}
    assert record["config"]["lambda"] == 5.0
    assert record["config"]["node_count"] == 201
    stats = record["stats"]
    assert set(stats) == {"accepted_steps", "rejected_stage", "rejected_growth", "banded_solves", "dt_min", "dt_max"}
    history = np.loadtxt(os.path.join(out, "max_history.csv"), delimiter=",", skiprows=1)
    assert stats["accepted_steps"] == len(history) - 1
    assert stats["accepted_steps"] <= stats["banded_solves"] <= 1.1 * stats["accepted_steps"]
    assert 0.0 < stats["dt_min"] <= stats["dt_max"]


def test_simulate_no_load_does_not_quench(tmp_path):
    cfg = write_config(tmp_path, "zero.json",
                       {"node_count": 101, "lambda": 0.0,
                        "time": {"t_max": 0.05}})
    out = str(tmp_path / "zero_out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    quench = read_json(os.path.join(out, "quench.json"))
    # the same keys as a quenched run's; only the load and the gap are set
    assert set(quench) == QUENCH_KEYS
    assert quench["quenched"] is False
    assert quench["lambda"] == 0.0 and quench["last_resolved_gap"] == 1.0
    assert quench["quench_set"] == []
    unset = QUENCH_KEYS - {"lambda", "quenched", "last_resolved_gap", "quench_set"}
    assert {key: quench[key] for key in unset} == dict.fromkeys(unset)


def test_simulate_step_limit_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    cfg = write_config(tmp_path, "lim.json",
                       {"node_count": 5, "lambda": 0.0, "time": {"t_max": 1e4}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "lim_out")]) == 3
    assert "5 steps taken before touchdown or t_max" in capsys.readouterr().err


def test_step_that_does_not_advance_t_is_solver_failure(tmp_path, capsys, monkeypatch):
    # near touchdown at quench_eps 1e-6 the accepted dt falls below the spacing of floats at t;
    # TimeConfig rejects that quench_eps, so this run sets it past validation
    monkeypatch.setattr(dynamics.TimeConfig, "__post_init__", lambda self: None)
    cfg = write_config(tmp_path, "adv.json", {"node_count": 101, "lambda": 10.0, "time": {"quench_eps": 1e-6}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "adv_out")]) == 3
    assert "does not advance t=" in capsys.readouterr().err


def test_rising_gap_cube_is_solver_failure(tmp_path, capsys, monkeypatch):
    # at eta_step 1 (past the config range) the f = 1 run on the 3-ball
    # (LU stages) has a gap that jumps up and down over its last decade, and
    # its cube fits no falling line
    monkeypatch.setattr(dynamics, "ETA_STEP_MAX", 1.0)
    cfg = write_config(tmp_path, "rise.json", {"geometry": {"kind": "ball", "dimension": 3}, "node_count": 101,
                                               "lambda": 5.0, "time": {"eta_step": 1.0}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "rise_out")]) == 3
    assert "gap cube not decreasing" in capsys.readouterr().err


def test_simulate_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, "ov.json", {"node_count": 401, "lambda": 5.0})
    out = str(tmp_path / "ov_out")
    code = main(["simulate", "--config", cfg, "--out", out,
                 "--lambda", "6.0", "--nodes", "201",
                 "--quench-eps", "0.01"])
    assert code == 0
    record = read_json(os.path.join(out, "run.json"))
    assert record["config"]["lambda"] == 6.0
    assert record["config"]["node_count"] == 201
    quench = read_json(os.path.join(out, "quench.json"))
    assert quench["last_resolved_gap"] <= 0.0101
    assert quench["last_resolved_gap"] > 0.001


def test_quench_eps_flag_needs_a_time_object(tmp_path):
    # --quench-eps sets a key of the time section, so a time that is no object is a config error
    cfg = write_config(tmp_path, "qe.json", {"node_count": 101, "time": 5})
    out = str(tmp_path / "qe_out")
    assert main(["simulate", "--config", cfg, "--out", out, "--quench-eps", "0.01"]) == 2
    assert not os.path.exists(out)


def test_simulate_profile_flag(tmp_path):
    cfg = write_config(tmp_path, "pf.json", {"node_count": 201, "lambda": 8.0})
    out = str(tmp_path / "pf_out")
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--profile", "sin_piecewise"]) == 0
    quench = read_json(os.path.join(out, "quench.json"))
    assert quench["quenched"] is True
    assert len(quench["quench_set"]) == 2
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--profile", "gaussian"]) == 2


def test_simulate_deterministic_reruns(tmp_path):
    cfg = write_config(tmp_path, "det.json", {"node_count": 101, "lambda": 4.0})
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / ("det_" + tag))
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    rec_a = read_json(os.path.join(outs[0], "run.json"))
    rec_b = read_json(os.path.join(outs[1], "run.json"))
    assert "trajectory.npz" in rec_a["files"]
    assert rec_a["files"] == rec_b["files"]
    for rel in rec_a["files"]:
        assert sha256(os.path.join(outs[0], rel)) == sha256(os.path.join(outs[1], rel))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_and_worker_independence(tmp_path):
    base = {"node_count": 201, "lambda_grid": [2.0, 3.0, 5.0]}
    cfg1 = write_config(tmp_path, "sw1.json", base)
    cfg2 = write_config(tmp_path, "sw2.json", dict(base, workers=2))
    out1 = str(tmp_path / "sw1_out")
    out2 = str(tmp_path / "sw2_out")
    assert main(["sweep", "--config", cfg1, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg2, "--out", out2]) == 0

    # one column per MeasuredReport field but the flags, in field order
    header = Path(os.path.join(out1, "sweep.csv")).read_text().splitlines()[0]
    assert header.split(",") == artifact_names(MeasuredReport, "sweep.csv")
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    fold = steady.locate_fold(Constant(1.0), mesh)
    rows = read_sweep(out1)
    assert len(rows) == 3
    for row in rows:
        assert row["T_L"] <= row["T_measured"] * 1.01
        assert row["T_measured"] <= row["T1_arctan"] * 1.01
        assert row["lower_1_7"] == pytest.approx(1.0 / (3.0 * row["lambda"]), rel=1e-12)
        assert row["ordering_lower_pass"] == row["ordering_upper_pass"] == 1
        # every estimate cell is the evaluate_all field, bitwise; a blank cell is None
        rep, = evaluate_all([row["lambda"]], fold, Constant(1.0), mesh)
        estimates = [getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "flags"]
        assert [row[c] for c in artifact_names(BoundsReport, "sweep.csv")] == estimates
        assert row["location_defect"] == 0 and row["delta"] == float("inf")  # f = 1: f(a) = sup f, K = 0

    bytes1 = Path(os.path.join(out1, "sweep.csv")).read_bytes()
    bytes2 = Path(os.path.join(out2, "sweep.csv")).read_bytes()
    assert bytes1 == bytes2


def test_sweep_pool_is_no_larger_than_the_grid(tmp_path, monkeypatch):
    # a pool forks all its workers at the first map; this fake starts none
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    cfg = write_config(tmp_path, "pool.json", {
        "node_count": 101, "lambda_grid": [4.0, 8.0], "workers": 64, "time": {"t_max": 0.2},
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "pool_out")]) == 0
    assert sizes == [2]


def test_sweep_without_fold_keeps_sandwich(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise steady.StepFailure("forced")

    monkeypatch.setattr(steady, "_walk", fail)
    cfg = write_config(tmp_path, "sf.json", {
        "node_count": 101, "lambda_grid": [4.0], "time": {"t_max": 0.2},
    })
    out = str(tmp_path / "sf_out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert "continuation failed" in capsys.readouterr().err
    sandwich_alone(out, 4.0, build_mesh(Slab(-0.5, 0.5), 101))


def test_sweep_eigen_iteration_limit_keeps_sandwich(tmp_path, capsys, monkeypatch):
    # the walk to the fold solves no eigenpair; after the fold polish's own
    # eigen solve, the fold state's stalls
    callers = stall_eigen_solves(monkeypatch, "linearized_eigenpair")
    cfg = write_config(tmp_path, "stall.json", {
        "node_count": 201, "lambda_grid": [60.0], "time": {"t_max": 0.01},
    })
    out = str(tmp_path / "stall_out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert "continuation failed, steady bounds omitted: eigen-residual" in capsys.readouterr().err
    assert callers == ["fold_polish", "linearized_eigenpair"]
    sandwich_alone(out, 60.0, build_mesh(Slab(-0.5, 0.5), 201))


def test_nine_ball_walk_stall_is_solver_failure(tmp_path, capsys):
    # on a 9-ball the corrector stalls before the fold: bounds exits 3, and
    # sweep rows keep the large-lam sandwich alone
    cfg = write_config(tmp_path, "s9.json", {
        "geometry": {"kind": "ball", "dimension": 9}, "node_count": 201,
        "lambda": 60.0, "lambda_grid": [60.0], "time": {"t_max": 0.01},
    })
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b9_out")]) == 3
    assert "continuation failed: continuation stalled" in capsys.readouterr().err
    out = str(tmp_path / "s9_out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert "continuation failed, steady bounds omitted: continuation stalled" in capsys.readouterr().err
    sandwich_alone(out, 60.0, build_mesh(RadialBall(9, 1.0), 201))


def test_sweep_location_defect_column(tmp_path):
    # two-bump profile: the defect is the worst of (sup f)^(1/3) - f(a)^(1/3)
    # over the row's touchdown set; a row below the fold has no touchdown set
    cfg = write_config(tmp_path, "loc.json", {
        "node_count": 201, "profile": {"kind": "sin_piecewise"}, "lambda_grid": [1.0, 20.0],
    })
    out = str(tmp_path / "loc_out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    below, above = read_sweep(out)
    assert below["T_measured"] is None and below["location_defect"] is None

    profile, mesh = SlabSinPiecewise(), build_mesh(Slab(-0.5, 0.5), 201)
    _, report = dynamics.integrate(20.0, profile, mesh, dynamics.TimeConfig())
    sup_f = float(np.max(evaluate(profile, np.linspace(-0.5, 0.5, 4001))))
    defects = [sup_f ** (1.0 / 3.0) - float(evaluate(profile, a)) ** (1.0 / 3.0) for a in report.quench_set]
    assert report.quench_set and above["location_defect"] == max(defects) > 0.0


def test_sweep_worker_keeps_only_solver_faults(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "sw.json", {"node_count": 101, "lambda_grid": [4.0], "workers": 1})

    def newton_failure(*args, **kwargs):
        raise dynamics.NewtonFailure("forced stage failure")

    monkeypatch.setattr(dynamics, "integrate", newton_failure)
    out = str(tmp_path / "sw_out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 3
    assert "lambda=4 failed: forced stage failure" in capsys.readouterr().err
    row, = read_sweep(out)
    assert row["T_measured"] is row["location_defect"] is row["ordering_lower_pass"] is None
    assert set(read_json(os.path.join(out, "run.json"))["files"]) == {"sweep.csv"}

    def bug(*args, **kwargs):
        raise RuntimeError("not a solver fault")

    monkeypatch.setattr(dynamics, "integrate", bug)
    with pytest.raises(RuntimeError, match="not a solver fault"):
        main(["sweep", "--config", cfg, "--out", out])


def perfbench_constant(filename, name):
    """The literal value bound to `name` at the top of perfbench/`filename`."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/%s has no %s" % (filename, name))


def test_artifacts_carry_every_report_field_and_the_names_the_benchmark_reads(tmp_path, monkeypatch):
    # a field added to BoundsReport is a bounds.json key and a sweep.csv column
    # with no other change; perfbench checks bounds.json by the BOUND_FLAG_FIELDS
    # keys and counts ordering violations by the SWEEP_HEADER columns, so a
    # renamed one would silently go unread
    wider = dataclasses.make_dataclass("Wider", [("extra", float, 0.5)], bases=(BoundsReport,), frozen=True)
    added = [f for f in dataclasses.fields(MeasuredReport) if f not in dataclasses.fields(BoundsReport)]
    measured = dataclasses.make_dataclass("WiderMeasured", [(f.name, f.type, f.default) for f in added],
                                          bases=(wider,), frozen=True)
    monkeypatch.setattr(bounds, "BoundsReport", wider)
    monkeypatch.setattr(bounds, "MeasuredReport", measured)
    cfg = write_config(tmp_path, "bs.json", {
        "node_count": 101, "lambda": 4.0, "lambda_grid": [4.0], "time": {"t_max": 0.2},
    })
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    rep = read_json(str(tmp_path / "b" / "bounds.json"))
    header = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[0].split(",")
    assert set(rep) == set(artifact_names(wider, "bounds.json")) and rep["extra"] == 0.5
    assert header == artifact_names(measured, "sweep.csv") and read_sweep(str(tmp_path / "s"))[0]["extra"] == 0.5
    flagged = perfbench_constant("workloads.py", "BOUND_FLAG_FIELDS")
    assert {field for fields in flagged.values() for field in fields} <= set(rep)
    assert set(perfbench_constant("test_harness.py", "SWEEP_HEADER")) <= set(header)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_report_above_and_below_fold(tmp_path):
    cfg = write_config(tmp_path, "b.json", {"node_count": 201, "lambda": 2.0})
    out = str(tmp_path / "b_out")
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    rep = read_json(os.path.join(out, "bounds.json"))
    assert set(rep) == set(artifact_names(BoundsReport, "bounds.json"))
    assert isinstance(rep["flags"], dict)
    assert rep["lambda"] == 2.0
    assert rep["lambda_star"] == pytest.approx(1.40, abs=0.01)
    assert rep["T_L"] is not None and rep["T1_arctan"] is not None
    assert rep["T_L"] < rep["T1_arctan"]

    out2 = str(tmp_path / "b2_out")
    assert main(["bounds", "--config", cfg, "--out", out2,
                 "--lambda", "1.0"]) == 0
    rep2 = read_json(os.path.join(out2, "bounds.json"))
    assert rep2["T_L"] is None
    assert "no finite touchdown" in rep2["flags"]["T_L"]


@pytest.mark.parametrize("profile,flag", [
    ({"kind": "constant", "value": 1.0}, "unbounded: K = 0"),
    ({"kind": "sin_piecewise"}, None),
])
def test_unbounded_delta_is_flagged(tmp_path, profile, flag):
    # K = 0 leaves the localization radius unbounded; bounds.json writes it
    # as null and says why, where a null alone would read as a missing value
    cfg = write_config(tmp_path, "d.json", {"node_count": 201, "profile": profile})
    out = str(tmp_path / "d_out")
    assert main(["bounds", "--lambda", "30", "--config", cfg, "--out", out]) == 0
    rep = read_json(os.path.join(out, "bounds.json"))
    assert rep["flags"].get("delta") == flag
    assert (rep["delta"] is None) == (flag is not None)
    # nor is there an upper at K = 0: no ball of unbounded radius lies in Omega
    # (for two-bump at lam = 30, eps exceeds sup f)
    assert rep["large_lambda_upper"] is None
    upper_flag = rep["flags"]["large_lambda_upper"]
    assert ("K = 0" in upper_flag and "unbounded" in upper_flag) == (flag is not None)


@pytest.mark.parametrize("lam", [7.1, 20.0])
def test_eight_ball_fold_estimates(tmp_path, lam):
    # f = |x| on the 8-ball has a regular fold (lam* = 7.0135 at 401 nodes):
    # T_L is reported and lies below the measured T, and only T1 is refused,
    # since f vanishes at the origin where psi* has mass
    cfg = write_config(tmp_path, "b8.json", {
        "geometry": {"kind": "ball", "dimension": 8}, "node_count": 401,
        "profile": {"kind": "power", "exponent": 1.0}, "lambda": lam,
    })
    out = str(tmp_path / "b8_bounds")
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    rep = read_json(os.path.join(out, "bounds.json"))
    assert rep["lambda_star"] == pytest.approx(7.01353, abs=1e-4)
    assert rep["flags"]["T_L"] == "ok"
    assert rep["flags"]["T1"] == "profile vanishes at a node carrying eigenfunction mass"
    run = str(tmp_path / "b8_run")
    assert main(["simulate", "--config", cfg, "--out", run]) == 0
    quench = read_json(os.path.join(run, "quench.json"))
    assert quench["quenched"] and quench["T"] > rep["T_L"]


@pytest.mark.parametrize("argv", [["steady"], ["simulate"], ["bounds", "--lambda", "30"]])
def test_one_unknown_slab_runs(tmp_path, argv):
    # a 3-node slab has one unknown, so every banded solve is 1 x 1
    cfg = write_config(tmp_path, "one.json", {
        "node_count": 3, "lambda": 5.0, "profile": {"kind": "constant", "value": 1.0},
    })
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "one_out")]) == 0


@pytest.mark.parametrize("argv", [["steady"], ["bounds", "--lambda", "60"]])
def test_eigen_iteration_limit_is_solver_failure(tmp_path, capsys, monkeypatch, argv):
    # steady's eigen solves on a 9-ball stall far above their residual
    # target; bounds walks to the fold without eigen solves, so here the
    # fold state's eigen solve, after the fold polish's own, is made to stall
    spec = {"geometry": {"kind": "ball", "dimension": 9}, "node_count": 201}
    callers = []
    if argv[0] == "bounds":
        spec = {"node_count": 201}
        callers = stall_eigen_solves(monkeypatch, "linearized_eigenpair")
    cfg = write_config(tmp_path, "b9.json", spec)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "b9_out")]) == 3
    assert "continuation failed: eigen-residual" in capsys.readouterr().err
    assert callers == (["fold_polish", "linearized_eigenpair"] if argv[0] == "bounds" else [])


def test_stalled_polish_eigen_solve_fails_the_polish(tmp_path, capsys, monkeypatch):
    # a stall in the fold polish's own eigen solve fails the polish: exit 3
    callers = stall_eigen_solves(monkeypatch, "fold_polish")
    cfg = write_config(tmp_path, "sp.json", {"node_count": 201})
    assert main(["bounds", "--lambda", "60", "--config", cfg, "--out", str(tmp_path / "sp_out")]) == 3
    assert "continuation failed: fold polish failed" in capsys.readouterr().err
    assert callers == ["fold_polish"]


@pytest.mark.parametrize("argv,payload", [
    (["bounds", "--lambda", "500"], {"profile": {"kind": "power", "exponent": 2}, "node_count": 201}),
    (["steady"], {"profile": {"kind": "constant", "value": 0.05}}),
], ids=["bounds-x2", "steady-f0.05"])
def test_fold_far_out_in_lam_is_found(tmp_path, argv, payload):
    # folds at lam* = 35.8 and 28.0, beyond the 24 units of arclength that
    # the walk covers in plain lam; in units of 1/sup f they lie within it
    out = str(tmp_path / "far_out")
    assert main(argv + ["--config", write_config(tmp_path, "far.json", payload), "--out", out]) == 0
    name = "bounds.json" if argv[0] == "bounds" else "summary.json"
    assert read_json(os.path.join(out, name))["lambda_star"] == pytest.approx(
        35.83 if argv[0] == "bounds" else 28.0, rel=1e-3)


def test_failed_coarse_walk_is_solver_failure(tmp_path, capsys, monkeypatch):
    # above FULL_WALK_NODES nodes bounds and sweep take the fold from a walk on
    # COARSE_NODES nodes; a StepFailure there ends bounds with exit 3 and
    # leaves sweep rows with the large-lam sandwich alone
    walk = steady._walk
    walked = []

    def fail_coarse(curve):
        walked.append(curve.mesh.node_count)
        if curve.mesh.node_count == steady.COARSE_NODES:
            raise steady.StepFailure("forced on the coarse mesh")
        return walk(curve)

    monkeypatch.setattr(steady, "_walk", fail_coarse)
    cfg = write_config(tmp_path, "cw.json", {
        "node_count": 1001, "lambda": 4.0, "lambda_grid": [4.0], "time": {"t_max": 0.2},
    })
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "cw_b")]) == 3
    assert "continuation failed: forced on the coarse mesh" in capsys.readouterr().err
    out = str(tmp_path / "cw_s")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert "continuation failed, steady bounds omitted: forced on the coarse mesh" in capsys.readouterr().err
    assert walked == [steady.COARSE_NODES, steady.COARSE_NODES]
    sandwich_alone(out, 4.0, build_mesh(Slab(-0.5, 0.5), 1001))


# ---------------------------------------------------------------------------
# rescale


def simulate_run(tmp_path, name, payload):
    cfg = write_config(tmp_path, name + ".json", payload)
    out = str(tmp_path / (name + "_run"))
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    return out


def test_rescale_round_trip(tmp_path):
    run = simulate_run(tmp_path, "rs", {"node_count": 201, "lambda": 5.0})
    cfg = write_config(tmp_path, "rs_cfg.json", {"rescale": {"run": run}})
    out = str(tmp_path / "rs_out")
    assert main(["rescale", "--config", cfg, "--out", out]) == 0
    frame_lines = Path(os.path.join(out, "frame.csv")).read_text().splitlines()
    assert frame_lines[0] == "s,y,w"
    assert not frame_lines[1].startswith("#")
    energy_lines = Path(os.path.join(out, "energy.csv")).read_text().splitlines()
    assert energy_lines[0] == "s,E,k_a,E_of_k"
    assert len(energy_lines) > 10


def test_rescale_of_stored_run_matches_rescale_in_memory(tmp_path, quench_run_201):
    run = simulate_run(tmp_path, "rm", {"node_count": 201, "lambda": 5.0})
    # null T and center are not given: both come from the run's quench.json
    cfg = write_config(tmp_path, "rm_cfg.json", {"rescale": {"run": run, "T": None, "center": None}})
    out = tmp_path / "rm_out"
    assert main(["rescale", "--config", cfg, "--out", str(out)]) == 0

    traj, report = quench_run_201  # the same config, integrated in this process
    frame = rescale(traj, report.quench_set[0], report.T)
    write_frame_csv(frame, tmp_path / "frame.csv")
    write_energy_csv(energy_trace(frame, 5.0, 1.0), tmp_path / "energy.csv")
    for name in ("frame.csv", "energy.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_rescale_off_center_warning(tmp_path):
    run = simulate_run(tmp_path, "rw", {"node_count": 201, "lambda": 5.0})
    cfg = write_config(tmp_path, "rw_cfg.json",
                       {"rescale": {"run": run, "center": 0.3}})
    out = str(tmp_path / "rw_out")
    assert main(["rescale", "--config", cfg, "--out", out]) == 0
    lines = Path(os.path.join(out, "frame.csv")).read_text().splitlines()
    assert lines[1] == "# warning: center not in the touchdown set"


def rescaled_run(tmp_path, name, payload):
    """simulate `payload`, rescale the run; the rescale's output directory."""
    run = simulate_run(tmp_path, name, payload)
    cfg = write_config(tmp_path, name + "_rescale.json", {"rescale": {"run": run}})
    out = str(tmp_path / (name + "_out"))
    assert main(["rescale", "--config", cfg, "--out", out]) == 0
    return run, out


@pytest.mark.parametrize("payload", [
    {"node_count": 201, "lambda": 5.0},
    {"geometry": {"kind": "ball", "dimension": 3}, "node_count": 201, "lambda": 10.0},
])
def test_frame_csv_holds_resolved_samples_only(tmp_path, payload):
    run, out = rescaled_run(tmp_path, "res", payload)
    T = read_json(os.path.join(run, "quench.json"))["T"]
    h = build_mesh(cli.build_geometry(payload.get("geometry", cli.DEFAULTS["geometry"])), 201).h
    lines = Path(os.path.join(out, "frame.csv")).read_text().splitlines()
    s_values = sorted({float(line.split(",")[0]) for line in lines[1:]})
    assert s_values
    for s in s_values:
        assert h <= 0.1 * np.sqrt(T * np.exp(-s))  # T - t = T e^(-s)
    stats = read_json(os.path.join(out, "run.json"))["stats"]
    assert stats["resolved_samples"] == len(s_values) < stats["samples"]
    assert stats["resolved_s_max"] == s_values[-1]


def test_rescale_without_resolved_samples(tmp_path):
    # T is about 1/(3 lam) = 3e-6, far below the (10 h)^2 = 0.01 that a 101-node
    # cell needs: no sample is resolved, and the run says so
    _, out = rescaled_run(tmp_path, "unres", {"node_count": 101, "lambda": 1e5})
    lines = Path(os.path.join(out, "frame.csv")).read_text().splitlines()
    assert lines[0] == "s,y,w" and all(line.startswith("# ") for line in lines[1:])
    stats = read_json(os.path.join(out, "run.json"))["stats"]
    assert stats["samples"] > 0
    assert stats["resolved_samples"] == 0 and stats["resolved_s_max"] is None
    assert len(Path(os.path.join(out, "energy.csv")).read_text().splitlines()) > 1


def test_rescale_missing_run(tmp_path):
    cfg = write_config(tmp_path, "rm_cfg.json",
                       {"rescale": {"run": str(tmp_path / "absent")}})
    assert main(["rescale", "--config", cfg,
                 "--out", str(tmp_path / "rm_out")]) == 4


def test_rescale_unquenched_run(tmp_path):
    run = simulate_run(tmp_path, "rq", {"node_count": 101, "lambda": 0.2,
                                        "time": {"t_max": 0.05}})
    cfg = write_config(tmp_path, "rq_cfg.json", {"rescale": {"run": run}})
    assert main(["rescale", "--config", cfg,
                 "--out", str(tmp_path / "rq_out")]) == 3


def _drop_history(run):
    os.remove(os.path.join(run, "max_history.csv"))


def _store(run):
    with np.load(os.path.join(run, "trajectory.npz")) as store:
        return {name: store[name] for name in store.files}


def _nan_cell(run):
    arrays = _store(run)
    arrays["values"][3, 5] = np.nan
    np.savez(os.path.join(run, "trajectory.npz"), **arrays)


def _short_snapshot(run):
    arrays = _store(run)
    np.savez(os.path.join(run, "trajectory.npz"), times=arrays["times"], values=arrays["values"][:, :-1])


def _drop_record(run):
    os.remove(os.path.join(run, "run.json"))


def _truncated_quench(run):
    path = os.path.join(run, "quench.json")
    text = Path(path).read_text()
    Path(path).write_text(text[: len(text) // 2])


def _early_quench_T(run):
    path = os.path.join(run, "quench.json")
    quench = read_json(path)
    quench["T"] = 0.01  # before the last stored time
    Path(path).write_text(json.dumps(quench))


def _outside_quench_point(run):
    path = os.path.join(run, "quench.json")
    quench = read_json(path)
    quench["quench_set"] = [2.0]
    Path(path).write_text(json.dumps(quench))


def _quench_point_where_f_vanishes(run):
    _edit_config(run, lambda cfg: cfg.update(profile={"kind": "sin_piecewise"}))
    path = os.path.join(run, "quench.json")
    quench = read_json(path)
    quench["quench_set"] = [0.0]
    Path(path).write_text(json.dumps(quench))


def _truncated_store(run):
    path = os.path.join(run, "trajectory.npz")
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[: len(data) // 2])


def _missing_member(run):
    np.savez(os.path.join(run, "trajectory.npz"), times=_store(run)["times"])


def _drop_store(run):
    os.remove(os.path.join(run, "trajectory.npz"))


def _empty_store(run):
    open(os.path.join(run, "trajectory.npz"), "wb").close()


def _npy_store(run):
    # one bare .npy array under the store's name: np.load returns an ndarray
    values = _store(run)["values"]
    with open(os.path.join(run, "trajectory.npz"), "wb") as fh:
        np.save(fh, values)


def _edit_config(run, edit):
    path = os.path.join(run, "run.json")
    record = read_json(path)
    edit(record["config"])
    Path(path).write_text(json.dumps(record))


def _no_geometry(run):
    _edit_config(run, lambda cfg: cfg.pop("geometry"))


def _no_lambda(run):
    _edit_config(run, lambda cfg: cfg.pop("lambda"))


def _text_node_count(run):
    _edit_config(run, lambda cfg: cfg.update(node_count="abc"))


def _torus_geometry(run):
    _edit_config(run, lambda cfg: cfg.update(geometry={"kind": "torus"}))


def _start_only(run):
    arrays = _store(run)
    np.savez(os.path.join(run, "trajectory.npz"), times=arrays["times"][:1], values=arrays["values"][:1])


def _second_time_after_T(run):
    arrays = _store(run)
    arrays["times"][1] = 2.0 * read_json(os.path.join(run, "quench.json"))["T"]
    np.savez(os.path.join(run, "trajectory.npz"), **arrays)


def _swapped_times(run):
    arrays = _store(run)
    arrays["times"][[1, 2]] = arrays["times"][[2, 1]]
    np.savez(os.path.join(run, "trajectory.npz"), **arrays)


@pytest.mark.parametrize("damage", [
    _drop_history, _nan_cell, _short_snapshot, _drop_record, _truncated_quench,
    _truncated_store, _missing_member, _drop_store, _empty_store, _npy_store,
    _early_quench_T, _outside_quench_point, _quench_point_where_f_vanishes,
    _no_geometry, _no_lambda, _text_node_count, _torus_geometry,
    _start_only, _second_time_after_T, _swapped_times,
])
def test_rescale_damaged_run_is_missing_input(tmp_path, capsys, damage):
    run = simulate_run(tmp_path, "rd", {"node_count": 101, "lambda": 5.0})
    damage(run)
    cfg = write_config(tmp_path, "rd_cfg.json", {"rescale": {"run": run}})
    assert main(["rescale", "--config", cfg, "--out", str(tmp_path / "rd_out")]) == 4
    assert "missing input" in capsys.readouterr().err
