"""End-to-end command-line runs, exercised in process via main(argv).

Every run directory is under tmp_path; exit codes follow the contract
0 = ok, 2 = bad configuration, 3 = solver gave up, 4 = missing input.
"""

import hashlib
import json
import os

import pytest

from quenchlab import dynamics
from quenchlab.cli import main

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


# ---------------------------------------------------------------------------
# steady


def test_steady_continuation_and_manifest(tmp_path):
    cfg = write_config(tmp_path, "steady.json", {"node_count": 201})
    out = str(tmp_path / "steady_out")
    assert main(["steady", "--config", cfg, "--out", out]) == 0

    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["lambda_star"] == pytest.approx(1.40, abs=0.01)
    lines = open(os.path.join(out, "branch.csv")).read().splitlines()
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
        first, second = (open(os.path.join(out, name), "rb").read() for out in outs)
        assert first == second
    assert "out" not in read_json(os.path.join(outs[0], "summary.json"))["config"]
    assert read_json(os.path.join(outs[1], "run.json"))["config"]["out"] == outs[1]


def test_steady_lambda_grid_rows(tmp_path):
    cfg = write_config(tmp_path, "grid.json",
                       {"node_count": 201, "lambda_grid": [0.3, 0.6, 0.9]})
    out = str(tmp_path / "grid_out")
    assert main(["steady", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "branch.csv")).read().splitlines()
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


@pytest.mark.parametrize("command,payload", [
    ("steady", {"bogus": 1}),
    ("steady", {"geometry": {"kind": "slab", "bogus": 1}}),
    ("steady", {"profile": {"kind": "constant", "bogus": 1}}),
    ("simulate", {"time": {"bogus": 1}}),
    ("steady", {"node_count": "many"}),
    ("sweep", {"lambda_grid": []}),
    ("simulate", {"time": {"snapshot_stride": 2.5}}),
    ("simulate", {"time": {"snapshot_stride": True}}),
])
def test_unknown_or_invalid_keys(tmp_path, command, payload):
    cfg = write_config(tmp_path, "bad.json", dict(payload, node_count=payload.get("node_count", 101)))
    out = str(tmp_path / "bad_out")
    assert main([command, "--config", cfg, "--out", out]) == 2


def test_rescale_unknown_key(tmp_path):
    cfg = write_config(tmp_path, "r.json",
                       {"rescale": {"run": "somewhere", "bogus": 1}})
    assert main(["rescale", "--config", cfg,
                 "--out", str(tmp_path / "r_out")]) == 2


def test_missing_profile_table(tmp_path):
    cfg = write_config(tmp_path, "tab.json", {
        "node_count": 101,
        "profile": {"kind": "tabulated", "path": str(tmp_path / "absent.csv")},
    })
    assert main(["steady", "--config", cfg,
                 "--out", str(tmp_path / "tab_out")]) == 4


# ---------------------------------------------------------------------------
# simulate


def test_simulate_quenching_run(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {"node_count": 201, "lambda": 5.0})
    out = str(tmp_path / "sim_out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0

    quench = read_json(os.path.join(out, "quench.json"))
    assert quench["quenched"] is True
    assert quench["T"] == pytest.approx(0.081, abs=0.01)
    assert quench["quench_set"] == pytest.approx([0.0], abs=1e-9)
    assert quench["lambda"] == 5.0

    names = os.listdir(out)
    assert "max_history.csv" in names
    assert "snapshot_0000.csv" in names
    record = read_json(os.path.join(out, "run.json"))
    assert record["config"]["lambda"] == 5.0
    assert record["config"]["node_count"] == 201


def test_simulate_no_load_does_not_quench(tmp_path):
    cfg = write_config(tmp_path, "zero.json",
                       {"node_count": 101, "lambda": 0.0,
                        "time": {"t_max": 0.05}})
    out = str(tmp_path / "zero_out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    quench = read_json(os.path.join(out, "quench.json"))
    assert quench["quenched"] is False
    assert quench["T"] is None


def test_simulate_step_limit_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    cfg = write_config(tmp_path, "lim.json",
                       {"node_count": 5, "lambda": 0.0, "time": {"t_max": 1e4}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "lim_out")]) == 3
    assert "5 steps taken before touchdown or t_max" in capsys.readouterr().err


def test_simulate_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, "ov.json", {"node_count": 401, "lambda": 5.0})
    out = str(tmp_path / "ov_out")
    code = main(["simulate", "--config", cfg, "--out", out,
                 "--lambda", "6.0", "--nodes", "201",
                 "--quench-eps", "0.01", "--seedless"])
    assert code == 0
    record = read_json(os.path.join(out, "run.json"))
    assert record["config"]["lambda"] == 6.0
    assert record["config"]["node_count"] == 201
    quench = read_json(os.path.join(out, "quench.json"))
    assert quench["last_resolved_gap"] <= 0.0101
    assert quench["last_resolved_gap"] > 0.001


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
    assert rec_a["files"] == rec_b["files"]
    for rel in rec_a["files"]:
        if rel.endswith(".csv"):
            a = open(os.path.join(outs[0], rel), "rb").read()
            b = open(os.path.join(outs[1], rel), "rb").read()
            assert a == b


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

    lines = open(os.path.join(out1, "sweep.csv")).read().splitlines()
    assert lines[0] == "lambda,T_measured,T_L,T1_arctan,T1_simplified,lower_1_7,upper_1_7"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        lam = float(cells[0])
        T = float(cells[1])
        TL = float(cells[2])
        T1a = float(cells[3])
        assert TL <= T * 1.01
        assert T <= T1a * 1.01
        assert float(cells[5]) == pytest.approx(1.0 / (3.0 * lam), rel=1e-12)

    bytes1 = open(os.path.join(out1, "sweep.csv"), "rb").read()
    bytes2 = open(os.path.join(out2, "sweep.csv"), "rb").read()
    assert bytes1 == bytes2


# ---------------------------------------------------------------------------
# bounds


def test_bounds_report_above_and_below_fold(tmp_path):
    cfg = write_config(tmp_path, "b.json", {"node_count": 201, "lambda": 2.0})
    out = str(tmp_path / "b_out")
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    rep = read_json(os.path.join(out, "bounds.json"))
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
    frame_lines = open(os.path.join(out, "frame.csv")).read().splitlines()
    assert frame_lines[0] == "s,y,w"
    assert not frame_lines[1].startswith("#")
    energy_lines = open(os.path.join(out, "energy.csv")).read().splitlines()
    assert energy_lines[0] == "s,E,k_a,E_of_k"
    assert len(energy_lines) > 10


def test_rescale_off_center_warning(tmp_path):
    run = simulate_run(tmp_path, "rw", {"node_count": 201, "lambda": 5.0})
    cfg = write_config(tmp_path, "rw_cfg.json",
                       {"rescale": {"run": run, "center": 0.3}})
    out = str(tmp_path / "rw_out")
    assert main(["rescale", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "frame.csv")).read().splitlines()
    assert lines[1] == "# warning: center not in the touchdown set"


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


def _nan_cell(run):
    path = os.path.join(run, "snapshot_0003.csv")
    lines = open(path).read().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    open(path, "w").write("\n".join(lines) + "\n")


def _short_snapshot(run):
    path = os.path.join(run, "snapshot_0003.csv")
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]) + "\n")


def _drop_record(run):
    os.remove(os.path.join(run, "run.json"))


@pytest.mark.parametrize("damage", [_drop_history, _nan_cell, _short_snapshot, _drop_record])
def test_rescale_damaged_run_is_missing_input(tmp_path, capsys, damage):
    run = simulate_run(tmp_path, "rd", {"node_count": 101, "lambda": 5.0})
    damage(run)
    cfg = write_config(tmp_path, "rd_cfg.json", {"rescale": {"run": run}})
    assert main(["rescale", "--config", cfg, "--out", str(tmp_path / "rd_out")]) == 4
    assert "missing input" in capsys.readouterr().err
