"""Byte identity of every CSV artifact routed through `csvio`.

Each writer is checked against a reference kept here: the per-row
``"%.17g"`` loop it replaced, run on the same inputs.  Edge values cover
NaN, signed zero, integral floats, the smallest subnormal and the largest
finite double.  The same values go through the binary trajectory store
and must come back bit for bit.
"""

import dataclasses
import gc
import json
import math
import warnings

import numpy as np
import pytest

from quenchlab import csvio
from quenchlab.cli import main
from quenchlab.csvio import MissingInput
from quenchlab.dynamics import TRAJECTORY_NAME, Trajectory, read_trajectory, write_max_history, write_snapshots
from quenchlab.mesh import Slab, build_mesh
from quenchlab.profiles import Constant
from quenchlab.selfsim import (
    _gamma,
    _nearest_sample,
    energy_trace,
    rescale,
    write_energy_csv,
    write_frame_csv,
)
from quenchlab.steady import branch_to_csv, minimal_states

EDGES = (-0.0, 1.0, 5e-324, 1.7976931348623157e308)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def oracle_rows(header, rows):
    """The per-row writer every CSV artifact used before `csvio`."""
    text = header + "\n"
    for row in rows:
        text += ",".join("" if v is None else "%.17g" % v for v in row) + "\n"
    return text.encode()


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# ---------------------------------------------------------------------------
# the writer layer


def test_edge_values_formatting(tmp_path):
    path = tmp_path / "edge.csv"
    rows = [(math.nan, -0.0, 1.0), (5e-324, None, 1.7976931348623157e308)]
    csvio.write_rows(path, "a,b,c", rows)
    assert read_bytes(path) == oracle_rows("a,b,c", rows)
    assert path.read_text() == "a,b,c\nnan,-0,1\n4.9406564584124654e-324,,1.7976931348623157e+308\n"


def test_template_builds_in_shared_columns():
    assert csvio.template(2, [csvio.FLOAT, "7"]) % (1.0, 2.0) == b"1,7\n2,7\n"
    body = csvio.template(3, [csvio.FLOAT % -0.0, csvio.FLOAT, "x%%"])
    assert body % (math.nan, 2.5, 5e-324) == b"-0,nan,x%\n-0,2.5,x%\n-0,4.9406564584124654e-324,x%\n"


def test_interleave_row_major():
    assert csvio.interleave(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == (1.0, 3.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# the routed writers


def edge_trajectory():
    """Snapshots and a sup history carrying the edge values, one argmax missing."""
    mesh = build_mesh(Slab(-0.5, 0.5), 6)
    rng = np.random.default_rng(3)
    times = np.array([0.0, 5e-324, 0.1])
    values = np.array([
        np.zeros(6),
        [0.0, 5e-324, 1.0, 2.0, -1.7976931348623157e308, 0.0],
        np.concatenate([[0.0], rng.uniform(0.0, 1.0, 4), [0.0]]),
    ])
    hist = np.array([
        (0.0, 0.0, math.nan),
        (5e-324, -0.0, 1.0),
        (1.0, 1.7976931348623157e308, -0.25),
    ])
    return Trajectory(lam=1.0, mesh=mesh, times=times, values=values, max_history=hist)


def test_write_snapshots_matches_oracle(tmp_path):
    traj = edge_trajectory()
    path = write_snapshots(traj, tmp_path)
    assert path == str(tmp_path / "trajectory.npz")
    with np.load(path, allow_pickle=False) as store:
        assert sorted(store.files) == ["times", "values"]
        times, values = store["times"], store["values"]
    assert times.dtype == values.dtype == np.float64
    assert np.array_equal(bits(times), bits(traj.times))
    assert np.array_equal(bits(values), bits(traj.values))


def test_write_max_history_matches_oracle(tmp_path):
    traj = edge_trajectory()
    path = tmp_path / "max_history.csv"
    write_max_history(traj, path)
    rows = traj.max_history.tolist()
    assert read_bytes(path) == oracle_rows("t,sup_u,argmax", rows)
    assert path.read_text().splitlines()[1] == "0,0,nan"


def test_branch_to_csv_missing_mu1_is_blank(tmp_path, branch_f1_401):
    states = tuple(
        dataclasses.replace(s, mu1=None) if k % 3 == 0 else s for k, s in enumerate(branch_f1_401.states)
    )
    branch = dataclasses.replace(branch_f1_401, states=states)
    path = tmp_path / "branch.csv"
    branch_to_csv(branch, path)
    rows = [(s.lam, s.sup_w, s.mu1) for s in states]
    assert read_bytes(path) == oracle_rows("lambda,sup_w,mu1", rows)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(",") and not lines[2].endswith(",")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_steady_grid_matches_oracle(tmp_path):
    grid = [0.0, 0.5, 1.0]
    cfg = write_config(tmp_path, "grid.json", {"node_count": 101, "lambda_grid": grid})
    out = tmp_path / "grid"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    mesh = build_mesh(Slab(-0.5, 0.5), 101)
    # the grid's states share one curve, as in the CLI
    states = list(minimal_states(grid, Constant(1.0), mesh))
    rows = [(s.lam, s.sup_w, s.mu1) for s in states]
    assert read_bytes(out / "branch.csv") == oracle_rows("lambda,sup_w,mu1", rows)


def test_sweep_blank_cells_match_oracle(tmp_path, monkeypatch):
    written = []
    real = csvio.write_rows

    def spy(path, header, rows):
        written.append((header, [tuple(r) for r in rows]))
        real(path, header, rows)

    monkeypatch.setattr(csvio, "write_rows", spy)
    cfg = write_config(tmp_path, "sweep.json", {
        "node_count": 101, "lambda_grid": [0.5, 4.0], "time": {"t_max": 0.2},
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    (header, rows), = written
    assert None in rows[0]  # lam below the fold: no touchdown, no T_L
    assert read_bytes(out / "sweep.csv") == oracle_rows(header, rows)
    assert ",," in (out / "sweep.csv").read_text().splitlines()[1]


@pytest.fixture(scope="module")
def frame_201(quench_run_201):
    traj, report = quench_run_201
    return rescale(traj, report.quench_set[0], report.T)


def oracle_frame(frame):
    text = "s,y,w\n"
    for s, y, w in frame.samples:
        for yi, wi in zip(y, w):
            text += "%.17g,%.17g,%.17g\n" % (s, yi, wi)
    return text


@pytest.mark.parametrize("warned", [False, True])
def test_write_frame_csv_matches_oracle(tmp_path, frame_201, warned):
    path = tmp_path / "frame.csv"
    warning = "warning: center not in the touchdown set"
    write_frame_csv(frame_201, path, [warning] if warned else [])
    expected = oracle_frame(frame_201)
    if warned:  # the old rescale command re-read the file to insert this line
        head, rest = expected.split("\n", 1)
        expected = head + "\n# " + warning + "\n" + rest
    assert read_bytes(path) == expected.encode()


def old_nearest_sample(frame, s):
    ss = np.array([smp[0] for smp in frame.samples])
    return frame.samples[int(np.argmin(np.abs(ss - s)))]


def test_write_energy_csv_matches_oracle(tmp_path, frame_201):
    lam, f_at_a = 5.0, 1.0
    trace = energy_trace(frame_201, lam, f_at_a)
    path = tmp_path / "energy.csv"
    write_energy_csv(trace, frame_201, lam, f_at_a, path)
    Fk = -(trace.k_a**2) / 6.0 - lam * f_at_a / trace.k_a
    text = "s,E,k_a,E_of_k\n"
    for s, E in trace.points:
        _, y, _ = old_nearest_sample(frame_201, s)
        y = y[np.abs(y) <= s + 1e-12]
        trap = np.full(y.size, 0.01)
        trap[0] = trap[-1] = 0.005
        gamma = float(np.sum(np.exp(-(y**2) / 4.0) * trap))
        assert gamma == _gamma(frame_201, s)
        text += "%.17g,%.17g,%.17g,%.17g\n" % (s, E, trace.k_a, Fk * gamma)
    assert read_bytes(path) == text.encode()


def test_nearest_sample_lookup_unchanged(frame_201):
    ss = [smp[0] for smp in frame_201.samples]
    probes = np.concatenate([ss, np.linspace(min(ss) - 1.0, max(ss) + 1.0, 97)])
    for s in probes:
        assert _nearest_sample(frame_201, s) is old_nearest_sample(frame_201, s)


# ---------------------------------------------------------------------------
# the stored trajectory back in


def test_snapshot_round_trip(tmp_path, quench_run_201):
    traj, _ = quench_run_201
    assert math.isnan(traj.max_history[0, 2])  # sup u = 0 at the start: no argmax
    write_snapshots(traj, tmp_path)
    write_max_history(traj, tmp_path / "max_history.csv")

    loaded = read_trajectory(tmp_path, traj.mesh, traj.lam)
    assert loaded.lam == traj.lam and loaded.mesh is traj.mesh
    assert np.array_equal(bits(loaded.times), bits(traj.times))
    assert np.array_equal(bits(loaded.values), bits(traj.values))
    assert np.array_equal(bits(loaded.max_history), bits(traj.max_history))


def test_truncated_store_closes_its_file(tmp_path, quench_run_201):
    # the zip of a truncated store does not parse; the file is closed all the same
    traj, _ = quench_run_201
    write_snapshots(traj, tmp_path)
    write_max_history(traj, tmp_path / "max_history.csv")
    store = tmp_path / TRAJECTORY_NAME
    data = store.read_bytes()
    store.write_bytes(data[: len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MissingInput):
            read_trajectory(tmp_path, traj.mesh, traj.lam)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
