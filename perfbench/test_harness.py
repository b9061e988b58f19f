"""Self-test of the benchmark harness: checks, tracing, metric lists.

    python3 -m pytest -q perfbench/test_harness.py
"""

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# seed-0 sweep rows as the CLI writes them (T and the estimates rounded)
SWEEP_ROWS = [
    ("1.4014164938483709", "10.801254793312337", "2.1100136881225589", "30.487", "30.725", "0.23785", "0.23785"),
    ("1.4042165268031128", "6.1335358383501442", "1.2182580742224529", "17.502", "17.740", "0.23738", "0.23738"),
    ("1.41401664214471", "3.2508635846377079", "0.66727530829189652", "9.4788", "9.7166", "0.23574", "0.23574"),
    ("1.4420169716921301", "1.7779482536084912", "0.38525287878768993", "5.3726", "5.6099", "0.23116", "0.23116"),
    ("1.5400181251081002", "0.87419389143920878", "0.21101194125629139", "2.8372", "3.0727", "0.21645", "0.21645"),
    ("14.000164773710001", "0.024000470845462848", "0.022242622728123003", "0.17994", "0.32389", "0.023809", "0.023809"),
    ("140.0016477371", "0.0023808387527388597", "0.0067064031199785979", "0.039695", "0.097656", "0.0023809", "0.0023809"),
]
SWEEP_HEADER = ("lambda", "T_measured", "T_L", "T1_arctan", "T1_simplified", "lower_1_7", "upper_1_7")


def sweep_rows():
    return [dict(zip(SWEEP_HEADER, row)) for row in SWEEP_ROWS]


def touchdown_records(jobs, scale_T=1.0):
    """A passing seed-0 touchdown pass built from the criteria 01-03 values."""
    records = []
    for job in jobs:
        rec = {"key": job.key, "command": job.command, "rc": 0, "error": None}
        if job.command == "simulate":
            T, _, a, _ = wl.TOUCHDOWN_REFERENCE[job.meta["lam0"]]
            rec["quench"] = {"quenched": True, "T": T * scale_T, "quench_set": [-a, a]}
        else:
            rec["energy_rows"] = 88
        records.append(rec)
    return records


def test_checker_passes_reference_touchdown_and_fails_scaled_T(tmp_path):
    jobs = wl.build_jobs("touchdown", 0, str(tmp_path))
    good = touchdown_records(jobs)
    wl.check_pass(jobs, good)
    assert all(rec["failures"] == [] for rec in good)
    bad = touchdown_records(jobs, scale_T=1.05)
    wl.check_pass(jobs, bad)
    assert all(rec["failures"] for rec in bad if rec["command"] == "simulate")


def test_checker_fails_sweep_row_with_blank_T():
    rows = sweep_rows()
    assert wl.check_sweep(rows) == []
    rows[2]["T_measured"] = ""
    assert wl.check_sweep(rows)


def test_ordering_violations_count_the_known_T_L_defect():
    # at q = 100, T_L = 6.71e-3 lies above the measured T = 2.38e-3
    assert wl.ordering_violations(sweep_rows()) == 1


def test_determinism_check_marks_changed_artifacts():
    passes = [{"jobs": [{"key": "a", "sha256": {"x.csv": h}, "failures": []}]} for h in ("1", "1", "2")]
    assert wl.check_determinism(passes) == 1
    assert passes[2]["jobs"][0]["failures"]


def small_jobs(work):
    """Cheap jobs that reach every wrapped layer, the process pool included."""
    slab = {"geometry": {"kind": "slab"}, "node_count": 101}
    f1 = dict(slab, profile={"kind": "constant", "value": 1.0})
    sim = wl.Job("simulate", "simulate", dict(slab, profile={"kind": "sin_piecewise"}, **{"lambda": 10.0}),
                 os.path.join(work, "simulate"), meta={"lam0": 10.0, "lam": 10.0})
    return [
        sim,
        wl.Job("rescale", "rescale", {"rescale": {"run": sim.out}}, os.path.join(work, "rescale")),
        wl.Job("steady", "steady", f1, os.path.join(work, "steady"), meta={"pair": "slab-f1", "rung": 0}),
        wl.Job("bounds", "bounds", f1, os.path.join(work, "bounds"), extra=["--lambda", "30"]),
        wl.Job("sweep", "sweep", dict(f1, workers=2, lambda_grid=[5.0, 50.0]), os.path.join(work, "sweep")),
    ]


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    cli = child.import_cli()
    work = str(tmp_path_factory.mktemp("traced"))
    jobs = small_jobs(work)
    paths = wl.write_configs(jobs, work)
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for sites in tracing.TARGETS.values()
        for mod, attr in sites
    }
    originals[("quenchlab.cli", "ProcessPoolExecutor")] = cli.ProcessPoolExecutor
    tracer = tracing.Tracer()
    passes = [child.traced_pass(cli, jobs, paths, k, tracer) for k in range(2)]
    return originals, tracer, passes


def test_traced_run_restores_every_wrapped_function(traced_twice):
    originals, tracer, passes = traced_twice
    for (mod, attr), original in originals.items():
        assert getattr(importlib.import_module(mod), attr) is original, (mod, attr)
    for record, _ in passes:
        assert all(rec["rc"] == 0 for rec in record["jobs"])
    names = {span[0] for span in tracer.spans}
    assert set(tracing.TARGETS) | {"cli.pool"} <= names


def test_traced_runs_give_identical_counts(traced_twice):
    _, tracer, passes = traced_twice
    numbers = [tracing.layer_numbers(tracer, ids) for _, ids in passes]
    (_, calls0, counts0), (_, calls1, counts1) = numbers
    assert calls0 == calls1
    assert counts0 == counts1
    assert counts0["dynamics.steps"] > 0 and calls0["mesh.solve_banded"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [m["name"] for m in spec["workloads"]] == list(wl.TIMED)
    layers = [("%s.%s" % (w, n), u) for w in wl.WORKLOADS for n, u in child.PER_LAYER[w]]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
