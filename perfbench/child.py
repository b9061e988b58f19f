"""One fresh benchmark process: set up, run passes, print one JSON line.

Set-up is everything from process start to the first timed pass:
interpreter start, imports, writing the config files and one warm-up
pass (which fills process-level caches such as `bounds._D_CACHE`).

    python3 perfbench/child.py --workload fold --seed 0 --budget 4 \
        --spawned <time.time() at spawn> --work <dir> [--trace]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# per-layer metrics reported by the traced run, per workload: (name, unit).
# A workload lists only the layers it exercises.
_MESH = [
    ("mesh.solve_banded_calls", "count"),
    ("mesh.solve_banded_s", "s"),
    ("mesh.matvec_calls", "count"),
    ("mesh.matvec_s", "s"),
    ("mesh.build_s", "s"),
]
_PROFILES = [
    ("profiles.validate_s", "s"),
    ("profiles.holder_constant_calls", "count"),
    ("profiles.holder_constant_s", "s"),
]
_STEADY = [
    ("steady.continue_branch_s", "s"),
    ("steady.branch_states", "count"),
    ("steady.eigenpair_calls", "count"),
    ("steady.eigenpair_s", "s"),
]
_DYNAMICS = [
    ("dynamics.integrate_s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.step_us", "us"),
    ("dynamics.solves_per_step", "ratio"),
    ("dynamics.detect_quench_s", "s"),
]
_OUTPUT = [("cli.self_s", "s"), ("cli.bytes_written", "bytes"), ("cli.files_written", "count")]
PER_LAYER = {
    "touchdown": _MESH + _PROFILES + _DYNAMICS + [
        ("dynamics.T_rel_err", "ratio"),
        ("selfsim.rescale_s", "s"),
        ("selfsim.energy_trace_s", "s"),
        ("selfsim.frame_points", "count"),
        ("cli.write_s", "s"),
        ("cli.read_s", "s"),
    ] + _OUTPUT + [("trace.overhead_s", "s")],
    "fold": _MESH + _PROFILES + _STEADY + [
        ("steady.lambda_star_rel_err_n%d" % n, "ratio") for n in wl.FOLD_RUNGS
    ] + [
        ("bounds.evaluate_all_s", "s"),
        ("bounds.estimate_calls", "count"),
        ("bounds.estimate_s", "s"),
        ("cli.write_s", "s"),
    ] + _OUTPUT + [("trace.overhead_s", "s")],
    "sweep": _MESH + _PROFILES + _STEADY + _DYNAMICS + [
        ("bounds.estimate_calls", "count"),
        ("bounds.estimate_s", "s"),
        ("bounds.ordering_violations", "count"),
        ("cli.pool_wait_s", "s"),
        ("cli.pool_efficiency", "ratio"),
    ] + _OUTPUT + [("trace.overhead_s", "s")],
}


def import_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import quenchlab.cli

    where = os.path.dirname(os.path.abspath(quenchlab.cli.__file__))
    if where != os.path.join(SRC, "quenchlab"):
        raise SystemExit("quenchlab imported from %s, not from %s" % (where, SRC))
    return quenchlab.cli


def _dynamics(self_s, counts, tracer, ids):
    steps = counts.get("dynamics.steps", 0)
    per_step = 1.0 / steps if steps else math.nan
    return {
        "dynamics.integrate_s": self_s.get("dynamics.integrate", 0.0),
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * tracing.span_total(tracer, "dynamics.integrate", ids) * per_step,
        "dynamics.solves_per_step": counts["dynamics.solves_in_integrate"] * per_step,
        "dynamics.detect_quench_s": self_s.get("dynamics.detect_quench", 0.0),
    }


def _T_reference(lam):
    """Criteria 01-03 reference T at lam: exact at the pinned lam, and
    carried along the reference table's log-log segments for the
    perturbed lam of other seeds."""
    pts = sorted((math.log(l), math.log(v[0])) for l, v in wl.TOUCHDOWN_REFERENCE.items())
    x = math.log(lam)
    i = 0 if x <= pts[1][0] else 1
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    return math.exp(y0 + (y1 - y0) * (x - x0) / (x1 - x0))


def layer_metrics(workload, tracer, ids, jobs, record, replay_ids=()):
    """Per-layer numbers of one traced pass (unprefixed names)."""
    self_s, calls, counts = tracing.layer_numbers(tracer, ids)
    m = {
        "mesh.solve_banded_calls": calls.get("mesh.solve_banded", 0),
        "mesh.solve_banded_s": self_s.get("mesh.solve_banded", 0.0),
        "mesh.matvec_calls": calls.get("mesh.matvec", 0),
        "mesh.matvec_s": self_s.get("mesh.matvec", 0.0),
        "mesh.build_s": self_s.get("mesh.build", 0.0),
        "profiles.validate_s": self_s.get("profiles.validate", 0.0),
        "profiles.holder_constant_calls": calls.get("profiles.holder_constant", 0),
        "profiles.holder_constant_s": self_s.get("profiles.holder_constant", 0.0),
        "steady.continue_branch_s": self_s.get("steady.continue_branch", 0.0),
        "steady.branch_states": counts.get("steady.branch_states", 0),
        "steady.eigenpair_calls": calls.get("steady.eigenpair", 0),
        "steady.eigenpair_s": self_s.get("steady.eigenpair", 0.0),
        "bounds.evaluate_all_s": self_s.get("bounds.evaluate_all", 0.0),
        "bounds.estimate_calls": calls.get("bounds.estimate", 0),
        "bounds.estimate_s": self_s.get("bounds.estimate", 0.0),
        "selfsim.rescale_s": self_s.get("selfsim.rescale", 0.0),
        "selfsim.energy_trace_s": self_s.get("selfsim.energy_trace", 0.0),
        "selfsim.frame_points": counts.get("selfsim.frame_points", 0),
        "cli.write_s": self_s.get("cli.write", 0.0),
        "cli.read_s": self_s.get("cli.rescale", 0.0),
        "cli.self_s": sum(self_s.get("cli." + c, 0.0) for c in ("simulate", "steady", "bounds", "sweep")),
        "cli.pool_wait_s": self_s.get("cli.pool", 0.0),
        "cli.bytes_written": sum(r["bytes_written"] for r in record["jobs"]),
        "cli.files_written": sum(r["files_written"] for r in record["jobs"]),
    }
    if workload == "sweep":
        # the pool workers' integrations, replayed serially in this process
        r_self, _, r_counts = tracing.layer_numbers(tracer, replay_ids)
        m.update(_dynamics(r_self, r_counts, tracer, replay_ids))
        busy = tracing.span_total(tracer, "dynamics.integrate", replay_ids)
        m["cli.pool_efficiency"] = busy / (wl.SWEEP_WORKERS * m["cli.pool_wait_s"])
        m["bounds.ordering_violations"] = wl.ordering_violations(record["jobs"][0]["rows"])
    else:
        m.update(_dynamics(self_s, counts, tracer, ids))
    if workload == "touchdown":
        errs = [abs(r["quench"]["T"] / _T_reference(j.meta["lam"]) - 1.0)
                for j, r in zip(jobs, record["jobs"]) if j.command == "simulate"]
        m["dynamics.T_rel_err"] = max(errs)
    if workload == "fold":
        for j, r in zip(jobs, record["jobs"]):
            if j.command == "steady" and j.meta["pair"] == "slab-f1":
                ls = r["summary"]["lambda_star"]
                name = "steady.lambda_star_rel_err_n%d" % wl.FOLD_RUNGS[j.meta["rung"]]
                m[name] = abs(ls / wl.SLAB_F1_LAMBDA_STAR - 1.0)
    return m


def replay_sweep(cli, tracer, job):
    """Run the sweep's per-lam integrations one after another, as the pool
    workers run them, under the job id 'replay'."""
    import quenchlab.dynamics as dynamics

    cfg = job.config
    with tracer.job_span("replay", "replay"):
        for lam in cfg["lambda_grid"]:
            mesh = cli.build_mesh(cli.build_geometry(cfg["geometry"]), cfg["node_count"])
            profile = cli.build_profile(cfg["profile"])
            tc = cli.build_time(cfg["time"])
            dynamics.integrate(lam, profile, mesh, tc)
    return ["replay"]


def traced_pass(cli, jobs, paths, k, tracer):
    """One pass with every wrapper installed; the originals are back on return."""
    ids = ["p%d/%s" % (k, j.key) for j in jobs]
    by_job = dict(zip((j.key for j in jobs), ids))
    saved = tracing.install(tracer)
    try:
        record = wl.run_pass(jobs, paths, cli.main,
                             job_span=lambda j: tracer.job_span("cli." + j.command, by_job[j.key]))
    finally:
        tracing.uninstall(saved)
    return record, ids


def _merged(jobs, singles):
    records = [rec for single in singles for rec in single["jobs"]]
    wl.check_pass(jobs, records)
    return {"wall_s": sum(s["wall_s"] for s in singles), "cpu_s": sum(s["cpu_s"] for s in singles),
            "jobs": records}


def interleaved_pass(cli, jobs, paths, k, tracer):
    """Run each job untraced and traced, back to back, so that drift in
    host speed mostly cancels in the tracing overhead.  The twin that runs
    second rewrites artifacts the first has just written, which is slower
    on its own, so the order alternates from job to job.  Returns the
    untraced and the traced pass record, and the traced job ids."""
    plain, traced, ids = [], [], []
    for i, job in enumerate(jobs):
        if i % 2:
            record, job_ids = traced_pass(cli, [job], paths, k, tracer)
            plain.append(wl.run_pass([job], paths, cli.main))
        else:
            plain.append(wl.run_pass([job], paths, cli.main))
            record, job_ids = traced_pass(cli, [job], paths, k, tracer)
        traced.append(record)
        ids += job_ids
    return _merged(jobs, plain), _merged(jobs, traced), ids


def run_traced(cli, workload, jobs, paths, budget):
    """Interleaved passes until the budget is spent, then the sweep replay."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < budget:
        p, t, ids = interleaved_pass(cli, jobs, paths, len(traced), tracer)
        plain.append(p)
        traced.append((t, ids))
    replay_ids = ()
    if workload == "sweep":
        saved = tracing.install(tracer)
        try:
            replay_ids = replay_sweep(cli, tracer, jobs[0])
        finally:
            tracing.uninstall(saved)
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, (t, _) in zip(plain, traced))
    layers = []
    for record, ids in traced:
        m = layer_metrics(workload, tracer, ids, jobs, record, replay_ids)
        m["trace.overhead_s"] = overhead
        layers.append({name: m[name] for name, _ in PER_LAYER[workload]})
    return plain + [r for r, _ in traced], layers


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cli = import_cli()
    jobs = wl.build_jobs(args.workload, args.seed, args.work)
    paths = wl.write_configs(jobs, args.work)
    warmup = wl.run_pass(jobs, paths, cli.main)
    setup_s = time.time() - args.spawned

    out = {"setup_s": setup_s, "warmup": warmup}
    if args.trace:
        out["passes"], out["layers"] = run_traced(cli, args.workload, jobs, paths, args.budget)
    else:
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.budget:
            passes.append(wl.run_pass(jobs, paths, cli.main))
        out["passes"] = passes
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
