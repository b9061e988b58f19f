"""The three study workloads: seeded job lists, one pass over them, output checks.

A job is one `quenchlab` CLI invocation, run in-process through
`quenchlab.cli.main(argv)` on a config file generated here.  The program
sees only those config files and flags.  Seed 0 gives the pinned configs;
other seeds perturb them without moving any job across the fold, and
shuffle the job order within a pass.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import traceback

WORKLOADS = ("touchdown", "fold", "sweep")
# workloads with end-to-end timings.  `sweep` is traced only: its two pool
# workers fill both cores of a small shared host, so its wall time follows
# the host scheduler more than the program.
TIMED = ("touchdown", "fold")

# closed-form fold value of the unit slab with f = 1 (acceptance criterion 11a)
SLAB_F1_LAMBDA_STAR = 1.40001647737100

TOUCHDOWN_NODES = 6000
TOUCHDOWN_LAMS = (10.0, 100.0, 1e5)
# criteria 01-03: lam -> (T, relative tolerance, |touchdown point|, absolute tolerance)
TOUCHDOWN_REFERENCE = {
    10.0: (0.05174132, 0.01, 0.204, 0.01),
    100.0: (0.003523908, 0.01, 0.2535, 0.005),
    1e5: (3.332783e-6, 0.01, 0.250165, 0.002),
}
TWO_BUMP_SUP = 1.0  # sup of the sin_piecewise profile, attained at x = -1/4 and 1/4

FOLD_RUNGS = (401, 2001, 6001)
FOLD_BOUNDS_LAMBDA = "30"
FOLD_PAIRS = (
    ("slab-f1", {"kind": "slab"}, {"kind": "constant", "value": 1.0}),
    ("slab-two-bump", {"kind": "slab"}, {"kind": "sin_piecewise"}),
    ("ball2-f1", {"kind": "ball", "dimension": 2}, {"kind": "constant", "value": 1.0}),
    ("ball3-power1", {"kind": "ball", "dimension": 3}, {"kind": "power", "exponent": 1.0}),
)
# bounds.json flag -> the estimates it vouches for
BOUND_FLAG_FIELDS = {
    "bound_1_2": ("bound_1_2",),
    "T_L": ("T_L",),
    "T1": ("T1_simplified", "T1_arctan"),
    "large_lambda_upper": ("large_lambda_upper",),
}

SWEEP_QS = (1.001, 1.003, 1.01, 1.03, 1.1, 10.0, 100.0)
SWEEP_NEAR_FOLD = 5  # the first five q are the criterion 04 grid
SWEEP_WORKERS = 2
ORDERING_SLACK = 0.01


class Job:
    """One CLI invocation of a pass; `key` names it across passes."""

    def __init__(self, key, command, config, out, extra=(), meta=None):
        self.key = key
        self.command = command
        self.config = config
        self.out = out
        self.extra = list(extra)
        self.meta = meta or {}

    def argv(self, config_path):
        return [self.command, "--config", config_path, "--out", self.out] + self.extra


# ---------------------------------------------------------------------------
# job lists


def _touchdown(rng, seed, work):
    sims = []
    for lam0 in TOUCHDOWN_LAMS:
        lam = lam0 if seed == 0 else lam0 * math.exp(rng.uniform(-1.0, 1.0) * math.log(1.02))
        cfg = {
            "lambda": lam,
            "node_count": TOUCHDOWN_NODES,
            "geometry": {"kind": "slab"},
            "profile": {"kind": "sin_piecewise"},
        }
        key = "simulate-lam%g" % lam0
        sims.append(Job(key, "simulate", cfg, os.path.join(work, key), meta={"lam0": lam0, "lam": lam}))
    if seed != 0:
        rng.shuffle(sims)
    source = next(j for j in sims if j.meta["lam0"] == 10.0)
    # rescale reads the lam = 10 run, so it closes the pass
    rescale = Job("rescale", "rescale", {"rescale": {"run": source.out}}, os.path.join(work, "rescale"))
    return sims + [rescale]


def _fold(rng, seed, work):
    units = []
    for name, geometry, profile in FOLD_PAIRS:
        for rung, n0 in enumerate(FOLD_RUNGS):
            n = n0 if seed == 0 else n0 + rng.randint(-8, 8)
            cfg = {"geometry": geometry, "profile": profile, "node_count": n}
            meta = {"pair": name, "rung": rung, "nodes": n}
            key = "%s-n%d" % (name, n0)
            units.append((
                Job("steady-" + key, "steady", cfg, os.path.join(work, "steady-" + key), meta=meta),
                Job("bounds-" + key, "bounds", cfg, os.path.join(work, "bounds-" + key),
                    extra=["--lambda", FOLD_BOUNDS_LAMBDA], meta=meta),
            ))
    if seed != 0:
        rng.shuffle(units)
    return [job for unit in units for job in unit]


def _sweep(rng, seed, work):
    qs = [q if seed == 0 else 1.0 + (q - 1.0) * (1.0 + rng.uniform(-0.1, 0.1)) for q in SWEEP_QS]
    cfg = {
        "geometry": {"kind": "slab"},
        "profile": {"kind": "constant", "value": 1.0},
        "node_count": 2001,
        "time": {"t_max": 300.0},
        "workers": SWEEP_WORKERS,
        "lambda_grid": [q * SLAB_F1_LAMBDA_STAR for q in qs],
    }
    return [Job("sweep", "sweep", cfg, os.path.join(work, "sweep"))]


def build_jobs(workload, seed, work):
    """The seeded job list of one pass; outputs go under `work`."""
    make = {"touchdown": _touchdown, "fold": _fold, "sweep": _sweep}[workload]
    return make(random.Random(seed), seed, work)


def write_configs(jobs, work):
    """Write each job's config file; returns key -> path."""
    os.makedirs(work, exist_ok=True)
    paths = {}
    for job in jobs:
        path = os.path.join(work, job.key + ".json")
        with open(path, "w") as fh:
            json.dump(job.config, fh, indent=2, sort_keys=True)
        paths[job.key] = path
    return paths


# ---------------------------------------------------------------------------
# one pass


def run_pass(jobs, config_paths, main, job_span=None):
    """Run every job back to back (a closed loop with one client).

    Returns the pass record: its wall and CPU time, and per job the wall
    time, exit code, error text and the outputs the checks read.  The
    checks run after the timed region.  `job_span(job)`, when given, is a
    context manager entered around each job (the traced run's root span).
    """
    records = []
    cpu0 = _cpu()
    t_pass = time.perf_counter()
    for job in jobs:
        argv = job.argv(config_paths[job.key])
        t0 = time.perf_counter()
        try:
            if job_span is None:
                rc = main(argv)
            else:
                with job_span(job):
                    rc = main(argv)
            error = None
        except (Exception, SystemExit):  # job boundary: a crash is a failed job
            rc, error = None, traceback.format_exc(limit=3)
        records.append({"key": job.key, "command": job.command, "wall_s": time.perf_counter() - t0,
                        "rc": rc, "error": error})
    wall = time.perf_counter() - t_pass
    cpu = _cpu() - cpu0
    for job, rec in zip(jobs, records):
        rec.update(read_outputs(job))
    check_pass(jobs, records)
    return {"wall_s": wall, "cpu_s": cpu, "jobs": records}


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_outputs(job):
    """What the checks need from a job's output directory."""
    run = _load_json(os.path.join(job.out, "run.json")) or {}
    files = run.get("files") or {}
    size = 0
    for name in files:
        try:
            size += os.path.getsize(os.path.join(job.out, name))
        except OSError:
            pass
    out = {"sha256": files, "files_written": len(files) + 1 if run else 0, "bytes_written": size}
    if job.command == "simulate":
        out["quench"] = _load_json(os.path.join(job.out, "quench.json"))
    elif job.command == "steady":
        out["summary"] = _load_json(os.path.join(job.out, "summary.json"))
    elif job.command == "bounds":
        out["bounds"] = _load_json(os.path.join(job.out, "bounds.json"))
    elif job.command == "rescale":
        out["energy_rows"] = _data_rows(os.path.join(job.out, "energy.csv"))
    elif job.command == "sweep":
        out["rows"] = read_sweep_csv(os.path.join(job.out, "sweep.csv"))
    return out


def _data_rows(path):
    try:
        with open(path) as fh:
            return max(sum(1 for _ in fh) - 1, 0)
    except OSError:
        return 0


def read_sweep_csv(path):
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    except OSError:
        return []


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages, empty when good


def check_simulate(quench, lam, lam0, nodes, pinned):
    if not quench:
        return ["no quench.json"]
    if not quench.get("quenched"):
        return ["did not quench"]
    T = quench.get("T")
    pts = sorted(quench.get("quench_set") or [])
    fails = []
    if T is None or not T > 0:
        return ["no touchdown time"]
    if len(pts) != 2:
        return ["touchdown set has %d points, expected 2" % len(pts)]
    h = 1.0 / (nodes - 1)
    if abs(pts[0] + pts[1]) > 2.0 * h:
        fails.append("touchdown pair not symmetric within 2h: %r" % pts)
    if not all(0.20 <= abs(a) <= 0.26 for a in pts):
        fails.append("touchdown points outside 0.20 <= |a| <= 0.26: %r" % pts)
    if 1.0 / (3.0 * lam * TWO_BUMP_SUP) > 1.002 * T:
        fails.append("T = %.6g below the large-lam lower bound 1/(3 lam sup f)" % T)
    if pinned:
        T_ref, rel, a_ref, a_tol = TOUCHDOWN_REFERENCE[lam0]
        if abs(T / T_ref - 1.0) > rel:
            fails.append("T = %.7g, criterion reference %.7g (rel %g)" % (T, T_ref, rel))
        if abs(pts[0] + a_ref) > a_tol or abs(pts[1] - a_ref) > a_tol:
            fails.append("touchdown pair %r, criterion reference +-%g (abs %g)" % (pts, a_ref, a_tol))
    return fails


def check_bounds(report):
    if not report:
        return ["no bounds.json"]
    fails = []
    for flag, fields in BOUND_FLAG_FIELDS.items():
        if report.get("flags", {}).get(flag) != "ok":
            continue
        for field in fields:
            v = report.get(field)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fails.append("%s flagged ok but %s = %r" % (flag, field, v))
    return fails


def check_fold_ladder(pair, lambda_stars):
    """lambda_star per rung of one (geometry, profile) pair."""
    if any(ls is None for ls in lambda_stars):
        return ["missing lambda_star on the %s ladder" % pair]
    if pair == "slab-f1":
        return ["%s lambda_star %.12g off the closed form by more than 5e-4" % (pair, ls)
                for ls in lambda_stars if abs(ls - SLAB_F1_LAMBDA_STAR) > 5e-4]
    spread = (max(lambda_stars) - min(lambda_stars)) / min(lambda_stars)
    if spread > 1e-4:
        return ["%s lambda_star ladder %r spreads %.3g relative" % (pair, lambda_stars, spread)]
    return []


def _num(text):
    return float(text) if text not in (None, "") else None


def check_sweep(rows):
    if len(rows) != len(SWEEP_QS):
        return ["sweep has %d rows, expected %d" % (len(rows), len(SWEEP_QS))]
    pts = sorted((_num(r.get("lambda")), _num(r.get("T_measured"))) for r in rows)
    fails = ["blank T_measured at lambda = %.12g" % lam for lam, T in pts if T is None]
    if fails:
        return fails
    if any(T1 >= T0 for (_, T0), (_, T1) in zip(pts, pts[1:])):
        fails.append("T does not decrease in lambda: %r" % pts)
    near = pts[:SWEEP_NEAR_FOLD]
    xs = [math.log(lam - SLAB_F1_LAMBDA_STAR) for lam, _ in near]
    ys = [math.log(T) for _, T in near]
    slope = _slope(xs, ys)
    if abs(slope + 0.5) > 0.05:
        fails.append("near-fold log-log slope %.4f, expected -0.5 +- 0.05" % slope)
    return fails


def _slope(xs, ys):
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ordering_violations(rows):
    """Sweep rows where a reported lower estimate exceeds measured T, or an
    upper one falls below it, by more than the 1 % slack.  The large-lam
    upper is left out, as `evaluate_all` leaves it out of its ordering
    check: it qualifies itself through lambda0."""
    count = 0
    for r in rows:
        T = _num(r.get("T_measured"))
        if T is None:
            continue
        lowers = [v for v in (_num(r.get("T_L")), _num(r.get("lower_1_7"))) if v is not None]
        uppers = [v for v in (_num(r.get("T1_arctan")), _num(r.get("T1_simplified"))) if v is not None]
        if any(v > T * (1.0 + ORDERING_SLACK) for v in lowers) or any(
            T > v * (1.0 + ORDERING_SLACK) for v in uppers
        ):
            count += 1
    return count


def check_pass(jobs, records):
    """Fill each record's `failures`; a job fails on a nonzero exit code, an
    exception, or a failed output check."""
    by_key = {rec["key"]: rec for rec in records}
    for job, rec in zip(jobs, records):
        fails = []
        if rec["error"] is not None:
            fails.append("raised: " + rec["error"].strip().splitlines()[-1])
        elif rec["rc"] != 0:
            fails.append("exit code %r" % rec["rc"])
        elif job.command == "simulate":
            fails += check_simulate(rec["quench"], job.meta["lam"], job.meta["lam0"],
                                    job.config["node_count"], job.meta["lam"] == job.meta["lam0"])
        elif job.command == "rescale":
            if rec["energy_rows"] < 1:
                fails.append("energy.csv has no data rows")
        elif job.command == "bounds":
            fails += check_bounds(rec["bounds"])
        elif job.command == "sweep":
            fails += check_sweep(rec["rows"])
        rec["failures"] = fails
    ladders = {}
    for job in jobs:
        if job.command == "steady":
            ladders.setdefault(job.meta["pair"], {})[job.meta["rung"]] = job
    for pair, rungs in ladders.items():
        stars = [(by_key[j.key].get("summary") or {}).get("lambda_star") for _, j in sorted(rungs.items())]
        fails = check_fold_ladder(pair, stars)
        if fails:
            for j in rungs.values():
                by_key[j.key]["failures"] += fails


def check_determinism(passes):
    """The CLI promises identical artifacts for identical configs: every
    pass of a run must report the same sha256 sums per job.  Marks the
    differing jobs failed; returns the number of marks."""
    first = {}
    marked = 0
    for p in passes:
        for rec in p["jobs"]:
            ref = first.setdefault(rec["key"], rec["sha256"])
            if rec["sha256"] != ref:
                rec["failures"].append("artifact sha256 sums differ from an earlier pass")
                marked += 1
    return marked


def report_failures(passes, stream=sys.stderr):
    for p in passes:
        for rec in p["jobs"]:
            for msg in rec["failures"]:
                print("FAILED %s: %s" % (rec["key"], msg), file=stream)
