"""quenchlab benchmark: three study workloads driven through the CLI.

    python3 perfbench/run.py --workload touchdown --seed 0 --seconds 30 --trace 0

With --trace 0 the run starts SETUP_SAMPLES fresh processes one after
another.  Each sets up (imports, config files, one warm-up pass) and then
runs timed passes for its share of --seconds.  The end-to-end metrics are
medians: set-up over the processes, the rest over all timed passes.

`--workload` takes the timed workloads (workloads.TIMED).  With --trace 1
the run traces every workload, `sweep` included, one fresh process each,
running every job untraced and then traced, and reports the per-layer
metrics prefixed by workload (see child.PER_LAYER).

Outputs of every job are checked (workloads.check_*).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from child import PER_LAYER  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# gated end-to-end metrics: (name, unit)
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
# per-subcommand pass time, printed where the workload runs that subcommand
SPLITS = {"touchdown": ("simulate", "rescale"), "fold": ("steady", "bounds"), "sweep": ()}


class HarnessError(RuntimeError):
    pass


def spawn_child(workload, seed, budget, work, trace, deadline):
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--budget", repr(budget), "--work", work,
            "--spawned", repr(time.time())]
    if trace:
        argv.append("--trace")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("%s process passed the time limit" % workload)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError("%s process exited with code %s" % (workload, proc.returncode))
    return json.loads(lines[-1])


def tally(passes):
    """(attempted, failed) jobs over passes, after the determinism check."""
    wl.check_determinism(passes)
    wl.report_failures(passes)
    jobs = [rec for p in passes for rec in p["jobs"]]
    return len(jobs), sum(1 for rec in jobs if rec["failures"])


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(workload, seed, seconds, work, deadline):
    children = [spawn_child(workload, seed, seconds / SETUP_SAMPLES, work, False, deadline)
                for _ in range(SETUP_SAMPLES)]
    timed = [p for c in children for p in c["passes"]]
    attempted, failed = tally([c["warmup"] for c in children] + timed)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "peak_rss_mb": peak_rss_mb(),
    }
    print("workload %s, seed %d: %d fresh processes, %d timed passes (p50 of each), %d jobs, %d failed"
          % (workload, seed, len(children), len(timed), attempted, failed))
    print("  pass wall_s: %s" % " ".join("%.3f" % p["wall_s"] for p in timed))
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print("  %-12s %12.6f %s" % (name, value, units[name]))
    for command in SPLITS[workload]:
        split = statistics.median(sum(r["wall_s"] for r in p["jobs"] if r["command"] == command)
                                  for p in timed)
        print("  %-12s %12.6f s   (not gated)" % (command + "_s", split))
    print("  %-12s %12.6f ratio (not gated; also in 'failed')" % ("failed_frac", failed / attempted))
    return attempted, failed, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(seed, seconds, work, deadline):
    attempted = failed = 0
    metrics = {}
    repeat_ok = True
    for workload in wl.WORKLOADS:
        child = spawn_child(workload, seed, seconds / len(wl.WORKLOADS),
                            os.path.join(work, workload), True, deadline)
        a, f = tally([child["warmup"]] + child["passes"])
        attempted, failed = attempted + a, failed + f
        layers = child["layers"]
        print("traced %s, seed %d: %d traced passes, %d jobs, %d failed" % (workload, seed, len(layers), a, f))
        for name, unit in PER_LAYER[workload]:
            values = [m[name] for m in layers]
            if unit == "count":
                if len(set(values)) != 1:
                    print("COUNT DID NOT REPEAT %s.%s: %r" % (workload, name, values), file=sys.stderr)
                    repeat_ok = False
                value = values[0]
            else:
                value = statistics.median(values)
            metrics["%s.%s" % (workload, name)] = {"value": value, "unit": unit}
            print("  %-44s %16.9g %s" % (name, value, unit))
    return attempted, failed, metrics, repeat_ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.TIMED, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quenchlab", "cli.py")):
        print("no quenchlab sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, "_work", "run-%08d" % os.getpid())
    try:
        if args.trace:
            attempted, failed, metrics, repeat_ok = measure_traced(args.seed, args.seconds, work, deadline)
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, work, deadline)
            repeat_ok = True
    except HarnessError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0 and repeat_ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
