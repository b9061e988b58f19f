"""Spans and counts from wrappers around the package's public functions.

The benchmark installs a wrapper on each name below, in the module that
looks the name up at call time (modules bind the names they import, so
`quenchlab.dynamics.solve_banded` and `quenchlab.steady.solve_banded` are
wrapped separately).  Spans are kept in memory.  `uninstall` puts every
original object back.

Spans recorded in forked sweep workers stay in those processes; the
traced run measures the per-lam integrations by a serial replay instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from concurrent.futures import ProcessPoolExecutor

# span name -> [(module, attribute), ...]
TARGETS = {
    "mesh.solve_banded": [("quenchlab.dynamics", "solve_banded"), ("quenchlab.steady", "solve_banded")],
    "mesh.matvec": [("quenchlab.dynamics", "bands_matvec"), ("quenchlab.steady", "bands_matvec")],
    "mesh.build": [
        ("quenchlab.cli", "build_mesh"),
        ("quenchlab.bounds", "build_mesh"),
        ("quenchlab.dynamics", "laplacian_bands"),
        ("quenchlab.steady", "laplacian_bands"),
        ("quenchlab.mesh", "laplacian_bands"),
    ],
    "profiles.validate": [("quenchlab.cli", "validate_profile")],
    "profiles.holder_constant": [("quenchlab.profiles", "holder_constant"), ("quenchlab.bounds", "holder_constant")],
    "steady.continue_branch": [("quenchlab.steady", "continue_branch")],
    "steady.eigenpair": [("quenchlab.steady", "linearized_eigenpair")],
    "dynamics.integrate": [("quenchlab.dynamics", "integrate")],
    "dynamics.detect_quench": [("quenchlab.dynamics", "detect_quench")],
    "bounds.evaluate_all": [("quenchlab.bounds", "evaluate_all")],
    "bounds.estimate": [
        ("quenchlab.bounds", "bound_lower_TL"),
        ("quenchlab.bounds", "bound_upper_T1"),
        ("quenchlab.bounds", "large_lambda_bounds"),
    ],
    "selfsim.rescale": [("quenchlab.selfsim", "rescale")],
    "selfsim.energy_trace": [("quenchlab.selfsim", "energy_trace")],
    "cli.write": [
        ("quenchlab.dynamics", "write_snapshots"),
        ("quenchlab.dynamics", "write_max_history"),
        ("quenchlab.steady", "branch_to_csv"),
        ("quenchlab.selfsim", "write_frame_csv"),
        ("quenchlab.selfsim", "write_energy_csv"),
    ],
}

# counts taken from a wrapped function's result
_RESULT_COUNTS = {
    "steady.continue_branch": ("steady.branch_states", lambda branch: len(branch.states)),
    "dynamics.integrate": ("dynamics.steps", lambda res: len(res[0].max_history) - 1),
    "selfsim.rescale": ("selfsim.frame_points", lambda frame: sum(len(y) for _, y, _ in frame.samples)),
}


class Tracer:
    """In-memory span list.  A span is [name, start, end, parent, job, covered],
    where `covered` is the summed duration of its direct children."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self.job = None

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def count(self, name, n):
        key = (self.job, name)
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def job_span(self, name, job):
        """Root span of one job; spans opened inside carry its id."""
        self.job = job
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.job = None


def _wrap(tracer, name, fn):
    counted = _RESULT_COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counted is not None:
            tracer.count(counted[0], counted[1](result))
        return result

    return wrapper


def _traced_pool(tracer):
    class TracedPool(ProcessPoolExecutor):
        """The sweep's process pool; its span covers start-up, map and shutdown."""

        def __enter__(self):
            self._span = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    return TracedPool


def install(tracer):
    """Wrap every target; returns the (module, attribute, original) list
    that `uninstall` restores."""
    saved = []
    try:
        for name, sites in TARGETS.items():
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, _wrap(tracer, name, original))
        cli = importlib.import_module("quenchlab.cli")
        saved.append((cli, "ProcessPoolExecutor", cli.ProcessPoolExecutor))
        cli.ProcessPoolExecutor = _traced_pool(tracer)
    except BaseException:
        uninstall(saved)
        raise
    return saved


def uninstall(saved):
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# per-layer numbers of one set of jobs


def layer_numbers(tracer, jobs):
    """Self time and call count per span name, plus result counts, summed
    over the spans of the given job ids."""
    jobs = set(jobs)
    self_s, calls = {}, {}
    solves_in_integrate = 0
    for name, start, end, parent, job, covered in tracer.spans:
        if job not in jobs:
            continue
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        calls[name] = calls.get(name, 0) + 1
        if name == "mesh.solve_banded" and parent is not None and tracer.spans[parent][0] == "dynamics.integrate":
            solves_in_integrate += 1
    counts = {}
    for (job, name), n in tracer.counts.items():
        if job in jobs:
            counts[name] = counts.get(name, 0) + n
    counts["dynamics.solves_in_integrate"] = solves_in_integrate
    return self_s, calls, counts


def span_total(tracer, name, jobs):
    """Summed full duration (children included) of the named spans."""
    jobs = set(jobs)
    return sum(end - start for n, start, end, _, job, _ in tracer.spans if n == name and job in jobs)
