"""Command-line front end.

Subcommands: steady | simulate | sweep | bounds | rescale.  A single
JSON config document drives every run; each flag overrides one key
(`_FLAGS`).  `_build` reads every config section off the signature of the
constructor that `KINDS` maps it to: its keys, defaults and value types
(a float key takes a JSON number, an int key a JSON integer).  All data
files are deterministic for a fixed config and version (timestamps live
only in run.json), use '.' decimals, LF line endings, and carry header rows.

Each subcommand checks every value it reads, solves, and only then
makes its output directory and writes its files; `main` writes run.json
and is the one place where a failure becomes an exit code: 0 success,
2 `ConfigError`, 3 `csvio.SolverFailure`, 4 `csvio.MissingInput`.  A
subcommand accepts only the flags it reads (`COMMANDS`).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime
import functools
import hashlib
import inspect
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

from . import __version__, csvio
from .csvio import MissingInput, SolverFailure
from .dynamics import TimeConfig
from .mesh import Mesh, RadialBall, Slab, build_mesh
from .profiles import (
    Constant,
    IncompatibleGeometry,
    Power,
    Profile,
    SlabSinPiecewise,
    evaluate,
    tabulated_from_csv,
    validate as validate_profile,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MISSING = 4


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "geometry": {"kind": "slab", "x_left": -0.5, "x_right": 0.5},
    "node_count": 2001,
    "profile": {"kind": "constant", "value": 1.0},
    "lambda": 1.0,
    "time": {},
    "workers": 1,
    "out": "runs/out",
}

_TOP_KEYS = set(DEFAULTS) | {"lambda_grid", "rescale"}
# flag -> (the config key it sets, the type of its value); 'time.quench_eps' is a
# key of the time section, and --profile NAME sets the profile {"kind": NAME},
# whose kind's defaults fill in the rest
_FLAGS = {"--out": ("out", str), "--lambda": ("lambda", float), "--nodes": ("node_count", int),
          "--profile": ("profile", lambda kind: {"kind": kind}), "--quench-eps": ("time.quench_eps", float)}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError("unknown %s key(s): %s" % (where, ", ".join(unknown)))


def _integer(value, what: str) -> int:
    """value itself if it is an int; a bool, float or string is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer" % what)
    return value


def _number(value, what: str) -> float:
    """value as a float if it is a JSON number; a bool or string is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number" % what)
    return float(value)


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError("%s must be a string" % what)
    return value


def load_config(path: Optional[str], overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config file not found: %s" % path)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(user, _TOP_KEYS, "top-level")
        cfg.update(copy.deepcopy(user))
    for key, _ in _FLAGS.values():
        if overrides.get(key) is not None:
            section, _, inner = key.rpartition(".")
            target = cfg[section] if section else cfg
            if not isinstance(target, dict):
                raise ConfigError("'%s' must be an object" % section)
            target[inner] = overrides[key]
    if not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError("'out' must be a nonempty string")
    return cfg


@dataclasses.dataclass(frozen=True)
class RescaleConfig:
    """The simulate run to rescale; center and T default to those of its quench.json."""

    run: str
    center: float = None
    T: float = None

    def __post_init__(self):
        if not self.run:
            raise ValueError("'run' must name a simulate output directory")


# section -> its constructor, or kind -> constructor for a section that names a
# 'kind'; each value is read by the reader of its parameter's annotated type,
# and null is "not given" for a key whose default is None
KINDS = {
    "geometry": {"slab": Slab, "ball": RadialBall},
    "profile": {"constant": Constant, "power": Power, "sin_piecewise": SlabSinPiecewise,
                "tabulated": tabulated_from_csv},
    "time": TimeConfig,
    "rescale": RescaleConfig,
}
_READERS = {float: _number, int: _integer, str: _text}


def _build(section: str, spec):
    """The object that `spec`, one config section's object, describes."""
    if not isinstance(spec, dict):
        raise ConfigError("'%s' must be an object" % section)
    ctor, where, spec = KINDS[section], section, dict(spec)
    if isinstance(ctor, dict):
        kind = spec.pop("kind", None)
        if not isinstance(kind, str) or kind not in ctor:
            raise ConfigError("%s kind must be %s" % (section, "|".join(ctor)))
        ctor, where = ctor[kind], "%s %s" % (kind, section)
    params = inspect.signature(ctor, eval_str=True).parameters
    _check_keys(spec, set(params), where)
    missing = [name for name, p in params.items() if p.default is p.empty and name not in spec]
    if missing:
        raise ConfigError("%s requires %s" % (where, ", ".join(repr(name) for name in missing)))
    args = {name: _READERS[params[name].annotation](value, "%s.%s" % (section, name))
            for name, value in spec.items() if value is not None or params[name].default is not None}
    try:
        return ctor(**args)
    except OSError as exc:  # the tabulated profile's table
        raise MissingInput("profile table not readable: %s" % exc)
    except ValueError as exc:
        raise ConfigError("bad %s: %s" % (section, exc))


# perfbench/child.py replays a sweep's integrations through these names
build_geometry, build_profile, build_time = (functools.partial(_build, s) for s in ("geometry", "profile", "time"))


def _validated(cfg: dict) -> Tuple[Mesh, Profile]:
    node_count = _integer(cfg["node_count"], "node_count")
    geometry = _build("geometry", cfg["geometry"])
    try:
        mesh = build_mesh(geometry, node_count)
    except ValueError as exc:
        raise ConfigError("bad mesh: %s" % exc)
    profile = _build("profile", cfg["profile"])
    try:
        validate_profile(profile, mesh)
    except IncompatibleGeometry as exc:
        raise ConfigError("profile incompatible with geometry: %s" % exc)
    except ValueError as exc:
        raise ConfigError("bad profile: %s" % exc)
    return mesh, profile


def _checked_lam(lam: float, positive: bool, what: str) -> float:
    """lam itself if it is finite and positive (or, unless `positive`, zero)."""
    if not (math.isfinite(lam) and (lam > 0 or (lam == 0 and not positive))):
        raise ConfigError("%s must be finite and %s" % (what, "positive" if positive else "nonnegative"))
    return lam


def _lam(cfg: dict, positive: bool = False) -> float:
    return _checked_lam(_number(cfg["lambda"], "lambda"), positive, "lambda")


def _grid(cfg: dict, positive: bool = False) -> List[float]:
    grid = cfg.get("lambda_grid")
    if grid is None or not isinstance(grid, list) or not grid:
        raise ConfigError("a nonempty 'lambda_grid' list is required")
    return [_checked_lam(_number(g, "each lambda_grid entry"), positive, "lambda_grid entries") for g in grid]


def _sanitize(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_run_record(command: str, cfg: dict, files: List[str], started: str, stats=None) -> None:
    out = cfg["out"]
    record = {
        "version": __version__,
        "command": command,
        "config": _sanitize(cfg),
        "started": started,
        "finished": _now(),
        "files": {os.path.relpath(p, out): _sha256(p) for p in sorted(files)},
    }
    if stats is not None:
        record["stats"] = dataclasses.asdict(stats)
    _write_json(os.path.join(out, "run.json"), record)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _outdir(cfg: dict) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg["out"]


# ---------------------------------------------------------------------------
# subcommands: each appends every file it has written to `files`


def cmd_steady(cfg: dict, files: List[str]) -> None:
    from .steady import branch_to_csv, continue_branch, minimal_states, states_to_csv

    mesh, profile = _validated(cfg)
    grid = None if cfg.get("lambda_grid") is None else _grid(cfg)
    if grid is None:
        branch = continue_branch(profile, mesh)
    else:
        states = []
        for lam, state in zip(grid, minimal_states(grid, profile, mesh)):
            if state is None:
                raise SolverFailure("no solution at lambda=%g" % lam)
            states.append(state)

    out = _outdir(cfg)
    branch_path = os.path.join(out, "branch.csv")
    if grid is None:
        branch_to_csv(branch, branch_path)
    else:
        states_to_csv(states, branch_path)
    summary_path = os.path.join(out, "summary.json")
    # the output directory stays out of the summary (run.json records it),
    # so the same run gives the same bytes wherever it is written
    summary_cfg = {k: v for k, v in cfg.items() if k != "out"}
    _write_json(summary_path, {"lambda_star": branch.lambda_star if grid is None else None, "config": summary_cfg})
    files += [branch_path, summary_path]


def cmd_simulate(cfg: dict, files: List[str]):
    """Returns the run's StepStats, which run.json records."""
    from .dynamics import integrate, write_max_history, write_snapshots

    mesh, profile = _validated(cfg)
    lam = _lam(cfg)
    tc = _build("time", cfg["time"])
    traj, report = integrate(lam, profile, mesh, tc)

    out = _outdir(cfg)
    files.append(write_snapshots(traj, out))
    hist_path = os.path.join(out, "max_history.csv")
    write_max_history(traj, hist_path)
    quench_path = os.path.join(out, "quench.json")
    _write_json(quench_path, {"lambda": lam, **dataclasses.asdict(report)})
    files += [hist_path, quench_path]
    return traj.stats


# report field -> its name in an artifact, where the two differ; the sweep.csv
# names of the large-lam sandwich are the ones the benchmark reads
ARTIFACT_NAMES = {
    "bounds.json": {"lam": "lambda"},
    "sweep.csv": {"lam": "lambda", "large_lambda_lower": "lower_1_7", "large_lambda_upper": "upper_1_7"},
}


def cmd_bounds(cfg: dict, files: List[str]) -> None:
    from .bounds import evaluate_all
    from .steady import locate_fold

    mesh, profile = _validated(cfg)
    lam = _lam(cfg, positive=True)
    report, = evaluate_all([lam], locate_fold(profile, mesh), profile, mesh)

    path = os.path.join(_outdir(cfg), "bounds.json")
    _write_json(path, {ARTIFACT_NAMES["bounds.json"].get(k, k): v for k, v in dataclasses.asdict(report).items()})
    files.append(path)


def _sweep_run(job: tuple) -> dict:
    """Worker: one integration of a (lam, profile, mesh, time config) job;
    returns its quench report or the text of the solver fault that ended it."""
    from .dynamics import integrate

    lam, profile, mesh, tc = job
    try:
        _, report = integrate(lam, profile, mesh, tc)
        return {"lam": lam, "report": report, "error": None}
    except SolverFailure as exc:
        return {"lam": lam, "report": None, "error": str(exc)}


def cmd_sweep(cfg: dict, files: List[str]) -> None:
    from .bounds import MeasuredReport, evaluate_all
    from .steady import locate_fold

    mesh, profile = _validated(cfg)
    grid = _grid(cfg, positive=True)
    tc = _build("time", cfg["time"])
    workers = _integer(cfg["workers"], "workers")
    if workers < 1:
        raise ConfigError("workers must be at least 1")

    fold = None
    try:
        fold = locate_fold(profile, mesh)
    except SolverFailure as exc:
        print("warning: continuation failed, steady bounds omitted: %s" % exc, file=sys.stderr)

    jobs = [(lam, profile, mesh, tc) for lam in grid]
    if workers > 1:
        # under fork the pool starts all max_workers processes at the first map
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = list(pool.map(_sweep_run, jobs))
    else:
        results = [_sweep_run(job) for job in jobs]

    failures = [res for res in results if res["error"] is not None]
    for res in failures:
        print("warning: lambda=%g failed: %s" % (res["lam"], res["error"]), file=sys.stderr)
    reports = evaluate_all(grid, fold, profile, mesh, [res["report"] for res in results])

    # one column per report field, in field order; the flags stay in bounds.json
    columns = [f.name for f in dataclasses.fields(MeasuredReport) if f.name != "flags"]
    sweep_path = os.path.join(_outdir(cfg), "sweep.csv")
    csvio.write_rows(sweep_path, ",".join(ARTIFACT_NAMES["sweep.csv"].get(c, c) for c in columns),
                     [[getattr(rep, c) for c in columns] for rep in reports])
    files.append(sweep_path)
    if len(failures) == len(grid):
        raise SolverFailure("every integration failed")


def _bad_rescale_value(spec: RescaleConfig, key: str, run_dir: str, problem: str) -> Exception:
    """A bad `key` given in the config is a config error; one read from quench.json is a damaged run."""
    if getattr(spec, key) is None:
        return MissingInput("quench.json in %s: %s %s" % (run_dir, key, problem))
    return ConfigError("'rescale.%s': %s" % (key, problem))


def cmd_rescale(cfg: dict, files: List[str]):
    """Returns the frame's RescaleStats, which run.json records."""
    from .dynamics import read_trajectory
    from .selfsim import energy_trace, rescale, rescale_stats, write_energy_csv, write_frame_csv

    spec = _build("rescale", cfg.get("rescale"))
    run_dir = spec.run
    try:
        with open(os.path.join(run_dir, "quench.json")) as fh:
            quench = json.load(fh)
        if not quench["quenched"]:
            raise SolverFailure("referenced run did not quench")
        run_T = float(quench["T"])
        qset = [float(q) for q in quench["quench_set"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise MissingInput("no readable quench.json in %s: %s" % (run_dir, exc))
    T = run_T if spec.T is None else spec.T
    center = (qset[0] if qset else 0.0) if spec.center is None else spec.center

    try:
        with open(os.path.join(run_dir, "run.json")) as fh:
            run_cfg = json.load(fh)["config"]
    except (OSError, ValueError, KeyError) as exc:
        raise MissingInput("no readable run.json in %s: %s" % (run_dir, exc))
    try:
        mesh, profile = _validated(run_cfg)
        lam = _lam(run_cfg)
    except (ConfigError, KeyError, TypeError) as exc:
        raise MissingInput("run.json in %s holds a bad config: %s" % (run_dir, exc))
    traj = read_trajectory(run_dir, mesh, lam)
    last = float(traj.times[-1])
    if not (math.isfinite(T) and T > last):
        raise _bad_rescale_value(spec, "T", run_dir, "%r is not a finite time after the last stored time %r" % (T, last))
    geometry = mesh.geometry
    inside = geometry.x_left < center < geometry.x_right if isinstance(geometry, Slab) else center == 0.0
    f_center = float(evaluate(profile, center)) if inside else 0.0
    if not f_center > 0.0:
        raise _bad_rescale_value(spec, "center", run_dir,
                                 "%r is not a point of the domain (the origin on a ball) where f > 0" % center)
    off_set = not any(abs(center - q) <= 3.0 * mesh.h for q in qset)

    frame = rescale(traj, center, T)
    trace = energy_trace(frame, lam, f_center)

    out = _outdir(cfg)
    frame_path = os.path.join(out, "frame.csv")
    warnings = ["warning: center not in the touchdown set"] if off_set else []
    write_frame_csv(frame, frame_path, warnings)
    energy_path = os.path.join(out, "energy.csv")
    write_energy_csv(trace, energy_path)
    files += [frame_path, energy_path]
    return rescale_stats(frame)


# ---------------------------------------------------------------------------

# subcommand -> (its handler, the flags besides --config and --out that it reads)
COMMANDS = {
    "steady": (cmd_steady, ("--nodes", "--profile")),
    "simulate": (cmd_simulate, ("--lambda", "--nodes", "--profile", "--quench-eps")),
    "sweep": (cmd_sweep, ("--nodes", "--profile", "--quench-eps")),
    "bounds": (cmd_bounds, ("--lambda", "--nodes", "--profile")),
    "rescale": (cmd_rescale, ()),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="quenchlab",
        description="numerical laboratory for touchdown of an electrostatically forced membrane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        for flag in ("--out",) + flags:
            p.add_argument(flag, dest=_FLAGS[flag][0], type=_FLAGS[flag][1])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand: the one place where a failure becomes an exit code."""
    args = _parser().parse_args(argv)

    files: List[str] = []
    stats = None
    try:
        cfg = load_config(args.config, vars(args))
        started = _now()
        stats = COMMANDS[args.command][0](cfg, files)
        return EXIT_OK
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print("%s failed: %s" % (exc.stage or args.command, exc), file=sys.stderr)
        return EXIT_SOLVER
    except MissingInput as exc:
        print("missing input: %s" % exc, file=sys.stderr)
        return EXIT_MISSING
    finally:
        if files:  # also when the run then failed, as a sweep whose every integration failed
            _write_run_record(args.command, cfg, files, started, stats)


if __name__ == "__main__":
    sys.exit(main())
