"""Command-line front end.

Subcommands: steady | simulate | sweep | bounds | rescale.  A single
JSON config document drives every run; individual flags override single
keys.  All data files are deterministic for a fixed config and version
(timestamps live only in run.json), use '.' decimals, LF line endings,
and carry header rows.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 missing
input.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

from . import __version__, csvio
from .csvio import MissingInput
from .mesh import Geometry, Mesh, RadialBall, Slab, build_mesh
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
    "ds": 0.02,
    "workers": 1,
    "out": "runs/out",
}

_TOP_KEYS = {
    "geometry",
    "node_count",
    "profile",
    "lambda",
    "lambda_grid",
    "time",
    "ds",
    "workers",
    "out",
    "rescale",
}
_TIME_KEYS = {"dt_initial", "dt_max", "eta_step", "quench_eps", "t_max", "snapshot_stride"}
_GEOM_KEYS = {"kind", "x_left", "x_right", "dimension", "radius"}
_PROFILE_KEYS = {"kind", "value", "exponent", "holder_exponent", "path"}
_RESCALE_KEYS = {"run", "center", "T"}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError("unknown %s key(s): %s" % (where, ", ".join(unknown)))


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
        for key, value in user.items():
            if key == "time":
                if not isinstance(value, dict):
                    raise ConfigError("'time' must be an object")
                cfg["time"] = dict(value)
            else:
                cfg[key] = copy.deepcopy(value)
    if overrides.get("lam") is not None:
        cfg["lambda"] = overrides["lam"]
    if overrides.get("nodes") is not None:
        cfg["node_count"] = overrides["nodes"]
    if overrides.get("profile") is not None:
        name = overrides["profile"]
        if name == "constant":
            cfg["profile"] = {"kind": "constant", "value": 1.0}
        elif name == "sin_piecewise":
            cfg["profile"] = {"kind": "sin_piecewise"}
        else:
            raise ConfigError(
                "--profile accepts 'constant' or 'sin_piecewise'; use a config for others"
            )
    if overrides.get("quench_eps") is not None:
        cfg["time"] = dict(cfg.get("time") or {})
        cfg["time"]["quench_eps"] = overrides["quench_eps"]
    if overrides.get("out") is not None:
        cfg["out"] = overrides["out"]
    return cfg


def build_geometry(spec: dict) -> Geometry:
    if not isinstance(spec, dict):
        raise ConfigError("'geometry' must be an object")
    _check_keys(spec, _GEOM_KEYS, "geometry")
    kind = spec.get("kind")
    try:
        if kind == "slab":
            return Slab(float(spec.get("x_left", -0.5)), float(spec.get("x_right", 0.5)))
        if kind == "ball":
            return RadialBall(int(spec["dimension"]), float(spec.get("radius", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad geometry: %s" % exc)
    raise ConfigError("geometry kind must be 'slab' or 'ball'")


def build_profile(spec: dict) -> Profile:
    if not isinstance(spec, dict):
        raise ConfigError("'profile' must be an object")
    _check_keys(spec, _PROFILE_KEYS, "profile")
    kind = spec.get("kind")
    try:
        if kind == "constant":
            return Constant(float(spec.get("value", 1.0)), float(spec.get("holder_exponent", 1.0)))
        if kind == "power":
            if "exponent" not in spec:
                raise ConfigError("power profile requires 'exponent'")
            he = spec.get("holder_exponent")
            return Power(float(spec["exponent"]), None if he is None else float(he))
        if kind == "sin_piecewise":
            return SlabSinPiecewise(float(spec.get("holder_exponent", 1.0)))
        if kind == "tabulated":
            if "path" not in spec:
                raise ConfigError("tabulated profile requires 'path'")
            if not os.path.exists(spec["path"]):
                raise MissingInput("profile table not found: %s" % spec["path"])
            return tabulated_from_csv(spec["path"])
    except ConfigError:
        raise
    except MissingInput:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad profile: %s" % exc)
    raise ConfigError("profile kind must be constant|power|sin_piecewise|tabulated")


def build_time(spec: dict):
    from .dynamics import TimeConfig

    if not isinstance(spec, dict):
        raise ConfigError("'time' must be an object")
    _check_keys(spec, _TIME_KEYS, "time")
    try:
        return TimeConfig(**{k: v for k, v in spec.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad time config: %s" % exc)


def _build_mesh(cfg: dict) -> Mesh:
    try:
        node_count = int(cfg["node_count"])
    except (TypeError, ValueError):
        raise ConfigError("node_count must be an integer")
    geometry = build_geometry(cfg["geometry"])
    try:
        return build_mesh(geometry, node_count)
    except ValueError as exc:
        raise ConfigError("bad mesh: %s" % exc)


def _validated(cfg: dict) -> Tuple[Mesh, Profile]:
    mesh = _build_mesh(cfg)
    profile = build_profile(cfg["profile"])
    try:
        validate_profile(profile, mesh, collar=0.1)
    except IncompatibleGeometry as exc:
        raise ConfigError("profile incompatible with geometry: %s" % exc)
    return mesh, profile


def _lam(cfg: dict) -> float:
    try:
        lam = float(cfg["lambda"])
    except (TypeError, ValueError):
        raise ConfigError("lambda must be a number")
    if lam < 0:
        raise ConfigError("lambda must be nonnegative")
    return lam


def _grid(cfg: dict) -> List[float]:
    grid = cfg.get("lambda_grid")
    if grid is None or not isinstance(grid, list) or not grid:
        raise ConfigError("a nonempty 'lambda_grid' list is required")
    try:
        return [float(g) for g in grid]
    except (TypeError, ValueError):
        raise ConfigError("lambda_grid entries must be numbers")


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


def _write_run_record(out: str, command: str, cfg: dict, files: List[str], started: str) -> None:
    record = {
        "version": __version__,
        "command": command,
        "config": _sanitize(cfg),
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": {os.path.relpath(p, out): _sha256(p) for p in sorted(files)},
    }
    _write_json(os.path.join(out, "run.json"), record)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _outdir(cfg: dict) -> str:
    out = str(cfg["out"])
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_steady(cfg: dict) -> int:
    from .steady import StepFailure, branch_to_csv, continue_branch, solve_minimal, states_to_csv

    started = _now()
    mesh, profile = _validated(cfg)
    try:
        ds = float(cfg["ds"])
    except (TypeError, ValueError):
        raise ConfigError("ds must be a number")
    out = _outdir(cfg)
    branch_path = os.path.join(out, "branch.csv")
    files = [branch_path]
    # the output directory stays out of the summary (run.json records it),
    # so the same run gives the same bytes wherever it is written
    summary_cfg = {k: v for k, v in cfg.items() if k != "out"}

    if cfg.get("lambda_grid") is not None:
        states = []
        for lam in _grid(cfg):
            state = solve_minimal(lam, profile, mesh)
            if state is None:
                print("no solution at lambda=%g" % lam, file=sys.stderr)
                return EXIT_SOLVER
            states.append(state)
        states_to_csv(states, branch_path)
        summary = {"lambda_star": None, "config": summary_cfg}
    else:
        try:
            branch = continue_branch(profile, mesh, ds=ds)
        except StepFailure as exc:
            print("continuation failed: %s" % exc, file=sys.stderr)
            return EXIT_SOLVER
        branch_to_csv(branch, branch_path)
        summary = {"lambda_star": branch.lambda_star, "config": summary_cfg}

    summary_path = os.path.join(out, "summary.json")
    _write_json(summary_path, summary)
    files.append(summary_path)
    _write_run_record(out, "steady", cfg, files, started)
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    from .dynamics import (
        NewtonFailure,
        StepLimit,
        StepUnderflow,
        integrate,
        quench_report_to_dict,
        write_max_history,
        write_snapshots,
    )

    started = _now()
    mesh, profile = _validated(cfg)
    lam = _lam(cfg)
    tc = build_time(cfg["time"])
    out = _outdir(cfg)
    try:
        traj, report = integrate(lam, profile, mesh, tc)
    except (NewtonFailure, StepUnderflow, StepLimit) as exc:
        print("integration failed: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    files = write_snapshots(traj, out)
    hist_path = os.path.join(out, "max_history.csv")
    write_max_history(traj, hist_path)
    files.append(hist_path)
    quench_path = os.path.join(out, "quench.json")
    _write_json(quench_path, {"lambda": lam, **quench_report_to_dict(report)})
    files.append(quench_path)
    _write_run_record(out, "simulate", cfg, files, started)
    return EXIT_OK


def cmd_bounds(cfg: dict) -> int:
    from .bounds import bounds_report_to_dict, evaluate_all
    from .steady import StepFailure, continue_branch

    started = _now()
    mesh, profile = _validated(cfg)
    lam = _lam(cfg)
    out = _outdir(cfg)
    try:
        branch = continue_branch(profile, mesh, ds=float(cfg["ds"]))
    except StepFailure as exc:
        print("continuation failed: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    report = evaluate_all(lam, branch, profile, mesh)
    path = os.path.join(out, "bounds.json")
    _write_json(path, bounds_report_to_dict(report))
    _write_run_record(out, "bounds", cfg, [path], started)
    return EXIT_OK


def _sweep_run(payload: dict) -> dict:
    """Worker: one integration; returns measured T or the error text."""
    from .dynamics import integrate

    try:
        mesh = build_mesh(build_geometry(payload["geometry"]), payload["node_count"])
        profile = build_profile(payload["profile"])
        tc = build_time(payload["time"])
        _, report = integrate(payload["lam"], profile, mesh, tc)
        return {
            "lam": payload["lam"],
            "T": report.T if report.quenched else None,
            "quench_set": list(report.quench_set),
            "error": None,
        }
    except Exception as exc:  # worker boundary: everything becomes a row flag
        return {"lam": payload["lam"], "T": None, "quench_set": [], "error": str(exc)}


def cmd_sweep(cfg: dict) -> int:
    from .bounds import NotApplicable, bound_lower_TL, bound_upper_T1, large_lambda_bounds
    from .steady import StepFailure, continue_branch

    started = _now()
    mesh, profile = _validated(cfg)
    grid = _grid(cfg)
    tc_spec = dict(cfg.get("time") or {})
    build_time(tc_spec)  # validate before spawning workers
    out = _outdir(cfg)
    try:
        workers = int(cfg["workers"])
    except (TypeError, ValueError):
        raise ConfigError("workers must be an integer")
    if workers < 1:
        raise ConfigError("workers must be at least 1")

    branch = None
    try:
        branch = continue_branch(profile, mesh, ds=float(cfg["ds"]))
    except StepFailure as exc:
        print("warning: continuation failed, steady bounds omitted: %s" % exc, file=sys.stderr)

    payloads = [
        {
            "geometry": cfg["geometry"],
            "node_count": int(cfg["node_count"]),
            "profile": cfg["profile"],
            "time": tc_spec,
            "lam": lam,
        }
        for lam in grid
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_run, payloads))
    else:
        results = [_sweep_run(p) for p in payloads]

    alpha = profile.holder_exponent
    from .bounds import _mesh_dimension

    dim = _mesh_dimension(mesh)
    rows = []
    failures = 0
    for res in results:
        lam = res["lam"]
        if res["error"] is not None:
            failures += 1
            print("warning: lambda=%g failed: %s" % (lam, res["error"]), file=sys.stderr)
        TL = T1a = T1s = None
        if branch is not None and lam > branch.lambda_star:
            try:
                TL = bound_lower_TL(lam, branch, profile)
            except NotApplicable:
                pass
            try:
                T1a = bound_upper_T1(lam, branch, profile, form="arctan")
                T1s = bound_upper_T1(lam, branch, profile, form="simplified")
            except NotApplicable:
                pass
        ll = large_lambda_bounds(lam, profile, alpha, dim)
        rows.append((lam, res["T"], TL, T1a, T1s, ll.lower, ll.upper))

    sweep_path = os.path.join(out, "sweep.csv")
    csvio.write_rows(sweep_path, "lambda,T_measured,T_L,T1_arctan,T1_simplified,lower_1_7,upper_1_7", rows)
    _write_run_record(out, "sweep", cfg, [sweep_path], started)
    if failures == len(grid):
        print("all sweep runs failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_rescale(cfg: dict) -> int:
    from .dynamics import read_trajectory
    from .selfsim import energy_trace, rescale, write_energy_csv, write_frame_csv

    started = _now()
    spec = cfg.get("rescale")
    if not isinstance(spec, dict):
        raise ConfigError("rescale command requires a 'rescale' object in the config")
    _check_keys(spec, _RESCALE_KEYS, "rescale")
    run_dir = spec.get("run")
    if not run_dir:
        raise ConfigError("'rescale.run' must name a simulate output directory")
    if not os.path.isdir(run_dir) or not os.path.exists(os.path.join(run_dir, "quench.json")):
        raise MissingInput("run directory not found or incomplete: %s" % run_dir)

    with open(os.path.join(run_dir, "quench.json")) as fh:
        quench = json.load(fh)
    if not quench.get("quenched"):
        print("referenced run did not quench", file=sys.stderr)
        return EXIT_SOLVER
    T = spec.get("T")
    T = float(T) if T is not None else float(quench["T"])
    qset = [float(q) for q in quench.get("quench_set", [])]
    center = spec.get("center")
    center = float(center) if center is not None else (qset[0] if qset else 0.0)

    try:
        with open(os.path.join(run_dir, "run.json")) as fh:
            run_cfg = json.load(fh)["config"]
    except (OSError, ValueError, KeyError) as exc:
        raise MissingInput("no readable run.json in %s: %s" % (run_dir, exc))
    mesh = build_mesh(build_geometry(run_cfg["geometry"]), int(run_cfg["node_count"]))
    profile = build_profile(run_cfg["profile"])
    lam = float(run_cfg["lambda"])
    traj = read_trajectory(run_dir, mesh, lam)
    off_set = not any(abs(center - q) <= 3.0 * mesh.h for q in qset)

    frame = rescale(traj, center, T)
    trace = energy_trace(frame, lam, float(evaluate(profile, center)))

    out = _outdir(cfg)
    frame_path = os.path.join(out, "frame.csv")
    warnings = ["warning: center not in the touchdown set"] if off_set else []
    write_frame_csv(frame, frame_path, warnings)
    energy_path = os.path.join(out, "energy.csv")
    write_energy_csv(trace, frame, lam, float(evaluate(profile, center)), energy_path)
    _write_run_record(out, "rescale", cfg, [frame_path, energy_path], started)
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quenchlab",
        description="numerical laboratory for touchdown of an electrostatically forced membrane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("steady", "simulate", "sweep", "bounds", "rescale"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--profile", default=None)
        p.add_argument("--quench-eps", dest="quench_eps", type=float, default=None)
        p.add_argument("--seedless", action="store_true", help="accepted for compatibility; runs are always deterministic")
    args = parser.parse_args(argv)

    handlers = {
        "steady": cmd_steady,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "bounds": cmd_bounds,
        "rescale": cmd_rescale,
    }
    try:
        cfg = load_config(args.config, vars(args))
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except MissingInput as exc:
        print("missing input: %s" % exc, file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
