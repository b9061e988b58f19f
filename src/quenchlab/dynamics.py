"""Time integration of the forced membrane equation up to touchdown.

    u_t = lap(u) + lam * f(x) / (1 - u)^2,   u = 0 on the boundary, u(x,0) = 0.

Stepping is Crank-Nicolson with a banded Newton solve per step.  The
step size adapts so a single step never raises sup u by more than a
fixed fraction of the remaining gap 1 - sup u; integration stops at
sup u = 1 - eps_q and the touchdown time T is extrapolated from the
cubic gap law (near touchdown u_t is dominated by the forcing, so
(1 - sup u)^3 decays linearly in t).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

from . import csvio
from .csvio import MissingInput
from .mesh import Field, Mesh, bands_matvec, laplacian_bands
from .profiles import Profile, evaluate

__all__ = [
    "TimeConfig",
    "Trajectory",
    "QuenchReport",
    "RateFit",
    "ConvergenceTrace",
    "NewtonFailure",
    "StepUnderflow",
    "StepLimit",
    "OverflowGuard",
    "integrate",
    "detect_quench",
    "rate_fit",
    "liapunov",
    "supersolution_transform",
    "c_epsilon",
    "comparison_eta",
    "eta_quench_time",
    "convergence_check",
    "write_snapshots",
    "write_max_history",
    "read_trajectory",
    "quench_report_to_dict",
]


class NewtonFailure(RuntimeError):
    """Stage equation unsolvable even after time-step reductions."""


class StepUnderflow(RuntimeError):
    """Adaptive dt fell below 1e-16 * dt_initial."""


class StepLimit(RuntimeError):
    """MAX_STEPS steps accepted before touchdown or t_max."""


class OverflowGuard(RuntimeError):
    """Gap too small for finite functional evaluation."""


MAX_STEPS = 500000
# one stored state per file, numbered from 0 in time order
SNAPSHOT_NAME = "snapshot_%04d.csv"


@dataclass(frozen=True)
class TimeConfig:
    dt_initial: float = 1e-6
    dt_max: float = 1e-2
    eta_step: float = 1e-2
    quench_eps: float = 1e-3
    t_max: float = 10.0
    snapshot_stride: int = 10

    def __post_init__(self):
        if not (self.dt_initial > 0 and self.dt_max > 0 and self.eta_step > 0):
            raise ValueError("time steps and controller target must be positive")
        if not (0.0 < self.quench_eps <= 0.1):
            raise ValueError("quench_eps must lie in (0, 0.1]")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if isinstance(self.snapshot_stride, bool) or not isinstance(self.snapshot_stride, int):
            raise ValueError("snapshot_stride must be an integer")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Stored states and the sup history of one run.

    `values[k]` is u at `times[k]` on every mesh node, boundary included.
    `max_history` has one row (t, sup u, argmax) for the start and for
    each accepted step; argmax is the first node off the Dirichlet
    boundary where u is within 1e-12 of sup u, or nan while sup u <= 0.
    """

    lam: float
    mesh: Mesh
    times: np.ndarray
    values: np.ndarray
    max_history: np.ndarray

    @property
    def final_time(self) -> float:
        return float(self.max_history[-1, 0])


@dataclass(frozen=True)
class RateFit:
    M: float
    p: float
    residual: float
    decades: float
    low_confidence: bool


@dataclass(frozen=True)
class QuenchReport:
    quenched: bool
    T: Optional[float]
    quench_set: Tuple[float, ...]
    M: Optional[float]
    p: Optional[float]
    fit_residual: Optional[float]
    last_resolved_gap: float


@dataclass(frozen=True)
class ConvergenceTrace:
    times: Tuple[float, ...]
    distances: Tuple[float, ...]


def _cn_step(Lb, f, lam, u, dt):
    """One Crank-Nicolson stage solved by damped Newton; None on failure."""
    gap0 = 1.0 - u
    rhs = u + 0.5 * dt * (bands_matvec(Lb, u) + lam * f / gap0**2)
    v = u.copy()
    for _ in range(30):
        gap = 1.0 - v
        if gap.min() <= 1e-14:
            return None
        F = v - 0.5 * dt * (bands_matvec(Lb, v) + lam * f / gap**2) - rhs
        if np.max(np.abs(F)) <= 1e-11:
            return v
        Jb = -0.5 * dt * Lb
        Jb[1] += 1.0 - dt * lam * f / gap**3
        try:
            delta = solve_banded((1, 1), Jb, -F)
        except np.linalg.LinAlgError:  # singular stage Jacobian
            return None
        if not np.all(np.isfinite(delta)):
            return None
        theta = 1.0
        while theta > 1e-12 and (v + theta * delta).max() >= 1.0 - 1e-14:
            theta *= 0.5
        if theta <= 1e-12:
            return None
        v = v + theta * delta
    gap = 1.0 - v
    F = v - 0.5 * dt * (bands_matvec(Lb, v) + lam * f / gap**2) - rhs
    return v if np.max(np.abs(F)) <= 1e-11 else None


def integrate(
    lam: float,
    profile: Profile,
    mesh: Mesh,
    cfg: TimeConfig,
) -> Tuple[Trajectory, QuenchReport]:
    """Run from the zero state until sup u reaches 1 - quench_eps or t_max."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    Lb = laplacian_bands(mesh)
    sl = mesh.unknown_slice
    f = np.asarray(evaluate(profile, mesh.nodes[sl]), dtype=float)
    coords = mesh.nodes[sl]
    n = Lb.shape[1]

    u = np.zeros(n)
    t = 0.0
    dt = min(cfg.dt_initial, cfg.dt_max)
    dt_floor = 1e-16 * cfg.dt_initial
    dt_cap = cfg.dt_max

    times, states = [0.0], [u]
    max_history = [(0.0, 0.0, math.nan)]

    threshold = 1.0 - cfg.quench_eps
    step_index = 0
    while True:
        sup = float(u.max())
        if sup >= threshold or t >= cfg.t_max * (1.0 - 1e-12):
            break
        if step_index == MAX_STEPS:
            raise StepLimit("%d steps taken before touchdown or t_max, at t=%g" % (MAX_STEPS, t))
        target = cfg.eta_step * (1.0 - sup)
        dt_try = min(dt, dt_cap, cfg.t_max - t)
        v = None
        while True:
            v = _cn_step(Lb, f, lam, u, dt_try)
            if v is None:
                dt_try *= 0.5
                if dt_try < dt_floor:
                    raise NewtonFailure("stage solve failed at t=%g" % t)
                continue
            dsup = float(v.max()) - sup
            if dsup > target * (1.0 + 1e-9) and dsup > 0:
                dt_try *= max(0.1, 0.5 * target / dsup)
                if dt_try < dt_floor:
                    raise StepUnderflow("dt underflow at t=%g" % t)
                continue
            break
        u = v
        t += dt_try
        step_index += 1
        sup = float(u.max())
        argmax = float(coords[np.argmax(np.abs(u - sup) <= 1e-12)]) if sup > 0.0 else math.nan
        max_history.append((t, sup, argmax))
        if step_index % cfg.snapshot_stride == 0:
            times.append(t)
            states.append(u)
        # running touchdown estimate caps dt at a hundredth of it
        g1 = 1.0 - sup
        g0 = 1.0 - max_history[-2][1]
        tprev = max_history[-2][0]
        slope = (g1**3 - g0**3) / (t - tprev) if t > tprev else 0.0
        if slope < 0.0:
            t_est = t + (g1**3) / (-slope)
            dt_cap = min(cfg.dt_max, t_est / 100.0)
        growth = 1.5
        if dsup > 0:
            growth = min(1.5, max(0.3, 0.8 * cfg.eta_step * (1.0 - sup) / dsup))
        dt = min(dt_try * growth, dt_cap)

    if times[-1] != t:
        times.append(t)
        states.append(u)
    values = np.zeros((len(states), mesh.node_count))
    for row, state in zip(values, states):
        row[sl] = state
    traj = Trajectory(float(lam), mesh, np.array(times), values, np.array(max_history))
    return traj, detect_quench(traj, cfg.quench_eps)


def detect_quench(trajectory: Trajectory, quench_eps: float) -> QuenchReport:
    """Extrapolated touchdown report; quenched=False is the no-touchdown marker.

    T comes from a linear fit of (1 - sup u)^3 against t over the last
    decade of resolved gap.  The touchdown set is the final-state nodes
    whose gap is within a factor 2 of the minimum, merged into clusters
    of radius 3h and reported by centroid.
    """
    times = trajectory.max_history[:, 0]
    gaps = 1.0 - trajectory.max_history[:, 1]
    final_gap = float(gaps[-1])
    if final_gap > quench_eps:
        return QuenchReport(
            quenched=False,
            T=None,
            quench_set=(),
            M=None,
            p=None,
            fit_residual=None,
            last_resolved_gap=final_gap,
        )

    window = gaps <= 10.0 * final_gap
    if window.sum() < 3:
        window = np.zeros_like(window, dtype=bool)
        window[-min(3, len(gaps)) :] = True
    c1, c0 = np.polyfit(times[window], gaps[window] ** 3, 1)
    if c1 >= 0:
        raise ValueError("gap cube not decreasing; cannot extrapolate")
    T = float(-c0 / c1)

    mesh = trajectory.mesh
    node_gap = 1.0 - trajectory.values[-1]
    interior = mesh.unknown_slice
    coords = mesh.nodes[interior]
    g_int = node_gap[interior]
    gmin = float(g_int.min())
    members = coords[g_int <= 2.0 * gmin]
    clusters: List[List[float]] = [[float(members[0])]]
    for c in members[1:]:
        if float(c) - clusters[-1][-1] <= 3.0 * mesh.h + 1e-15:
            clusters[-1].append(float(c))
        else:
            clusters.append([float(c)])
    centroids = tuple(float(np.mean(cl)) for cl in clusters)

    fit = rate_fit(trajectory, centroids[0], T)
    return QuenchReport(
        quenched=True,
        T=T,
        quench_set=centroids,
        M=fit.M,
        p=fit.p,
        fit_residual=fit.residual,
        last_resolved_gap=final_gap,
    )


def rate_fit(trajectory: Trajectory, a: float, T: float) -> RateFit:
    """Fit 1 - u(a,t) = M (T-t)^p over the resolved snapshot window.

    Fewer than 1.5 decades of resolved gap at `a` sets low_confidence.
    """
    mesh = trajectory.mesh
    ts, gs = [], []
    for t, u in zip(trajectory.times.tolist(), trajectory.values):
        if t >= T:
            continue
        ua = float(np.interp(a, mesh.nodes, u))
        gap = 1.0 - ua
        if gap > 0:
            ts.append(t)
            gs.append(gap)
    ts_arr = np.array(ts)
    gs_arr = np.array(gs)
    usable = gs_arr < 0.999  # skip the flat start where u(a,t) ~ 0
    if usable.sum() < 3:
        usable = np.ones_like(gs_arr, dtype=bool)
    ts_arr, gs_arr = ts_arr[usable], gs_arr[usable]
    if ts_arr.size < 2:
        return RateFit(M=math.nan, p=math.nan, residual=math.nan, decades=0.0, low_confidence=True)
    decades = float(np.log10(gs_arr.max() / gs_arr.min()))
    logx = np.log(T - ts_arr)
    logy = np.log(gs_arr)
    p, logM = np.polyfit(logx, logy, 1)
    resid = float(np.sqrt(np.mean((logy - (p * logx + logM)) ** 2)))
    return RateFit(
        M=float(np.exp(logM)),
        p=float(p),
        residual=resid,
        decades=decades,
        low_confidence=decades < 1.5,
    )


def liapunov(state: Field, lam: float, profile: Profile) -> float:
    """Energy 1/2 int |grad u|^2 - lam int f/(1-u), by centered differences."""
    mesh = state.mesh
    gap = 1.0 - state.values
    if gap.min() < 1e-14:
        raise OverflowGuard("gap below 1e-14; functional not finite")
    grad = np.gradient(state.values, mesh.h)
    f = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    density = 0.5 * grad**2 - lam * f / gap
    return float(np.dot(mesh.weights, density))


def supersolution_transform(u_value, lam: float, eps: float):
    """The gap-contracting map used to compare runs at reduced forcing.

    Maps u to 1 - [eps/lam + (lam-eps)/lam * (1-u)^3]^(1/3); fixes 0 and
    sends 1 to the ceiling c_epsilon(lam, eps) < 1.
    """
    if not (0.0 < eps < lam):
        raise ValueError("eps must lie in (0, lam)")
    u = np.asarray(u_value, dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise ValueError("u must lie in [0, 1]")
    out = 1.0 - np.cbrt(eps / lam + (lam - eps) / lam * (1.0 - u) ** 3)
    return float(out) if np.isscalar(u_value) else out


def c_epsilon(lam: float, eps: float) -> float:
    if not (0.0 < eps < lam):
        raise ValueError("eps must lie in (0, lam)")
    return 1.0 - (eps / lam) ** (1.0 / 3.0)


def eta_quench_time(lam: float, M: float) -> float:
    if lam * M <= 0:
        raise ValueError("lam*M must be positive")
    return 1.0 / (3.0 * lam * M)


def comparison_eta(lam: float, M: float, t: float) -> float:
    """Spatially flat comparison solution eta(t) = 1 - (1 - 3*lam*M*t)^(1/3)."""
    tstar = eta_quench_time(lam, M)
    if t >= tstar:
        raise ValueError("t beyond the comparison touchdown time")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 1.0 - (1.0 - 3.0 * lam * M * t) ** (1.0 / 3.0)


def convergence_check(
    lam: float, profile: Profile, mesh: Mesh, cfg: TimeConfig
) -> ConvergenceTrace:
    """Sup-distance of u(.,t) to the minimal steady state, per snapshot."""
    from .steady import solve_minimal

    state = solve_minimal(lam, profile, mesh, compute_mu1=False)
    if state is None:
        raise ValueError("no minimal steady state at lam=%g" % lam)
    w = state.w.values
    traj, _ = integrate(lam, profile, mesh, cfg)
    dists = tuple(float(np.max(np.abs(u - w))) for u in traj.values)
    return ConvergenceTrace(times=tuple(traj.times.tolist()), distances=dists)


# ---------------------------------------------------------------------------
# persistence helpers


def write_snapshots(trajectory: Trajectory, directory) -> List[str]:
    """One CSV per stored time with columns (x, 1-u); returns paths written.

    The x column is formatted once per trajectory and shared by every file.
    """
    mesh = trajectory.mesh
    body = csvio.template(mesh.node_count, [mesh.nodes, csvio.FLOAT])
    paths = []
    for k, (t, u) in enumerate(zip(trajectory.times.tolist(), trajectory.values)):
        path = os.path.join(str(directory), SNAPSHOT_NAME % k)
        one_minus_u = tuple((1.0 - u).tolist())
        csvio.write(path, "x,one_minus_u", [body % one_minus_u], comments=["t=%.17g" % t])
        paths.append(path)
    return paths


def write_max_history(trajectory: Trajectory, path) -> None:
    csvio.write_rows(path, "t,sup_u,argmax", trajectory.max_history.tolist())


def read_trajectory(directory, mesh: Mesh, lam: float) -> Trajectory:
    """Load the snapshots and max_history.csv that a simulate run wrote.

    These files come from outside the program: a missing one, a snapshot
    that is not one finite value per node, or a history that is not three
    columns raises MissingInput.
    """
    directory = str(directory)
    count = len([n for n in os.listdir(directory) if n.startswith("snapshot_") and n.endswith(".csv")])
    if not count:
        raise MissingInput("no snapshots in %s" % directory)
    times, values = np.empty(count), np.empty((count, mesh.node_count))
    try:
        for k in range(count):
            path = os.path.join(directory, SNAPSHOT_NAME % k)
            with open(path) as fh:
                fh.readline()  # header
                times[k] = float(fh.readline().split("=", 1)[1])
                one_minus_u = np.loadtxt(fh, delimiter=",", usecols=1, ndmin=1)
            if one_minus_u.shape != (mesh.node_count,) or not np.all(np.isfinite(one_minus_u)):
                raise ValueError("%s does not hold %d finite values" % (path, mesh.node_count))
            values[k] = 1.0 - one_minus_u
        history = np.loadtxt(os.path.join(directory, "max_history.csv"), delimiter=",", skiprows=1, ndmin=2)
        if history.shape[1:] != (3,):
            raise ValueError("max_history.csv does not hold (t, sup_u, argmax) rows")
    except (OSError, ValueError, IndexError) as exc:
        raise MissingInput("damaged run directory %s: %s" % (directory, exc))
    return Trajectory(float(lam), mesh, times, values, history)


def quench_report_to_dict(report: QuenchReport) -> dict:
    return {
        "quenched": report.quenched,
        "T": report.T,
        "quench_set": list(report.quench_set),
        "M": report.M,
        "p": report.p,
        "fit_residual": report.fit_residual,
        "last_resolved_gap": report.last_resolved_gap,
    }
