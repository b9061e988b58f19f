"""Time integration of the forced membrane equation up to touchdown.

    u_t = lap(u) + lam * f(x) / (1 - u)^2,   u = 0 on the boundary, u(x,0) = 0.

Stepping is the linearly implicit (Rosenbrock) trapezoidal rule: each
step makes one Newton update of the Crank-Nicolson stage equation from
the current state, (I - (dt/2) J(u)) du = dt g(u) with
g(u) = L u + lam f / (1 - u)^2 and its Jacobian J, by one call of the
LAPACK tridiagonal kernel `mesh.solve_banded` (Hairer & Wanner, Solving
ODEs II, sec. IV.7).  It keeps second order and needs no iteration.  On a
slab L is symmetric, and so is the stage matrix: the run passes the
2-row band of L, and each stage is an LDL^T solve (dptsv).  A ball's L is
not symmetric, and its stages are LU solves (dgtsv) of the 3-row band.
Where f is mirror-even on a slab (`profiles.mirror_even`: bit for bit
at the mirror images of the left unknowns), so is u: the run steps on
the left (n - 1) // 2 unknowns of its n nodes alone, on the band
`mesh.mirror_bands` folds from L's, and writes each stored state back
onto every node with its mirror copy.  At 6000 nodes a stage then solves 2999 unknowns, not 5998.
eta_step is the one accuracy scale.  A step raises sup u by at most
eta_step times the gap 1 - sup u while the gap is above 0.1, and by
eta_step / 10 below it, but never by more than GROWTH_CAP of the gap (or
eta_step of it, where eta_step is larger): near touchdown T - t shrinks
like the gap cubed, so late steps move T little.  On the default
two-bump run the decade of gap below 0.1 takes 109 steps and the next
one 34; at eta_step times the gap each took 282.  With s = eta_step /
ETA_STEP, dt starts at DT_INITIAL * s and is capped at DT_MAX * s and at
s / 100 of the running touchdown estimate, so the error in T shrinks
like s^2.  Integration stops at sup u = 1 - eps_q; T is extrapolated
from the cubic gap law (near touchdown the forcing dominates u_t, so
(1 - sup u)^3 is linear in t).

A stage fails, and dt is halved, only when the solve finds the system
singular or (on a slab) not positive definite, du is not finite or the
new state reaches 1 - 1e-14.  The stage reads its new state's sup u
once, for that test and for the step controller, and `integrate`
carries it into the next step.

A state is stored snapshot_stride steps after the last stored one, or
once the gap has fallen by exp(-0.8 eta_step snapshot_stride) since
then: the fall of snapshot_stride steps that each take 0.8 eta_step of
the gap, so the rate fit and the similarity frame keep their late states
when the late steps grow.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import csvio
from .csvio import MissingInput, SolverFailure
from .mesh import Mesh, bands_matvec, laplacian_bands, mirror_bands, solve_banded
from .profiles import Profile, evaluate, mirror_even

__all__ = [
    "TimeConfig",
    "Trajectory",
    "StepStats",
    "QuenchReport",
    "RateFit",
    "NewtonFailure",
    "StepUnderflow",
    "StepLimit",
    "integrate",
    "detect_quench",
    "rate_fit",
    "eta_quench_time",
    "write_snapshots",
    "write_max_history",
    "read_trajectory",
]


class NewtonFailure(SolverFailure):
    """Linearized stage failed (singular or not positive definite system, non-finite
    update or u reaching 1) even after time-step reductions."""

    stage = "integration"


class StepUnderflow(SolverFailure):
    """Adaptive dt fell below 1e-16 times the run's first dt, or no longer advances t."""

    stage = "integration"


class StepLimit(SolverFailure):
    """MAX_STEPS steps accepted before touchdown or t_max."""

    stage = "integration"


MAX_STEPS = 500000
ETA_STEP = 1e-2  # the default eta_step, at which s = 1
# largest eta_step (s = 10), where T comes out 0.4 % high against eta_step 1e-3
# (+3.9e-3 on the 2001-node two-bump slab at lam = 10, +4.0e-3 for f = 1 at 101
# nodes, lam = 5); at 0.3 it is 1.3 and 1.5 % high, and at 1 stages that are not
# positive definite, not the controller, set dt (21 and 27 of them) and T is 12.5
# and 16 % high
ETA_STEP_MAX = 1e-1
DT_INITIAL = 1e-6  # first dt at s = 1
DT_MAX = 1e-2  # dt cap at s = 1
# a step near touchdown may raise sup u by this share of the gap (where eta_step is smaller)
GROWTH_CAP = 0.07
# the stored states of a run: arrays `times` and `values`, as Trajectory holds them
TRAJECTORY_NAME = "trajectory.npz"


@dataclass(frozen=True)
class TimeConfig:
    eta_step: float = ETA_STEP
    quench_eps: float = 1e-3
    t_max: float = 10.0
    snapshot_stride: int = 10

    def __post_init__(self):
        if not (0.0 < self.eta_step <= ETA_STEP_MAX):
            raise ValueError("eta_step must lie in (0, %g]" % ETA_STEP_MAX)
        # at 1e-5 the last dt is about one ulp of t, and at 3e-6 dt no longer advances t
        if not (1e-4 <= self.quench_eps <= 0.1):
            raise ValueError("quench_eps must lie in [1e-4, 0.1]")
        if not (0.0 < self.t_max < math.inf):
            raise ValueError("t_max must be positive and finite")
        if isinstance(self.snapshot_stride, bool) or not isinstance(self.snapshot_stride, int):
            raise ValueError("snapshot_stride must be an integer")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")


@dataclass(frozen=True)
class StepStats:
    """What the stepper of one run did.

    Accepted steps; rejected stages by reason (`rejected_stage`: the
    stage solve failed, `rejected_growth`: sup u rose by more than the
    controller target); banded solves made, one per stage, so the sum of
    the three counts; smallest and largest accepted dt.
    """

    accepted_steps: int
    rejected_stage: int
    rejected_growth: int
    banded_solves: int
    dt_min: float
    dt_max: float


@dataclass(frozen=True)
class Trajectory:
    """Stored states and the sup history of one run.

    `values[k]` is u at `times[k]` on every mesh node, boundary included.
    `max_history` has one row (t, sup u, argmax) for the start and for
    each accepted step; argmax is the first node off the Dirichlet
    boundary where u is within 1e-10 sup u of sup u, or nan while sup u
    <= 0.  On a mirrored run the states are exactly even, the mirror-image
    peaks tie and the left one is reported.  On a run over every unknown
    they report the left one while rounding parts them by less than that
    tolerance; near touchdown it can part them by more, and the higher one
    is reported (two-bump slab, lam = 10, mirror declined: 3.1e-11, 4.3e-10
    and 1.3e-11 sup u at 1001, 2001 and 6000 nodes, where the left peak
    stays the higher and every row reports it).
    `stats` is what `integrate` counted; None for a trajectory read back
    from disk.
    """

    lam: float
    mesh: Mesh
    times: np.ndarray
    values: np.ndarray
    max_history: np.ndarray
    stats: Optional[StepStats] = None


@dataclass(frozen=True)
class RateFit:
    M: float
    p: float
    fit_residual: float
    decades: float
    low_confidence: bool


@dataclass(frozen=True)
class QuenchReport:
    """What `detect_quench` reads off a run: T, the touchdown set and `RateFit`'s fields.

    Without touchdown only `quenched` (False) and `last_resolved_gap` are
    set; `quench_set` is () and every other field None.
    """

    quenched: bool
    last_resolved_gap: float
    T: Optional[float] = None
    quench_set: Tuple[float, ...] = ()
    M: Optional[float] = None
    p: Optional[float] = None
    fit_residual: Optional[float] = None
    decades: Optional[float] = None  # of resolved gap behind the rate fit
    low_confidence: Optional[bool] = None


def _linearized_step(Lb, lamf, u, dt, mass=1.0):
    """One linearly implicit Crank-Nicolson step from u: (v, sup v), or None on failure.

    du solves (M - (dt/2) J) du = dt g(u), where g(u) = L u + lam f / (1 - u)^2
    and J = L + 2 lam f / (1 - u)^3 is its Jacobian at u; the step returns
    v = u + du with its max.  A singular system, a 2-row (symmetric) one
    that is not positive definite, a non-finite du or a new state whose max
    reaches 1 - 1e-14 is a failed stage.  `Lb` is L in either
    `solve_banded` layout; `lamf` is lam f on the unknowns.  M is the
    diagonal `mass`, 1 but on the midpoint row of a mirrored run (see
    `mesh.mirror_bands`), where it is 1/2 and `Lb` and `lamf` are halved too.
    """
    gap = 1.0 - u
    force = lamf / np.square(gap)
    rhs = bands_matvec(Lb, u)  # a new array, which the solve overwrites with du
    rhs += force
    rhs *= dt
    Jb = Lb * (-0.5 * dt)
    Jb[1] += mass - dt * force / gap
    try:
        du = solve_banded(Jb, rhs, overwrite_ab=True, overwrite_b=True)
    except np.linalg.LinAlgError:  # singular or indefinite stage matrix, or non-finite du
        return None
    v = u + du
    vmax = float(v.max())
    return (v, vmax) if vmax < 1.0 - 1e-14 else None


def _growth_target(sup, eta_step):
    """Largest rise of sup u that a step from sup u = `sup` may make.

    eta_step times the gap 1 - sup u down to a gap of 0.1, eta_step / 10
    below it, and never more than max(GROWTH_CAP, eta_step) times the gap:
    near touchdown T - t shrinks like the gap cubed, so a step there moves
    T little and may take a larger share of the gap.
    """
    gap = 1.0 - sup
    return min(max(GROWTH_CAP, eta_step) * gap, eta_step * max(gap, 0.1))


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
    coords = mesh.nodes[sl]
    f = np.asarray(evaluate(profile, coords), dtype=float)
    mass, mirrored = 1.0, False
    if np.array_equal(Lb[0, 1:], Lb[2, :-1]):  # symmetric (every slab): step by LDL^T
        Lb = Lb[:2]
        mirrored = mirror_even(profile, mesh, f)
        if mirrored:  # the state is even too: step on the left half
            Lb, mass = mirror_bands(Lb)
            coords, f = coords[:Lb.shape[1]], f[:Lb.shape[1]] * mass
    lamf = lam * f

    u = np.zeros(Lb.shape[1])
    t = sup = 0.0
    s = cfg.eta_step / ETA_STEP
    dt = DT_INITIAL * s
    dt_floor = 1e-16 * dt
    dt_cap = DT_MAX * s

    times, states = [0.0], [u]
    snapshot_fall = math.exp(-0.8 * cfg.eta_step * cfg.snapshot_stride)
    stored_step, stored_gap = 0, 1.0
    max_history = [(0.0, 0.0, math.nan)]

    rejected_stage = rejected_growth = 0
    dt_lo, dt_hi = math.inf, 0.0

    threshold = 1.0 - cfg.quench_eps
    step_index = 0
    target = _growth_target(sup, cfg.eta_step)
    while sup < threshold and t < cfg.t_max * (1.0 - 1e-12):
        if step_index == MAX_STEPS:
            raise StepLimit("%d steps taken before touchdown or t_max, at t=%g" % (MAX_STEPS, t))
        dt_try = min(dt, cfg.t_max - t)
        while True:
            if t + dt_try == t:
                raise StepUnderflow("dt %g does not advance t=%g" % (dt_try, t))
            stage = _linearized_step(Lb, lamf, u, dt_try, mass)
            if stage is None:
                rejected_stage += 1
                dt_try *= 0.5
                if dt_try < dt_floor:
                    raise NewtonFailure("stage solve failed at t=%g" % t)
                continue
            v, vmax = stage
            dsup = vmax - sup
            if dsup > target * (1.0 + 1e-9) and dsup > 0:
                rejected_growth += 1
                dt_try *= max(0.1, 0.5 * target / dsup)
                if dt_try < dt_floor:
                    raise StepUnderflow("dt underflow at t=%g" % t)
                continue
            break
        g0, t_prev = 1.0 - sup, t
        u, sup = v, vmax
        t += dt_try
        step_index += 1
        dt_lo, dt_hi = min(dt_lo, dt_try), max(dt_hi, dt_try)
        argmax = float(coords[np.argmax(sup - u <= 1e-10 * sup)]) if sup > 0.0 else math.nan
        max_history.append((t, sup, argmax))
        g1 = 1.0 - sup
        if step_index - stored_step >= cfg.snapshot_stride or g1 <= stored_gap * snapshot_fall:
            times.append(t)
            states.append(u)
            stored_step, stored_gap = step_index, g1
        # running touchdown estimate caps dt at s hundredths of it
        slope = (g1**3 - g0**3) / (t - t_prev) if t > t_prev else 0.0
        if slope < 0.0:
            t_est = t + (g1**3) / (-slope)
            dt_cap = min(DT_MAX * s, t_est * s / 100.0)
        target = _growth_target(sup, cfg.eta_step)  # the next step's: sup u stays until then
        growth = min(1.5, max(0.3, 0.8 * target / dsup)) if dsup > 0 else 1.5
        dt = min(dt_try * growth, dt_cap)

    if times[-1] != t:
        times.append(t)
        states.append(u)
    values = np.zeros((len(states), mesh.node_count))
    for row, state in zip(values, states):
        row[sl.start:sl.start + state.size] = state
        if mirrored:
            row[sl.stop - state.size:sl.stop] = state[::-1]
    solves = step_index + rejected_stage + rejected_growth
    stats = StepStats(step_index, rejected_stage, rejected_growth, solves, dt_lo, dt_hi)
    traj = Trajectory(float(lam), mesh, np.array(times), values, np.array(max_history), stats)
    return traj, detect_quench(traj, cfg.quench_eps)


def detect_quench(trajectory: Trajectory, quench_eps: float) -> QuenchReport:
    """Extrapolated touchdown report; quenched=False is the no-touchdown marker.

    T comes from a linear fit of (1 - sup u)^3 against t over the last
    decade of resolved gap.  The touchdown set is the final-state nodes
    whose gap is within a factor 2 of the minimum, merged into clusters
    of radius 3h and reported by centroid.  A gap cube that does not
    fall over that decade extrapolates to no T and raises SolverFailure.
    """
    times = trajectory.max_history[:, 0]
    gaps = 1.0 - trajectory.max_history[:, 1]
    final_gap = float(gaps[-1])
    if final_gap > quench_eps:
        return QuenchReport(False, final_gap)

    window = gaps <= 10.0 * final_gap
    if window.sum() < 3:
        window = np.arange(gaps.size) >= gaps.size - 3
    c1, c0 = np.polyfit(times[window], gaps[window] ** 3, 1)
    if c1 >= 0:
        raise SolverFailure("gap cube not decreasing; cannot extrapolate")
    T = float(-c0 / c1)

    mesh = trajectory.mesh
    node_gap = 1.0 - trajectory.values[-1]
    interior = mesh.unknown_slice
    coords = mesh.nodes[interior]
    g_int = node_gap[interior]
    gmin = float(g_int.min())
    members = coords[g_int <= 2.0 * gmin]
    clusters = np.split(members, np.flatnonzero(np.diff(members) > 3.0 * mesh.h + 1e-15) + 1)
    centroids = tuple(float(np.mean(cl)) for cl in clusters)
    return QuenchReport(True, final_gap, T, centroids, **vars(rate_fit(trajectory, centroids[0], T)))


def rate_fit(trajectory: Trajectory, a: float, T: float) -> RateFit:
    """Fit 1 - u(a,t) = M (T-t)^p over the resolved snapshot window.

    The window is the stored states with t < T and a positive gap at `a`.
    Fewer than 1.5 decades of resolved gap at `a` sets low_confidence.
    """
    nodes = trajectory.mesh.nodes
    gaps = 1.0 - np.array([np.interp(a, nodes, u) for u in trajectory.values])
    kept = (trajectory.times < T) & (gaps > 0)
    ts_arr, gs_arr = trajectory.times[kept], gaps[kept]
    usable = gs_arr < 0.999  # skip the flat start where u(a,t) ~ 0
    if usable.sum() < 3:
        usable = np.ones_like(gs_arr, dtype=bool)
    ts_arr, gs_arr = ts_arr[usable], gs_arr[usable]
    if ts_arr.size < 2:
        return RateFit(M=math.nan, p=math.nan, fit_residual=math.nan, decades=0.0, low_confidence=True)
    decades = float(np.log10(gs_arr.max() / gs_arr.min()))
    logx = np.log(T - ts_arr)
    logy = np.log(gs_arr)
    p, logM = np.polyfit(logx, logy, 1)
    resid = float(np.sqrt(np.mean((logy - (p * logx + logM)) ** 2)))
    return RateFit(
        M=float(np.exp(logM)),
        p=float(p),
        fit_residual=resid,
        decades=decades,
        low_confidence=decades < 1.5,
    )


def eta_quench_time(lam: float, M: float) -> float:
    """Touchdown time 1/(3 lam M) of the flat solution of u' = lam M / (1 - u)^2."""
    if lam * M <= 0:
        raise ValueError("lam*M must be positive")
    return 1.0 / (3.0 * lam * M)


# ---------------------------------------------------------------------------
# persistence helpers


def write_snapshots(trajectory: Trajectory, directory) -> str:
    """Write the stored times and states to one trajectory.npz; returns its path.

    The file holds the bytes `np.savez` writes for the two arrays: stored
    zip64 members `times.npy` and `values.npy` with a fixed timestamp, so
    the same run gives the same bytes, and reading them back gives the
    same bits.  Each member is an .npy 1.0 header followed by the array's
    own buffer, which `np.lib.format.write_array` would first copy whole.
    """
    path = os.path.join(str(directory), TRAJECTORY_NAME)
    with zipfile.ZipFile(path, "w") as archive:
        for name, arr in (("times", trajectory.times), ("values", trajectory.values)):
            arr = np.ascontiguousarray(arr)
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(arr))
                member.write(memoryview(arr).cast("B"))
    return path


def write_max_history(trajectory: Trajectory, path) -> None:
    csvio.write_rows(path, "t,sup_u,argmax", trajectory.max_history.tolist())


def read_trajectory(directory, mesh: Mesh, lam: float) -> Trajectory:
    """Load the trajectory.npz and max_history.csv that a simulate run wrote.

    These files come from outside the program: a missing or unreadable
    one, a store without `times` and `values`, states that are not finite
    values on every node at each stored time, stored times that are fewer
    than two or do not strictly increase, or a history that is not three
    columns raises MissingInput.
    """
    directory = str(directory)
    try:
        # np.load of a path leaves the file open when the zip does not parse
        with open(os.path.join(directory, TRAJECTORY_NAME), "rb") as fh, np.load(fh, allow_pickle=False) as store:
            times = np.asarray(store["times"], dtype=float)
            values = np.asarray(store["values"], dtype=float)
        if times.ndim != 1 or not times.size or values.shape != (times.size, mesh.node_count):
            raise ValueError("%s does not hold %d values per stored time" % (TRAJECTORY_NAME, mesh.node_count))
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("%s holds a value that is not finite" % TRAJECTORY_NAME)
        if times.size < 2 or np.any(np.diff(times) <= 0.0):
            raise ValueError("%s does not hold two or more strictly increasing times" % TRAJECTORY_NAME)
        history = np.loadtxt(os.path.join(directory, "max_history.csv"), delimiter=",", skiprows=1, ndmin=2)
        if history.shape[1:] != (3,):
            raise ValueError("max_history.csv does not hold (t, sup_u, argmax) rows")
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise MissingInput("damaged run directory %s: %s" % (directory, exc))
    return Trajectory(float(lam), mesh, times, values, history)
