"""Steady states of the forced membrane problem and their fold structure.

The steady equation is

    -lap(w) = lam * f(x) / (1 - w)^2,   w = 0 on the boundary,

with 0 <= w < 1.  For lam below the fold value lam_star there is a
minimal solution; the branch of minimal solutions turns around at
lam_star (the pull-in threshold), where the first eigenvalue mu_1 of
the linearization

    -lap(phi) - 2 lam f / (1 - w)^3 phi = mu phi

crosses zero.  One Newton, `_Curve.correct`, solves G(w, lam) = lap w +
lam f/(1-w)^2 = 0 plus one scalar constraint.  G is convex in w and -G_w
is an M-matrix below the minimal solution, so from w = 0 at fixed lam
Newton rises monotonically to it without damping.  `minimal_states` is
that corrector with lam held fixed, allowed 50 steps because it slows
near the fold.  One pseudo-arclength walk, `_walk`, corrects each step
in at most 14 and locates the fold once, by Newton on the extended
system {G = 0, G_w phi = 0, phi pinned} (Moore & Spence 1980) started
from the last point before the fold and from the walk's secant there.
That lands on the discrete fold, whose lam is O(h^2) from the continuum
lam_star.  `continue_branch` keeps every state of the walk with its mu_1,
from inverse iteration warm-started from the previous state's
eigenvector.  Each solve (A - sigma) y = v there yields its iterate's
Rayleigh quotient and residual without a product by A, and the shift
follows that quotient from the first iterate on.  `locate_fold` returns
the fold alone: its walk solves no eigenpair and stops at the first
point past the fold, and on a fine mesh it walks a coarse one and runs
the same fold Newton on the fine mesh from the coarse fold.  Every tridiagonal solve here, in the corrector,
the fold Newton and inverse iteration, is the LAPACK kernel
`mesh.solve_banded`.

One `_Curve` holds the operator (Laplacian bands, f and quadrature
weights at the unknowns) for its corrector, its fold Newton and the eigen
solve of each of its states, `linearized_eigenpair`.  States,
eigenfunctions and fold data are arrays of values on every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from . import csvio
from .mesh import Mesh, bands_matvec, build_mesh, integrate, laplacian_bands, residual_floor, solve_banded
from .profiles import Profile, evaluate

__all__ = [
    "SteadyState",
    "Fold",
    "SteadyBranch",
    "StepFailure",
    "IterationLimit",
    "minimal_states",
    "continue_branch",
    "locate_fold",
    "linearized_eigenpair",
    "branch_to_csv",
    "states_to_csv",
]


class StepFailure(csvio.SolverFailure):
    """Continuation stalled, found no fold, or could not polish it."""

    stage = "continuation"


class IterationLimit(csvio.SolverFailure):
    """Eigenvalue iteration failed to reach the residual target."""

    stage = "continuation"


@dataclass(frozen=True)
class SteadyState:
    """A point of the solution curve: lam, w on every node and mu_1."""

    lam: float
    w: np.ndarray
    mu1: float

    @property
    def sup_w(self) -> float:
        return float(self.w.max())


@dataclass(frozen=True)
class Fold:
    """Fold data on `mesh`, each function on every node: the fold state,
    whose lam and w are lambda_star and w*, phi* (the L2-normalized
    eigenfunction of mu_1 = 0) and psi* = phi* / int(phi*)."""

    mesh: Mesh
    fold_state: SteadyState
    phi_star: np.ndarray
    lambda_star = property(lambda self: self.fold_state.lam)
    w_star = property(lambda self: self.fold_state.w)
    psi_star = property(lambda self: self.phi_star / integrate(self.mesh, self.phi_star))


@dataclass(frozen=True)
class SteadyBranch(Fold):
    """Continuation record: fold data plus the traversal states, of which
    states[: fold_index + 1] are the minimal (stable) ones."""

    states: Tuple[SteadyState, ...]
    fold_index: int


def _interior_forcing(profile: Profile, mesh: Mesh) -> np.ndarray:
    return np.asarray(evaluate(profile, mesh.nodes[mesh.unknown_slice]), dtype=float)


def _embed(mesh: Mesh, interior: np.ndarray) -> np.ndarray:
    full = np.zeros(mesh.node_count)
    full[mesh.unknown_slice] = interior
    return full


# The steady operator on the unknowns, with Lb = laplacian_bands(mesh) and
# f the interior forcing.  Every steady solve goes through these two; its
# residual tests take their roundoff floor from mesh.residual_floor(Lb).


def _residual(Lb: np.ndarray, f: np.ndarray, w: np.ndarray, lam: float, gap2: np.ndarray) -> np.ndarray:
    """G(w, lam) = lap(w) + lam f / (1 - w)^2, given gap2 = (1 - w)^2."""
    return bands_matvec(Lb, w) + lam * f / gap2


def _jacobian(Lb: np.ndarray, f: np.ndarray, gap: np.ndarray, lam: float) -> np.ndarray:
    """G_w(w, lam) = lap + 2 lam f / (1 - w)^3, given gap = 1 - w, in solve_banded layout."""
    Jb = Lb.copy()
    Jb[1] += 2.0 * lam * f / gap**3
    return Jb


def minimal_states(grid, profile: Profile, mesh: Mesh) -> Iterator[Optional[SteadyState]]:
    """Minimal steady state, with its mu1, at each lam of `grid` in turn,
    each by Newton from the zero field.

    This is the continuation corrector `_Curve.correct` at fixed lam:
    tangent (0, 1), base point (0, 0) and arclength lam pin lam, so its
    bordered Newton is plain Newton on G(., lam) = 0.  G is convex in w,
    and -G_w is an M-matrix at every w below the minimal solution, so
    from w = 0 the iterates rise monotonically to the minimal solution
    and never need damping (Ortega & Rheinboldt 1970, sec. 13.3).  Near
    the fold G_w is nearly singular and the rise slows: a 101-node slab
    takes 15 steps at 1e-8 below the fold and 17 at 1e-12, so this cold
    solve allows 50 steps where the corrector after a predictor allows 14.

    Yields None for a lam where Newton has not converged after 50 steps
    (no solution: lam beyond the fold, up to discretization).

    The residual target is 1e-10 or the roundoff floor of the second
    difference operator, whichever is larger; on fine meshes the floor
    eps/h^2 dominates any fixed tolerance.

    The grid shares one `_Curve`, so each mu1 eigen solve is warm-started
    from the previous state's eigenvector; Newton always starts from w = 0.
    """
    curve = _Curve(profile, mesh)
    zero = np.zeros(curve.n)
    for lam in grid:
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        ok = curve.correct(zero, lam, zero, 1.0, zero, 0.0, lam, max_steps=50)
        yield None if ok is None else curve.state(*ok)


# inverse iteration solves per start vector
_EIG_MAX_ITER = 400


def _shift(mu: float, res: float) -> float:
    """Inverse-iteration shift 10 residuals below a Rayleigh quotient."""
    return mu - 10.0 * res - 1e-9 * max(1.0, abs(mu))


def _inverse_iteration(ab, weights, v, sigma, stop):
    """Shifted inverse iteration from v; returns (best residual, (mu, x)) or
    (inf, None).  Each solve (A - sigma) y = v gives the iterate x = y / y[peak]
    and (A - sigma) x = r = v / y[peak], hence its weighted Rayleigh quotient
    mu = sigma + <x, r>_W / <x, x>_W and residual (A - mu) x = r - (mu - sigma) x
    with no product by A.  The shift follows mu from the first iterate on."""
    best_res = np.inf
    best: Tuple[float, np.ndarray] | None = None
    stale = 0
    shifted = np.empty_like(ab)
    for _ in range(_EIG_MAX_ITER):
        np.copyto(shifted, ab)
        shifted[1] -= sigma
        try:
            y = solve_banded(shifted, v, overwrite_ab=True)
        except np.linalg.LinAlgError:  # singular or non-finite: nudge the shift
            sigma -= max(1.0, abs(sigma)) * 1e-8
            continue
        peak = int(np.argmax(np.abs(y)))
        x, r = y / y[peak], v / y[peak]
        wx = weights * x
        mu = sigma + float(np.dot(wx, r) / np.dot(wx, x))
        res = float(np.max(np.abs(r - (mu - sigma) * x)))
        if res < best_res:
            best_res, best = res, (mu, x)
            stale = 0
        else:
            stale += 1
        if best_res <= stop(mu) or stale >= 6:
            break
        v, sigma = x, _shift(mu, res)
    return best_res, best


def smallest_eigenvalue_bands(
    ab: np.ndarray,
    weights: np.ndarray,
    start: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, float]:
    """Smallest eigenvalue of a tridiagonal operator by shifted inverse
    power iteration with Rayleigh-quotient shift updates.

    A cold solve starts from the ones vector below the Gershgorin bound.
    A `start` vector, e.g. the eigenvector of a nearby operator, starts
    the iteration from itself at its Rayleigh-quotient shift instead.  The
    ground state of these operators has one sign, so a warm result with an
    interior sign change (a higher mode), or one short of the residual
    target, is discarded and the solve redone cold.

    The returned vector has sup-norm 1 and positive entry at its peak.
    """
    n = ab.shape[1]
    radius = np.zeros(n)
    radius[:-1] += np.abs(ab[0, 1:])
    radius[1:] += np.abs(ab[2, :-1])
    anorm = float(np.max(np.abs(ab[1])) + np.max(radius))
    # not mesh.residual_floor: an eigen-residual floor on the Gershgorin
    # norm; changing it moves the mu1 bits of every branch
    floor = 50.0 * np.finfo(float).eps * anorm

    def stop(mu):
        return max(1e-9 * max(1.0, abs(mu)) * 1e-1, floor)

    def target(mu):
        return max(1e-8 * max(1.0, abs(mu)), 2.0 * floor)

    if start is not None:
        v = np.asarray(start, dtype=float) / np.max(np.abs(start))
        # the start's weighted Rayleigh quotient and residual set the first shift
        av, wv = bands_matvec(ab, v), weights * v
        mu = float(np.dot(wv, av) / np.dot(wv, v))
        sigma = _shift(mu, float(np.max(np.abs(av - mu * v))))
        best_res, best = _inverse_iteration(ab, weights, v, sigma, stop)
        if best is not None and best_res <= target(best[0]) and best[1].min() >= -1e-8:
            return best[0], best[1], best_res

    sigma = float(np.min(ab[1] - radius)) - 1.0
    best_res, best = _inverse_iteration(ab, weights, np.ones(n), sigma, stop)
    if best is None:
        raise IterationLimit("inverse iteration produced no usable vector")
    mu, v = best
    if best_res > target(mu):
        raise IterationLimit(
            "eigen-residual %.3e above target %.3e after %d iterations"
            % (best_res, target(mu), _EIG_MAX_ITER)
        )
    return mu, v, best_res


def linearized_eigenpair(curve: _Curve, w: np.ndarray, lam: float) -> Tuple[float, np.ndarray]:
    """(mu1, phi): the first eigenpair of -G_w = -lap - 2 lam f/(1-w)^3 on
    `curve`'s operator at its interior values w, with zero Dirichlet data.
    phi holds every node and is L2-normalized.

    `curve.start` warm-starts the eigen solve; see `smallest_eigenvalue_bands`.
    """
    gap = 1.0 - w
    if gap.min() < 1e-9:
        raise ValueError("state touches the obstacle; linearization undefined")
    mu, v, _ = smallest_eigenvalue_bands(-_jacobian(curve.Lb, curve.f, gap, lam), curve.wq, start=curve.start)
    phi = _embed(curve.mesh, v)
    scale = np.sqrt(integrate(curve.mesh, phi**2))
    if scale <= 0:
        raise IterationLimit("eigenfunction normalization degenerate")
    return float(mu), phi / scale


# ---------------------------------------------------------------------------
# pseudo-arclength continuation


class _Curve:
    """Residual/corrector kit for the (w, lam) solution curve."""

    def __init__(self, profile: Profile, mesh: Mesh):
        self.mesh = mesh
        self.Lb = laplacian_bands(mesh)
        self.f = _interior_forcing(profile, mesh)
        self.wq = mesh.weights[mesh.unknown_slice].copy()
        self.n = self.Lb.shape[1]
        # residual sup-norms below the operator's roundoff floor are noise
        self.res_floor = residual_floor(self.Lb)
        # interior vector that warm-starts the next eigen solve: the last
        # state's eigenvector, or a guess set before a fold polish
        self.start: Optional[np.ndarray] = None

    def correct(self, w, lam, tau_w, tau_lam, base_w, base_lam, ds, max_steps):
        """Newton on the bordered system {G = 0, arclength constraint}: (w, lam)
        on the residual target, or None on failure or after max_steps iterates."""
        w = np.array(w, dtype=float)
        lam = float(lam)
        tol_eff = max(1e-10, self.res_floor)
        for _ in range(max_steps):
            gap = 1.0 - w
            if gap.min() <= 1e-12:
                return None
            gap2 = gap**2
            R = _residual(self.Lb, self.f, w, lam, gap2)
            Ncon = float(np.dot(self.wq, tau_w * (w - base_w)) + tau_lam * (lam - base_lam) - ds)
            if np.max(np.abs(R)) <= tol_eff and abs(Ncon) <= 1e-11 * max(1.0, abs(ds)):
                return w, lam
            glam = self.f / gap2
            try:
                Jb = _jacobian(self.Lb, self.f, gap, lam)
                ab = solve_banded(Jb, np.column_stack((R, glam)), overwrite_ab=True, overwrite_b=True)
            except np.linalg.LinAlgError:
                return None
            a, b = ab[:, 0], ab[:, 1]
            denom = tau_lam - float(np.dot(self.wq, tau_w * b))
            if denom == 0.0:
                return None
            dlam = (float(np.dot(self.wq, tau_w * a)) - Ncon) / denom
            dw = -a - dlam * b
            theta = 1.0
            while (trial := w + theta * dw).max() >= 1.0 - 1e-12:
                theta *= 0.5
                if theta <= 1e-12:
                    return None
            w = trial
            lam = lam + theta * dlam
        return None

    def norm(self, dw, dlam):
        return float(np.sqrt(np.dot(self.wq, dw**2) + dlam**2))

    def fold_polish(self, w, lam):
        """Newton on the extended fold system.

        Unknowns (w, phi, lam); equations G(w,lam)=0, G_w(w,lam) phi=0,
        phi pinned to 1 at its peak node.  The extended Jacobian is
        regular at a quadratic fold even though G_w itself is singular
        there, so the iteration sharpens a nearby curve point into the
        fold.  phi starts as the eigenvector of mu_1 at (w, lam), its solve
        warm-started from `self.start`.  Newton stops once |G| is at the
        roundoff floor and its last update moved lam by at most 1e-10
        relative, or after 8 updates.  The floor alone is not enough: on a
        6001-node ball it is 4.3e-6, and lam stopped there depends on the
        start by 4e-7 relative.  After a quadratic step of 1e-10 the lam
        error is far below the roundoff noise of further updates (up to
        2e-11 relative on fine meshes).  |G_w phi| is not tested: once lam
        has converged, phi drifts along the nearly singular G_w and that
        residual grows.  Returns (w, lam), or None when the eigen solve
        stalls, Newton leaves the curve's neighbourhood or it ends off the
        residual target.
        """
        w = np.array(w, dtype=float)
        lam = float(lam)
        ab = -_jacobian(self.Lb, self.f, 1.0 - w, lam)
        try:
            _, phi, _ = smallest_eigenvalue_bands(ab, self.wq, start=self.start)
        except IterationLimit:
            return None
        i0 = int(np.argmax(np.abs(phi)))  # phi[i0] = 1
        lam0 = lam
        dlam = np.inf
        for _ in range(8):
            gap = 1.0 - w
            if gap.min() <= 1e-12 or not 0.2 * lam0 <= lam <= 5.0 * lam0:
                return None
            gap2 = gap**2
            G = _residual(self.Lb, self.f, w, lam, gap2)
            if abs(dlam) <= 1e-10 * abs(lam) and np.max(np.abs(G)) <= self.res_floor:
                break
            Jb = _jacobian(self.Lb, self.f, gap, lam)
            H = bands_matvec(Jb, phi)
            glam = self.f / gap2
            d1 = 6.0 * lam * self.f / gap**4 * phi
            d2 = 2.0 * self.f / gap**3 * phi
            try:
                u = solve_banded(Jb, np.column_stack((-G, -glam)))
                u0, u1 = u[:, 0], u[:, 1]
                v = solve_banded(Jb, np.column_stack((-H - d1 * u0, -(d1 * u1 + d2))))
                v0, v1 = v[:, 0], v[:, 1]
            except np.linalg.LinAlgError:
                return None
            if abs(v1[i0]) == 0.0:
                return None
            dlam = (1.0 - phi[i0] - v0[i0]) / v1[i0]
            dw = u0 + dlam * u1
            dphi = v0 + dlam * v1
            if not np.isfinite(dlam):
                return None
            if (w + dw).max() >= 1.0 - 1e-12:
                return None
            w = w + dw
            phi = phi + dphi
            lam = lam + dlam
        G = _residual(self.Lb, self.f, w, lam, (1.0 - w) ** 2)
        if np.max(np.abs(G)) > max(1e-10, 10.0 * self.res_floor):
            return None
        return w, lam

    def state(self, w, lam) -> SteadyState:
        """The curve point as a SteadyState with mu1, roundoff below 0 in w
        clipped; its eigenvector, interior values, becomes `self.start`."""
        w = np.where((w > -1e-12) & (w < 0.0), 0.0, w)
        mu1, phi = linearized_eigenpair(self, w, float(lam))
        self.start = phi[self.mesh.unknown_slice]
        return SteadyState(lam=float(lam), w=_embed(self.mesh, w), mu1=mu1)


def _walk(curve: _Curve, ds: float, keep_states: bool) -> Tuple[Fold, list, int]:
    """The pseudo-arclength walk from (lam=0, w=0) to the fold, and the fold.

    Stepping uses secant tangents and halves the step on corrector failure,
    for at most 600 points.  With `keep_states` every point becomes a
    SteadyState with its mu1, and the walk goes on past the fold until lam
    has dropped by a tenth of its maximum or ||w||_inf reaches 0.985.
    Without, no eigenpair is solved and the walk stops at the first point
    past the fold; the corrector calls up to there are the same, so its
    points are bitwise those of the walk with states.
    The fold is then polished (`_Curve.fold_polish`) from the last point
    before the fold, and the polish and the fold state's eigen solve are
    warm-started from the normalized secant into the first point past it,
    which at a quadratic fold lies near ker G_w.  Returns (fold, states,
    fold_index), where states[fold_index] is that last point before the
    fold; states is empty without `keep_states`.
    """
    if ds <= 0:
        raise ValueError("ds must be positive")
    w = np.zeros(curve.n)
    lam = 0.0
    states = [curve.state(w, lam)] if keep_states else []

    # tangent at the trivial point: dw/dlam solves lap(dw) = -f
    dwdlam = solve_banded(curve.Lb, -curve.f)
    nrm = curve.norm(dwdlam, 1.0)
    tau_w, tau_lam = dwdlam / nrm, 1.0 / nrm

    step = ds
    points = 1
    top = None  # (index, w, lam, secant) at the fold
    while points < 600:
        ok = None
        while step > 1e-12:
            pred_w = w + step * tau_w
            pred_lam = lam + step * tau_lam
            ok = curve.correct(pred_w, pred_lam, tau_w, tau_lam, w, lam, step, max_steps=14)
            if ok is not None:
                break
            step *= 0.5
        if ok is None:
            raise StepFailure("continuation stalled at lam=%g" % lam)
        new_w, new_lam = ok
        sec_w, sec_lam = new_w - w, new_lam - lam
        nrm = curve.norm(sec_w, sec_lam)
        tau_w, tau_lam = sec_w / nrm, sec_lam / nrm
        if keep_states:
            states.append(curve.state(new_w, new_lam))
        if top is None and tau_lam < 0.0:
            top = (points - 1, w, lam, tau_w)
        points += 1
        w, lam = new_w, new_lam
        step = min(step * 1.3, 2.0 * ds)
        if top is not None:
            if not keep_states:
                break
            lam_max = max(s.lam for s in states)
            if lam <= 0.9 * lam_max or states[-1].sup_w >= 0.985:
                break

    if top is None:
        raise StepFailure("no fold found within max_points")
    fold_index, top_w, top_lam, curve.start = top
    polished = curve.fold_polish(top_w, top_lam)
    if polished is None:
        raise StepFailure("fold polish failed near lam=%g" % top_lam)
    return _fold_at(curve, *polished), states, fold_index


def continue_branch(profile: Profile, mesh: Mesh, ds: float = 0.02) -> SteadyBranch:
    """Trace the solution curve from (lam=0, w=0) past the fold, with mu1 at
    every state (`_walk` with states).  The polished fold point is
    `fold_state`, its lam is `lambda_star`, and its eigenpair gives
    phi_star and psi_star.  A stalled walk or a failed polish raises
    StepFailure.
    """
    fold, states, fold_index = _walk(_Curve(profile, mesh), ds, keep_states=True)
    return SteadyBranch(**vars(fold), states=tuple(states), fold_index=fold_index)


def _fold_at(curve: _Curve, w: np.ndarray, lam: float) -> Fold:
    """Fold data of the polished curve point (w, lam)."""
    fold_state = curve.state(w, lam)
    phi = _embed(curve.mesh, curve.start)  # L2-normalized
    return Fold(mesh=curve.mesh, fold_state=fold_state, phi_star=phi)


# node count of the walk behind `locate_fold` on meshes finer than
# FULL_WALK_NODES; below about 600 nodes the walk on the mesh itself costs less
COARSE_NODES = 401
FULL_WALK_NODES = 600


def locate_fold(profile: Profile, mesh: Mesh, ds: float = 0.02) -> Fold:
    """The fold of `continue_branch`, from a walk without states.

    Up to FULL_WALK_NODES nodes the branch is walked on `mesh` without
    eigen solves, up to the first point past the fold, and polished from
    the same point and start vector as in `continue_branch`, so the fold
    is bitwise that of `continue_branch`.  On a finer mesh the fold is
    first located so on COARSE_NODES nodes (nested iteration): the coarse
    w* and phi*, interpolated onto `mesh`, start one `_Curve.fold_polish`
    at the coarse lambda_star, which lands on the same discrete fold as
    the full walk's polish.  If that polish fails, the walk runs on `mesh`
    itself.  A failed coarse walk raises as `continue_branch` does.
    """
    def walked(on: Mesh) -> Fold:
        return _walk(_Curve(profile, on), ds, keep_states=False)[0]

    if mesh.node_count <= FULL_WALK_NODES:
        return walked(mesh)
    coarse = walked(build_mesh(mesh.geometry, COARSE_NODES))
    x, xc, inner = mesh.nodes, coarse.mesh.nodes, mesh.unknown_slice
    curve = _Curve(profile, mesh)
    curve.start = np.interp(x, xc, coarse.phi_star)[inner]
    polished = curve.fold_polish(np.interp(x, xc, coarse.w_star)[inner], coarse.lambda_star)
    if polished is None:
        return walked(mesh)
    return _fold_at(curve, *polished)


def states_to_csv(states, path) -> None:
    """(lambda, sup_w, mu1) rows, one per state."""
    rows = [(s.lam, s.sup_w, s.mu1) for s in states]
    csvio.write_rows(path, "lambda,sup_w,mu1", rows)


def branch_to_csv(branch: SteadyBranch, path) -> None:
    states_to_csv(branch.states, path)
