"""Steady states of the forced membrane problem and their fold structure.

The steady equation is

    -lap(w) = lam * f(x) / (1 - w)^2,   w = 0 on the boundary,

with 0 <= w < 1.  For lam below the fold value lam_star there is a
minimal solution; the branch of minimal solutions turns around at
lam_star (the pull-in threshold), where the first eigenvalue mu_1 of
the linearization

    -lap(phi) - 2 lam f / (1 - w)^3 phi = mu phi

crosses zero.  One Newton, `_Curve.correct`, solves G(w, lam) = lap w +
lam f/(1-w)^2 = 0 plus one scalar constraint, and gives up at the first
iterate whose residual is not below the last one (Deuflhard's natural
monotonicity test, plain).  G is convex in w and -G_w is an M-matrix
below the minimal solution, so from w = 0 at fixed lam Newton rises
monotonically to it without damping.  `minimal_states` is that corrector
with lam held fixed, allowed 50 steps because it slows near the fold.

One pseudo-arclength walk, the generator `_walk`, yields the curve
points from (lam, w) = (0, 0), each corrected in at most 14 steps, and
solves no eigenpair.  It measures lam in units of 1/sup f, sup f over
the mesh span, so under f = c it takes the steps it takes under f = 1
in lam c.  `continue_branch` keeps every point as a state with its mu_1,
from inverse iteration warm-started from the last three eigenvectors
extrapolated in chord length to the new state (Parlett, The Symmetric
Eigenvalue Problem, sec. 4.6, on starting Rayleigh-quotient iteration
near the wanted vector), and walks past the fold.  `locate_fold` stops
at the first point past the fold; above FULL_WALK_NODES nodes it walks
a coarse mesh and polishes on the fine one from the coarse fold.  Both
locate the fold once, by Newton on the extended system {G = 0, G_w phi
= 0, phi pinned} (Moore & Spence 1980) started from the last point
before the fold and from the walk's secant there.  That lands on the
discrete fold, whose lam is O(h^2) from the continuum lam_star.  Each
solve (A - sigma) y = v of inverse iteration yields its iterate's
Rayleigh quotient and residual without a product by A, and the shift
follows that quotient from the first iterate on.  Every tridiagonal
solve here, in the corrector, the fold Newton and inverse iteration, is
the LAPACK kernel `mesh.solve_banded`.

One `_Curve` builds the operator once per mesh (Laplacian bands, f and
quadrature weights at the unknowns, sup f) for its corrector, its fold
Newton and each of its states' eigen solves, `linearized_eigenpair`,
which returns (mu1, phi); it holds nothing else, and every eigen solve
takes its start vector as an argument.  Each of their iterates forms
G_lam = f / (1 - w)^2 once, and `_residual` and `_jacobian` take G = lap
w + lam G_lam and G_w's potential 2 lam G_lam / (1 - w) from it.  No
power above the square is taken: numpy squares in a fast path but calls
libm pow per element of a cube.  Sup-norms are array methods, which skip
the Python layer of `np.max`.  States, eigenfunctions and fold data
(`Fold.mesh` names their mesh) are arrays of values on every node.

Where f is mirror-even on a slab of 5 or more nodes (the test
`profiles.mirror_even`, which `dynamics.integrate` makes too), every
state and eigenfunction is even, and the curve holds the left
(n - 1) // 2 of the n nodes alone: the 3-row Laplacian band folded by `mesh.mirror_bands`,
f there and full-domain quadrature weights, twice the left weights with
an odd unknown count's midpoint once.  Those weights make the weighted
Rayleigh quotient, the arclength constraint and `_Curve.norm` the full
ones; the residual floor and the Gershgorin radius are the full band's,
so every tolerance keeps its value.  The walk, the eigen solves and the
fold polish then run unchanged on half-length arrays, and
`_Curve.embed` writes each result back onto every node with its mirror
copy: at 6001 nodes each banded solve takes 3000 unknowns, not 5999.
The polish lands on the fold's singular G_w exactly at times (the
mirrored 401-node two-bump slab does), so it keeps an iterate whose
G_w is singular once it has converged; see `_Curve.fold_polish`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from . import csvio
from .mesh import Mesh, bands_matvec, build_mesh, integrate, laplacian_bands, mirror_bands, residual_floor, solve_banded
from .profiles import Profile, evaluate, mirror_even, supremum

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


# The steady operator on a curve's unknowns, with Lb its Laplacian band
# (laplacian_bands(mesh), or its mirror fold) and f the forcing there.
# Every steady solve goes through these two; its residual tests take their
# roundoff floor from mesh.residual_floor of the full band.


def _residual(Lb: np.ndarray, w: np.ndarray, lam: float, glam: np.ndarray) -> np.ndarray:
    """G(w, lam) = lap(w) + lam f / (1 - w)^2, given glam = G_lam = f / (1 - w)^2."""
    return bands_matvec(Lb, w) + lam * glam


def _jacobian(Lb: np.ndarray, gap: np.ndarray, lam: float, glam: np.ndarray) -> np.ndarray:
    """G_w(w, lam) = lap + 2 lam f / (1 - w)^3 = lap + 2 lam glam / gap, in solve_banded layout."""
    Jb = Lb.copy()
    Jb[1] += 2.0 * lam * glam / gap
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

    Each mu1 eigen solve is warm-started from the previous state's
    eigenvector; Newton always starts from w = 0.
    """
    curve = _Curve(profile, mesh)
    zero = np.zeros(curve.n)
    start = None
    for lam in grid:
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        ok = curve.correct(zero, lam, zero, 1.0, zero, 0.0, lam, max_steps=50)
        state = None
        if ok is not None:
            state, phi = curve.state(*ok, start)
            start = curve.restrict(phi)
        yield state


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
        peak = int(np.abs(y).argmax())
        x, r = y / y[peak], v / y[peak]
        wx = weights * x
        mu = sigma + float(np.dot(wx, r) / np.dot(wx, x))
        res = float(np.abs(r - (mu - sigma) * x).max())
        if res < best_res:
            best_res, best = res, (mu, x)
            stale = 0
        else:
            stale += 1
        if best_res <= stop(mu) or stale >= 6:
            break
        v, sigma = x, _shift(mu, res)
    return best_res, best


def _offdiagonal_radii(ab: np.ndarray) -> np.ndarray:
    """Gershgorin radii of a tridiagonal in solve_banded layout: each row's
    off-diagonal sum |a_{i,i-1}| + |a_{i,i+1}|."""
    radius = np.zeros(ab.shape[1])
    radius[:-1] += np.abs(ab[0, 1:])
    radius[1:] += np.abs(ab[2, :-1])
    return radius


def smallest_eigenvalue_bands(
    ab: np.ndarray,
    weights: np.ndarray,
    start: Optional[np.ndarray] = None,
    radius: Optional[float] = None,
) -> Tuple[float, np.ndarray, float]:
    """Smallest eigenvalue of a tridiagonal operator by shifted inverse
    power iteration with Rayleigh-quotient shift updates.

    A cold solve starts from the ones vector below the Gershgorin bound.
    A `start` vector, e.g. the eigenvector of a nearby operator, starts
    the iteration from itself at its Rayleigh-quotient shift instead.  The
    ground state of these operators has one sign, so a warm result with an
    interior sign change (a higher mode), or one short of the residual
    target, is discarded and the solve redone cold.  `radius`, the largest
    off-diagonal Gershgorin radius of `ab`, is taken from `ab` when not
    given; operators that share their off-diagonals share it.

    The returned vector has sup-norm 1 and positive entry at its peak.
    """
    n = ab.shape[1]
    if radius is None:
        radius = float(_offdiagonal_radii(ab).max())
    anorm = float(np.abs(ab[1]).max()) + radius
    # not mesh.residual_floor: an eigen-residual floor on the Gershgorin
    # norm; changing it moves the mu1 bits of every branch
    floor = 50.0 * np.finfo(float).eps * anorm

    def stop(mu):
        return max(1e-9 * max(1.0, abs(mu)) * 1e-1, floor)

    def target(mu):
        return max(1e-8 * max(1.0, abs(mu)), 2.0 * floor)

    if start is not None:
        v = np.asarray(start, dtype=float) / np.abs(start).max()
        # the start's weighted Rayleigh quotient and residual set the first shift
        av, wv = bands_matvec(ab, v), weights * v
        mu = float(np.dot(wv, av) / np.dot(wv, v))
        sigma = _shift(mu, float(np.abs(av - mu * v).max()))
        best_res, best = _inverse_iteration(ab, weights, v, sigma, stop)
        if best is not None and best_res <= target(best[0]) and best[1].min() >= -1e-8:
            return best[0], best[1], best_res

    sigma = float((ab[1] - _offdiagonal_radii(ab)).min()) - 1.0
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


def linearized_eigenpair(curve: _Curve, w: np.ndarray, lam: float,
                         start: Optional[np.ndarray]) -> Tuple[float, np.ndarray]:
    """(mu1, phi): the first eigenpair of -G_w = -lap - 2 lam f/(1-w)^3 on
    `curve`'s operator at w, values on its unknowns (`_Curve.restrict`),
    with zero Dirichlet data.  phi holds every node and is L2-normalized.

    `start`, values on the curve's unknowns or None, warm-starts the eigen
    solve; see `smallest_eigenvalue_bands`.
    """
    gap = 1.0 - w
    if gap.min() < 1e-9:
        raise ValueError("state touches the obstacle; linearization undefined")
    ab = _jacobian(curve.Lb, gap, lam, curve.f / np.square(gap))
    np.negative(ab, out=ab)  # -G_w
    mu, v, _ = smallest_eigenvalue_bands(ab, curve.wq, start=start, radius=curve.radius)
    phi = curve.embed(v)
    scale = np.sqrt(integrate(curve.mesh, phi**2))
    if scale <= 0:
        raise IterationLimit("eigenfunction normalization degenerate")
    return float(mu), phi / scale


# ---------------------------------------------------------------------------
# pseudo-arclength continuation


class _Curve:
    """Residual/corrector kit for the (w, lam) solution curve: its operator, set once, alone.

    Its `n` unknowns are a mirror-even slab's left half (see the module
    docstring) or else all of them; `embed` and `restrict` move values
    between them and every node."""

    def __init__(self, profile: Profile, mesh: Mesh):
        self.mesh = mesh
        Lb = laplacian_bands(mesh)
        f = _interior_forcing(profile, mesh)
        wq = mesh.weights[mesh.unknown_slice].copy()
        # residual sup-norms below the operator's roundoff floor are noise
        self.res_floor = residual_floor(Lb)
        # largest off-diagonal Gershgorin radius of every -G_w on this curve
        self.radius = float(_offdiagonal_radii(Lb).max())
        # the unit of lam is 1/sup f, sup f exact over the mesh span
        self.sup_f = supremum(profile, (mesh.nodes[0], mesh.nodes[-1]))
        self.mirrored = mirror_even(profile, mesh, f)
        if self.mirrored:
            odd = Lb.shape[1] % 2
            Lb, _ = mirror_bands(Lb)  # the 3-row fold: its mass is 1
            f, wq = f[:Lb.shape[1]], 2.0 * wq[:Lb.shape[1]]
            if odd:
                wq[-1] *= 0.5  # the midpoint is counted once
        self.Lb, self.f, self.wq = Lb, f, wq
        self.n = Lb.shape[1]

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Values on every node from values on the curve's unknowns, with
        zero Dirichlet data and, on a mirrored curve, the mirror copy."""
        full = np.zeros(self.mesh.node_count)
        sl = self.mesh.unknown_slice
        full[sl.start:sl.start + self.n] = values
        if self.mirrored:
            full[sl.stop - self.n:sl.stop] = values[::-1]
        return full

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The curve's unknowns of values on every node (a view)."""
        start = self.mesh.unknown_slice.start
        return values[start:start + self.n]

    def correct(self, w, lam, tau_w, tau_lam, base_w, base_lam, ds, max_steps):
        """Newton on the bordered system {G = 0, arclength constraint}: (w, lam)
        on the residual target, or None on failure or after max_steps iterates.

        The first iterate whose residual sup-norm, above its target, is not
        below the last one ends the call with None: on the walks the README
        lists, every converging call's residual fell at every iterate (by a
        factor 0.708 or less), and a failing call now stops after at most two
        solves instead of running to its cap.  G_lam is formed once an
        iterate, the constraint weights wt and their offset once a call."""
        w, lam = np.array(w, dtype=float), float(lam)
        tol_eff = max(1e-10, self.res_floor)
        wt = self.wq * tau_w  # the constraint is <wt, w - base_w> + tau_lam (lam - base_lam) - ds
        offset = float(np.dot(wt, base_w)) + ds
        last = np.inf
        # rows R and G_lam: their transpose is the Fortran-order right side
        # that dgtsv solves in place; one buffer serves every iterate
        rhs = np.empty((2, self.n))
        for _ in range(max_steps):
            gap = 1.0 - w
            if gap.min() <= 1e-12:
                return None
            glam = np.divide(self.f, np.square(gap), out=rhs[1])
            R = rhs[0] = _residual(self.Lb, w, lam, glam)
            Ncon = float(np.dot(wt, w)) - offset + tau_lam * (lam - base_lam)
            res = float(np.abs(R).max())
            if res <= tol_eff and abs(Ncon) <= 1e-11 * max(1.0, abs(ds)):
                return w, lam
            if res >= last and res > tol_eff:  # not contracting
                return None
            last = res
            # G_w is factored in place and freed once solved: the next temporaries reuse its memory
            try:
                ab = solve_banded(_jacobian(self.Lb, gap, lam, glam), rhs.T, overwrite_ab=True, overwrite_b=True)
            except np.linalg.LinAlgError:
                return None
            a, b = ab[:, 0], ab[:, 1]
            denom = tau_lam - float(np.dot(wt, b))
            if denom == 0.0:
                return None
            dlam = (float(np.dot(wt, a)) - Ncon) / denom
            dw = -a - dlam * b
            theta = 1.0
            while (trial := w + theta * dw).max() >= 1.0 - 1e-12:
                theta *= 0.5
                if theta <= 1e-12:
                    return None
            w = trial
            lam = lam + theta * dlam
        return None

    def norm(self, dw, dlam):  # weighted L2 norm, dlam in units of 1/sup f
        return float(np.sqrt(np.dot(self.wq, dw**2) + (self.sup_f * dlam) ** 2))

    def fold_polish(self, w, lam, start):
        """Newton on the extended fold system.

        Unknowns (w, phi, lam); equations G(w,lam)=0, G_w(w,lam) phi=0,
        phi pinned to 1 at its peak node.  The extended Jacobian is
        regular at a quadratic fold even though G_w itself is singular
        there, so the iteration sharpens a nearby curve point into the
        fold.  phi starts as the eigenvector of mu_1 at (w, lam), its solve
        warm-started from `start`.  Newton stops once |G| is at the
        roundoff floor and its last update moved lam by at most 1e-10
        relative, or after 8 updates.  The floor alone is not enough: on a
        6001-node ball it is 4.3e-6, and lam stopped there depends on the
        start by 4e-7 relative.  After a quadratic step of 1e-10 the lam
        error is far below the roundoff noise of further updates (up to
        2e-11 relative on fine meshes).  |G_w phi| is not tested: once lam
        has converged, phi drifts along the nearly singular G_w and that
        residual grows.

        G_w is singular at the fold itself, and an iterate can land on it
        exactly (the mirrored 401-node two-bump slab at its 4th iterate,
        |G| = 2.9e-11 under the 4.3e-9 floor after a lam update of 3e-8
        relative).  A solve that finds G_w singular therefore stops Newton
        at that iterate when |G| is at the roundoff floor and the last
        update moved lam by at most 1e-6 relative, a quadratic step that
        leaves a lam error far below 1e-10; at any other iterate, the first
        one included, it fails the polish.  Returns (w, lam), or None when
        the eigen solve stalls, Newton leaves the curve's neighbourhood or
        it ends off the residual target.
        """
        w, lam = np.array(w, dtype=float), float(lam)
        gap = 1.0 - w
        ab = -_jacobian(self.Lb, gap, lam, self.f / np.square(gap))
        try:
            _, phi, _ = smallest_eigenvalue_bands(ab, self.wq, start=start, radius=self.radius)
        except IterationLimit:
            return None
        i0 = int(np.abs(phi).argmax())  # phi[i0] = 1
        lam0 = lam
        dlam = np.inf
        for _ in range(8):
            gap = 1.0 - w
            if gap.min() <= 1e-12 or not 0.2 * lam0 <= lam <= 5.0 * lam0:
                return None
            glam = self.f / np.square(gap)
            G = _residual(self.Lb, w, lam, glam)
            floored = float(np.abs(G).max()) <= self.res_floor
            if floored and abs(dlam) <= 1e-10 * abs(lam):
                break
            Jb = _jacobian(self.Lb, gap, lam, glam)
            H = bands_matvec(Jb, phi)
            d2 = 2.0 * glam / gap * phi  # G_wlam phi = 2 f/(1-w)^3 phi
            d1 = 3.0 * lam * d2 / gap  # G_ww phi = 6 lam f/(1-w)^4 phi
            try:
                u = solve_banded(Jb, np.column_stack((-G, -glam)))
                u0, u1 = u[:, 0], u[:, 1]
                v = solve_banded(Jb, np.column_stack((-H - d1 * u0, -(d1 * u1 + d2))))
                v0, v1 = v[:, 0], v[:, 1]
            except np.linalg.LinAlgError:  # G_w singular: converged onto the fold, or failed
                if floored and abs(dlam) <= 1e-6 * abs(lam):
                    break
                return None
            if abs(v1[i0]) == 0.0:
                return None
            dlam = (1.0 - phi[i0] - v0[i0]) / v1[i0]
            dw = u0 + dlam * u1
            dphi = v0 + dlam * v1
            if not np.isfinite(dlam) or (w + dw).max() >= 1.0 - 1e-12:
                return None
            w, phi, lam = w + dw, phi + dphi, lam + dlam
        G = _residual(self.Lb, w, lam, self.f / np.square(1.0 - w))
        if np.abs(G).max() > max(1e-10, 10.0 * self.res_floor):
            return None
        return w, lam

    def state(self, w, lam, start) -> Tuple[SteadyState, np.ndarray]:
        """(the curve point as a SteadyState with mu1, roundoff below 0 in w
        clipped; its eigenfunction phi on every node), the eigen solve
        warm-started from `start` (see `linearized_eigenpair`)."""
        if w.min() < 0.0:
            w = np.where((w > -1e-12) & (w < 0.0), 0.0, w)
        mu1, phi = linearized_eigenpair(self, w, float(lam), start)
        return SteadyState(lam=float(lam), w=self.embed(w), mu1=mu1), phi


def _lagrange_weights(nodes: list, s: float) -> list:
    """Weights c with sum_i c_i p_i the value at s of the polynomial
    through the points (nodes[i], p_i)."""
    return [math.prod((s - b) / (a - b) for b in nodes if b != a) for a in nodes]


ARC_STEP = 0.02  # first pseudo-arclength step of the walk; a step grows to at most twice it
_NO_FOLD = "no fold found within 600 walk points (last lam=%g)"


def _walk(curve: _Curve) -> Iterator[Tuple[np.ndarray, float, float, np.ndarray, float]]:
    """The pseudo-arclength walk from (lam=0, w=0), which its consumer
    stops: yields each new point (w, lam), its secant's norm and the
    normalized secant (tau_w, tau_lam) into it, for at most 599 steps (600
    points with the start).  Secant tangents; a step whose corrector fails
    is halved.  `_Curve.norm` weighs dlam by sup f, so the arclength
    constraint takes sup f^2 tau_lam; where f vanishes on Omega, no fold."""
    if curve.sup_f == 0.0:
        raise StepFailure("f vanishes on Omega: no fold")
    w = np.zeros(curve.n)
    lam = 0.0
    # tangent at the trivial point: dw/dlam solves lap(dw) = -f
    dwdlam = solve_banded(curve.Lb, -curve.f)
    nrm = curve.norm(dwdlam, 1.0)
    tau_w, tau_lam = dwdlam / nrm, 1.0 / nrm
    step = ARC_STEP
    for _ in range(599):
        ok = None
        while step > 1e-12:
            pred_w = w + step * tau_w
            pred_lam = lam + step * tau_lam
            ok = curve.correct(pred_w, pred_lam, tau_w, curve.sup_f**2 * tau_lam, w, lam, step, max_steps=14)
            if ok is not None:
                break
            step *= 0.5
        if ok is None:
            raise StepFailure("continuation stalled at lam=%g" % lam)
        new_w, new_lam = ok
        sec_w, sec_lam = new_w - w, new_lam - lam
        nrm = curve.norm(sec_w, sec_lam)
        tau_w, tau_lam = sec_w / nrm, sec_lam / nrm
        w, lam = new_w, new_lam
        yield w, lam, nrm, tau_w, tau_lam
        step = min(step * 1.3, 2.0 * ARC_STEP)


def _polished(curve: _Curve, w: np.ndarray, lam: float, start: np.ndarray) -> Fold:
    """Fold data of `_Curve.fold_polish` from the curve point (w, lam); the
    polish and the fold state's eigen solve are warm-started from `start`.
    A failed polish raises StepFailure."""
    polished = curve.fold_polish(w, lam, start)
    if polished is None:
        raise StepFailure("fold polish failed near lam=%g" % lam)
    return Fold(curve.mesh, *curve.state(*polished, start))


def continue_branch(profile: Profile, mesh: Mesh) -> SteadyBranch:
    """The solution curve from (lam=0, w=0), with mu1 at every state, walked
    until past the fold lam has dropped by a tenth of its maximum or
    ||w||_inf reaches 0.985.  Each state's eigen solve, about one inverse-
    iteration solve, starts from the Lagrange extrapolation of the last
    three eigenvectors in cumulative chord length (the sum of the secant
    norms; a halved step spaces the states unevenly in index).  The fold,
    `fold_state` at `lambda_star` with phi_star, is polished from
    states[fold_index], the last before it, and the secant into the next.
    A stalled walk or a failed polish raises StepFailure."""
    curve = _Curve(profile, mesh)
    w, lam = np.zeros(curve.n), 0.0
    state, phi = curve.state(w, lam, None)
    states = [state]
    # (cumulative chord length, eigenvector) of the last three states
    past = [(0.0, curve.restrict(phi))]
    top = None  # (index, w, lam, secant) at the fold
    for new_w, new_lam, nrm, tau_w, tau_lam in _walk(curve):
        chord = past[-1][0] + nrm
        weights = _lagrange_weights([t for t, _ in past], chord)
        # elementwise, in one buffer: np.dot(weights, rows), a BLAS
        # matrix-vector product, alone raised peak RSS by 128 KB
        start = weights[0] * past[0][1]
        for c, (_, phi) in zip(weights[1:], past[1:]):
            start += c * phi
        state, phi = curve.state(new_w, new_lam, start)
        states.append(state)
        past = past[-2:] + [(chord, curve.restrict(phi))]
        if top is None and tau_lam < 0.0:
            top = (len(states) - 2, w, lam, tau_w)
        w, lam = new_w, new_lam
        if top is not None and (lam <= 0.9 * max(s.lam for s in states) or state.sup_w >= 0.985):
            break
    if top is None:
        raise StepFailure(_NO_FOLD % lam)
    del past, phi, start  # the eigenvector history is not held through the polish
    fold = _polished(curve, *top[1:])
    return SteadyBranch(**vars(fold), states=tuple(states), fold_index=top[0])


# node count of the walk behind `locate_fold` on meshes finer than
# FULL_WALK_NODES; below about 600 nodes the walk on the mesh itself costs less
COARSE_NODES = 401
FULL_WALK_NODES = 600


def locate_fold(profile: Profile, mesh: Mesh) -> Fold:
    """The fold of `continue_branch`, from a walk without states.

    Up to FULL_WALK_NODES nodes the branch is walked on `mesh` up to the
    first point past the fold, and polished from the same point and start
    vector as in `continue_branch`, so the fold is bitwise that of
    `continue_branch`.  On a finer mesh the fold is first located so on
    COARSE_NODES nodes (nested iteration): the coarse w* and phi*,
    interpolated onto `mesh`, start one `_Curve.fold_polish` at the coarse
    lambda_star, which lands on the same discrete fold as the full walk's
    polish.  If that polish fails, the walk runs on `mesh` itself.  A
    failed coarse walk raises as `continue_branch` does.
    """
    def walked(on: Mesh) -> Fold:
        curve = _Curve(profile, on)
        w, lam = np.zeros(curve.n), 0.0
        for new_w, new_lam, _, tau_w, tau_lam in _walk(curve):
            if tau_lam < 0.0:
                break
            w, lam = new_w, new_lam
        else:
            raise StepFailure(_NO_FOLD % lam)
        return _polished(curve, w, lam, tau_w)

    if mesh.node_count <= FULL_WALK_NODES:
        return walked(mesh)
    coarse = walked(build_mesh(mesh.geometry, COARSE_NODES))
    x, xc = mesh.nodes, coarse.mesh.nodes
    curve = _Curve(profile, mesh)
    start = curve.restrict(np.interp(x, xc, coarse.phi_star))
    try:
        return _polished(curve, curve.restrict(np.interp(x, xc, coarse.w_star)), coarse.lambda_star, start)
    except StepFailure:  # the polish failed: walk the mesh itself
        return walked(mesh)


def states_to_csv(states, path) -> None:
    """(lambda, sup_w, mu1) rows, one per state."""
    rows = [(s.lam, s.sup_w, s.mu1) for s in states]
    csvio.write_rows(path, "lambda,sup_w,mu1", rows)


def branch_to_csv(branch: SteadyBranch, path) -> None:
    states_to_csv(branch.states, path)
