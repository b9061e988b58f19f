"""Steady states of the forced membrane problem and their fold structure.

The steady equation is

    -lap(w) = lam * f(x) / (1 - w)^2,   w = 0 on the boundary,

with 0 <= w < 1.  For lam below the fold value lam_star there is a
minimal solution reachable by damped Newton from the zero field; the
branch of minimal solutions turns around at lam_star (the pull-in
threshold), where the first eigenvalue mu_1 of the linearization

    -lap(phi) - 2 lam f / (1 - w)^3 phi = mu phi

crosses zero.  `continue_branch` traces the curve with pseudo-arclength
steps and locates the fold once, by Newton on the extended system
{G = 0, G_w phi = 0, phi pinned} (Moore & Spence 1980) started from the
walk's largest-lam point.  That lands on the discrete fold, whose lam is
O(h^2) from the continuum lam_star.  Each state's mu_1 comes from inverse
iteration warm-started from the previous state's eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

from . import csvio
from .mesh import Field, Mesh, bands_matvec, integrate, laplacian_bands
from .profiles import Profile, evaluate

__all__ = [
    "SteadyState",
    "SteadyBranch",
    "Eigenpair",
    "SingularExtremal",
    "NonConvergence",
    "StepFailure",
    "IterationLimit",
    "OutOfRange",
    "solve_minimal",
    "continue_branch",
    "linearized_eigenpair",
    "singular_extremal_radial",
    "branch_to_csv",
    "states_to_csv",
]


class NonConvergence(RuntimeError):
    """Solver failed below the fold estimate; indicates a bug, not physics."""


class StepFailure(RuntimeError):
    """Continuation stalled; `last_state` holds the last good point."""

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class IterationLimit(RuntimeError):
    """Eigenvalue iteration failed to reach the residual target."""


class OutOfRange(ValueError):
    """Requested parameters outside the closed-form regime."""


@dataclass(frozen=True)
class SteadyState:
    lam: float
    w: Field
    residual_norm: float
    mu1: Optional[float] = None

    @property
    def sup_w(self) -> float:
        return float(self.w.values.max())


@dataclass(frozen=True)
class Eigenpair:
    eigenvalue: float
    eigenfunction: Field
    normalization: str
    residual: float


@dataclass(frozen=True)
class SteadyBranch:
    """Continuation record: traversal states plus fold data."""

    states: Tuple[SteadyState, ...]
    fold_state: SteadyState
    lambda_star: float
    w_star: Field
    phi_star: Field
    psi_star: Field
    fold_index: int

    def minimal_states(self) -> Tuple[SteadyState, ...]:
        """The pre-fold (stable, minimal-solution) portion of the traversal."""
        return self.states[: self.fold_index + 1]


def _interior_forcing(profile: Profile, mesh: Mesh) -> np.ndarray:
    return np.asarray(evaluate(profile, mesh.nodes[mesh.unknown_slice]), dtype=float)


def _embed(mesh: Mesh, interior: np.ndarray) -> Field:
    full = np.zeros(mesh.node_count)
    full[mesh.unknown_slice] = interior
    return Field(mesh, full)


def _residual(Lb: np.ndarray, w: np.ndarray, lam: float, f: np.ndarray) -> np.ndarray:
    return bands_matvec(Lb, w) + lam * f / (1.0 - w) ** 2


def _bands_opnorm(ab: np.ndarray) -> float:
    return float(np.max(np.abs(ab[1])) + 2.0 * np.max(np.abs(ab[(0, 2), :])))


def solve_minimal(
    lam: float,
    profile: Profile,
    mesh: Mesh,
    w0: Optional[np.ndarray] = None,
    fold_estimate: Optional[float] = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    compute_mu1: bool = True,
) -> Optional[SteadyState]:
    """Minimal steady state by damped Newton from the zero field.

    Returns None when Newton fails after damping restarts (no solution:
    lam beyond the fold, up to discretization).  If a fold_estimate is
    supplied and lam lies below it, failure raises NonConvergence
    instead, since a solution should have existed.

    The residual target is tol or the roundoff floor of the second
    difference operator, whichever is larger; on fine meshes the floor
    eps/h^2 dominates any fixed tolerance.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    Lb = laplacian_bands(mesh)
    f = _interior_forcing(profile, mesh)
    w = np.zeros(Lb.shape[1]) if w0 is None else np.array(w0, dtype=float)
    tol_eff = max(tol, 30.0 * np.finfo(float).eps * _bands_opnorm(Lb))

    converged = False
    if lam == 0.0:
        w[:] = 0.0
        converged = True
    else:
        res = _residual(Lb, w, lam, f)
        rnorm = float(np.max(np.abs(res)))
        for _ in range(max_iter):
            if rnorm <= tol_eff:
                break
            Jb = Lb.copy()
            Jb[1] += 2.0 * lam * f / (1.0 - w) ** 3
            try:
                delta = solve_banded((1, 1), Jb, -res)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(delta)):
                break
            theta = 1.0
            accepted = False
            while theta > 1e-10:
                trial = w + theta * delta
                if trial.max() < 1.0 - 1e-12 and trial.min() > -1e-9:
                    tres = _residual(Lb, trial, lam, f)
                    tnorm = float(np.max(np.abs(tres)))
                    if np.isfinite(tnorm) and tnorm < rnorm:
                        w, res, rnorm = trial, tres, tnorm
                        accepted = True
                        break
                theta *= 0.5
            if not accepted:
                break
        converged = rnorm <= tol_eff

    if not converged:
        if fold_estimate is not None and lam <= fold_estimate:
            raise NonConvergence(
                "Newton failed at lam=%g below the fold estimate %g" % (lam, fold_estimate)
            )
        return None

    w = np.where((w > -1e-12) & (w < 0.0), 0.0, w)  # scrub roundoff negatives
    field = _embed(mesh, w)
    rnorm = float(np.max(np.abs(_residual(Lb, w, lam, f))))
    state = SteadyState(lam=float(lam), w=field, residual_norm=rnorm, mu1=None)
    if compute_mu1:
        pair = linearized_eigenpair(state, profile)
        state = SteadyState(lam=float(lam), w=field, residual_norm=rnorm, mu1=pair.eigenvalue)
    return state


def _rayleigh(ab: np.ndarray, weights: np.ndarray, v: np.ndarray) -> Tuple[float, float]:
    """Weighted Rayleigh quotient of v and the sup-norm of its residual."""
    av = bands_matvec(ab, v)
    wv = weights * v
    mu = float(np.dot(wv, av) / np.dot(wv, v))
    return mu, float(np.max(np.abs(av - mu * v)))


def _shift(mu: float, res: float) -> float:
    """Inverse-iteration shift 10 residuals below a Rayleigh quotient."""
    return mu - 10.0 * res - 1e-9 * max(1.0, abs(mu))


def _inverse_iteration(ab, weights, v, sigma, stop, max_iter):
    """Shifted inverse iteration from v; returns (best residual, (mu, v)) or
    (inf, None).  The shift follows the Rayleigh quotient from the second
    iterate on."""
    best_res = np.inf
    best: Tuple[float, np.ndarray] | None = None
    stale = 0
    for it in range(max_iter):
        shifted = ab.copy()
        shifted[1] -= sigma
        try:
            y = solve_banded((1, 1), shifted, v)
        except np.linalg.LinAlgError:
            sigma -= max(1.0, abs(sigma)) * 1e-8
            continue
        if not np.all(np.isfinite(y)):
            sigma -= max(1.0, abs(sigma)) * 1e-8
            continue
        peak = int(np.argmax(np.abs(y)))
        v = y / y[peak]
        mu, res = _rayleigh(ab, weights, v)
        if res < best_res:
            best_res, best = res, (mu, v.copy())
            stale = 0
        else:
            stale += 1
        if best_res <= stop(mu) or stale >= 6:
            break
        if it >= 1:
            sigma = _shift(mu, res)
    return best_res, best


def smallest_eigenvalue_bands(
    ab: np.ndarray,
    weights: np.ndarray,
    rtol: float = 1e-9,
    max_iter: int = 400,
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
    floor = 50.0 * np.finfo(float).eps * anorm

    def stop(mu):
        return max(rtol * max(1.0, abs(mu)) * 1e-1, floor)

    def target(mu):
        return max(1e-8 * max(1.0, abs(mu)), 2.0 * floor)

    if start is not None:
        v = np.asarray(start, dtype=float) / np.max(np.abs(start))
        sigma = _shift(*_rayleigh(ab, weights, v))
        best_res, best = _inverse_iteration(ab, weights, v, sigma, stop, max_iter)
        if best is not None and best_res <= target(best[0]) and best[1].min() >= -1e-8:
            return best[0], best[1], best_res

    sigma = float(np.min(ab[1] - radius)) - 1.0
    best_res, best = _inverse_iteration(ab, weights, np.ones(n), sigma, stop, max_iter)
    if best is None:
        raise IterationLimit("inverse iteration produced no usable vector")
    mu, v = best
    if best_res > target(mu):
        raise IterationLimit(
            "eigen-residual %.3e above target %.3e after %d iterations"
            % (best_res, target(mu), max_iter)
        )
    return mu, v, best_res


def linearized_eigenpair(
    state: SteadyState,
    profile: Profile,
    which: str = "first",
    normalization: str = "L2",
    start: Optional[np.ndarray] = None,
) -> Eigenpair:
    """First eigenpair of -lap - 2 lam f/(1-w)^3 with zero Dirichlet data.

    `start` (interior values) warm-starts the eigen solve; see
    `smallest_eigenvalue_bands`.
    """
    if which != "first":
        raise ValueError("only the first eigenpair is supported")
    if normalization not in ("L2", "L1"):
        raise ValueError("normalization must be L2 or L1")
    mesh = state.w.mesh
    wi = state.w.values[mesh.unknown_slice]
    if (1.0 - wi).min() < 1e-9:
        raise ValueError("state touches the obstacle; linearization undefined")
    f = _interior_forcing(profile, mesh)
    ab = -laplacian_bands(mesh)
    ab[1] -= 2.0 * state.lam * f / (1.0 - wi) ** 3
    wq = mesh.weights[mesh.unknown_slice]
    mu, v, res = smallest_eigenvalue_bands(ab, wq, start=start)
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    full = _embed(mesh, v)
    if normalization == "L2":
        scale = np.sqrt(integrate(Field(mesh, full.values**2)))
    else:
        scale = integrate(full)
    if scale <= 0:
        raise IterationLimit("eigenfunction normalization degenerate")
    return Eigenpair(
        eigenvalue=float(mu),
        eigenfunction=Field(mesh, full.values / scale),
        normalization=normalization,
        residual=float(res),
    )


# ---------------------------------------------------------------------------
# pseudo-arclength continuation


class _Curve:
    """Residual/corrector kit for the (w, lam) solution curve."""

    def __init__(self, profile: Profile, mesh: Mesh):
        self.mesh = mesh
        self.profile = profile
        self.Lb = laplacian_bands(mesh)
        self.f = _interior_forcing(profile, mesh)
        self.wq = mesh.weights[mesh.unknown_slice].copy()
        self.n = self.Lb.shape[1]
        # residual sup-norms below the operator's roundoff floor are noise
        self.res_floor = 30.0 * np.finfo(float).eps * _bands_opnorm(self.Lb)
        # eigenpair of the last state made; its vector warm-starts the next
        self.pair: Optional[Eigenpair] = None

    def _warm_start(self) -> Optional[np.ndarray]:
        if self.pair is None:
            return None
        return self.pair.eigenfunction.values[self.mesh.unknown_slice]

    def correct(self, w, lam, tau_w, tau_lam, base_w, base_lam, ds, tol=1e-10):
        """Newton on the bordered system {G = 0, arclength constraint}."""
        w = np.array(w, dtype=float)
        lam = float(lam)
        tol_eff = max(tol, self.res_floor)
        for _ in range(14):
            gap = 1.0 - w
            if gap.min() <= 1e-12:
                return None
            R = bands_matvec(self.Lb, w) + lam * self.f / gap**2
            Ncon = float(np.dot(self.wq, tau_w * (w - base_w)) + tau_lam * (lam - base_lam) - ds)
            if np.max(np.abs(R)) <= tol_eff and abs(Ncon) <= 1e-11 * max(1.0, abs(ds)):
                return w, lam
            Jb = self.Lb.copy()
            Jb[1] += 2.0 * lam * self.f / gap**3
            glam = self.f / gap**2
            try:
                ab = solve_banded((1, 1), Jb, np.column_stack((R, glam)))
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(ab)):
                return None
            a, b = ab[:, 0], ab[:, 1]
            denom = tau_lam - float(np.dot(self.wq, tau_w * b))
            if denom == 0.0:
                return None
            dlam = (float(np.dot(self.wq, tau_w * a)) - Ncon) / denom
            dw = -a - dlam * b
            theta = 1.0
            while theta > 1e-12 and (w + theta * dw).max() >= 1.0 - 1e-12:
                theta *= 0.5
            if theta <= 1e-12:
                return None
            w = w + theta * dw
            lam = lam + theta * dlam
        return None

    def norm(self, dw, dlam):
        return float(np.sqrt(np.dot(self.wq, dw**2) + dlam**2))

    def fold_polish(self, w, lam, max_iter=8):
        """Newton on the extended fold system.

        Unknowns (w, phi, lam); equations G(w,lam)=0, G_w(w,lam) phi=0,
        phi pinned to 1 at its peak node.  The extended Jacobian is
        regular at a quadratic fold even though G_w itself is singular
        there, so the iteration sharpens a nearby curve point into the
        fold.  Returns (w, lam), or None when Newton leaves the curve's
        neighbourhood or ends off the residual target.
        """
        w = np.array(w, dtype=float)
        lam = float(lam)
        ab = -self.Lb.copy()
        ab[1] -= 2.0 * lam * self.f / (1.0 - w) ** 3
        try:
            _, phi, _ = smallest_eigenvalue_bands(ab, self.wq, start=self._warm_start())
        except IterationLimit:
            return None
        i0 = int(np.argmax(np.abs(phi)))
        if phi[i0] < 0:
            phi = -phi
        lam0 = lam
        for _ in range(max_iter):
            gap = 1.0 - w
            if gap.min() <= 1e-12 or not 0.2 * lam0 <= lam <= 5.0 * lam0:
                return None
            G = bands_matvec(self.Lb, w) + lam * self.f / gap**2
            Jb = self.Lb.copy()
            Jb[1] += 2.0 * lam * self.f / gap**3
            H = bands_matvec(Jb, phi)
            if np.max(np.abs(G)) <= self.res_floor and np.max(np.abs(H)) <= 10.0 * self.res_floor:
                break
            glam = self.f / gap**2
            d1 = 6.0 * lam * self.f / gap**4 * phi
            d2 = 2.0 * self.f / gap**3 * phi
            try:
                u = solve_banded((1, 1), Jb, np.column_stack((-G, -glam)))
                u0, u1 = u[:, 0], u[:, 1]
                v = solve_banded((1, 1), Jb, np.column_stack((-H - d1 * u0, -(d1 * u1 + d2))))
                v0, v1 = v[:, 0], v[:, 1]
            except np.linalg.LinAlgError:
                return None
            if abs(v1[i0]) == 0.0:
                return None
            dlam = (1.0 - phi[i0] - v0[i0]) / v1[i0]
            dw = u0 + dlam * u1
            dphi = v0 + dlam * v1
            if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(dphi)) and np.isfinite(dlam)):
                return None
            if (w + dw).max() >= 1.0 - 1e-12:
                return None
            w = w + dw
            phi = phi + dphi
            lam = lam + dlam
        gap = 1.0 - w
        G = bands_matvec(self.Lb, w) + lam * self.f / gap**2
        if np.max(np.abs(G)) > max(1e-10, 10.0 * self.res_floor):
            return None
        return w, lam

    def state(self, w, lam) -> SteadyState:
        """The curve point as a SteadyState with mu1; keeps its eigenpair."""
        gap = 1.0 - w
        res = bands_matvec(self.Lb, w) + lam * self.f / gap**2
        field = _embed(self.mesh, np.where((w > -1e-12) & (w < 0.0), 0.0, w))
        st = SteadyState(lam=float(lam), w=field, residual_norm=float(np.max(np.abs(res))), mu1=None)
        self.pair = linearized_eigenpair(st, self.profile, start=self._warm_start())
        return SteadyState(lam=st.lam, w=st.w, residual_norm=st.residual_norm, mu1=self.pair.eigenvalue)


def continue_branch(
    profile: Profile,
    mesh: Mesh,
    ds: float = 0.02,
    max_points: int = 600,
    past_fold_drop: float = 0.1,
) -> SteadyBranch:
    """Trace the solution curve from (lam=0, w=0) past the fold.

    Stepping is pseudo-arclength with secant tangents and step halving on
    corrector failure; it stops once lam has dropped by `past_fold_drop`
    past its maximum or ||w||_inf reaches 0.985.  The fold is then found
    by `_Curve.fold_polish` from the traversal point of largest lam: the
    polished point is `fold_state`, its lam is `lambda_star`, and its
    eigenpair gives phi_star and psi_star.  A failed polish raises
    StepFailure.
    """
    if ds <= 0:
        raise ValueError("ds must be positive")
    curve = _Curve(profile, mesh)
    n = curve.n

    w = np.zeros(n)
    lam = 0.0
    states = [curve.state(w, lam)]

    # tangent at the trivial point: dw/dlam solves lap(dw) = -f
    dwdlam = solve_banded((1, 1), curve.Lb, -curve.f)
    nrm = curve.norm(dwdlam, 1.0)
    tau_w, tau_lam = dwdlam / nrm, 1.0 / nrm

    step = ds
    fold_seen = False
    last_w, last_lam = w, lam
    while len(states) < max_points:
        ok = None
        while step > 1e-12:
            pred_w = last_w + step * tau_w
            pred_lam = last_lam + step * tau_lam
            ok = curve.correct(pred_w, pred_lam, tau_w, tau_lam, last_w, last_lam, step)
            if ok is not None:
                break
            step *= 0.5
        if ok is None:
            raise StepFailure("continuation stalled at lam=%g" % last_lam, states[-1])
        new_w, new_lam = ok
        sec_w, sec_lam = new_w - last_w, new_lam - last_lam
        nrm = curve.norm(sec_w, sec_lam)
        new_tau_w, new_tau_lam = sec_w / nrm, sec_lam / nrm
        states.append(curve.state(new_w, new_lam))
        if new_tau_lam < 0.0:
            fold_seen = True
        last_w, last_lam = new_w, new_lam
        tau_w, tau_lam = new_tau_w, new_tau_lam
        step = min(step * 1.3, 2.0 * ds)
        if fold_seen:
            lam_max = max(s.lam for s in states)
            if new_lam <= (1.0 - past_fold_drop) * lam_max or states[-1].sup_w >= 0.985:
                break

    if not fold_seen:
        raise StepFailure("no fold found within max_points", states[-1])

    fold_index = int(np.argmax([s.lam for s in states]))
    top = states[fold_index]
    polished = curve.fold_polish(top.w.values[mesh.unknown_slice], top.lam)
    if polished is None:
        raise StepFailure("fold polish failed near lam=%g" % top.lam, states[-1])
    fold_state = curve.state(*polished)
    phi = curve.pair.eigenfunction  # L2-normalized
    # psi_star is phi_star rescaled to unit mass, nodewise
    psi_field = Field(mesh, phi.values / integrate(phi))
    return SteadyBranch(
        states=tuple(states),
        fold_state=fold_state,
        lambda_star=fold_state.lam,
        w_star=fold_state.w,
        phi_star=phi,
        psi_star=psi_field,
        fold_index=fold_index,
    )


def states_to_csv(states, path) -> None:
    """(lambda, sup_w, mu1) rows, one per state; a missing mu1 is written nan."""
    rows = [(s.lam, s.sup_w, s.mu1 if s.mu1 is not None else np.nan) for s in states]
    csvio.write_rows(path, "lambda,sup_w,mu1", rows)


def branch_to_csv(branch: SteadyBranch, path) -> None:
    states_to_csv(branch.states, path)


# ---------------------------------------------------------------------------
# singular extremal closed forms (high dimensions)


@dataclass(frozen=True)
class SingularExtremal:
    dimension: int
    alpha: float
    beta: float
    lambda_star: float
    alpha_max: float

    def w_star(self, mesh: Mesh) -> Field:
        r = mesh.nodes
        return Field(mesh, 1.0 - np.abs(r) ** self.beta)


def alpha_max(dimension: int) -> float:
    """Largest power-profile exponent for which the singular form is extremal."""
    N = dimension
    return (4.0 - 6.0 * N + 3.0 * np.sqrt(6.0) * (N - 2.0)) / 4.0


def singular_extremal_radial(dimension: int, alpha: float) -> SingularExtremal:
    """Closed-form singular extremal on the unit ball, dimensions >= 8.

    w*(r) = 1 - r^beta with beta = (2+alpha)/3, and the matching
    lam_star = beta (N + beta - 2); valid while alpha <= alpha_max(N).
    """
    if dimension < 8:
        raise OutOfRange("closed form requires dimension >= 8")
    if alpha < 0:
        raise OutOfRange("alpha must be nonnegative")
    amax = alpha_max(dimension)
    if alpha > amax:
        raise OutOfRange("alpha=%g exceeds alpha_max(%d)=%g" % (alpha, dimension, amax))
    beta = (2.0 + alpha) / 3.0
    lam = beta * (dimension + beta - 2.0)
    return SingularExtremal(
        dimension=dimension,
        alpha=float(alpha),
        beta=float(beta),
        lambda_star=float(lam),
        alpha_max=float(amax),
    )
