"""Analytic touchdown-time and touchdown-location estimates.

Every estimate is assembled from computed steady data (fold value
lambda_star, extremal state w*, eigenfunctions phi*/psi*) and profile
metadata (sup f, inf f, Holder constant K).  Nothing here integrates in
time; measured touchdown times enter only for the ordering checks in
`evaluate_all`.

Field and column names ending in _1_2, _2_6, _1_7 are interface tokens
identifying the individual estimates; they carry no meaning beyond
telling the bounds apart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Dict, Optional, Tuple

import numpy as np

# build_mesh is unused here but stays a module attribute: perfbench/tracing.py wraps it
from .mesh import Field, Mesh, RadialBall, Slab, build_mesh, integrate  # noqa: F401
from .profiles import Profile, evaluate, holder_constant
from .steady import SteadyBranch

__all__ = [
    "NotApplicable",
    "DomainError",
    "BoundIngredients",
    "LargeLambdaBounds",
    "LocationCheck",
    "BoundsReport",
    "dirichlet_eigenvalue_ball",
    "bound_gg2",
    "bound_lower_TL",
    "bound_upper_T1",
    "blowup_time_F",
    "large_lambda_bounds",
    "location_bound_check",
    "evaluate_all",
    "ingredients",
    "bounds_report_to_dict",
]

_VANISH_TOL = 1e-12


class NotApplicable(ValueError):
    """The estimate's hypotheses fail for this profile/mesh."""


class DomainError(ValueError):
    """Parameter outside the estimate's stated range."""


@dataclass(frozen=True)
class BoundIngredients:
    sup_phi_star: float
    sup_weight: float
    integral_phi: float
    I1_26: float
    J_26: float
    E0: float
    I2_26: float
    M: float
    K: float
    D_N: float
    epsilon_of_lambda: float
    delta_of_lambda: float


@dataclass(frozen=True)
class LargeLambdaBounds:
    lower: float
    upper: Optional[float]
    epsilon: float
    delta: float
    lambda0_indicator: bool
    gap_exponent: float
    gap_coefficient: float


@dataclass(frozen=True)
class LocationCheck:
    lhs: Tuple[float, ...]
    exponent_target: float


@dataclass(frozen=True)
class BoundsReport:
    lam: float
    lambda_star: float
    bound_1_2: Optional[float]
    T_L: Optional[float]
    T1_simplified: Optional[float]
    T1_arctan: Optional[float]
    large_lambda_lower: float
    large_lambda_upper: Optional[float]
    epsilon: float
    delta: float
    location_exponent: Optional[float]
    location_lhs: Tuple[float, ...]
    flags: Dict[str, str]
    T_measured: Optional[float]
    ordering_lower_pass: Optional[bool]
    ordering_upper_pass: Optional[bool]


# ---------------------------------------------------------------------------
# ground Dirichlet eigenvalue of the unit ball


@functools.lru_cache(maxsize=None)
def dirichlet_eigenvalue_ball(dimension: int) -> float:
    """First eigenvalue of -lap on the unit ball (unit interval for N=1).

    It is j^2, with j the first positive zero of the Bessel function J_nu,
    nu = N/2 - 1; for N=1 that is (pi/2)^2 exactly.  On x > 0, J_nu(x) has
    the sign of S(x) = sum_k (-x^2/4)^k / (k! (nu+1)_k).  S is summed in
    decimal arithmetic with enough digits for its cancellation (its terms
    grow to about e^x), and j is bisected to the last float bit.  The
    value depends on the dimension alone and is cached per dimension.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if dimension == 1:
        return math.pi**2 / 4.0
    nu = Decimal(dimension - 2) / 2

    def positive(x: float) -> bool:
        with localcontext() as ctx:
            ctx.prec = 60 + int(x)
            q = -Decimal(x) ** 2 / 4
            term = total = Decimal(1)
            k = 0
            while k <= x or abs(term) > Decimal("1e-50"):
                k += 1
                term *= q / (k * (k + nu))
                total += term
            return total > 0

    # J_nu > 0 on (0, j) and j > nu; zeros are more than pi apart
    lo = float(nu)
    hi = lo + 0.5
    while positive(hi):
        lo, hi = hi, hi + 0.5
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if positive(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid * mid


# ---------------------------------------------------------------------------
# individual estimates


def bound_gg2(lam: float, lambda_star: float, inf_f: float) -> float:
    """Early upper estimate for the touchdown time, valid for inf f > 0."""
    if inf_f <= _VANISH_TOL:
        raise NotApplicable("requires inf f > 0")
    if lam <= lambda_star:
        raise DomainError("requires lam > lambda_star")
    lead = 8.0 * (lam + lambda_star) ** 2 / (
        3.0 * inf_f * (lam - lambda_star) ** 2 * (lam + 3.0 * lambda_star)
    )
    root = math.sqrt((lam + 3.0 * lambda_star) / (2.0 * lam + 2.0 * lambda_star))
    return lead * (1.0 + root)


def _check_regular(mesh: Mesh, allow_singular: bool) -> None:
    if isinstance(mesh.geometry, RadialBall) and mesh.geometry.dimension >= 8:
        if not allow_singular:
            raise NotApplicable(
                "extremal state is singular in dimension >= 8; pass allow_singular to force"
            )


def bound_lower_TL(
    lam: float, branch: SteadyBranch, profile: Profile, allow_singular: bool = False
) -> float:
    """Lower touchdown-time estimate from the fold eigenfunction."""
    star = branch.lambda_star
    if lam <= star:
        raise DomainError("requires lam > lambda_star")
    mesh = branch.w_star.mesh
    _check_regular(mesh, allow_singular)
    phi = branch.phi_star.values
    wstar = branch.w_star.values
    f = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    gap = 1.0 - wstar
    sup_phi = float(phi.max())
    sup_weight = float((f / gap**4).max())
    integral_phi = float(integrate(Field(mesh, phi / gap**2)))
    inner = sup_phi / (12.0 * star * sup_weight * integral_phi)
    return math.sqrt(inner) / math.sqrt(lam - star)


def _psi_integrals(branch: SteadyBranch, profile: Profile):
    mesh = branch.w_star.mesh
    psi = branch.psi_star.values
    f = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    I1 = float(integrate(Field(mesh, psi * f)))
    vanishing = (f <= _VANISH_TOL) & (psi > _VANISH_TOL)
    if np.any(vanishing):
        raise NotApplicable("profile vanishes at a node carrying eigenfunction mass")
    ratio = np.where(f > _VANISH_TOL, psi / np.where(f > _VANISH_TOL, f, 1.0), 0.0)
    J = float(integrate(Field(mesh, ratio)))
    return I1, J


def bound_upper_T1(
    lam: float, branch: SteadyBranch, profile: Profile, form: str = "arctan"
) -> float:
    """Upper touchdown-time estimate from the mass-weighted fold data.

    The `simplified` form bounds the `arctan` form from above; both decay
    like (lam - lambda_star)^(-1/2).
    """
    if form not in ("simplified", "arctan"):
        raise ValueError("form must be 'simplified' or 'arctan'")
    star = branch.lambda_star
    if lam <= star:
        raise DomainError("requires lam > lambda_star")
    _check_regular(branch.w_star.mesh, allow_singular=False)
    I1, J = _psi_integrals(branch, profile)
    if form == "simplified":
        return math.sqrt(3.0) * math.pi / 4.0 * math.sqrt(J / (star * I1)) / math.sqrt(lam - star)
    I2 = 3.0 * star / J
    x = lam - star
    return (math.pi / 4.0 + math.atan(math.sqrt(I2 / (x * I1)))) / math.sqrt(x * I1 * I2)


def blowup_time_F(a: float, b: float, E0: float) -> float:
    """Exact blow-up time of F' = a + b F^2 started at F(0) = -E0."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not (0.0 <= E0 < 1.0):
        raise ValueError("E0 must lie in [0, 1)")
    return (math.pi / 2.0 + math.atan(E0 * math.sqrt(b / a))) / math.sqrt(a * b)


def _sampled_sup(profile: Profile, sample_count: int) -> float:
    lo, hi = profile.domain()
    if np.isfinite(lo) and np.isfinite(hi):
        xs = np.linspace(lo, hi, int(sample_count))
    else:
        xs = np.zeros(1)  # domain marker for "defined everywhere": constant value
    return float(np.max(evaluate(profile, xs)))


def large_lambda_bounds(
    lam: float,
    profile: Profile,
    alpha: float,
    dimension: int,
    K: Optional[float] = None,
    sample_count: int = 4001,
) -> LargeLambdaBounds:
    """Sandwich 1/(3 lam sup f) <= T <= 1/(3 lam (sup f - eps(lam))).

    eps(lam) = 2 D^(a/(2+a)) K^(2/(2+a)) / lam^(a/(2+a)) with D the unit-ball
    ground eigenvalue and K the Holder constant; delta = (eps/2K)^(1/a).
    A constant profile has K = 0 and the sandwich collapses (eps = 0).
    The asymptotic width is gap_coefficient * lam^gap_exponent.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if K is None:
        K = holder_constant(profile, alpha, sample_count)
    sup_f = _sampled_sup(profile, sample_count)
    lower = 1.0 / (3.0 * lam * sup_f)
    D = dirichlet_eigenvalue_ball(dimension)
    if K <= 0.0:
        return LargeLambdaBounds(
            lower=lower,
            upper=lower,
            epsilon=0.0,
            delta=math.inf,
            lambda0_indicator=True,
            gap_exponent=-(2.0 + 2.0 * alpha) / (2.0 + alpha),
            gap_coefficient=0.0,
        )
    frac = alpha / (2.0 + alpha)
    eps = 2.0 * D**frac * K ** (2.0 / (2.0 + alpha)) / lam**frac
    delta = (eps / (2.0 * K)) ** (1.0 / alpha) if alpha > 0 else math.inf
    coeff = 2.0 * D**frac * K ** (2.0 / (2.0 + alpha)) / (3.0 * sup_f**2)
    if sup_f - eps > 0:
        upper = 1.0 / (3.0 * lam * (sup_f - eps))
        return LargeLambdaBounds(
            lower, upper, eps, delta, True, -(2.0 + 2.0 * alpha) / (2.0 + alpha), coeff
        )
    return LargeLambdaBounds(
        lower, None, eps, delta, False, -(2.0 + 2.0 * alpha) / (2.0 + alpha), coeff
    )


def location_bound_check(quench_report, profile: Profile, lam: float, alpha: float) -> LocationCheck:
    """(sup f)^(1/3) - f(a)^(1/3) per touchdown point, plus the decay target.

    Only the decay exponent alpha/(2+alpha) is certified; no prefactor is
    invented.
    """
    if not quench_report.quench_set:
        raise ValueError("empty touchdown set")
    sup_f = _sampled_sup(profile, 4001)
    lhs = tuple(
        float(sup_f ** (1.0 / 3.0) - float(evaluate(profile, a)) ** (1.0 / 3.0))
        for a in quench_report.quench_set
    )
    return LocationCheck(lhs=lhs, exponent_target=alpha / (2.0 + alpha))


def ingredients(
    branch: SteadyBranch,
    profile: Profile,
    lam: float,
    alpha: float,
    dimension: int,
    K: Optional[float] = None,
) -> BoundIngredients:
    """All aggregate constants entering the estimates, at one lam."""
    mesh = branch.w_star.mesh
    f = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    wstar = branch.w_star.values
    gap = 1.0 - wstar
    phi = branch.phi_star.values
    psi = branch.psi_star.values
    I1, J = _psi_integrals(branch, profile)
    if K is None:
        K = holder_constant(profile, alpha, max(mesh.node_count, 2001))
    ll = large_lambda_bounds(lam, profile, alpha, dimension, K=K)
    return BoundIngredients(
        sup_phi_star=float(phi.max()),
        sup_weight=float((f / gap**4).max()),
        integral_phi=float(integrate(Field(mesh, phi / gap**2))),
        I1_26=I1,
        J_26=J,
        E0=float(integrate(Field(mesh, psi * wstar))),
        I2_26=3.0 * branch.lambda_star / J,
        M=float(f.max()),
        K=float(K),
        D_N=dirichlet_eigenvalue_ball(dimension),
        epsilon_of_lambda=ll.epsilon,
        delta_of_lambda=ll.delta,
    )


def _mesh_dimension(mesh: Mesh) -> int:
    if isinstance(mesh.geometry, Slab):
        return 1
    return mesh.geometry.dimension


def evaluate_all(
    lam: float,
    branch: SteadyBranch,
    profile: Profile,
    mesh: Mesh,
    quench_report=None,
    allow_singular: bool = False,
    ordering_slack: float = 0.01,
) -> BoundsReport:
    """Evaluate every estimate, flagging the inapplicable ones with reasons.

    When a measured report is supplied, the lower/upper ordering against
    the measured T is recorded with `ordering_slack` relative tolerance.
    """
    star = branch.lambda_star
    flags: Dict[str, str] = {}
    dimension = _mesh_dimension(mesh)
    alpha = profile.holder_exponent

    f_nodes = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    inf_f = float(f_nodes.min())

    T_measured = None
    if quench_report is not None and quench_report.quenched:
        T_measured = quench_report.T

    below_fold = lam <= star
    if below_fold:
        reason = "no finite touchdown below the fold value"
        flags.update(
            {"bound_1_2": reason, "T_L": reason, "T1": reason, "large_lambda_upper": reason}
        )
        ll = large_lambda_bounds(lam, profile, alpha, dimension)
        return BoundsReport(
            lam=lam,
            lambda_star=star,
            bound_1_2=None,
            T_L=None,
            T1_simplified=None,
            T1_arctan=None,
            large_lambda_lower=ll.lower,
            large_lambda_upper=None,
            epsilon=ll.epsilon,
            delta=ll.delta,
            location_exponent=None,
            location_lhs=(),
            flags=flags,
            T_measured=T_measured,
            ordering_lower_pass=None,
            ordering_upper_pass=None,
        )

    b12 = None
    try:
        b12 = bound_gg2(lam, star, inf_f)
        flags["bound_1_2"] = "ok"
    except NotApplicable as exc:
        flags["bound_1_2"] = str(exc)

    TL = None
    try:
        TL = bound_lower_TL(lam, branch, profile, allow_singular=allow_singular)
        flags["T_L"] = "ok"
    except NotApplicable as exc:
        flags["T_L"] = str(exc)

    T1s = T1a = None
    try:
        T1s = bound_upper_T1(lam, branch, profile, form="simplified")
        T1a = bound_upper_T1(lam, branch, profile, form="arctan")
        flags["T1"] = "ok"
    except NotApplicable as exc:
        flags["T1"] = str(exc)

    ll = large_lambda_bounds(lam, profile, alpha, dimension)
    flags["large_lambda_upper"] = "ok" if ll.upper is not None else "eps exceeds sup f at this lam"

    loc_exp = None
    loc_lhs: Tuple[float, ...] = ()
    if quench_report is not None and quench_report.quenched and quench_report.quench_set:
        check = location_bound_check(quench_report, profile, lam, alpha)
        loc_exp = check.exponent_target
        loc_lhs = check.lhs

    lower_ok = upper_ok = None
    if T_measured is not None:
        lowers = [ll.lower] + ([TL] if TL is not None else [])
        lower_ok = all(v <= T_measured * (1.0 + ordering_slack) for v in lowers)
        # the large-lambda upper self-qualifies (it defines lambda0 as the
        # first lam where it brackets T), so it stays out of the pass/fail
        # chain and is reported through its own flag instead
        uppers = [v for v in (b12, T1a, T1s) if v is not None]
        if uppers:
            upper_ok = T_measured <= min(uppers) * (1.0 + ordering_slack)
        if ll.upper is None:
            flags["large_lambda_sandwich"] = "upper not applicable at this lam"
        elif (
            ll.lower <= T_measured * (1.0 + ordering_slack)
            and T_measured <= ll.upper * (1.0 + ordering_slack)
        ):
            flags["large_lambda_sandwich"] = "holds (lam >= lambda0)"
        else:
            flags["large_lambda_sandwich"] = "below lambda0"

    return BoundsReport(
        lam=lam,
        lambda_star=star,
        bound_1_2=b12,
        T_L=TL,
        T1_simplified=T1s,
        T1_arctan=T1a,
        large_lambda_lower=ll.lower,
        large_lambda_upper=ll.upper,
        epsilon=ll.epsilon,
        delta=ll.delta,
        location_exponent=loc_exp,
        location_lhs=loc_lhs,
        flags=flags,
        T_measured=T_measured,
        ordering_lower_pass=lower_ok,
        ordering_upper_pass=upper_ok,
    )


def bounds_report_to_dict(report: BoundsReport) -> dict:
    return {
        "lambda": report.lam,
        "lambda_star": report.lambda_star,
        "bound_1_2": report.bound_1_2,
        "T_L": report.T_L,
        "T1_simplified": report.T1_simplified,
        "T1_arctan": report.T1_arctan,
        "large_lambda_lower": report.large_lambda_lower,
        "large_lambda_upper": report.large_lambda_upper,
        "epsilon": report.epsilon,
        "delta": report.delta,
        "location_exponent": report.location_exponent,
        "location_lhs": list(report.location_lhs),
        "flags": dict(report.flags),
        "T_measured": report.T_measured,
        "ordering_lower_pass": report.ordering_lower_pass,
        "ordering_upper_pass": report.ordering_upper_pass,
    }
