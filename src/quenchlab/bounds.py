"""Analytic touchdown-time and touchdown-location estimates.

A report holds two kinds of bound on T.  The large-lam sandwich
(`large_lambda_bounds`) is rigorous, from the profile's exact sup f and
Holder constant K over Omega: its lower is the flat-ODE time 1/(3 lam sup f).
The paper's stated estimates (`bound_gg2`, `bound_lower_TL`,
`bound_upper_T1`) need the fold constants (`ingredients`: fold value
lambda_star, extremal state w*, eigenfunctions phi*/psi* and f on the mesh),
which do not depend on lam.  The table `ESTIMATES` is the one place a paper
estimate is declared, with the side of T it bounds; a new estimate adds a
row.  `evaluate_all` is the one place that calls the estimates; it builds
the fold constants once per grid of lam, and blanks a paper estimate that
the sandwich refutes.
Nothing here integrates in time; a measured run enters only through
`_measured`, which sets a `BoundsReport` against it in a `MeasuredReport`.

Report field and column names ending in _1_2, _2_6, _1_7 are interface tokens
identifying the individual estimates; they carry no meaning beyond
telling the bounds apart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Dict, List, Optional, Sequence

import numpy as np

# build_mesh is unused here but stays a module attribute: perfbench/tracing.py wraps it
from .mesh import Mesh, build_mesh, integrate  # noqa: F401
from .dynamics import eta_quench_time
from .profiles import Profile, evaluate, holder_constant, supremum
from .steady import Fold

__all__ = [
    "NotApplicable",
    "DomainError",
    "ESTIMATES",
    "BoundIngredients",
    "LargeLambdaBounds",
    "BoundsReport",
    "MeasuredReport",
    "dirichlet_eigenvalue_ball",
    "bound_gg2",
    "bound_lower_TL",
    "bound_upper_T1",
    "blowup_time_F",
    "large_lambda_bounds",
    "evaluate_all",
    "ingredients",
]

_VANISH_TOL = 1e-12
# relative slack of the ordering checks against a measured touchdown time
_ORDERING_SLACK = 0.01


class NotApplicable(ValueError):
    """The estimate's hypotheses fail for this profile/mesh."""


class DomainError(ValueError):
    """Parameter outside the estimate's stated range."""


@dataclass(frozen=True)
class BoundIngredients:
    """Fold constants of the estimates (see the module docstring); J_26 and
    I2_26 are None when f vanishes at a node carrying psi* mass, and inf_f is
    the nodal minimum."""

    sup_phi_star: float
    sup_weight: float
    integral_phi: float
    I1_26: float
    J_26: Optional[float]
    E0: float
    I2_26: Optional[float]
    inf_f: float


@dataclass(frozen=True)
class LargeLambdaBounds:
    """The large-lam sandwich, with the exact sup f and K it is built from."""

    lower: float
    upper: Optional[float]
    epsilon: float
    delta: float
    gap_exponent: float
    gap_coefficient: float
    sup_f: float
    K: float


@dataclass(frozen=True)
class BoundsReport:
    """The estimates at one lam; `flags` gives each estimate's status, and
    flags `delta` where K = 0 leaves the localization radius unbounded."""

    lam: float
    lambda_star: Optional[float]
    bound_1_2: Optional[float]
    T_L: Optional[float]
    T1_simplified: Optional[float]
    T1_arctan: Optional[float]
    large_lambda_lower: float
    large_lambda_upper: Optional[float]
    epsilon: float
    delta: float
    flags: Dict[str, str]


@dataclass(frozen=True)
class MeasuredReport(BoundsReport):
    """The estimates against a measured run, each check with a 1 % relative
    slack; a field added here is None where the run failed or did not quench,
    `sandwich_pass` (lower <= T <= upper) where no upper is reported.
    `location_defect` is the largest (sup f)^(1/3) - f(a)^(1/3) over the
    touchdown set; only its decay exponent alpha/(2+alpha) is certified."""

    T_measured: Optional[float] = None
    location_defect: Optional[float] = None
    ordering_lower_pass: Optional[bool] = None
    ordering_upper_pass: Optional[bool] = None
    sandwich_pass: Optional[bool] = None


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


def bound_lower_TL(lam: float, lambda_star: float, ing: BoundIngredients) -> float:
    """Lower touchdown-time estimate from the fold eigenfunction phi*.

    The fold data are regular: where the branch ends singular,
    `steady.locate_fold` raises before any estimate is taken.
    """
    if lam <= lambda_star:
        raise DomainError("requires lam > lambda_star")
    inner = ing.sup_phi_star / (12.0 * lambda_star * ing.sup_weight * ing.integral_phi)
    return math.sqrt(inner) / math.sqrt(lam - lambda_star)


def bound_upper_T1(lam: float, lambda_star: float, ing: BoundIngredients, form: str = "arctan") -> float:
    """Upper touchdown-time estimate from the mass-weighted fold data.

    With I2 = 3 lambda_star/J and x = lam - lambda_star, `simplified` is
    (3 pi/4)/sqrt(x I1 I2), strictly above `arctan`, which has
    pi/4 + atan(sqrt(I2/(x I1))) < 3 pi/4 in its place, so it never decides
    an ordering check.  It stays as the paper's stated form, which the
    benchmark reads and ROADMAP item 21's page shows.
    """
    if form not in ("simplified", "arctan"):
        raise ValueError("form must be 'simplified' or 'arctan'")
    if lam <= lambda_star:
        raise DomainError("requires lam > lambda_star")
    if ing.J_26 is None:
        raise NotApplicable("profile vanishes at a node carrying eigenfunction mass")
    I1, J, I2 = ing.I1_26, ing.J_26, ing.I2_26
    x = lam - lambda_star
    if form == "simplified":
        return math.sqrt(3.0) * math.pi / 4.0 * math.sqrt(J / (lambda_star * I1)) / math.sqrt(x)
    return (math.pi / 4.0 + math.atan(math.sqrt(I2 / (x * I1)))) / math.sqrt(x * I1 * I2)


def blowup_time_F(a: float, b: float, E0: float) -> float:
    """Exact blow-up time of F' = a + b F^2 started at F(0) = -E0."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not (0.0 <= E0 < 1.0):
        raise ValueError("E0 must lie in [0, 1)")
    return (math.pi / 2.0 + math.atan(E0 * math.sqrt(b / a))) / math.sqrt(a * b)


def large_lambda_bounds(lam: float, profile: Profile, mesh: Mesh) -> LargeLambdaBounds:
    """Sandwich 1/(3 lam sup f) <= T <= 1/(3 lam (sup f - eps(lam))) on the mesh's domain.

    eps(lam) = 2 D^(a/(2+a)) K^(2/(2+a)) / lam^(a/(2+a)) with D the unit-ball
    ground eigenvalue in the mesh's dimension, a the profile's Holder
    exponent and K its exact Holder constant over Omega, the mesh span
    (r in [0, R] on a ball; `profiles.holder_constant`);
    delta = (eps/2K)^(1/a).  At K = 0 (a constant profile) delta is
    unbounded, the ball of that radius around the maximum cannot lie in
    Omega, and no upper is given (eps = 0).  The asymptotic width is
    gap_coefficient * lam^gap_exponent.  sup f is the exact one over Omega
    (`profiles.supremum`), not over the profile's whole domain: a larger sup
    would lower the upper estimate.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    alpha = profile.holder_exponent
    omega = (mesh.nodes[0], mesh.nodes[-1])
    K = holder_constant(profile, omega)
    sup_f = supremum(profile, omega)
    lower = eta_quench_time(lam, sup_f)
    exponent = -(2.0 + 2.0 * alpha) / (2.0 + alpha)
    if K <= 0.0:
        return LargeLambdaBounds(lower, None, 0.0, math.inf, exponent, 0.0, sup_f, K)
    frac = alpha / (2.0 + alpha)
    scale = 2.0 * dirichlet_eigenvalue_ball(mesh.dimension) ** frac * K ** (2.0 / (2.0 + alpha))
    eps = scale / lam**frac
    delta = (eps / (2.0 * K)) ** (1.0 / alpha)
    upper = eta_quench_time(lam, sup_f - eps) if sup_f - eps > 0 else None
    coeff = scale / (3.0 * sup_f**2)
    return LargeLambdaBounds(lower, upper, eps, delta, exponent, coeff, sup_f, K)


def ingredients(fold: Fold, profile: Profile) -> BoundIngredients:
    """The fold constants of the estimates; f is evaluated on the mesh once."""
    mesh, phi, psi = fold.mesh, fold.phi_star, fold.psi_star
    f = np.asarray(evaluate(profile, mesh.nodes), dtype=float)
    gap = 1.0 - fold.w_star
    J = None
    if not np.any((f <= _VANISH_TOL) & (psi > _VANISH_TOL)):
        ratio = np.where(f > _VANISH_TOL, psi / np.where(f > _VANISH_TOL, f, 1.0), 0.0)
        J = integrate(mesh, ratio)
    return BoundIngredients(
        sup_phi_star=float(phi.max()),
        sup_weight=float((f / gap**4).max()),
        integral_phi=integrate(mesh, phi / gap**2),
        I1_26=integrate(mesh, psi * f),
        J_26=J,
        E0=integrate(mesh, psi * fold.w_star),
        I2_26=None if J is None else 3.0 * fold.lambda_star / J,
        inf_f=float(f.min()),
    )


# one row per paper estimate: its status flag, the side of T it bounds, the
# report fields it fills and how it computes them; each lambda looks its estimate
# up by module name at call time, where perfbench/tracing.py wraps it
ESTIMATES = (
    ("bound_1_2", "upper", ("bound_1_2",), lambda lam, star, ing: (bound_gg2(lam, star, ing.inf_f),)),
    ("T_L", "lower", ("T_L",), lambda lam, star, ing: (bound_lower_TL(lam, star, ing),)),
    ("T1", "upper", ("T1_simplified", "T1_arctan"),
     lambda lam, star, ing: (bound_upper_T1(lam, star, ing, "simplified"), bound_upper_T1(lam, star, ing))),
)


def evaluate_all(
    lams: Sequence[float],
    fold: Optional[Fold],
    profile: Profile,
    mesh: Mesh,
    quench_reports: Optional[Sequence] = None,
) -> List[BoundsReport]:
    """Every estimate at each lam with its status (see `_report`); given measured
    reports (one per lam, None where a run failed), every report is a
    `MeasuredReport` (see `_measured`)."""
    reports: List[BoundsReport] = []
    star = None if fold is None else fold.lambda_star
    ing = None
    runs = [None] * len(lams) if quench_reports is None else quench_reports
    for lam, quench_report in zip(lams, runs, strict=True):
        ll = large_lambda_bounds(lam, profile, mesh)
        if ing is None and star is not None and lam > star:
            ing = ingredients(fold, profile)
        report = _report(lam, star, ll, ing)
        reports.append(report if quench_reports is None else _measured(report, quench_report, profile, ll.sup_f))
    return reports


def _report(lam: float, star: Optional[float], ll: LargeLambdaBounds, ing: Optional[BoundIngredients]) -> BoundsReport:
    """One lam's estimates from its sandwich, the fold value star and the grid's fold constants.

    A row of `ESTIMATES` that is not ok is blank: its status is its
    `NotApplicable` reason, the missing fold, lam at or below the fold (where
    the sandwich upper is blank too), or the sandwich bound that refutes it
    (a lower strictly above the upper, an upper strictly below the lower).
    """
    upper = ll.upper
    if ll.K == 0.0:
        flags = {"large_lambda_upper": "K = 0: delta is unbounded, so its ball does not lie in Omega",
                 "delta": "unbounded: K = 0"}
    else:
        flags = {"large_lambda_upper": "ok" if upper is not None else "eps exceeds sup f at this lam"}
    reason = "no fold data" if star is None else None if lam > star else "no finite touchdown below the fold value"
    if star is not None and lam <= star:
        upper = None
        flags["large_lambda_upper"] = reason
    rigorous = {"lower": ("large_lambda_upper", upper), "upper": ("large_lambda_lower", ll.lower)}
    values = dict.fromkeys(field for _, _, fields, _ in ESTIMATES for field in fields)
    for flag, side, fields, compute in ESTIMATES:
        try:
            found = () if reason else compute(lam, star, ing)
        except NotApplicable as exc:
            flags[flag] = str(exc)
            continue
        name, bound = rigorous[side]
        if bound is not None and any(v > bound if side == "lower" else v < bound for v in found):
            flags[flag] = "refuted by " + name
        else:
            flags[flag] = reason or "ok"
            values.update(zip(fields, found))
    return BoundsReport(lam, star, **values, large_lambda_lower=ll.lower, large_lambda_upper=upper,
                        epsilon=ll.epsilon, delta=ll.delta, flags=flags)


def _measured(report: BoundsReport, quench_report, profile: Profile, sup_f: float) -> MeasuredReport:
    """`report` set against its run's touchdown time and set, wherever T is measured."""
    if quench_report is None or not quench_report.quenched:
        return MeasuredReport(**vars(report))
    T, slack, upper = quench_report.T, 1.0 + _ORDERING_SLACK, report.large_lambda_upper
    paper = [(side, getattr(report, field)) for _, side, fields, _ in ESTIMATES for field in fields]
    lowers = [report.large_lambda_lower] + [v for side, v in paper if side == "lower" and v is not None]
    # the large-lam upper is judged on its own, by sandwich_pass
    uppers = [v for side, v in paper if side == "upper" and v is not None]
    defects = [sup_f ** (1.0 / 3.0) - float(evaluate(profile, a)) ** (1.0 / 3.0) for a in quench_report.quench_set]
    return MeasuredReport(
        **vars(report),
        T_measured=T,
        location_defect=max(defects, default=None),
        ordering_lower_pass=all(v <= T * slack for v in lowers),
        ordering_upper_pass=T <= min(uppers) * slack if uppers else None,
        sandwich_pass=None if upper is None else report.large_lambda_lower <= T * slack and T <= upper * slack,
    )
