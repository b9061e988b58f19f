"""Touchdown-time and touchdown-location estimates.

The closed-form blow-up time for the scalar Riccati comparison equation is
checked at exact angles here and against an adaptive ODE integration in
acceptance criterion 11b; the eigenvalue table for the unit ball is
checked against the square of the first Bessel zero and pi^2.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchlab import bounds
from quenchlab.bounds import (
    BoundsReport,
    DomainError,
    MeasuredReport,
    NotApplicable,
    blowup_time_F,
    bound_gg2,
    bound_lower_TL,
    bound_upper_T1,
    dirichlet_eigenvalue_ball,
    evaluate_all,
    ingredients,
    large_lambda_bounds,
)
from quenchlab.dynamics import QuenchReport, TimeConfig, integrate
from quenchlab.mesh import RadialBall, Slab, build_mesh
from quenchlab.profiles import Constant, Power, SlabSinPiecewise, Tabulated, evaluate
from quenchlab.steady import SteadyBranch, SteadyState, locate_fold

BESSEL_J0_FIRST_ZERO_SQ = 5.783185962946785  # (first zero of J_0)^2
# the domain of the sandwich tests: the unit slab, on which the two-bump profile lives
UNIT_MESH = build_mesh(Slab(-0.5, 0.5), 401)


# ---------------------------------------------------------------------------
# the Riccati blow-up clock


def test_blowup_time_exact_angles():
    assert blowup_time_F(1.0, 1.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert blowup_time_F(1.0, 4.0, 0.5) == pytest.approx(3.0 * math.pi / 8.0,
                                                         abs=1e-15)


def test_blowup_time_guards():
    with pytest.raises(ValueError):
        blowup_time_F(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        blowup_time_F(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        blowup_time_F(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# ball eigenvalues


def test_ball_eigenvalue_table():
    assert dirichlet_eigenvalue_ball(1) == math.pi**2 / 4.0
    assert dirichlet_eigenvalue_ball(2) == pytest.approx(BESSEL_J0_FIRST_ZERO_SQ,
                                                         abs=1e-5)
    assert dirichlet_eigenvalue_ball(3) == pytest.approx(math.pi**2, abs=1e-5)
    from scipy.special import jn_zeros

    assert BESSEL_J0_FIRST_ZERO_SQ == pytest.approx(jn_zeros(0, 1)[0] ** 2,
                                                    rel=1e-14)


# ---------------------------------------------------------------------------
# early upper estimate


def test_gg2_at_twice_the_fold():
    star = 1.4
    expect = 24.0 / (5.0 * star) * (1.0 + math.sqrt(5.0 / 6.0))
    assert bound_gg2(2.0 * star, star, 1.0) == pytest.approx(expect, rel=1e-12)


def test_gg2_large_load_asymptote():
    star = 1.4
    lam = 1e6 * star
    asymptote = 8.0 / (3.0 * lam) * (1.0 + 2.0**-0.5)
    assert bound_gg2(lam, star, 1.0) == pytest.approx(asymptote, rel=1e-2)


def test_gg2_guards():
    with pytest.raises(NotApplicable):
        bound_gg2(3.0, 1.4, 0.0)
    with pytest.raises(DomainError):
        bound_gg2(1.0, 1.4, 1.0)


# ---------------------------------------------------------------------------
# fold-eigenfunction estimates


def fold_args(fold, profile):
    """The fold estimates' arguments after lam: lambda* and the fold constants."""
    return fold.lambda_star, ingredients(fold, profile)


def test_TL_inverse_sqrt_scaling(branch_f1_401):
    star, ing = fold_args(branch_f1_401, Constant(1.0))
    vals = [bound_lower_TL(star + dx, star, ing)
            * math.sqrt(dx) for dx in (0.01, 0.1, 0.5, 1.0, 5.0)]
    assert max(vals) - min(vals) < 1e-12 * vals[0]
    with pytest.raises(DomainError):
        bound_lower_TL(0.5 * star, star, ing)


def test_TL_eigenfunction_scale_invariance(branch_f1_401):
    br = branch_f1_401
    doubled = dataclasses.replace(br, phi_star=2.0 * br.phi_star)
    lam = br.lambda_star + 0.3
    assert bound_lower_TL(lam, *fold_args(doubled, Constant(1.0))) == pytest.approx(
        bound_lower_TL(lam, *fold_args(br, Constant(1.0))), rel=1e-14)


def synthetic_branch_unit_mass():
    """Branch stub with psi* = 1 and lambda* = 1/3 on the unit slab (0,1)."""
    mesh = build_mesh(Slab(0.0, 1.0), 101)
    ones = np.ones(mesh.node_count)
    zero = np.zeros(mesh.node_count)
    st = SteadyState(lam=1.0 / 3.0, w=zero, mu1=0.0)
    return SteadyBranch(mesh=mesh, states=(st,), fold_state=st, phi_star=ones, fold_index=0)


def test_T1_arctan_right_angle_on_synthetic_branch():
    # I1 = J = 1 by construction and I2 = 3 lambda* / J = 1, so at
    # lam - lambda* = 1 the arctan form is exactly pi/4 + pi/4
    br = synthetic_branch_unit_mass()
    args = fold_args(br, Constant(1.0))
    simp, val = bound_upper_T1(br.lambda_star + 1.0, *args)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-12)
    # simplified form: sqrt(3) pi/4 * sqrt(J/(lambda* I1)) = sqrt(3) pi/4 * sqrt(3)
    assert simp == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)


def test_T1_simplified_dominates_arctan(branch_f1_401):
    args = fold_args(branch_f1_401, Constant(1.0))
    star = args[0]
    for lam in (1.1 * star, 1.5 * star, 3.0 * star, 10.0 * star):
        s, a = bound_upper_T1(lam, *args)
        assert a <= s
    with pytest.raises(DomainError):
        bound_upper_T1(0.5 * star, *args)


def test_vanishing_profile_disables_T1(branch_falpha_801):
    f = SlabSinPiecewise()
    with pytest.raises(NotApplicable):
        bound_upper_T1(5.0, *fold_args(branch_falpha_801, f))
    with pytest.raises(NotApplicable):
        bound_gg2(5.0, branch_falpha_801.lambda_star, 0.0)


# ---------------------------------------------------------------------------
# large-load sandwich



def test_sandwich_takes_K_over_omega():
    # f = |x|^3 on the unit slab: K over Omega is 3 (1/2)^2 = 0.75, not the
    # 3 of the profile's domain [-1, 1]; eps scales as K^(2/3).  No fold is
    # needed, and this branch has none
    lam = 1e4
    ll = large_lambda_bounds(lam, Power(3.0), UNIT_MESH)
    assert ll.K == 0.75
    frac = 1.0 / 3.0  # alpha = 1
    eps = 2.0 * dirichlet_eigenvalue_ball(1) ** frac * 0.75 ** (2.0 / 3.0) / lam**frac
    assert ll.epsilon == pytest.approx(eps, rel=1e-14)
    assert ll.sup_f == pytest.approx(0.125, rel=1e-14)


def test_sandwich_takes_the_fractional_K_over_omega():
    # f = |x|^(1/2) on the slab (1/4, 1): K = (1 - 1/2) / (3/4)^(1/2) = 0.57735,
    # not the 1 of a span that holds 0; alpha = 1/2, so eps scales as K^(4/5)
    lam = 1e4
    ll = large_lambda_bounds(lam, Power(0.5), build_mesh(Slab(0.25, 1.0), 401))
    K = 0.5 / math.sqrt(0.75)
    assert ll.K == pytest.approx(K, rel=1e-15)
    frac = 0.5 / 2.5
    # the slab's dimension is 1, so D is the unit interval's ground eigenvalue pi^2 / 4
    eps = 2.0 * dirichlet_eigenvalue_ball(1) ** frac * K ** (2.0 / 2.5) / lam**frac
    assert ll.epsilon == pytest.approx(eps, rel=1e-14)
    assert ll.sup_f == 1.0
    assert ll.delta == pytest.approx((eps / (2.0 * K)) ** 2, rel=1e-14)


def test_sandwich_takes_the_exact_sup_f():
    # a peak of half-width 1e-4 at c = 1/6000, a node of the 6001-node slab,
    # falls between samples 2.5e-4 apart: sampled, sup f read 0.583 and the
    # lower 1/(3 lam sup f) stood 1.29 times above the measured T
    c, lam = 1.0 / 6000.0, 1e7
    f = Tabulated(np.array([-0.5, c - 1e-4, c, c + 1e-4, 0.5]), np.array([0.5, 0.5, 1.0, 0.5, 0.5]))
    mesh = build_mesh(Slab(-0.5, 0.5), 6001)
    ll = large_lambda_bounds(lam, f, mesh)
    assert ll.sup_f == 1.0
    _, report = integrate(lam, f, mesh, TimeConfig())
    assert report.quenched and ll.lower <= report.T


def test_sandwich_constant_profile_collapses():
    # the sandwich collapses to its lower side: K = 0 leaves delta unbounded,
    # and a ball of that radius does not lie in Omega, so no upper is given
    ll = large_lambda_bounds(1e5, Constant(1.0), UNIT_MESH)
    assert ll.lower == pytest.approx(1.0 / 3e5, rel=1e-15)
    assert ll.upper is None
    assert ll.epsilon == 0.0
    assert ll.delta == math.inf
    assert ll.gap_coefficient == 0.0
    rep, = evaluate_all([1e5], None, Constant(1.0), UNIT_MESH)
    assert rep.large_lambda_upper is None
    assert "K = 0" in rep.flags["large_lambda_upper"] and "unbounded" in rep.flags["large_lambda_upper"]


def test_sandwich_two_bump_profile_formulas():
    lam = 1e5
    K = 8.0
    D = math.pi**2 / 4.0
    ll = large_lambda_bounds(lam, SlabSinPiecewise(), UNIT_MESH)  # alpha = 1, K = 8
    eps = 2.0 * D ** (1.0 / 3.0) * K ** (2.0 / 3.0) / lam ** (1.0 / 3.0)
    assert ll.epsilon == pytest.approx(eps, rel=1e-12)
    assert ll.delta == pytest.approx((eps / 16.0), rel=1e-12)  # (eps/2K)^(1/1)
    assert ll.lower == pytest.approx(1.0 / (3.0 * lam), rel=1e-9)
    assert ll.upper == pytest.approx(1.0 / (3.0 * lam * (1.0 - eps)), rel=1e-9)
    assert ll.upper is not None
    assert ll.gap_exponent == -4.0 / 3.0


def test_sandwich_takes_sup_f_over_the_domain():
    # f = |x| is defined on [-1, 1], where its sup is 1, but on the slab
    # (-1/2, 1/2) its sup is 1/2; an upper built from sup f = 1 lies below T
    mesh = build_mesh(Slab(-0.5, 0.5), 2001)
    f = Power(1.0)
    lams = [1e4, 1e5]
    quench = [integrate(lam, f, mesh, TimeConfig())[1] for lam in lams]
    for qrep, rep in zip(quench, evaluate_all(lams, None, f, mesh, quench_reports=quench)):
        assert qrep.quenched
        assert rep.flags["large_lambda_upper"] == "ok"
        assert rep.large_lambda_lower <= qrep.T * 1.01
        assert qrep.T <= rep.large_lambda_upper * 1.01


def test_sandwich_upper_vanishes_at_moderate_load():
    # at lam = 10 the shrinkage eps exceeds sup f and no upper is produced
    ll = large_lambda_bounds(10.0, SlabSinPiecewise(), UNIT_MESH)
    assert ll.upper is None
    assert ll.lower > 0.0


def test_sandwich_gap_decay_rate():
    # the width obeys gap ~ coefficient * lam^(-4/3) once eps << sup f;
    # three decades deep into that regime the fitted slope settles
    lams = np.array([1e10, 1e12, 1e14])
    gaps = []
    for lam in lams:
        ll = large_lambda_bounds(float(lam), SlabSinPiecewise(), UNIT_MESH)
        gaps.append(ll.upper - ll.lower)
    slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-4.0 / 3.0, abs=0.05)
    ll = large_lambda_bounds(1e12, SlabSinPiecewise(), UNIT_MESH)
    predicted = ll.gap_coefficient * 1e12**ll.gap_exponent
    assert (ll.upper - ll.lower) == pytest.approx(predicted, rel=1e-2)


# ---------------------------------------------------------------------------
# touchdown location


def make_report(points):
    return QuenchReport(quenched=True, T=1.0, quench_set=tuple(points),
                        M=1.0, p=1.0 / 3.0, fit_residual=0.0,
                        last_resolved_gap=1e-3)


def test_location_defect_formula(branch_falpha_801):
    # the defect is the worst point of the set, wherever it is listed
    f = SlabSinPiecewise()
    sets = [(-0.204, 0.204), (0.21, -0.204)]
    reps = evaluate_all([1e5, 1e5], branch_falpha_801, f, branch_falpha_801.mesh,
                        quench_reports=[make_report(points) for points in sets])
    for points, rep in zip(sets, reps):
        per_point = [1.0 - evaluate(f, a) ** (1.0 / 3.0) for a in points]
        assert rep.location_defect == pytest.approx(max(per_point), abs=1e-12)
        assert 0.012 < rep.location_defect < 0.016


def test_location_empty_set_is_blank(branch_falpha_801):
    rep, = evaluate_all([1e5], branch_falpha_801, SlabSinPiecewise(),
                        branch_falpha_801.mesh, quench_reports=[make_report(())])
    assert rep.T_measured == 1.0
    assert rep.location_defect is None


# ---------------------------------------------------------------------------
# aggregate report


def test_ingredients_energy_window(branch_f1_401, branch_falpha_801):
    ing = ingredients(branch_f1_401, Constant(1.0))
    assert 0.0 < ing.E0 < 1.0
    assert ing.I1_26 > 0.0 and ing.J_26 > 0.0
    # sup f and K are taken in large_lambda_bounds: evaluate_all's epsilon
    # is the sandwich's, bitwise
    f = SlabSinPiecewise()
    ing = ingredients(branch_falpha_801, f)
    rep, = evaluate_all([1e5], branch_falpha_801, f, branch_falpha_801.mesh)
    ll = large_lambda_bounds(1e5, f, branch_falpha_801.mesh)
    assert ll.K > 0.0
    assert ll.epsilon == rep.epsilon
    # f vanishes where psi* has mass: J is undefined
    assert ing.J_26 is None


def test_evaluate_all_near_fold(branch_f1_401):
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    lam = 1.05 * branch_f1_401.lambda_star
    _, qrep = integrate(lam, Constant(1.0), mesh, TimeConfig())
    assert qrep.quenched
    rep, = evaluate_all([lam], branch_f1_401, Constant(1.0), mesh,
                        quench_reports=[qrep])
    assert rep.flags["bound_1_2"] == "ok"
    assert rep.flags["T_L"] == "ok"
    assert rep.flags["T1"] == "ok"
    assert rep.ordering_lower_pass is True
    assert rep.ordering_upper_pass is True
    assert rep.T_L < rep.T_measured < rep.T1_arctan
    # f = 1 has K = 0: no large-lam upper, so the sandwich is not judged
    assert rep.large_lambda_upper is None
    assert rep.sandwich_pass is None


def test_evaluate_all_below_fold(branch_f1_401):
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    rep, = evaluate_all([1.0], branch_f1_401, Constant(1.0), mesh)
    assert rep.bound_1_2 is None and rep.T_L is None
    assert rep.T1_arctan is None and rep.T1_simplified is None
    assert not isinstance(rep, MeasuredReport)
    reason = "no finite touchdown below the fold value"
    assert rep.flags["T_L"] == reason
    assert rep.large_lambda_lower > 0.0


def test_evaluate_all_without_branch():
    # no fold data: the fold estimates are flagged, the sandwich is kept whole
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    f = SlabSinPiecewise()
    rep, = evaluate_all([1e5], None, f, mesh)
    assert rep.lambda_star is None
    assert rep.bound_1_2 is None and rep.T_L is None
    assert rep.T1_arctan is None and rep.T1_simplified is None
    for key in ("bound_1_2", "T_L", "T1"):
        assert rep.flags[key] == "no fold data"
    ll = large_lambda_bounds(1e5, f, mesh)
    assert ll.upper is not None
    assert (rep.large_lambda_lower, rep.large_lambda_upper, rep.epsilon, rep.delta) == (
        ll.lower, ll.upper, ll.epsilon, ll.delta)
    assert rep.flags["large_lambda_upper"] == "ok"
    assert not isinstance(rep, MeasuredReport)


def test_evaluate_all_builds_lam_free_constants_once_per_grid(branch_falpha_801, monkeypatch):
    # the fold constants do not depend on lam: one build serves the grid, and
    # each row is bitwise the report of its lam evaluated alone
    mesh = branch_falpha_801.mesh
    f = SlabSinPiecewise()
    lams = [0.5 * branch_falpha_801.lambda_star, 5.0, 30.0, 1e5]
    alone = [dataclasses.asdict(evaluate_all([lam], branch_falpha_801, f, mesh)[0]) for lam in lams]
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return ingredients(*args)
    monkeypatch.setattr(bounds, "ingredients", counted)
    grid = evaluate_all(lams, branch_falpha_801, f, mesh)
    assert calls == 1
    assert [dataclasses.asdict(rep) for rep in grid] == alone


def test_evaluate_all_vanishing_profile_flags(branch_falpha_801):
    mesh = branch_falpha_801.mesh
    rep, = evaluate_all([5.0], branch_falpha_801, SlabSinPiecewise(), mesh)
    assert rep.bound_1_2 is None
    assert "inf f" in rep.flags["bound_1_2"]
    assert rep.T1_arctan is None
    assert "vanishes" in rep.flags["T1"]
    assert rep.T_L is not None  # the lower estimate needs no positivity


def test_evaluate_all_reports_the_fold_estimates_bitwise(branch_f1_401, branch_falpha_801):
    # each report field is the public formula's value, and a flag is the
    # text of the formula's own exception
    f = Constant(1.0)
    args = fold_args(branch_f1_401, f)
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    for lam in (1.05 * branch_f1_401.lambda_star, 30.0):
        rep, = evaluate_all([lam], branch_f1_401, f, mesh)
        assert rep.T_L == bound_lower_TL(lam, *args)
        assert (rep.T1_simplified, rep.T1_arctan) == bound_upper_T1(lam, *args)
    two_bump = SlabSinPiecewise()
    rep, = evaluate_all([5.0], branch_falpha_801, two_bump, branch_falpha_801.mesh)
    with pytest.raises(NotApplicable) as exc:
        bound_upper_T1(5.0, *fold_args(branch_falpha_801, two_bump))
    assert rep.flags["T1"] == str(exc.value)


def test_report_dict_round_trip(branch_f1_401):
    # bounds.json is written from dataclasses.asdict of the report
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    rep, = evaluate_all([2.0], branch_f1_401, Constant(1.0), mesh)
    d = dataclasses.asdict(rep)
    assert d["lam"] == 2.0
    assert d["T_L"] == rep.T_L
    assert isinstance(d["flags"], dict)
    assert set(d) >= {"lam", "lambda_star", "bound_1_2", "T_L",
                      "T1_simplified", "T1_arctan", "large_lambda_lower",
                      "large_lambda_upper", "epsilon", "delta", "flags"}
    assert BoundsReport(**d) == rep
    measured, = evaluate_all([2.0], branch_f1_401, Constant(1.0), mesh, quench_reports=[make_report((0.0,))])
    assert MeasuredReport(**dataclasses.asdict(measured)) == measured and measured.location_defect == 0.0


# ---------------------------------------------------------------------------
# a report checks itself against its sandwich

# the profiles whose sandwich upper exists at large lam, at 401 nodes, with
# (T_L as the formula gives it, the sandwich upper) at q = lam/lambda* = 1e3
SANDWICHED = {
    "slab-two-bump": (Slab(-0.5, 0.5), SlabSinPiecewise(), (1.493e-3, 9.302e-4)),
    "ball3-power1": (RadialBall(3), Power(1.0), (1.024e-3, 1.928e-4)),
}


@pytest.fixture(scope="module", params=sorted(SANDWICHED))
def sandwiched_fold(request):
    geometry, profile, pinned = SANDWICHED[request.param]
    mesh = build_mesh(geometry, 401)
    return locate_fold(profile, mesh), profile, mesh, pinned


@pytest.mark.parametrize("q", [1e3, 1e4, 1e5])
def test_sandwich_refutes_T_L_at_large_load(sandwiched_fold, q):
    # T_L ~ (lam - lambda*)^(-1/2) rises above the rigorous upper
    # 1/(3 lam (sup f - eps)) ~ 1/lam: the report blanks it and names the upper
    fold, profile, mesh, pinned = sandwiched_fold
    lam = q * fold.lambda_star
    claimed = bound_lower_TL(lam, *fold_args(fold, profile))
    ll = large_lambda_bounds(lam, profile, mesh)
    rep, = evaluate_all([lam], fold, profile, mesh)
    assert rep.flags["large_lambda_upper"] == "ok" and rep.large_lambda_upper == ll.upper
    assert claimed > rep.large_lambda_upper
    assert rep.T_L is None
    assert rep.flags["T_L"] == "refuted by large_lambda_upper"
    if q == 1e3:
        assert (claimed, rep.large_lambda_upper) == pytest.approx(pinned, rel=1e-3)
    # the ordering check skips the blank cell: a T inside the sandwich, which
    # the formula's T_L exceeds, passes it
    T = 0.5 * (ll.lower + ll.upper)
    measured, = evaluate_all([lam], fold, profile, mesh, [QuenchReport(quenched=True, T=T, last_resolved_gap=1e-3)])
    assert measured.T_L is None and claimed > T
    assert measured.ordering_lower_pass is True and measured.sandwich_pass is True


def test_sandwich_keeps_T_L_at_moderate_load(sandwiched_fold):
    # at q = 100 the two-bump report has no upper and the ball's lies above T_L
    fold, profile, mesh, _ = sandwiched_fold
    lam = 100.0 * fold.lambda_star
    rep, = evaluate_all([lam], fold, profile, mesh)
    assert rep.flags["T_L"] == "ok"
    assert rep.T_L == bound_lower_TL(lam, *fold_args(fold, profile))
    assert rep.large_lambda_upper is None or rep.T_L <= rep.large_lambda_upper


SANDWICH_CASES = [
    (Slab(-0.5, 0.5), Constant(0.7)),
    (Slab(-0.5, 0.5), SlabSinPiecewise()),
    (Slab(-1.0, 1.0), Power(0.5)),
    (RadialBall(2), Power(1.0)),
    (RadialBall(3), Power(2.0)),
    (Slab(0.0, 1.0), Tabulated(np.array([0.0, 0.3, 1.0]), np.array([0.2, 1.0, 0.0]))),
]


@settings(max_examples=60)
@given(case=st.sampled_from(SANDWICH_CASES), log_lam=st.floats(-2.0, 12.0))
def test_no_rigorous_bound_is_refuted(sandwiched_fold, case, log_lam):
    # the sandwich is rigorous: its lower never exceeds its upper, and no paper
    # estimate blanks either of its bounds, with or without fold data
    geometry, profile = case
    lam = 10.0**log_lam
    for fold, profile, mesh in ((None, profile, build_mesh(geometry, 101)), sandwiched_fold[:3]):
        rep, = evaluate_all([lam], fold, profile, mesh)
        ll = large_lambda_bounds(lam, profile, mesh)
        assert rep.large_lambda_lower == ll.lower
        if rep.lambda_star is None or lam > rep.lambda_star:
            assert rep.large_lambda_upper == ll.upper
        if rep.large_lambda_upper is not None:
            assert rep.large_lambda_lower <= rep.large_lambda_upper
        assert not any(status.startswith("refuted") for key, status in rep.flags.items()
                       if key in ("large_lambda_upper", "delta"))
