"""Steady states on the unit slab: Newton solves, continuation, the fold,
and the singular radial family (the closed form in oracles.py).

Reference values come from the first integral of w'' + lam/(1-w)^2 = 0 with
w(+-1/2) = 0 and midpoint value m: (w')^2 = 2 lam (1/(1-m) - 1/(1-w)), and
the substitution w = m - xi^2 collapses the half-length condition to

    lam(m) = 2 (1-m) * (sqrt(m) + (1-m) * asinh(sqrt(m/(1-m))))**2.

Maximizing over m in (0,1) gives the fold; inverting the increasing branch
gives midpoint values below it.  These are recomputed here and compared
against the frozen constants before the solver is trusted against them.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from quenchlab.bounds import evaluate_all
from quenchlab.mesh import RadialBall, Slab, bands_matvec, build_mesh, integrate, solve_banded
from quenchlab.profiles import Constant, Power, SlabSinPiecewise, Tabulated
from quenchlab import steady
from quenchlab.steady import (
    StepFailure,
    branch_to_csv,
    continue_branch,
    linearized_eigenpair,
    minimal_states,
    smallest_eigenvalue_bands,
)

from oracles import OutOfRange, alpha_max, singular_extremal_radial

LAMBDA_STAR_SLAB = 1.40001647737100
M_STAR = 0.388346718912783
SUP_LAM_HALF = 0.070574488021167   # midpoint of the minimal solution at lam = 0.5
SUP_LAM_135 = 0.307537262668240    # ... and at lam = 1.35


def lam_of_midpoint(m):
    return 2.0 * (1.0 - m) * (
        math.sqrt(m) + (1.0 - m) * math.asinh(math.sqrt(m / (1.0 - m)))
    ) ** 2


def test_closed_form_constants_recompute():
    # stationarity of lam(m) reduces to
    # asinh(sqrt(m/(1-m))) = (2 - 3m)/(3 sqrt(m) (1-m)), a simple root
    def stationarity(m):
        return math.asinh(math.sqrt(m / (1.0 - m))) \
            - (2.0 - 3.0 * m) / (3.0 * math.sqrt(m) * (1.0 - m))

    m_star = brentq(stationarity, 0.1, 0.9, xtol=1e-16, rtol=8.9e-16)
    assert m_star == pytest.approx(M_STAR, abs=1e-13)
    assert lam_of_midpoint(m_star) == pytest.approx(LAMBDA_STAR_SLAB, abs=1e-12)
    for lam, m_frozen in ((0.5, SUP_LAM_HALF), (1.35, SUP_LAM_135)):
        m = brentq(lambda m: lam_of_midpoint(m) - lam, 1e-12, M_STAR, xtol=1e-15)
        assert m == pytest.approx(m_frozen, abs=1e-13)


# ---------------------------------------------------------------------------
# Newton solves on the minimal branch


def test_solve_minimal_zero_load():
    mesh = build_mesh(Slab(-0.5, 0.5), 101)
    st = next(minimal_states([0.0], Constant(1.0), mesh))
    assert np.all(st.w == 0.0)
    assert st.mu1 == pytest.approx(math.pi**2, rel=1e-3)


def test_solve_minimal_matches_closed_form():
    from quenchlab.mesh import laplacian_bands

    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    Lb, f = laplacian_bands(mesh), steady._interior_forcing(Constant(1.0), mesh)
    # the tolerance widens at 1.35 where fold curvature inflates the h^2 term
    for lam, m_exact, tol in ((0.5, SUP_LAM_HALF, 1e-6),
                              (1.35, SUP_LAM_135, 5e-6)):
        st = next(minimal_states([lam], Constant(1.0), mesh))
        assert st is not None
        assert abs(st.sup_w - m_exact) < tol
        w = st.w[mesh.unknown_slice]
        assert np.max(np.abs(steady._residual(Lb, w, st.lam, f / (1.0 - w) ** 2))) < 1e-9


def test_solve_minimal_sup_converges_second_order():
    errs = []
    for n in (201, 401, 801):
        st = next(minimal_states([0.5], Constant(1.0), build_mesh(Slab(-0.5, 0.5), n)))
        errs.append(abs(np.max(st.w) - SUP_LAM_HALF))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_grid_mu1_is_warm_started_on_one_curve(monkeypatch):
    # minimal_states keeps Newton cold from w = 0 at every lam, and starts
    # each mu1 from the previous state's eigenvector: the same states, mu1
    # within 1e-9, and fewer inverse-iteration solves than one-point grids,
    # each of which solves cold
    mesh = build_mesh(Slab(-0.5, 0.5), 2001)
    grid = [0.2, 0.5, 0.8, 1.1, 1.3, 1.39]
    kernel = steady.solve_banded
    right_sides = []

    def counted(ab, b, **kwargs):
        right_sides.append(np.ndim(b))  # inverse iteration solves for one vector
        return kernel(ab, b, **kwargs)

    monkeypatch.setattr(steady, "solve_banded", counted)
    cold = [next(minimal_states([lam], Constant(1.0), mesh)) for lam in grid]
    cold_solves = right_sides.count(1)
    right_sides.clear()
    warm = list(minimal_states(grid, Constant(1.0), mesh))
    assert right_sides.count(1) < cold_solves
    for a, b in zip(cold, warm):
        assert b.lam == a.lam and np.array_equal(b.w, a.w)
        assert b.mu1 == pytest.approx(a.mu1, rel=1e-9)


def test_solve_minimal_beyond_fold():
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    assert next(minimal_states([2.0], Constant(1.0), mesh)) is None


def test_solve_minimal_above_the_fold_stops_early(monkeypatch):
    # from w = 0 Newton rises until its residual stops falling; the corrector
    # gives up there instead of after its 50-step cap
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    lam_star = steady.locate_fold(Constant(1.0), mesh).lambda_star
    kernel = steady.solve_banded
    solves = []

    def counted(ab, b, **kwargs):
        solves.append(np.ndim(b))
        return kernel(ab, b, **kwargs)

    monkeypatch.setattr(steady, "solve_banded", counted)
    assert next(minimal_states([1.001 * lam_star], Constant(1.0), mesh)) is None
    assert 0 < len(solves) <= 8, solves


def test_solve_minimal_next_to_the_fold():
    # 1e-8 below the discrete fold, Newton from zero needs more than the 14
    # steps a continuation corrector gets, so the cold solve has a higher cap
    mesh = build_mesh(Slab(-0.5, 0.5), 101)
    lam_star = continue_branch(Constant(1.0), mesh).lambda_star
    st = next(minimal_states([(1.0 - 1e-8) * lam_star], Constant(1.0), mesh))
    assert st is not None
    assert st.mu1 > 0.0


def test_mu1_at_zero_state():
    # at w = 0 the linearization is -d^2/dx^2 - 2 lam, so mu1 = pi^2 - 2 lam
    lam = 0.3
    errs = []
    for n in (201, 401):
        mesh = build_mesh(Slab(-0.5, 0.5), n)
        st = next(minimal_states([0.0], Constant(1.0), mesh))
        curve = steady._Curve(Constant(1.0), mesh)
        mu1, _ = linearized_eigenpair(curve, curve.restrict(st.w), lam, None)
        errs.append(abs(mu1 - (math.pi**2 - 2.0 * lam)))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 3.5


def test_eigen_residual_recompute(branch_f1_401):
    from quenchlab.mesh import bands_matvec, laplacian_bands

    minimal = branch_f1_401.states[: branch_f1_401.fold_index + 1]
    st = minimal[len(minimal) // 2]
    mesh = branch_f1_401.mesh
    inner = mesh.unknown_slice
    curve = steady._Curve(Constant(1.0), mesh)
    mu, phi = linearized_eigenpair(curve, curve.restrict(st.w), st.lam, None)
    ab = laplacian_bands(mesh)
    pot = 2.0 * st.lam / (1.0 - st.w[inner]) ** 3
    resid = -bands_matvec(ab, phi[inner]) - pot * phi[inner] - mu * phi[inner]
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(phi))


def _dense(ab):
    """Dense matrix of a tridiagonal operator in solve_banded layout."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


@pytest.mark.parametrize("geometry,profile", [
    (Slab(-0.5, 0.5), SlabSinPiecewise()),
    (RadialBall(3, 1.0), Power(1.0)),
])
def test_jacobian_matches_central_differences(geometry, profile):
    from quenchlab.mesh import laplacian_bands

    mesh = build_mesh(geometry, 41)
    Lb = laplacian_bands(mesh)
    f = steady._interior_forcing(profile, mesh)
    x = mesh.nodes[mesh.unknown_slice]
    w = 0.6 * (1.0 - (x / np.max(np.abs(mesh.nodes))) ** 2)
    lam, step = 2.5, 1e-6
    fd = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = step
        up, down = w + e, w - e
        fd[:, j] = (steady._residual(Lb, up, lam, f / (1.0 - up) ** 2)
                    - steady._residual(Lb, down, lam, f / (1.0 - down) ** 2)) / (2.0 * step)
    J = _dense(steady._jacobian(Lb, 1.0 - w, lam, f / (1.0 - w) ** 2))
    assert np.max(np.abs(fd - J)) <= 1e-6 * np.max(np.abs(J))
    # the nonlinear part is present: the Jacobian is not the Laplacian alone
    assert np.max(np.abs(J - _dense(Lb))) > 1.0


# ---------------------------------------------------------------------------
# continuation and the fold


def test_branch_monotonicity(branch_f1_401):
    br = branch_f1_401
    minimal = br.states[: br.fold_index + 1]
    lams = np.array([s.lam for s in minimal])
    sups = np.array([np.max(s.w) for s in minimal])
    assert np.all(np.diff(lams) > 0.0)
    assert np.all(np.diff(sups) > 0.0)
    assert all(s.mu1 > 0.0 for s in minimal[:-1])
    assert abs(br.fold_state.mu1) <= 1e-3


def test_branch_bends_back(branch_f1_401):
    past = branch_f1_401.states[branch_f1_401.fold_index + 1:]
    assert len(past) >= 3
    assert all(s.lam < branch_f1_401.lambda_star for s in past)
    assert all(s.mu1 < 0.0 for s in past)


def test_lambda_star_against_closed_form(branch_f1_401):
    assert branch_f1_401.lambda_star == pytest.approx(LAMBDA_STAR_SLAB, abs=1e-5)
    assert np.max(branch_f1_401.w_star) == pytest.approx(M_STAR, abs=1e-4)


def test_lambda_star_converges_second_order():
    # the fold polish lands on the discrete fold, which is O(h^2) from the
    # closed form; observed errors ~2.9e-6, 1.1e-7, 1.3e-8
    nodes = (401, 2001, 6001)
    errs = []
    for n, bound in zip(nodes, (3e-6, 1.2e-7, 2e-8)):
        br = continue_branch(Constant(1.0), build_mesh(Slab(-0.5, 0.5), n))
        err = abs(br.lambda_star - LAMBDA_STAR_SLAB) / LAMBDA_STAR_SLAB
        assert err <= bound
        errs.append(err)
    for (n0, e0), (n1, e1) in zip(zip(nodes, errs), zip(nodes[1:], errs[1:])):
        order = math.log(e0 / e1) / math.log((n1 - 1) / (n0 - 1))
        assert 1.8 <= order <= 2.2


def test_fold_state_is_neutral(branch_f1_401):
    br = branch_f1_401
    assert br.fold_state.lam == br.lambda_star
    assert abs(br.fold_state.mu1) <= 1e-8
    assert br.lambda_star >= max(s.lam for s in br.states)


def test_warm_mu1_matches_cold(branch_f1_401):
    # every state's mu1 was warm-started from its predecessor's eigenvector;
    # a cold solve from the ones vector must agree
    br = branch_f1_401
    curve = steady._Curve(Constant(1.0), br.mesh)
    for st in br.states + (br.fold_state,):
        cold, _ = linearized_eigenpair(curve, curve.restrict(st.w), st.lam, None)  # no start: cold
        assert abs(st.mu1 - cold) <= 1e-9 * max(1.0, abs(cold))


def test_warm_start_on_higher_mode_falls_back_to_ground_state(monkeypatch):
    # the discrete Dirichlet modes on a uniform slab mesh are exact sines;
    # started from the second one, inverse iteration stays on mode 2 until
    # the one-sign guard redoes the solve cold
    from quenchlab.mesh import laplacian_bands

    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    ab = -laplacian_bands(mesh)
    wq = mesh.weights[mesh.unknown_slice]
    x = mesh.nodes[mesh.unknown_slice] + 0.5
    runs = []
    inner = steady._inverse_iteration

    def spy(*args):
        out = inner(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(steady, "_inverse_iteration", spy)
    mu, v, _ = smallest_eigenvalue_bands(ab, wq, start=np.sin(2.0 * math.pi * x))
    assert len(runs) == 2
    warm_mu, warm_v = runs[0][1]
    assert warm_mu == pytest.approx(4.0 * math.pi**2, rel=1e-3)
    assert warm_v.min() < -0.5
    assert mu == pytest.approx(math.pi**2, rel=1e-4)
    assert v.min() >= 0.0 and v.max() == 1.0


def test_failed_fold_polish_is_step_failure(tmp_path, monkeypatch):
    import json

    from quenchlab.cli import main

    monkeypatch.setattr(steady._Curve, "fold_polish", lambda self, w, lam, start: None)
    with pytest.raises(StepFailure):
        continue_branch(Constant(1.0), build_mesh(Slab(-0.5, 0.5), 101))
    cfg = tmp_path / "steady.json"
    cfg.write_text(json.dumps({"node_count": 101}))
    assert main(["steady", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_walk_measures_lam_in_units_of_one_over_sup_f():
    # G(w, lam) under f = c is G(w, c lam) under f = 1, so the discrete fold
    # of f = 0.05 lies at 20 times that of f = 1, at lam* = 28: beyond the
    # reach of 599 steps in plain lam, within it in units of 1/sup f.  The
    # tolerance is the polish's, its lam step 1e-10 and roundoff 2e-11
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    one = continue_branch(Constant(1.0), mesh)
    weak = continue_branch(Constant(0.05), mesh)
    assert weak.lambda_star == pytest.approx(20.0 * one.lambda_star, rel=1e-9)
    assert (len(weak.states), weak.fold_index) == (len(one.states), one.fold_index)
    assert steady.locate_fold(Constant(0.05), mesh).lambda_star == weak.lambda_star


def test_profile_vanishing_on_the_mesh_span_has_no_fold():
    # f = 0 on the slab (-1/2, 1/2), positive beyond it: sup f over the
    # mesh span, the walk's unit of lam, is 0, and the walk stops at once
    mesh = build_mesh(Slab(-0.5, 0.5), 101)
    f = Tabulated(np.array([-1.0, 0.6, 1.0]), np.array([0.0, 0.0, 1.0]))
    for find in (continue_branch, steady.locate_fold):
        with pytest.raises(StepFailure, match="f vanishes on Omega: no fold"):
            find(f, mesh)


def test_walk_without_fold_names_its_cap_and_last_lam():
    # a spike of half-width 0.02 on a 101-node slab folds beyond the walk's
    # reach; the failure names the 600 walk points and where the walk ended
    mesh = build_mesh(Slab(-0.5, 0.5), 101)
    f = Tabulated(np.array([-0.5, -0.02, 0.0, 0.02, 0.5]), np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(StepFailure, match=r"no fold found within 600 walk points \(last lam=23\.9"):
        steady.locate_fold(f, mesh)


# ---------------------------------------------------------------------------
# a mirror-even slab walks on the left half of its unknowns


MIRROR_PROFILES = pytest.mark.parametrize("profile", [Constant(1.0), SlabSinPiecewise(), Power(2.0)],
                                          ids=["f1", "two-bump", "x2"])


def _declined(monkeypatch, call, *args):
    """call(*args) with the mirror declined: every solve runs on every unknown."""
    with monkeypatch.context() as patch:
        patch.setattr(steady, "mirror_even", lambda *_: False)
        return call(*args)


@MIRROR_PROFILES
@pytest.mark.parametrize("nodes", [401, 402, 2000, 2001])
def test_mirrored_curve_keeps_the_full_curve(monkeypatch, profile, nodes):
    # an even f walks, polishes and solves eigenpairs on (nodes - 1) // 2
    # unknowns; the walk on all of them keeps its states and fold to
    # rounding: lam within 1e-12 relative and mu1 within twice the eigen
    # solve's residual target, 2e-8 max(1, |mu1|) (9.9e-14, 1.3e-8 and
    # 9.9e-14 were the worst seen for lam, mu1 and lambda_star, over 5 to
    # 6001 nodes), and every state of the half walk is exactly even
    mesh = build_mesh(Slab(-0.5, 0.5), nodes)
    assert steady._Curve(profile, mesh).n == (nodes - 1) // 2

    def same_states(half, full):
        assert [s is None for s in half] == [s is None for s in full]
        for a, b in zip(full, half):
            if a is not None:
                assert b.lam == pytest.approx(a.lam, rel=1e-12, abs=0.0)
                assert abs(b.mu1 - a.mu1) <= 2e-8 * max(1.0, abs(a.mu1)), (a.lam, a.mu1, b.mu1)
                assert np.array_equal(b.w, b.w[::-1])

    half, full = continue_branch(profile, mesh), _declined(monkeypatch, continue_branch, profile, mesh)
    assert (len(half.states), half.fold_index) == (len(full.states), full.fold_index)
    same_states(half.states, full.states)
    assert half.lambda_star == pytest.approx(full.lambda_star, rel=1e-12)
    fold = steady.locate_fold(profile, mesh)
    assert fold.lambda_star == pytest.approx(_declined(monkeypatch, steady.locate_fold, profile, mesh).lambda_star,
                                             rel=1e-12)
    grid = [q * full.lambda_star for q in (0.0, 0.3, 0.9, 0.999, 1.01)]
    same_states(list(minimal_states(grid, profile, mesh)),
                _declined(monkeypatch, lambda: list(minimal_states(grid, profile, mesh))))


def _singular_polish_solves(monkeypatch, fail_at=None):
    """Record each solve of `_Curve.fold_polish` that finds G_w singular,
    as the list the returned one fills; with `fail_at`, the solve of that
    index (from 0) in each polish raises as singular."""
    kernel, polish = steady.solve_banded, steady._Curve.fold_polish
    singular, solves = [], []

    def recorded(ab, b, **kwargs):
        if sys._getframe(1).f_code.co_name != "fold_polish":
            return kernel(ab, b, **kwargs)
        solves.append(b)
        try:
            if len(solves) - 1 == fail_at:
                raise np.linalg.LinAlgError("singular matrix")
            return kernel(ab, b, **kwargs)
        except np.linalg.LinAlgError:
            singular.append(len(solves) - 1)
            raise

    def counted(self, w, lam, start):
        solves.clear()
        return polish(self, w, lam, start)

    monkeypatch.setattr(steady, "solve_banded", recorded)
    monkeypatch.setattr(steady._Curve, "fold_polish", counted)
    return singular


def test_fold_polish_stops_at_a_singular_jacobian_once_converged(monkeypatch):
    # the mirrored 401-node two-bump polish lands on the fold exactly at its
    # 4th iterate: G_w there is singular to dgtsv, |G| is under the roundoff
    # floor and the last update moved lam by 3e-8 relative, so the polish
    # keeps that iterate where it used to fail
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    full = _declined(monkeypatch, continue_branch, SlabSinPiecewise(), mesh)
    singular = _singular_polish_solves(monkeypatch)
    branch = continue_branch(SlabSinPiecewise(), mesh)
    assert singular == [6], singular  # the 1st solve of the 4th iterate
    assert branch.lambda_star == pytest.approx(full.lambda_star, rel=1e-12)
    assert abs(branch.fold_state.mu1) <= 1e-8


def test_fold_polish_fails_at_a_singular_jacobian_before_an_update(monkeypatch):
    # started on the fold itself, the polish's first iterate is at the
    # roundoff floor, but no update has measured lam yet: a singular G_w
    # there fails the polish
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    fold = steady.locate_fold(Constant(1.0), mesh)
    curve = steady._Curve(Constant(1.0), mesh)
    w, start = curve.restrict(fold.w_star), curve.restrict(fold.phi_star)
    assert np.abs(steady._residual(curve.Lb, w, fold.lambda_star, curve.f / np.square(1.0 - w))).max() <= curve.res_floor
    singular = _singular_polish_solves(monkeypatch, fail_at=0)
    assert curve.fold_polish(w, fold.lambda_star, start) is None
    assert singular == [0]


# ---------------------------------------------------------------------------
# the fold alone, from a coarse walk and a fine polish


def _fold_arrays(fold):
    st = fold.fold_state
    return [fold.lambda_star, st.lam, st.mu1, st.w, fold.w_star, fold.phi_star, fold.psi_star]


def test_locate_fold_falls_back_to_the_full_walk(monkeypatch):
    # the first polish on the fine mesh fails; locate_fold then walks the
    # fine mesh itself and returns continue_branch's fold, bitwise
    mesh = build_mesh(Slab(-0.5, 0.5), 1001)
    full = continue_branch(Constant(1.0), mesh)
    polish = steady._Curve.fold_polish
    fine_calls = []

    def fail_first_fine(self, w, lam, start):
        if self.mesh is mesh:
            fine_calls.append(lam)
            if len(fine_calls) == 1:
                return None
        return polish(self, w, lam, start)

    monkeypatch.setattr(steady._Curve, "fold_polish", fail_first_fine)
    fold = steady.locate_fold(Constant(1.0), mesh)
    assert len(fine_calls) == 2  # the failed polish, then the fine walk's own
    for a, b in zip(_fold_arrays(fold), _fold_arrays(full)):
        assert np.array_equal(a, b)


def test_stalled_fine_polish_eigen_solve_falls_back_to_the_full_walk(monkeypatch):
    # the fine polish's own eigen solve stalls; the polish fails and
    # locate_fold walks the fine mesh itself, as after any failed polish
    mesh = build_mesh(Slab(-0.5, 0.5), 1001)
    full = continue_branch(Constant(1.0), mesh)
    eigen = steady.smallest_eigenvalue_bands
    fine = steady._Curve(Constant(1.0), mesh).n
    stalls = []

    def stall_first_fine_polish(ab, weights, start=None, **kwargs):
        if ab.shape[1] == fine and not stalls:
            stalls.append(start)
            raise steady.IterationLimit("forced")
        return eigen(ab, weights, start=start, **kwargs)

    monkeypatch.setattr(steady, "smallest_eigenvalue_bands", stall_first_fine_polish)
    fold = steady.locate_fold(Constant(1.0), mesh)
    assert len(stalls) == 1
    for a, b in zip(_fold_arrays(fold), _fold_arrays(full)):
        assert np.array_equal(a, b)


def test_locate_fold_walks_small_meshes_in_full(monkeypatch):
    # up to FULL_WALK_NODES nodes the walk runs on the mesh itself; one node
    # more and it runs on COARSE_NODES nodes instead
    walk = steady._walk
    walked = []

    def recorded(curve):
        walked.append(curve.mesh.node_count)
        return walk(curve)

    monkeypatch.setattr(steady, "_walk", recorded)
    n = steady.FULL_WALK_NODES
    assert steady.COARSE_NODES < n
    assert type(steady.locate_fold(Constant(1.0), build_mesh(Slab(-0.5, 0.5), n))) is steady.Fold
    assert type(steady.locate_fold(Constant(1.0), build_mesh(Slab(-0.5, 0.5), n + 1))) is steady.Fold
    assert walked == [n, steady.COARSE_NODES]


@pytest.mark.parametrize("profile", [Constant(1.0), SlabSinPiecewise()], ids=["f1", "two-bump"])
def test_lean_walk_stops_at_the_fold_state_of_the_full_walk(monkeypatch, profile):
    # the walk without states ends at the first point past the fold; its
    # polish starts from states[fold_index] of the walk with states, with
    # the same start vector, so the two folds agree bitwise
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    polish = steady._Curve.fold_polish
    starts = []

    def recorded(self, w, lam, start):
        starts.append((w.copy(), lam, start.copy()))
        return polish(self, w, lam, start)

    monkeypatch.setattr(steady._Curve, "fold_polish", recorded)
    branch = continue_branch(profile, mesh)
    fold = steady.locate_fold(profile, mesh)
    (w_full, lam_full, start_full), (w_lean, lam_lean, start_lean) = starts
    top = branch.states[branch.fold_index]
    assert np.array_equal(w_lean, steady._Curve(profile, mesh).restrict(top.w)) and lam_lean == top.lam
    assert np.array_equal(w_full, w_lean) and lam_full == lam_lean
    assert np.array_equal(start_full, start_lean)
    assert branch.states[branch.fold_index + 1].lam < top.lam
    for a, b in zip(_fold_arrays(fold), _fold_arrays(branch)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("nodes", [401, 1001])
def test_locate_fold_solves_no_eigenpair_before_the_polish(monkeypatch, nodes):
    events = []
    eigen = steady.smallest_eigenvalue_bands
    polish = steady._Curve.fold_polish

    def eigen_recorded(*args, **kwargs):
        events.append("eigen")
        return eigen(*args, **kwargs)

    def polish_recorded(self, w, lam, start):
        events.append("polish")
        return polish(self, w, lam, start)

    monkeypatch.setattr(steady, "smallest_eigenvalue_bands", eigen_recorded)
    monkeypatch.setattr(steady._Curve, "fold_polish", polish_recorded)
    steady.locate_fold(Constant(1.0), build_mesh(Slab(-0.5, 0.5), nodes))
    # the polish's own eigen solve, then the fold state's; on a fine mesh
    # the same again after the coarse fold
    assert events == ["polish", "eigen", "eigen"] * (1 if nodes <= steady.FULL_WALK_NODES else 2)


def test_fold_polish_does_not_depend_on_its_start(monkeypatch):
    # two polishes on one mesh: from the interpolated coarse fold
    # (locate_fold) and from the fine walk's last point and secant.  The
    # residual floor here is 4.3e-6, and polishes stopped at the floor left
    # the two lam* 4e-7 apart; stopped on the lam step as well, they agree
    mesh = build_mesh(RadialBall(3, 1.0), 6001)
    profile = Power(1.0)
    nested = steady.locate_fold(profile, mesh)
    monkeypatch.setattr(steady, "FULL_WALK_NODES", mesh.node_count)  # walk the mesh itself
    walked = steady.locate_fold(profile, mesh)
    assert walked.lambda_star == pytest.approx(nested.lambda_star, rel=1e-10)


FOLD_PAIR_CASES = (
    (Slab(-0.5, 0.5), Constant(1.0)),
    (Slab(-0.5, 0.5), SlabSinPiecewise()),
    (RadialBall(2, 1.0), Constant(1.0)),
    (RadialBall(3, 1.0), Power(1.0)),
)
FOLD_PAIRS = pytest.mark.parametrize("geometry,profile", FOLD_PAIR_CASES,
                                     ids=["slab-f1", "slab-two-bump", "ball2-f1", "ball3-power1"])


@FOLD_PAIRS
def test_fold_polish_stops_before_its_update_cap(monkeypatch, geometry, profile):
    # each Newton update solves G_w twice, for two right sides; the polish
    # stops on its own test, before the cap of 8 updates, on the mesh
    # itself (401 nodes) and on the fine mesh of the nested search (2001)
    kernel = steady.solve_banded
    polish = steady._Curve.fold_polish
    solves, updates = [], []

    def counted(ab, b, **kwargs):
        solves.append(np.ndim(b) == 2)
        return kernel(ab, b, **kwargs)

    def recorded(self, w, lam, start):
        solves.clear()
        out = polish(self, w, lam, start)
        updates.append(sum(solves) // 2)
        return out

    monkeypatch.setattr(steady, "solve_banded", counted)
    monkeypatch.setattr(steady._Curve, "fold_polish", recorded)
    for nodes in (401, 2001):
        steady.locate_fold(profile, build_mesh(geometry, nodes))
    assert len(updates) == 3 and all(0 < k < 8 for k in updates), updates


def test_corrector_stops_once_its_residual_stops_falling(monkeypatch):
    # every corrector call of the four 401-node walks that converges has a
    # strictly falling residual sup-norm; a call that fails gives up at the
    # first residual that is not below the one before, after at most two
    # solves (it took 14 when it ran to its 14-iterate cap)
    kernel, residual, correct = steady.solve_banded, steady._residual, steady._Curve.correct
    calls = []

    def counted(ab, b, **kwargs):
        if sys._getframe(1).f_code.co_name == "correct":
            calls[-1]["solves"] += 1
        return kernel(ab, b, **kwargs)

    def traced(*args):
        R = residual(*args)
        if sys._getframe(1).f_code.co_name == "correct":
            calls[-1]["res"].append(np.max(np.abs(R)))
        return R

    def recorded(self, *args, **kwargs):
        calls.append({"res": [], "solves": 0})
        calls[-1]["ok"] = (out := correct(self, *args, **kwargs)) is not None
        return out

    monkeypatch.setattr(steady, "solve_banded", counted)
    monkeypatch.setattr(steady, "_residual", traced)
    monkeypatch.setattr(steady._Curve, "correct", recorded)
    for geometry, profile in FOLD_PAIR_CASES:
        continue_branch(profile, build_mesh(geometry, 401))
    failed = [c for c in calls if not c["ok"]]
    assert failed and all(c["solves"] <= 2 for c in failed), [c["solves"] for c in failed]
    for c in calls:
        if c["ok"]:
            assert all(b < a for a, b in zip(c["res"], c["res"][1:])), c["res"]


def _correct_reference(self, w, lam, tau_w, tau_lam, base_w, base_lam, ds, max_steps):
    """The bordered Newton of _Curve.correct as it was written before G_lam
    was shared: each iterate forms (1 - w)^2 and (1 - w)^3 by powers, f / (1 - w)^2
    twice and the constraint weights wq tau_w three times.  The oracle for
    _Curve.correct, with the same kernel, stops and damping."""
    w = np.array(w, dtype=float)
    lam = float(lam)
    tol_eff = max(1e-10, self.res_floor)
    last = np.inf
    for _ in range(max_steps):
        gap = 1.0 - w
        if gap.min() <= 1e-12:
            return None
        gap2 = gap**2
        R = bands_matvec(self.Lb, w) + lam * self.f / gap2
        Ncon = float(np.dot(self.wq, tau_w * (w - base_w)) + tau_lam * (lam - base_lam) - ds)
        res = float(np.max(np.abs(R)))
        if res <= tol_eff and abs(Ncon) <= 1e-11 * max(1.0, abs(ds)):
            return w, lam
        if res >= last and res > tol_eff:
            return None
        last = res
        Jb = self.Lb.copy()
        Jb[1] += 2.0 * lam * self.f / gap**3
        try:
            ab = solve_banded(Jb, np.column_stack((R, self.f / gap2)))
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


@pytest.mark.parametrize("geometry,profile,nodes",
                         [case + (401,) for case in FOLD_PAIR_CASES] + [(Slab(-0.5, 0.5), SlabSinPiecewise(), 2001)],
                         ids=["slab-f1", "slab-two-bump", "ball2-f1", "ball3-power1", "slab-two-bump-2001"])
def test_corrector_matches_the_reference(monkeypatch, geometry, profile, nodes):
    # G_lam formed once an iterate, no cube by pow and the constraint weights
    # formed once a call move the walk's points by roundoff alone: the same
    # states, lam and sup_w within 1e-9 relative (6.4e-13 and 2.8e-12 seen)
    # and mu1 within 2e-8 max(1, |mu1|) (3.9e-10 seen)
    mesh = build_mesh(geometry, nodes)
    lean = continue_branch(profile, mesh)
    monkeypatch.setattr(steady._Curve, "correct", _correct_reference)
    ref = continue_branch(profile, mesh)
    assert (len(lean.states), lean.fold_index) == (len(ref.states), ref.fold_index)
    for a, b in zip(ref.states, lean.states):
        assert b.lam == pytest.approx(a.lam, rel=1e-9)
        assert b.sup_w == pytest.approx(a.sup_w, rel=1e-9)
        assert abs(b.mu1 - a.mu1) <= 2e-8 * max(1.0, abs(a.mu1)), (a.lam, a.mu1, b.mu1)
    assert lean.lambda_star == pytest.approx(ref.lambda_star, rel=1e-10)


@FOLD_PAIRS
def test_locate_fold_agrees_with_the_full_walk(geometry, profile):
    mesh = build_mesh(geometry, 2001)
    full = continue_branch(profile, mesh)
    fold = steady.locate_fold(profile, mesh)
    assert type(fold) is steady.Fold  # no states walked on this mesh
    assert fold.lambda_star == pytest.approx(full.lambda_star, rel=1e-10)
    a, b = (dataclasses.asdict(evaluate_all([30.0], fd, profile, mesh)[0]) for fd in (full, fold))
    assert a.pop("flags") == b.pop("flags")
    assert a.keys() == b.keys()
    for key in a:
        assert b[key] == pytest.approx(a[key], rel=1e-6), key


# ---------------------------------------------------------------------------
# inverse iteration: Rayleigh quotient and residual from the solve


def recorded_eigen_solves(geometry, profile, nodes):
    """continue_branch on `nodes` nodes; returns every eigen solve as
    (ab, mu, v) and the number of inverse-iteration solves."""
    eigen, kernel = steady.smallest_eigenvalue_bands, steady.solve_banded
    pairs, solves = [], []

    def recorded(ab, weights, start=None, radius=None):
        mu, v, res = eigen(ab, weights, start=start, radius=radius)
        pairs.append((ab, mu, v))
        return mu, v, res

    def counted(ab, b, **kwargs):
        solves.append(sys._getframe(1).f_code.co_name == "_inverse_iteration")
        return kernel(ab, b, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steady, "smallest_eigenvalue_bands", recorded)
        mp.setattr(steady, "solve_banded", counted)
        continue_branch(profile, build_mesh(geometry, nodes))
    return pairs, sum(solves)


def eigen_floor(ab):
    """50 eps ||A|| on the Gershgorin norm: the eigen-residual floor of
    smallest_eigenvalue_bands."""
    radius = np.zeros(ab.shape[1])
    radius[:-1] += np.abs(ab[0, 1:])
    radius[1:] += np.abs(ab[2, :-1])
    return 50.0 * np.finfo(float).eps * (np.max(np.abs(ab[1])) + np.max(radius))


@pytest.fixture(scope="module")
def fold_pair_solves_401():
    return [recorded_eigen_solves(geometry, profile, 401) for geometry, profile in FOLD_PAIR_CASES]


def test_eigenpairs_meet_the_accept_target_with_A(fold_pair_solves_401):
    # the residual that stops inverse iteration comes from the solve; the
    # residual A v - mu v formed with A meets the accept target as well
    for pairs, _ in fold_pair_solves_401:
        for ab, mu, v in pairs:
            res = np.max(np.abs(bands_matvec(ab, v) - mu * v))
            assert res <= max(1e-8 * max(1.0, abs(mu)), 2.0 * eigen_floor(ab)), (mu, res)


def test_inverse_iteration_solve_count(fold_pair_solves_401):
    # each state's solve starts from the last three eigenvectors extrapolated
    # in chord length and takes about one solve: the four walks take 401
    # solves (670 from the previous state's eigenvector alone, 735 with the
    # shift on the Rayleigh quotient from the second iterate on)
    assert sum(count for _, count in fold_pair_solves_401) <= 430


def test_extrapolated_start_takes_about_one_solve_per_state():
    # on the 2001-node two-bump walk the extrapolated start leaves about one
    # and a half inverse-iteration solves per eigen solve (2.4 from the
    # previous state's eigenvector), and each mu1 agrees with a cold solve of
    # the same state to the accept target
    mesh = build_mesh(Slab(-0.5, 0.5), 2001)
    pairs, solves = recorded_eigen_solves(Slab(-0.5, 0.5), SlabSinPiecewise(), 2001)
    assert solves <= 1.6 * len(pairs), (solves, len(pairs))
    branch = continue_branch(SlabSinPiecewise(), mesh)
    curve = steady._Curve(SlabSinPiecewise(), mesh)
    for st in branch.states:
        cold, _ = linearized_eigenpair(curve, curve.restrict(st.w), st.lam, None)  # no start: cold
        assert abs(st.mu1 - cold) <= 1e-8 * max(1.0, abs(cold)), (st.lam, st.mu1, cold)


@pytest.mark.parametrize("geometry,profile", [FOLD_PAIR_CASES[i] for i in (0, 2, 3)],
                         ids=["slab-f1", "ball2-f1", "ball3-power1"])
def test_mu1_matches_a_dense_symmetric_solver(geometry, profile):
    # W A is symmetric for the curve's quadrature weights W, so A is similar
    # to the symmetric tridiagonal with off-diagonal sqrt(a_{i,i+1} a_{i+1,i});
    # at the ball's origin, whose weight is 0, that product still
    # symmetrizes, and so it does at a mirrored slab's midpoint, whose left
    # coupling is doubled and whose weight is half the others'
    mesh = build_mesh(geometry, 101)
    wq = steady._Curve(profile, mesh).wq
    pairs, _ = recorded_eigen_solves(geometry, profile, 101)
    for ab, mu, _ in pairs:
        upper, lower = ab[0, 1:], ab[2, :-1]
        assert np.allclose(wq[1:-1] * upper[1:], wq[2:] * lower[1:], rtol=1e-14, atol=0.0)
        off = np.sqrt(upper * lower)
        dense = np.diag(ab[1]) + np.diag(off, 1) + np.diag(off, -1)
        assert abs(mu - np.linalg.eigvalsh(dense)[0]) <= eigen_floor(ab)


def test_lambda_star_scales_inversely_with_f():
    # replacing f by f/2 doubles the fold load
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    half = continue_branch(Constant(0.5), mesh)
    full = continue_branch(Constant(1.0), mesh)
    assert half.lambda_star == pytest.approx(2.0 * full.lambda_star, rel=1e-9)


def test_eigenfunction_normalizations(branch_f1_401):
    br = branch_f1_401
    assert integrate(br.mesh, br.phi_star**2) == pytest.approx(1.0, abs=1e-10)
    assert integrate(br.mesh, br.psi_star) == pytest.approx(1.0, abs=1e-10)
    ratio = br.psi_star[1:-1] / br.phi_star[1:-1]
    assert np.max(ratio) - np.min(ratio) < 1e-9
    assert np.all(br.phi_star[1:-1] > 0.0)


def test_states_increase_toward_extremal(branch_f1_401):
    br = branch_f1_401
    minimal = br.states[: br.fold_index + 1]
    dist = [np.max(np.abs(s.w - br.w_star)) for s in minimal]
    assert all(a > b for a, b in zip(dist, dist[1:]))
    mid = len(minimal) // 2
    lo, hi = minimal[mid].w, minimal[mid + 1].w
    assert np.all(hi - lo >= -1e-14)
    assert hi[len(hi) // 2] > lo[len(lo) // 2]


def test_solvability_brackets_fold(branch_f1_401):
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    lam_star = branch_f1_401.lambda_star
    assert next(minimal_states([0.99 * lam_star], Constant(1.0), mesh)) is not None
    assert next(minimal_states([1.01 * lam_star], Constant(1.0), mesh)) is None


def test_branch_csv(tmp_path, branch_f1_401):
    path = tmp_path / "branch.csv"
    branch_to_csv(branch_f1_401, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,sup_w,mu1"
    assert len(lines) == len(branch_f1_401.states) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(branch_f1_401.states[0].lam)


# ---------------------------------------------------------------------------
# singular radial family in high dimension


def test_singular_extremal_values():
    se = singular_extremal_radial(8, 0.0)
    assert se.lambda_star == pytest.approx(40.0 / 9.0, rel=1e-14)
    assert se.beta == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert alpha_max(8) == pytest.approx((-44.0 + 18.0 * math.sqrt(6.0)) / 4.0,
                                         rel=1e-14)
    assert 0.0 < alpha_max(8) < 0.03


def test_singular_extremal_guards():
    with pytest.raises(OutOfRange):
        singular_extremal_radial(7, 0.0)
    with pytest.raises(OutOfRange):
        singular_extremal_radial(8, 0.5)
