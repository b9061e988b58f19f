"""Steady states on the unit slab: Newton solves, continuation, the fold,
and the singular radial family.

Reference values come from the first integral of w'' + lam/(1-w)^2 = 0 with
w(+-1/2) = 0 and midpoint value m: (w')^2 = 2 lam (1/(1-m) - 1/(1-w)), and
the substitution w = m - xi^2 collapses the half-length condition to

    lam(m) = 2 (1-m) * (sqrt(m) + (1-m) * asinh(sqrt(m/(1-m))))**2.

Maximizing over m in (0,1) gives the fold; inverting the increasing branch
gives midpoint values below it.  These are recomputed here and compared
against the frozen constants before the solver is trusted against them.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quenchlab.mesh import Slab, build_mesh, integrate
from quenchlab.profiles import Constant
from quenchlab import steady
from quenchlab.steady import (
    NonConvergence,
    OutOfRange,
    StepFailure,
    alpha_max,
    branch_to_csv,
    continue_branch,
    linearized_eigenpair,
    singular_extremal_radial,
    smallest_eigenvalue_bands,
    solve_minimal,
)

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
    st = solve_minimal(0.0, Constant(1.0), mesh)
    assert np.all(st.w.values == 0.0)
    assert st.mu1 == pytest.approx(math.pi**2, rel=1e-3)


def test_solve_minimal_matches_closed_form():
    mesh = build_mesh(Slab(-0.5, 0.5), 401)
    # the tolerance widens at 1.35 where fold curvature inflates the h^2 term
    for lam, m_exact, tol in ((0.5, SUP_LAM_HALF, 1e-6),
                              (1.35, SUP_LAM_135, 5e-6)):
        st = solve_minimal(lam, Constant(1.0), mesh)
        assert st is not None
        assert abs(st.sup_w - m_exact) < tol
        assert st.residual_norm < 1e-9


def test_solve_minimal_sup_converges_second_order():
    errs = []
    for n in (201, 401, 801):
        st = solve_minimal(0.5, Constant(1.0), build_mesh(Slab(-0.5, 0.5), n))
        errs.append(abs(np.max(st.w.values) - SUP_LAM_HALF))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_solve_minimal_beyond_fold():
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    assert solve_minimal(2.0, Constant(1.0), mesh) is None
    with pytest.raises(NonConvergence):
        solve_minimal(2.0, Constant(1.0), mesh, fold_estimate=2.5)


def test_mu1_at_zero_state():
    # at w = 0 the linearization is -d^2/dx^2 - 2 lam, so mu1 = pi^2 - 2 lam
    import dataclasses

    lam = 0.3
    errs = []
    for n in (201, 401):
        mesh = build_mesh(Slab(-0.5, 0.5), n)
        st = solve_minimal(0.0, Constant(1.0), mesh)
        pair = linearized_eigenpair(dataclasses.replace(st, lam=lam), Constant(1.0))
        errs.append(abs(pair.eigenvalue - (math.pi**2 - 2.0 * lam)))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 3.5


def test_eigen_residual_recompute(branch_f1_401):
    from quenchlab.mesh import bands_matvec, laplacian_bands

    st = branch_f1_401.minimal_states()[len(branch_f1_401.minimal_states()) // 2]
    pair = linearized_eigenpair(st, Constant(1.0))
    mesh = st.w.mesh
    mu = pair.eigenvalue
    phi = pair.eigenfunction.values
    ab = laplacian_bands(mesh)
    inner = mesh.unknown_slice
    pot = 2.0 * st.lam / (1.0 - st.w.values[inner]) ** 3
    resid = -bands_matvec(ab, phi[inner]) - pot * phi[inner] - mu * phi[inner]
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(phi))


# ---------------------------------------------------------------------------
# continuation and the fold


def test_branch_monotonicity(branch_f1_401):
    br = branch_f1_401
    minimal = br.minimal_states()
    lams = np.array([s.lam for s in minimal])
    sups = np.array([np.max(s.w.values) for s in minimal])
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
    assert np.max(branch_f1_401.w_star.values) == pytest.approx(M_STAR, abs=1e-4)


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
    for st in br.states + (br.fold_state,):
        cold = linearized_eigenpair(st, Constant(1.0)).eigenvalue
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

    monkeypatch.setattr(steady._Curve, "fold_polish", lambda self, w, lam: None)
    with pytest.raises(StepFailure):
        continue_branch(Constant(1.0), build_mesh(Slab(-0.5, 0.5), 101))
    cfg = tmp_path / "steady.json"
    cfg.write_text(json.dumps({"node_count": 101}))
    assert main(["steady", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_lambda_star_scales_inversely_with_f():
    # replacing f by f/2 doubles the fold load
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    half = continue_branch(Constant(0.5), mesh)
    full = continue_branch(Constant(1.0), mesh)
    assert half.lambda_star == pytest.approx(2.0 * full.lambda_star, rel=1e-9)


def test_eigenfunction_normalizations(branch_f1_401):
    from quenchlab.mesh import Field

    br = branch_f1_401
    mesh = br.w_star.mesh
    phi_sq = Field(mesh, br.phi_star.values**2)
    assert integrate(phi_sq) == pytest.approx(1.0, abs=1e-10)
    assert integrate(br.psi_star) == pytest.approx(1.0, abs=1e-10)
    ratio = br.psi_star.values[1:-1] / br.phi_star.values[1:-1]
    assert np.max(ratio) - np.min(ratio) < 1e-9
    assert np.all(br.phi_star.values[1:-1] > 0.0)


def test_states_increase_toward_extremal(branch_f1_401):
    br = branch_f1_401
    minimal = br.minimal_states()
    dist = [np.max(np.abs(s.w.values - br.w_star.values)) for s in minimal]
    assert all(a > b for a, b in zip(dist, dist[1:]))
    mid = len(minimal) // 2
    lo, hi = minimal[mid].w.values, minimal[mid + 1].w.values
    assert np.all(hi - lo >= -1e-14)
    assert hi[len(hi) // 2] > lo[len(lo) // 2]


def test_solvability_brackets_fold(branch_f1_401):
    mesh = build_mesh(Slab(-0.5, 0.5), 201)
    lam_star = branch_f1_401.lambda_star
    assert solve_minimal(0.99 * lam_star, Constant(1.0), mesh) is not None
    assert solve_minimal(1.01 * lam_star, Constant(1.0), mesh) is None


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


def test_singular_extremal_symbolic():
    import sympy as sp

    r, alpha, N = sp.symbols("r alpha N", positive=True)
    beta = (2 + alpha) / 3
    lam = beta * (N + beta - 2)
    w = 1 - r**beta
    f = r**alpha
    lhs = sp.diff(w, r, 2) + (N - 1) / r * sp.diff(w, r) + lam * f / (1 - w) ** 2
    assert sp.simplify(lhs) == 0
    assert sp.simplify(lam - (2 + alpha) * (3 * N + alpha - 4) / 9) == 0


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


def test_singular_extremal_discrete_residual():
    # the discrete radial operator applied to 1 - r^(2/3) away from the
    # singular origin reproduces -lam* f/(1-w)^2 to O(h^2)
    se = singular_extremal_radial(8, 0.0)
    errs = []
    for n in (801, 1601):
        from quenchlab.mesh import RadialBall, apply_laplacian

        mesh = build_mesh(RadialBall(8, 1.0), n)
        w = se.w_star(mesh)
        lap = apply_laplacian(w).values
        keep = mesh.nodes >= 0.2
        keep[-1] = False
        rhs = -se.lambda_star / (1.0 - w.values[keep]) ** 2
        errs.append(np.max(np.abs(lap[keep] - rhs)))
    assert errs[0] / errs[1] > 3.5
