"""Time integration and touchdown detection.

The detector is calibrated against a hand-built trajectory following the
exact cubic law 1 - u(0,t) = c (T - t)^(1/3), where every reported
quantity (T, the touchdown set, the rate exponent) is known in closed
form before the integrator is involved.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import solve_banded, solveh_banded

from quenchlab import dynamics
from quenchlab.csvio import SolverFailure
from quenchlab.dynamics import (
    StepLimit,
    TimeConfig,
    Trajectory,
    detect_quench,
    eta_quench_time,
    integrate,
    rate_fit,
    read_trajectory,
    write_max_history,
    write_snapshots,
)
from quenchlab.mesh import RadialBall, Slab, bands_matvec, build_mesh, laplacian_bands
from quenchlab.profiles import Constant, Power, SlabSinPiecewise, Tabulated, evaluate, mirror_even

from oracles import convergence_check, liapunov

UNIT_SLAB = Slab(-0.5, 0.5)


def pin_step(monkeypatch, dt):
    """At the default eta_step (s = 1), make dt both the first step and the cap."""
    monkeypatch.setattr(dynamics, "DT_INITIAL", dt)
    monkeypatch.setattr(dynamics, "DT_MAX", dt)


def synthetic_cubic_trajectory(T=1.0, c=0.5, node_count=101, levels=60):
    """Trajectory with 1 - u(0,t) = c (T-t)^(1/3) and profile cos(pi x)."""
    mesh = build_mesh(UNIT_SLAB, node_count)
    shape = np.cos(math.pi * mesh.nodes)
    gaps = np.logspace(math.log10(c), -3, levels)
    times, values, hist = [], [], []
    for g in gaps:
        t = T - (g / c) ** 3
        times.append(t)
        values.append((1.0 - g) * shape)
        hist.append((t, 1.0 - g, 0.0))
    return Trajectory(lam=1.0, mesh=mesh, times=np.array(times),
                      values=np.array(values), max_history=np.array(hist))


# ---------------------------------------------------------------------------
# detector against the synthetic law


def test_detect_quench_synthetic_exact():
    traj = synthetic_cubic_trajectory()
    rep = detect_quench(traj, quench_eps=1e-2)
    assert rep.quenched
    assert rep.T == pytest.approx(1.0, abs=1e-6)
    assert rep.quench_set == pytest.approx((0.0,), abs=1e-12)
    assert rep.p == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rep.M == pytest.approx(0.5, rel=1e-6)
    assert rep.fit_residual < 1e-8


def test_rising_gap_cube_is_a_solver_failure():
    # the gap falls to 0.2 and then rises from 1e-3 to 1e-2: over the last
    # decade the gap cube grows in time and extrapolates to no touchdown
    gaps = np.concatenate([np.geomspace(0.5, 0.2, 10), np.geomspace(1e-3, 1e-2, 10)])
    hist = np.column_stack([np.linspace(0.0, 1.0, gaps.size), 1.0 - gaps, np.zeros(gaps.size)])
    traj = dataclasses.replace(synthetic_cubic_trajectory(), max_history=hist)
    with pytest.raises(SolverFailure, match="gap cube not decreasing"):
        detect_quench(traj, quench_eps=2e-2)


def test_rate_fit_synthetic():
    traj = synthetic_cubic_trajectory(T=2.0, c=0.3)
    fit = rate_fit(traj, 0.0, 2.0)
    assert fit.p == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert fit.M == pytest.approx(0.3, rel=1e-8)
    assert not fit.low_confidence
    assert fit.decades > 2.0


def test_detect_quench_below_threshold():
    traj = synthetic_cubic_trajectory()
    rep = detect_quench(traj, quench_eps=1e-4)  # final gap 1e-3 is too wide
    assert not rep.quenched
    assert rep.T is None and rep.quench_set == ()
    assert rep.last_resolved_gap == pytest.approx(1e-3, rel=1e-6)


def reference_quench_set(mesh, final_u):
    """The touchdown set by a scan over the near-minimum nodes, one member at a time."""
    interior = mesh.unknown_slice
    coords = mesh.nodes[interior]
    g_int = 1.0 - final_u[interior]
    members = coords[g_int <= 2.0 * float(g_int.min())]
    clusters = [[float(members[0])]]
    for c in members[1:]:
        if float(c) - clusters[-1][-1] <= 3.0 * mesh.h + 1e-15:
            clusters[-1].append(float(c))
        else:
            clusters.append([float(c)])
    return tuple(float(np.mean(cl)) for cl in clusters)


@given(ball=st.booleans(), node_count=st.integers(21, 301), start=st.integers(0, 300),
       steps=st.lists(st.sampled_from([1, 2, 3, 4, 5, 9]), max_size=8),
       factors=st.lists(st.floats(1.0, 2.0), min_size=8, max_size=8))
@example(ball=False, node_count=101, start=40, steps=[3], factors=[2.0] * 8)
@example(ball=False, node_count=101, start=40, steps=[4], factors=[2.0] * 8)
@example(ball=True, node_count=101, start=0, steps=[3, 4], factors=[1.0] * 8)
def test_quench_set_matches_member_scan(ball, node_count, start, steps, factors):
    # near-minimum nodes 3h apart share a cluster; 4h apart they do not
    mesh = build_mesh(RadialBall(3) if ball else UNIT_SLAB, node_count)
    interior = np.arange(mesh.node_count)[mesh.unknown_slice]
    picks = np.cumsum([start % interior.size] + steps)
    picks = picks[picks < interior.size]
    gap = np.full(mesh.node_count, 0.5)
    gap[interior[picks]] = 1e-3 * np.array([1.0] + factors)[: picks.size]
    levels = np.geomspace(0.5, 1e-3, 20)
    hist = np.column_stack([1.0 - (levels / 0.5) ** 3, 1.0 - levels, np.zeros(levels.size)])
    traj = Trajectory(lam=1.0, mesh=mesh, times=np.array([0.0, hist[-1, 0]]),
                      values=np.array([np.zeros(mesh.node_count), 1.0 - gap]), max_history=hist)
    rep = detect_quench(traj, quench_eps=1e-2)
    assert rep.quench_set == reference_quench_set(mesh, traj.values[-1])
    assert len(rep.quench_set) == 1 + np.count_nonzero(np.diff(picks) > 3)


def test_rate_fit_skips_states_at_or_past_T():
    # the last ten stored times are at or past the T given, and one earlier
    # state touches 1 at a: the fit uses exactly the states a scan keeps
    traj = synthetic_cubic_trajectory(T=2.0, c=0.3)
    values = traj.values.copy()
    values[5] = 1.0
    traj = dataclasses.replace(traj, values=values)
    a, T = 0.0, float(traj.times[-10])
    kept = [k for k, (t, u) in enumerate(zip(traj.times.tolist(), traj.values))
            if t < T and 1.0 - float(np.interp(a, traj.mesh.nodes, u)) > 0]
    assert len(kept) == traj.times.size - 11
    reference = rate_fit(dataclasses.replace(traj, times=traj.times[kept], values=traj.values[kept]), a, T)
    assert rate_fit(traj, a, T) == reference


# ---------------------------------------------------------------------------
# integrator behavior


def test_subcritical_run_does_not_quench():
    mesh = build_mesh(UNIT_SLAB, 101)
    traj, rep = integrate(0.0, Constant(1.0), mesh, TimeConfig(t_max=0.1))
    assert not rep.quenched
    assert np.all(traj.values[-1] == 0.0)
    assert traj.max_history[-1, 0] == pytest.approx(0.1, rel=1e-9)


def test_report_idempotent(quench_run_201):
    traj, rep = quench_run_201
    again = detect_quench(traj, 1e-3)
    assert again == rep


def test_quench_run_properties(quench_run_201):
    traj, rep = quench_run_201
    assert rep.quenched
    assert rep.T > traj.max_history[-1, 0]
    assert rep.last_resolved_gap <= 1e-3
    assert rep.quench_set == pytest.approx((0.0,), abs=1e-12)
    assert rep.p == pytest.approx(1.0 / 3.0, abs=0.05)
    assert rep.M > 0.0


def test_cubic_lower_bound_positive(quench_run_201):
    traj, rep = quench_run_201
    ratios = [(1.0 - sup) / (rep.T - t) ** (1.0 / 3.0)
              for t, sup, _ in traj.max_history if t < rep.T]
    assert min(ratios) > 0.0
    # near touchdown the ratio settles at the fitted amplitude
    assert ratios[-1] == pytest.approx(rep.M, rel=0.2)


def test_comparison_time_lower_bound(quench_run_201):
    # gap decay is no faster than the flat comparison solution built from
    # sup f, so touchdown cannot beat 1/(3 lam sup f); the 0.2% slack
    # covers extrapolation error in the measured T
    _, rep = quench_run_201
    assert rep.T >= eta_quench_time(5.0, 1.0) * (1.0 - 2e-3)


@pytest.mark.parametrize("profile,lam", [
    (SlabSinPiecewise(), 2.17e5),
    (SlabSinPiecewise(), 1e6),
    (Constant(1.0), 1e3),
    (Constant(1.0), 1e5),
], ids=["two_bump-lam2.17e5", "two_bump-lam1e6", "f1-lam1e3", "f1-lam1e5"])
def test_large_load_T_not_below_flat_time(profile, lam):
    """T >= 1/(3 lam sup f) at default settings, with no slack.

    The flat solution of U' = lam sup f / (1 - U)^2 is a supersolution,
    so the exact T is never below 1/(3 lam sup f), and at these loads it
    exceeds it by less than the T error of a default run.  The sign of
    that error comes from the stage: for the flat ODE u' = F(u) a step of
    the linearized rule du = dt F / (1 - (dt/2) F') lands off the exact
    solution by dt^3 F (F'^2/12 - F F''/6) + O(dt^4), and for
    F = lam / (1 - u)^2 the bracket is -(2/3) lam^2 / (1 - u)^6 < 0.  So
    each step falls short and the run's T comes out late: 3 lam T - 1
    reads +5.6e-5, +3.5e-5, +2.9e-5 and +2.9e-5 on these cases, where the
    iterated Crank-Nicolson stage, whose error has the opposite sign, read
    -8.9e-6, -3.0e-5, -3.6e-5 and -3.6e-5.
    """
    sup_f = 1.0  # both profiles peak at 1
    _, rep = integrate(lam, profile, build_mesh(UNIT_SLAB, 2001), TimeConfig())
    assert rep.quenched
    assert rep.T >= eta_quench_time(lam, sup_f)


def test_touchdown_time_decreases_with_load(quench_run_201):
    _, rep5 = quench_run_201
    mesh = build_mesh(UNIT_SLAB, 201)
    _, rep7 = integrate(7.0, Constant(1.0), mesh, TimeConfig())
    assert rep7.quenched
    assert rep7.T < rep5.T


def test_monotone_in_time_and_symmetric(quench_run_201):
    traj, _ = quench_run_201
    prev = None
    for u in traj.values:
        if prev is not None:
            assert np.all(u - prev >= -1e-12)
        prev = u
    final = traj.values[-1]
    assert np.max(np.abs(final - final[::-1])) < 1e-10


def test_two_bump_profile_quenches_off_center():
    mesh = build_mesh(UNIT_SLAB, 401)
    f = SlabSinPiecewise()
    traj, rep = integrate(10.0, f, mesh, TimeConfig())
    assert rep.quenched
    assert len(rep.quench_set) == 2
    a, b = sorted(rep.quench_set)
    assert a == pytest.approx(-b, abs=1e-9)
    assert all(f(x) > 0.0 for x in rep.quench_set)
    assert 0.1 < b < 0.3


def test_argmax_is_first_node_tied_with_sup():
    # the two bumps tie within 1e-10 sup u for the whole run, and early
    # on every node does; the history keeps the first tied unknown, and its
    # sup u, carried from the stage that made the state, is that state's max
    mesh = build_mesh(UNIT_SLAB, 201)
    traj, _ = integrate(10.0, SlabSinPiecewise(), mesh, TimeConfig(snapshot_stride=1))
    assert len(traj.values) == len(traj.max_history)
    ties = 0
    for u, (_, sup, argmax) in zip(traj.values, traj.max_history):
        assert np.float64(sup).tobytes() == u.max().tobytes()
        tied = mesh.nodes[1:-1][np.abs(u[1:-1] - sup) <= 1e-10 * sup]
        if sup <= 0.0:
            assert math.isnan(argmax)
        else:
            assert argmax == tied[0]
            ties += tied.size > 1
    assert ties > 100


def test_config_validation():
    with pytest.raises(ValueError):
        TimeConfig(quench_eps=0.2)
    with pytest.raises(ValueError):
        TimeConfig(quench_eps=0.0)
    with pytest.raises(ValueError):  # the stepper cannot resolve such a gap
        TimeConfig(quench_eps=1e-5)
    assert TimeConfig(quench_eps=1e-4).quench_eps == 1e-4
    with pytest.raises(TypeError):  # eta_step is the only step-size control
        TimeConfig(dt_initial=1e-6)
    with pytest.raises(TypeError):
        TimeConfig(dt_max=1e-2)
    with pytest.raises(ValueError):
        TimeConfig(t_max=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TimeConfig(t_max=bad)
        with pytest.raises(ValueError):
            TimeConfig(eta_step=bad)
    with pytest.raises(ValueError):
        TimeConfig(snapshot_stride=0)
    with pytest.raises(ValueError):
        TimeConfig(snapshot_stride=2.5)  # would act as a stride of 3
    with pytest.raises(ValueError):
        TimeConfig(snapshot_stride=True)
    with pytest.raises(ValueError):
        TimeConfig(eta_step=0.0)
    for bad in (0.3, 1000.0):  # T is 0.4 % high at 0.1 and 1.3-1.5 % at 0.3
        with pytest.raises(ValueError):
            TimeConfig(eta_step=bad)
    assert TimeConfig(eta_step=0.1).eta_step == 0.1


# ---------------------------------------------------------------------------
# temporal accuracy


@pytest.mark.parametrize("nodes,profile,lam", [
    (401, Constant(1.0), 2.0),
    (2001, SlabSinPiecewise(), 10.0),
], ids=["f1-n401-lam2", "two_bump-n2001-lam10"])
def test_touchdown_time_second_order_in_step_control(nodes, profile, lam):
    # eta_step scales every controller constant (growth target, first dt,
    # dt cap, touchdown-estimate cap), so shrinking it alone by s must
    # shrink the T error like s^2
    mesh = build_mesh(UNIT_SLAB, nodes)
    Ts = []
    for s in (1.0, 0.5, 0.25):
        _, rep = integrate(lam, profile, mesh, TimeConfig(eta_step=1e-2 * s))
        assert rep.quenched
        Ts.append(rep.T)
    order = math.log2(abs(Ts[0] - Ts[1]) / abs(Ts[1] - Ts[2]))
    assert order > 1.8


def test_state_second_order_at_fixed_step(monkeypatch):
    # binary step sizes reach t = 0.25 exactly, so the Richardson ratio of
    # final states is free of endpoint mismatch; at lam = 0.5 the growth
    # target never cuts a step
    mesh = build_mesh(UNIT_SLAB, 101)
    finals = []
    for k in (8, 9, 10):
        dt = 2.0**-k
        pin_step(monkeypatch, dt)
        traj, _ = integrate(0.5, Constant(1.0), mesh, TimeConfig(t_max=0.25))
        assert traj.max_history[-1, 0] == pytest.approx(0.25, abs=1e-14)
        finals.append(traj.values[-1])
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    assert math.log2(d1 / d2) > 1.9


# ---------------------------------------------------------------------------
# fine meshes, where (dt/2) ||L|| grows like dt/h^2

FINE_NODES = (6001, 12001, 24001)


@pytest.fixture(scope="module")
def fine_two_bump_runs():
    """Two-bump slab at lam = 10 and default time settings, on each of FINE_NODES."""
    return {n: integrate(10.0, SlabSinPiecewise(), build_mesh(UNIT_SLAB, n), TimeConfig()) for n in FINE_NODES}


def test_fine_mesh_rejects_no_stage(fine_two_bump_runs):
    # the linearized stage tests no residual, so the roundoff of a large
    # (dt/2) ||L|| fails none: at 24001 nodes every default step is one
    # solve, and eta_step 0.1 makes 93 solves for 87 steps (6 growth rejections)
    stats = fine_two_bump_runs[24001][0].stats
    assert stats.rejected_stage == 0
    assert stats.banded_solves == stats.accepted_steps
    mesh = build_mesh(UNIT_SLAB, 24001)
    assert integrate(10.0, SlabSinPiecewise(), mesh, TimeConfig(eta_step=0.1))[0].stats.rejected_stage == 0


def test_touchdown_time_second_order_in_mesh(fine_two_bump_runs):
    # every mesh takes the same steps, so T's changes are the O(h^2) space
    # error: halving h divides them by 4, within [3.5, 4.5]
    assert len({run[0].stats.accepted_steps for run in fine_two_bump_runs.values()}) == 1
    T = [fine_two_bump_runs[n][1].T for n in FINE_NODES]
    assert 3.5 <= (T[1] - T[0]) / (T[2] - T[1]) <= 4.5


# ---------------------------------------------------------------------------
# energy, comparison clock, convergence


def test_liapunov_reference_values():
    mesh = build_mesh(UNIT_SLAB, 201)
    zero = np.zeros(mesh.node_count)
    assert liapunov(mesh, zero, 1.0, Constant(1.0)) == pytest.approx(-1.0, abs=1e-12)
    assert liapunov(mesh, zero, 0.0, Constant(1.0)) == 0.0


def test_liapunov_decreases_along_flow():
    # stride 1 stores the start and every accepted step: each state the
    # step history records
    mesh = build_mesh(UNIT_SLAB, 201)
    traj, rep = integrate(5.0, Constant(1.0), mesh, TimeConfig(snapshot_stride=1))
    assert rep.quenched
    assert np.array_equal(traj.times, traj.max_history[:, 0])
    vals = [liapunov(mesh, u, 5.0, Constant(1.0)) for u in traj.values]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_comparison_eta_values():
    # lam M = 1/3 puts the comparison touchdown at exactly t = 1
    assert eta_quench_time(1.0, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-15)
    assert eta_quench_time(1e5, 1.0) == pytest.approx(1.0 / 3e5, rel=1e-15)
    with pytest.raises(ValueError):
        eta_quench_time(0.0, 1.0)


def test_convergence_to_minimal_state():
    mesh = build_mesh(UNIT_SLAB, 401)
    cfg = TimeConfig(t_max=20.0)
    trace = convergence_check(0.7, Constant(1.0), mesh, cfg)
    assert trace.distances[-1] < 1e-10
    # strict decay holds until the steady Newton's tolerance floor; past it the
    # distances only jitter at machine precision
    resolved = [d for d in trace.distances if d > 1e-10]
    assert len(resolved) > 10
    assert all(b < a for a, b in zip(resolved[2:], resolved[3:]))
    with pytest.raises(ValueError):
        convergence_check(2.0, Constant(1.0), mesh, cfg)


def test_step_limit_is_a_typed_failure(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    mesh = build_mesh(UNIT_SLAB, 11)
    with pytest.raises(StepLimit):
        integrate(0.0, Constant(1.0), mesh, TimeConfig(t_max=1e4))
    # five steps that end the run exactly are not a failure
    pin_step(monkeypatch, 0.01)
    traj, _ = integrate(0.0, Constant(1.0), mesh, TimeConfig(t_max=0.05))
    assert len(traj.max_history) - 1 == 5


# ---------------------------------------------------------------------------
# stage solve failures


def _stage_inputs():
    mesh = build_mesh(UNIT_SLAB, 11)
    Lb = laplacian_bands(mesh)
    n = Lb.shape[1]
    return Lb, np.ones(n), np.zeros(n), 1e-3


def test_cn_step_singular_solve_is_a_failed_stage(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(dynamics, "solve_banded", singular)
    assert dynamics._linearized_step(*_stage_inputs()) is None


def test_cn_step_propagates_other_solver_faults(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(dynamics, "solve_banded", broken)
    with pytest.raises(TypeError):
        dynamics._linearized_step(*_stage_inputs())


def _linearized_step_reference(Lb, f, lam, u, dt, rows):
    """The linearized stage written with fresh temporaries: the oracle for _linearized_step.

    `Lb` is the 3-row band; with rows = 2 the stage matrix is its symmetric
    2-row band, solved by scipy's solveh_banded.
    """
    gap = 1.0 - u
    force = lam * f / gap**2
    Jb = -0.5 * dt * Lb[:rows]
    Jb[1] += 1.0 - dt * force / gap
    rhs = dt * (bands_matvec(Lb, u) + force)
    try:
        du = solveh_banded(Jb, rhs) if rows == 2 else solve_banded((1, 1), Jb, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(du)):
        return None
    v = u + du
    return v if v.max() < 1.0 - 1e-14 else None


def _run_stage_inputs(quench_run_201):
    traj, _ = quench_run_201
    mesh = traj.mesh
    Lb = laplacian_bands(mesh)
    f = np.asarray(evaluate(Constant(1.0), mesh.nodes[mesh.unknown_slice]), dtype=float)
    states = [u[mesh.unknown_slice].copy() for u in traj.values]
    return Lb, f, traj.lam, states


def test_stage_matches_reference_bitwise(quench_run_201):
    # every stored state of a quenching run, at steps from easy to ones
    # that overshoot u = 1, in the general (LU) and the symmetric (LDL^T) layout
    Lb, f, lam, states = _run_stage_inputs(quench_run_201)
    for rows in (3, 2):
        solved = failed = 0
        for u in states:
            for dt in (1e-5, 1e-4, 1e-3, 1e-2):
                ref = _linearized_step_reference(Lb, f, lam, u, dt, rows)
                got = dynamics._linearized_step(Lb[:rows], lam * f, u, dt)
                if ref is None:
                    assert got is None
                else:
                    v, vmax = got
                    assert v.tobytes() == ref.tobytes()
                    assert vmax == ref.max()  # the one sup the stage takes, bitwise
                failed += ref is None
                solved += ref is not None
        assert solved > 20 and failed > 20


def test_each_stage_makes_one_banded_solve(monkeypatch):
    # accepted and growth-rejected stages alike: the stage is one linearized
    # update, so the run makes one solve per stage and counts each
    mesh = build_mesh(UNIT_SLAB, 2001)
    stages, calls = [], []
    stage, kernel = dynamics._linearized_step, dynamics.solve_banded

    def counted_stage(*args):
        before = len(calls)
        stages.append(stage(*args))
        assert len(calls) == before + 1
        return stages[-1]

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_linearized_step", counted_stage)
    monkeypatch.setattr(dynamics, "solve_banded", counted)
    stats = integrate(1e5, SlabSinPiecewise(), mesh, TimeConfig())[0].stats
    assert stats.rejected_growth > 0
    assert stats.banded_solves == len(calls) == len(stages)
    assert len(stages) == stats.accepted_steps + stats.rejected_stage + stats.rejected_growth


@pytest.mark.parametrize("geometry,rows", [(UNIT_SLAB, 2), (Slab(0.25, 1.0), 2),
                                           (RadialBall(1), 3), (RadialBall(3), 3)])
def test_stage_layout_follows_laplacian_symmetry(monkeypatch, geometry, rows):
    # a slab's Laplacian is symmetric and its stages are LDL^T solves of the
    # 2-row band; a ball's is not, and its stages are LU solves of the 3-row band
    layouts = []
    kernel, product = dynamics.solve_banded, dynamics.bands_matvec

    def recorded(ab, *args, **kwargs):
        layouts.append(ab.shape[0])
        return kernel(ab, *args, **kwargs)

    def recorded_product(ab, v):
        layouts.append(ab.shape[0])
        return product(ab, v)

    monkeypatch.setattr(dynamics, "solve_banded", recorded)
    monkeypatch.setattr(dynamics, "bands_matvec", recorded_product)
    integrate(10.0, Constant(1.0), build_mesh(geometry, 201), TimeConfig(t_max=0.05))
    assert len(layouts) > 20 and set(layouts) == {rows}


def _run_with_general_stages(lam, profile, mesh):
    """integrate with every stage solved in the 3-row layout by dgtsv: the stage
    sees the 3-row form of the symmetric band the run passes (the mirror half's
    on an even profile)."""
    stage = dynamics._linearized_step

    def general(band, *args):
        return stage(np.vstack([band, np.append(band[0, 1:], 0.0)]), *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_linearized_step", general)
        return integrate(lam, profile, mesh, TimeConfig())


def test_symmetric_stage_keeps_the_run(quench_run_201):
    # the LDL^T run and an LU run of the same slab, whose stages see the
    # 3-row band, differ in rounding only: same steps, same touchdown set
    traj, report = quench_run_201
    lu_traj, lu_report = _run_with_general_stages(5.0, Constant(1.0), traj.mesh)
    assert traj.values.tobytes() != lu_traj.values.tobytes()
    counts = ("accepted_steps", "rejected_stage", "rejected_growth", "banded_solves")
    assert [getattr(traj.stats, k) for k in counts] == [getattr(lu_traj.stats, k) for k in counts]
    assert traj.stats.dt_min == pytest.approx(lu_traj.stats.dt_min, rel=1e-10)
    assert report.quench_set == lu_report.quench_set
    assert report.T == pytest.approx(lu_report.T, rel=1e-12)
    assert np.max(np.abs(traj.values - lu_traj.values)) < 1e-10


# f = 1 on the unit slab has its fold at lam = 1.4000165 (2001 nodes)
_MIRROR_RUNS = [(SlabSinPiecewise(), 10.0), (SlabSinPiecewise(), 100.0), (SlabSinPiecewise(), 1e5),
                (Constant(1.0), 5.0), (Constant(1.0), 1.001 * 1.40001647737100)]


def _full_run(lam, profile, mesh, cfg):
    """integrate with the mirror declined: every stage solves all the unknowns."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "mirror_even", lambda *args: False)
        return integrate(lam, profile, mesh, cfg)


@pytest.mark.parametrize("node_count", [2000, 2001])
@pytest.mark.parametrize("profile,lam", _MIRROR_RUNS, ids=["bump-10", "bump-100", "bump-1e5", "f1-5", "f1-q1.001"])
def test_mirrored_run_keeps_the_full_run(node_count, profile, lam):
    # an even profile runs on the left half of the unknowns; the run on all
    # of them takes the same steps and differs in rounding only, and every
    # stored state of the half run is exactly even
    mesh = build_mesh(UNIT_SLAB, node_count)
    cfg = TimeConfig(t_max=300.0)
    traj, report = integrate(lam, profile, mesh, cfg)
    full, full_report = _full_run(lam, profile, mesh, cfg)
    counts = ("accepted_steps", "rejected_stage", "rejected_growth", "banded_solves")
    assert [getattr(traj.stats, k) for k in counts] == [getattr(full.stats, k) for k in counts]
    assert report.quenched and full_report.quenched
    assert report.T == pytest.approx(full_report.T, rel=1e-12)
    assert report.quench_set == full_report.quench_set
    assert np.array_equal(traj.max_history[:, 2], full.max_history[:, 2], equal_nan=True)
    assert np.max(np.abs(traj.values - full.values)) < 1e-9
    assert np.array_equal(traj.values, traj.values[:, ::-1])


@pytest.mark.parametrize("node_count,columns", [(6000, 2999), (2001, 1000)])
def test_mirrored_stage_solves_half_the_unknowns(monkeypatch, node_count, columns):
    widths = []
    kernel = dynamics.solve_banded

    def recorded(ab, *args, **kwargs):
        widths.append(ab.shape[1])
        return kernel(ab, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_banded", recorded)
    integrate(10.0, SlabSinPiecewise(), build_mesh(UNIT_SLAB, node_count), TimeConfig(t_max=1e-3))
    assert len(widths) > 5 and set(widths) == {columns}


@pytest.mark.parametrize("geometry,profile,node_count,taken", [
    (UNIT_SLAB, Constant(1.0), 201, True),
    (UNIT_SLAB, SlabSinPiecewise(), 201, True),
    (UNIT_SLAB, Power(2.0), 201, True),
    (Slab(0.25, 1.0), Constant(1.0), 201, True),
    (UNIT_SLAB, Constant(1.0), 5, True),
    (Slab(-0.3, 0.5), Power(1.0), 201, False),
    (UNIT_SLAB, Tabulated(np.array([-0.5, 0.0, 0.5]), np.array([0.2, 1.0, 0.6])), 201, False),
    (RadialBall(1), Constant(1.0), 201, False),
    (RadialBall(3), Constant(1.0), 201, False),
    (UNIT_SLAB, Constant(1.0), 3, False),
    (UNIT_SLAB, Constant(1.0), 4, False),
], ids=["f1", "bump", "x2", "f1-shifted", "f1-n5", "x-asymmetric", "tabulated", "ball1", "ball3", "n3", "n4"])
def test_mirror_taken_for_even_slab_profiles(monkeypatch, geometry, profile, node_count, taken):
    folds = []
    fold = dynamics.mirror_bands

    def recorded(ab):
        folds.append(ab.shape[1])
        return fold(ab)

    monkeypatch.setattr(dynamics, "mirror_bands", recorded)
    mesh = build_mesh(geometry, node_count)
    traj, _ = integrate(10.0, profile, mesh, TimeConfig(t_max=1e-3))
    assert folds == ([node_count - 2] if taken else [])
    assert traj.values.shape[1] == node_count


@pytest.mark.parametrize("profile", [Constant(1.0), SlabSinPiecewise(), Power(2.0)], ids=["f1", "bump", "x2"])
def test_even_profiles_are_mirror_even_on_every_mesh(profile):
    # the test reads f at exact mirror images, not at build_mesh's right-half
    # nodes, so it holds at every node count (sampled here from 401 to 6009)
    for node_count in range(401, 6010, 16):
        mesh = build_mesh(UNIT_SLAB, node_count)
        f = np.asarray(evaluate(profile, mesh.nodes[mesh.unknown_slice]), dtype=float)
        assert mirror_even(profile, mesh, f), node_count


def test_growth_target():
    # eta_step of the gap down to 0.1, eta_step / 10 below, at most GROWTH_CAP of the gap
    target = dynamics._growth_target
    assert target(0.5, 0.01) == pytest.approx(5e-3, rel=1e-12)
    assert target(0.95, 0.01) == pytest.approx(1e-3, rel=1e-12)
    assert target(0.999, 0.01) == pytest.approx(dynamics.GROWTH_CAP * 1e-3, rel=1e-9)
    # past GROWTH_CAP, eta_step times the gap everywhere: each eta_step keeps its own target
    for eta in (0.08, 0.1):
        for sup in (0.5, 0.95, 0.999):
            assert target(sup, eta) == pytest.approx(eta * (1.0 - sup), rel=1e-12)


def test_touchdown_run_step_budget():
    # near touchdown a step may take up to GROWTH_CAP of the gap: 464 steps,
    # where eta_step of the gap at every gap takes 885 (282 for each decade
    # below 0.1); no stage is rejected, so each step is one solve
    stats = integrate(10.0, SlabSinPiecewise(), build_mesh(UNIT_SLAB, 2001), TimeConfig())[0].stats
    assert stats.accepted_steps <= 480
    assert stats.banded_solves == stats.accepted_steps


def test_dt_capped_by_running_touchdown_estimate():
    # after each step the cubic gap law through the last two history rows
    # estimates T; the next step takes at most s/100 of it (s = 1 here), and
    # near touchdown that cap binds.  Differences of stored t carry the
    # rounding of t, up to 1e-7 of the last steps' dt.
    traj, _ = integrate(5.0, Constant(1.0), build_mesh(UNIT_SLAB, 401), TimeConfig())
    t, g = traj.max_history[:, 0], 1.0 - traj.max_history[:, 1]
    slope = (g[1:] ** 3 - g[:-1] ** 3) / np.diff(t)
    t_est = t[1:] + g[1:] ** 3 / -slope
    falling = slope[:-1] < 0
    ratio = np.diff(t)[1:][falling] / (t_est[:-1][falling] / 100.0)
    assert ratio.max() <= 1.0 + 1e-6
    assert np.sum(ratio > 1.0 - 1e-6) > 20


@pytest.mark.parametrize("cfg", [TimeConfig(), TimeConfig(eta_step=0.05, snapshot_stride=3)],
                         ids=["default", "eta0.05-stride3"])
def test_snapshots_paced_by_steps_and_gap(cfg):
    # a state is stored snapshot_stride steps after the last stored one or
    # at the first step whose gap lies one snapshot factor below its gap
    mesh = build_mesh(UNIT_SLAB, 201)
    traj, _ = integrate(10.0, SlabSinPiecewise(), mesh, cfg)
    history = traj.max_history
    rows = np.searchsorted(history[:, 0], traj.times)
    assert np.array_equal(history[rows, 0], traj.times)
    assert rows[0] == 0 and rows[-1] == len(history) - 1
    gap = 1.0 - history[:, 1]
    fall = math.exp(-0.8 * cfg.eta_step * cfg.snapshot_stride)
    assert np.all(np.diff(rows) <= cfg.snapshot_stride)
    assert np.all(gap[rows[1:] - 1] > fall * gap[rows[:-1]])  # none stored late
    # the last state is stored however close it lies to the one before
    for i, j in zip(rows[:-2], rows[1:-1]):
        assert j - i == cfg.snapshot_stride or gap[j] <= fall * gap[i]
    assert np.any(np.diff(rows[:-1]) < cfg.snapshot_stride)  # the gap, not only the stride, stored some


def test_zero_load_keeps_every_state_zero():
    # at zero load the stage's right side dt g(0) is exactly zero, so is
    # its update, and no rounding creeps into u = 0
    mesh = build_mesh(UNIT_SLAB, 101)
    traj, _ = integrate(0.0, Constant(1.0), mesh, TimeConfig(t_max=0.1, snapshot_stride=1))
    assert len(traj.values) > 10
    assert not traj.values.any()
    assert not traj.max_history[:, 1].any()


def test_near_fold_stage_needs_one_solve():
    # f = 1 at 1.1 times the fold (2001 nodes), 484 steps of which many sit
    # at the dt cap: each stage is one linearized update, and none is rejected
    lam = 1.1 * 1.40001647737100
    stats = integrate(lam, Constant(1.0), build_mesh(UNIT_SLAB, 2001), TimeConfig(t_max=300.0))[0].stats
    assert stats.banded_solves <= 1.01 * stats.accepted_steps


def test_argmax_does_not_follow_solver_noise(monkeypatch):
    # the two bumps tie to rounding: stepped on every unknown (the mirror
    # declined, as in _full_run), the mirror peaks of a stored state differ
    # by rounding, and a run whose solves eliminate from the other end (the
    # mirrored system, so the states differ by rounding) reports the same node
    monkeypatch.setattr(dynamics, "mirror_even", lambda *args: False)
    mesh = build_mesh(UNIT_SLAB, 1001)
    traj, _ = integrate(100.0, SlabSinPiecewise(), mesh, TimeConfig())
    peaks = traj.values.argmax(axis=1)
    rows = np.arange(len(peaks))
    assert np.any(traj.values[rows, peaks] != traj.values[rows, mesh.node_count - 1 - peaks])
    kernel = dynamics.solve_banded

    def mirrored(ab, b, **kwargs):
        # the reversed system: a 3-row band reverses its rows and columns; a
        # 2-row band keeps its rows and reverses the off-diagonal and the diagonal
        flipped = np.zeros_like(ab)
        if ab.shape[0] == 3:
            flipped[:] = ab[::-1, ::-1]
        else:
            flipped[0, 1:] = ab[0, :0:-1]
            flipped[1] = ab[1, ::-1]
        return kernel(flipped, b[::-1].copy())[::-1]

    monkeypatch.setattr(dynamics, "solve_banded", mirrored)
    cold, _ = integrate(100.0, SlabSinPiecewise(), mesh, TimeConfig())
    assert traj.values.tobytes() != cold.values.tobytes()
    assert traj.max_history.shape == cold.max_history.shape
    assert np.array_equal(traj.max_history[:, 2], cold.max_history[:, 2], equal_nan=True)
    assert abs(abs(traj.max_history[-1, 2]) - 0.25) < 0.01


def test_step_stats_count_the_run(monkeypatch):
    # a first step of 0.2 has no stage solution and is halved; later
    # steps that raise sup u too far are cut by the controller
    stages, solves = [], []
    stage, kernel = dynamics._linearized_step, dynamics.solve_banded

    def counted_stage(*args):
        stages.append(stage(*args))
        return stages[-1]

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_linearized_step", counted_stage)
    monkeypatch.setattr(dynamics, "solve_banded", counted_solve)
    mesh = build_mesh(UNIT_SLAB, 101)
    pin_step(monkeypatch, 0.2)
    traj, _ = integrate(5.0, Constant(1.0), mesh, TimeConfig())
    stats = traj.stats
    steps = np.diff(traj.max_history[:, 0])
    solved = sum(v is not None for v in stages)
    assert stats.accepted_steps == steps.size
    assert stats.rejected_stage == len(stages) - solved > 0
    assert stats.rejected_growth == solved - steps.size > 0
    assert stats.banded_solves == len(solves)
    assert (stats.dt_min, stats.dt_max) == pytest.approx((steps.min(), steps.max()), rel=1e-9)


# ---------------------------------------------------------------------------
# persistence


def test_write_snapshots_format(tmp_path):
    traj = synthetic_cubic_trajectory(levels=4)
    path = write_snapshots(traj, tmp_path)
    assert os.listdir(tmp_path) == ["trajectory.npz"]
    with np.load(path, allow_pickle=False) as store:
        assert sorted(store.files) == ["times", "values"]
        assert store["times"].shape == (4,)
        assert store["values"].shape == (4, traj.mesh.node_count)


def test_write_snapshots_is_savez_bitwise(tmp_path, quench_run_201):
    # the store is written from the arrays' own buffers, with the bytes
    # np.savez writes, and reads back to the same bits
    traj, _ = quench_run_201
    assert write_snapshots(traj, tmp_path) == str(tmp_path / "trajectory.npz")
    np.savez(tmp_path / "reference.npz", times=traj.times, values=traj.values)
    assert (tmp_path / "trajectory.npz").read_bytes() == (tmp_path / "reference.npz").read_bytes()
    write_max_history(traj, tmp_path / "max_history.csv")
    loaded = read_trajectory(tmp_path, traj.mesh, traj.lam)
    assert loaded.times.tobytes() == traj.times.tobytes()
    assert loaded.values.tobytes() == traj.values.tobytes()


def test_write_max_history_format(tmp_path):
    traj = synthetic_cubic_trajectory(levels=4)
    path = tmp_path / "max_history.csv"
    write_max_history(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sup_u,argmax"
    assert len(lines) == 5


def test_report_confidence_matches_rate_fit(quench_run_201):
    traj, rep = quench_run_201
    fit = rate_fit(traj, rep.quench_set[0], rep.T)
    assert (rep.decades, rep.low_confidence) == (fit.decades, fit.low_confidence)
