"""Time integration and touchdown detection.

The detector is calibrated against a hand-built trajectory following the
exact cubic law 1 - u(0,t) = c (T - t)^(1/3), where every reported
quantity (T, the touchdown set, the rate exponent) is known in closed
form before the integrator is involved.
"""

import math
import os

import numpy as np
import pytest

from quenchlab import dynamics
from quenchlab.dynamics import (
    OverflowGuard,
    StepLimit,
    TimeConfig,
    Trajectory,
    c_epsilon,
    comparison_eta,
    convergence_check,
    detect_quench,
    eta_quench_time,
    integrate,
    liapunov,
    quench_report_to_dict,
    rate_fit,
    supersolution_transform,
    write_max_history,
    write_snapshots,
)
from quenchlab.mesh import Field, Slab, build_mesh, laplacian_bands
from quenchlab.profiles import Constant, SlabSinPiecewise

UNIT_SLAB = Slab(-0.5, 0.5)


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


# ---------------------------------------------------------------------------
# integrator behavior


def test_subcritical_run_does_not_quench():
    mesh = build_mesh(UNIT_SLAB, 101)
    traj, rep = integrate(0.0, Constant(1.0), mesh, TimeConfig(t_max=0.1))
    assert not rep.quenched
    assert np.all(traj.values[-1] == 0.0)
    assert traj.final_time == pytest.approx(0.1, rel=1e-9)


def test_report_idempotent(quench_run_201):
    traj, rep = quench_run_201
    again = detect_quench(traj, 1e-3)
    assert again == rep


def test_quench_run_properties(quench_run_201):
    traj, rep = quench_run_201
    assert rep.quenched
    assert rep.T > traj.final_time
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
    # the two bumps tie within 1e-12 for most of the run, and early on
    # every node does; the history keeps the first tied unknown
    mesh = build_mesh(UNIT_SLAB, 201)
    traj, _ = integrate(10.0, SlabSinPiecewise(), mesh, TimeConfig(snapshot_stride=1))
    assert len(traj.values) == len(traj.max_history)
    ties = 0
    for u, (_, sup, argmax) in zip(traj.values, traj.max_history):
        tied = mesh.nodes[1:-1][np.abs(u[1:-1] - sup) <= 1e-12]
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
    with pytest.raises(ValueError):
        TimeConfig(dt_initial=0.0)
    with pytest.raises(ValueError):
        TimeConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        TimeConfig(snapshot_stride=0)
    with pytest.raises(ValueError):
        TimeConfig(snapshot_stride=2.5)  # step % 2.5 == 0 would keep every 5th step
    with pytest.raises(ValueError):
        TimeConfig(snapshot_stride=True)
    with pytest.raises(ValueError):
        TimeConfig(eta_step=0.0)


# ---------------------------------------------------------------------------
# temporal accuracy


def test_touchdown_time_second_order_in_step_control():
    # shrinking the step controller (target fraction and both step caps)
    # by s must shrink the T error like s^2; dt_max starts low enough
    # that the touchdown-estimate cap never binds
    mesh = build_mesh(UNIT_SLAB, 401)
    Ts = []
    for s in (1.0, 0.5, 0.25):
        cfg = TimeConfig(dt_initial=1e-6 * s, dt_max=2e-4 * s,
                         eta_step=1e-2 * s, t_max=10.0)
        _, rep = integrate(2.0, Constant(1.0), mesh, cfg)
        assert rep.quenched
        Ts.append(rep.T)
    order = math.log2(abs(Ts[0] - Ts[1]) / abs(Ts[1] - Ts[2]))
    assert order > 1.8


def test_state_second_order_at_fixed_step():
    # binary step sizes reach t = 0.25 exactly, so the Richardson ratio of
    # final states is free of endpoint mismatch
    mesh = build_mesh(UNIT_SLAB, 101)
    finals = []
    for k in (8, 9, 10):
        dt = 2.0**-k
        cfg = TimeConfig(dt_initial=dt, dt_max=dt, eta_step=10.0, t_max=0.25)
        traj, _ = integrate(0.5, Constant(1.0), mesh, cfg)
        assert traj.final_time == pytest.approx(0.25, abs=1e-14)
        finals.append(traj.values[-1])
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    assert math.log2(d1 / d2) > 1.9


# ---------------------------------------------------------------------------
# energy, comparison maps, convergence


def test_liapunov_reference_values():
    mesh = build_mesh(UNIT_SLAB, 201)
    zero = Field(mesh, np.zeros(mesh.node_count))
    assert liapunov(zero, 1.0, Constant(1.0)) == pytest.approx(-1.0, abs=1e-12)
    assert liapunov(zero, 0.0, Constant(1.0)) == 0.0
    near = Field(mesh, np.full(mesh.node_count, 1.0 - 1e-15))
    with pytest.raises(OverflowGuard):
        liapunov(near, 1.0, Constant(1.0))


def test_liapunov_decreases_along_flow():
    # stride 1 stores the start and every accepted step: each state the
    # step history records
    mesh = build_mesh(UNIT_SLAB, 201)
    traj, rep = integrate(5.0, Constant(1.0), mesh, TimeConfig(snapshot_stride=1))
    assert rep.quenched
    assert np.array_equal(traj.times, traj.max_history[:, 0])
    vals = [liapunov(Field(mesh, u), 5.0, Constant(1.0)) for u in traj.values]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_supersolution_transform_values():
    assert supersolution_transform(0.0, 1.0, 0.5) == 0.0
    assert supersolution_transform(1.0, 1.0, 0.5) == pytest.approx(
        c_epsilon(1.0, 0.5), abs=1e-15)
    assert c_epsilon(1.0, 0.5) == pytest.approx(1.0 - 0.5 ** (1.0 / 3.0),
                                                abs=1e-15)
    assert supersolution_transform(0.5, 1.0, 0.5) == pytest.approx(
        1.0 - 0.5625 ** (1.0 / 3.0), abs=1e-15)
    with pytest.raises(ValueError):
        supersolution_transform(0.5, 1.0, 1.5)
    with pytest.raises(ValueError):
        c_epsilon(1.0, 0.0)


def test_comparison_eta_values():
    # lam M = 1/3 puts the comparison touchdown at exactly t = 1
    assert eta_quench_time(1.0, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-15)
    assert comparison_eta(1.0, 1.0 / 3.0, 0.5) == pytest.approx(
        1.0 - 0.5 ** (1.0 / 3.0), abs=1e-15)
    assert eta_quench_time(1e5, 1.0) == pytest.approx(1.0 / 3e5, rel=1e-15)
    with pytest.raises(ValueError):
        comparison_eta(1.0, 1.0 / 3.0, 1.0)
    with pytest.raises(ValueError):
        comparison_eta(1.0, 1.0 / 3.0, -0.1)
    with pytest.raises(ValueError):
        eta_quench_time(0.0, 1.0)


def test_convergence_to_minimal_state():
    mesh = build_mesh(UNIT_SLAB, 401)
    cfg = TimeConfig(t_max=20.0)
    trace = convergence_check(0.7, Constant(1.0), mesh, cfg)
    assert trace.distances[-1] < 1e-10
    # strict decay holds until the Newton-vs-stepper floor; past it the
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
    cfg = TimeConfig(dt_initial=0.01, dt_max=0.01, eta_step=10.0, t_max=0.05)
    traj, _ = integrate(0.0, Constant(1.0), mesh, cfg)
    assert len(traj.max_history) - 1 == 5


# ---------------------------------------------------------------------------
# stage solve failures


def _stage_inputs():
    mesh = build_mesh(UNIT_SLAB, 11)
    Lb = laplacian_bands(mesh)
    n = Lb.shape[1]
    return Lb, np.ones(n), 1.0, np.zeros(n), 1e-3


def test_cn_step_singular_solve_is_a_failed_stage(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(dynamics, "solve_banded", singular)
    assert dynamics._cn_step(*_stage_inputs()) is None


def test_cn_step_propagates_other_solver_faults(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(dynamics, "solve_banded", broken)
    with pytest.raises(TypeError):
        dynamics._cn_step(*_stage_inputs())


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


def test_write_max_history_format(tmp_path):
    traj = synthetic_cubic_trajectory(levels=4)
    path = tmp_path / "max_history.csv"
    write_max_history(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sup_u,argmax"
    assert len(lines) == 5


def test_report_dict_keys(quench_run_201):
    _, rep = quench_run_201
    d = quench_report_to_dict(rep)
    assert set(d) == {"quenched", "T", "quench_set", "M", "p",
                      "fit_residual", "last_resolved_gap"}
