"""Similarity-variable frames and the frozen energy.

Exactly self-similar data (gap = k (T-t)^(1/3) uniformly in space) must
come back from the rescaling as the constant k on every sample, and the
frozen energy of a constant state z is F(z) times the Gaussian mass, so
all detector output is checkable in closed form before a PDE run enters.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quenchlab.dynamics import Trajectory
from quenchlab.mesh import RadialBall, Slab, build_mesh
from quenchlab.profiles import Constant
from quenchlab.selfsim import (
    EnergyTrace,
    F_profile,
    asymptotic_limit,
    energy_trace,
    frozen_energy,
    rescale,
    write_energy_csv,
    write_frame_csv,
)

UNIT_SLAB = Slab(-0.5, 0.5)


def flat_gap_trajectory(k, T, times, node_count=101, geometry=UNIT_SLAB):
    """u(x,t) = 1 - k (T-t)^(1/3), uniform in x."""
    mesh = build_mesh(geometry, node_count)
    values = []
    hist = []
    for t in times:
        gap = k * (T - t) ** (1.0 / 3.0)
        values.append(np.full(mesh.node_count, 1.0 - gap))
        hist.append((t, 1.0 - gap, 0.0))
    return Trajectory(lam=1.0, mesh=mesh, times=np.array(times, dtype=float),
                      values=np.array(values), max_history=np.array(hist))


# ---------------------------------------------------------------------------
# the rescaling map


def test_similarity_time_at_half_life():
    traj = flat_gap_trajectory(0.5, 1.0, (0.5,))
    frame = rescale(traj, 0.0, 1.0)
    assert len(frame.samples) == 1
    assert frame.samples[0][0] == pytest.approx(math.log(2.0), abs=1e-15)


def test_exact_self_similar_data_is_constant():
    # T = 1/4 keeps max_t s sqrt(T-t) = 2 sqrt(T)/e below the half-width,
    # so every sample ball stays inside the slab
    k = 0.5
    T = 0.25
    traj = flat_gap_trajectory(k, T, tuple(T * q for q in (0.3, 0.5, 0.75,
                                                           0.9, 0.99)))
    frame = rescale(traj, 0.0, T)
    assert len(frame.samples) == 5
    for s, y, w in frame.samples:
        assert s > 0.0
        assert y[0] == -s  # the whole ball is inside the slab
        assert np.max(np.abs(w - k)) < 1e-12
    assert frame.s0 == frame.samples[0][0]


def test_rescale_round_trip(quench_run_201):
    traj, rep = quench_run_201
    frame = rescale(traj, 0.0, rep.T)
    mesh = traj.mesh
    # snapshots map to samples in order once the t=0 snapshot is dropped
    assert len(frame.samples) == len(traj.times) - 1
    mid = len(frame.samples) // 2
    s, y, w = frame.samples[mid]
    t, u = traj.times[mid + 1], traj.values[mid + 1]
    root = math.sqrt(rep.T - t)
    x = y * root
    u_rec = 1.0 - w * (rep.T - t) ** (1.0 / 3.0)
    u_orig = np.interp(x, mesh.nodes, u)
    assert np.max(np.abs(u_rec - u_orig)) < 5.0 * (mesh.h + 0.01)


def test_rescale_guards(quench_run_201):
    traj, rep = quench_run_201
    with pytest.raises(ValueError):
        rescale(traj, 0.7, rep.T)  # center outside the slab
    mesh = build_mesh(UNIT_SLAB, 51)
    late = Trajectory(lam=1.0, mesh=mesh, times=np.array([0.5, 1.2]),
                      values=np.full((2, mesh.node_count), 0.5),
                      max_history=np.array([(0.5, 0.5, 0.0)]))
    with pytest.raises(ValueError):
        rescale(late, 0.0, 1.0)  # snapshot beyond the touchdown time


def test_rescale_radial_center_rule():
    ball = RadialBall(3, 1.0)
    traj = flat_gap_trajectory(0.5, 1.0, (0.5, 0.9), geometry=ball)
    with pytest.raises(ValueError):
        rescale(traj, 0.5, 1.0)
    frame = rescale(traj, 0.0, 1.0)
    assert frame.mesh is traj.mesh
    assert frame.mesh.is_radial and frame.mesh.dimension == 3
    for _, y, w in frame.samples:
        assert y[0] == 0.0
        assert np.max(np.abs(w - 0.5)) < 1e-12


def test_delayed_containment_near_boundary():
    # centered at x = 0.4 the ball |y| <= s pokes out of the slab early on,
    # so s0 moves past those samples and the energy refuses to evaluate there
    traj = flat_gap_trajectory(0.5, 1.0, (0.3, 0.9, 0.999, 0.9999))
    frame = rescale(traj, 0.4, 1.0)
    # only the last ball, s sqrt(T - t) = 0.092, fits in the distance 0.1 to the wall
    assert frame.s0 == frame.samples[-1][0]
    assert frame.s0 > frame.samples[0][0]
    with pytest.raises(ValueError):
        frozen_energy(frame, 1.0, 1.0, frame.samples[0])
    frozen_energy(frame, 1.0, 1.0, frame.samples[-1])


@given(
    st.sampled_from([Slab(-0.5, 0.5), Slab(0.0, 2.0), RadialBall(2, 1.0), RadialBall(3, 0.4)]),
    st.sampled_from([21, 101, 401]),
    st.floats(0.05, 2.0),
    st.floats(0.01, 0.99),
    st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=12, unique=True),
)
def test_frame_boundaries_match_a_per_sample_scan(geometry, node_count, T, where, fractions):
    # resolved counts the leading samples with h <= 0.1 sqrt(T - t), and s0
    # is the first s from which every sample's ball |y| <= s stays inside
    times = np.unique(T * np.sort(fractions))
    if isinstance(geometry, Slab):
        a = geometry.x_left + where * (geometry.x_right - geometry.x_left)
        dist = min(geometry.x_right - a, a - geometry.x_left)
    else:
        a, dist = 0.0, geometry.radius
    traj = flat_gap_trajectory(0.5, T, tuple(times), node_count, geometry)
    frame = rescale(traj, a, T)
    assert len(frame.samples) == times.size
    roots = [math.sqrt(T - t) for t in times]
    resolved = [traj.mesh.h <= 0.1 * root for root in roots]
    assert frame.resolved == sum(resolved)
    assert all(resolved[:frame.resolved])
    contained = [s * root <= dist for (s, _, _), root in zip(frame.samples, roots)]
    s0 = next((smp[0] for i, smp in enumerate(frame.samples) if all(contained[i:])), math.inf)
    assert frame.s0 == s0


# ---------------------------------------------------------------------------
# the limit profile


def test_asymptotic_limit_values():
    assert asymptotic_limit(9.0, 1.0) == pytest.approx(3.0, rel=1e-15)
    assert asymptotic_limit(1.0 / 3.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        asymptotic_limit(9.0, 0.0)


def test_F_profile_at_the_critical_point():
    F, F2 = F_profile(3.0, 9.0, 1.0)
    assert F == pytest.approx(-4.5, abs=1e-15)
    assert F2 == pytest.approx(-1.0, abs=1e-15)
    # stationarity: -z/3 + lam f / z^2 = 0 at z = k
    e = 1e-6
    Fp = (F_profile(3.0 + e, 9.0, 1.0)[0] - F_profile(3.0 - e, 9.0, 1.0)[0]) / (2 * e)
    assert abs(Fp) < 1e-9
    with pytest.raises(ValueError):
        F_profile(0.0, 9.0, 1.0)


def test_F_maximized_at_k():
    lam, f = 5.0, 1.0
    k = asymptotic_limit(lam, f)
    Fk = F_profile(k, lam, f)[0]
    for z in (0.5 * k, 0.9 * k, 1.5 * k, 3.0 * k):
        assert Fk > F_profile(z, lam, f)[0]


# ---------------------------------------------------------------------------
# frozen energy


def test_frozen_energy_of_constant_state():
    # for w = k the density is the constant F(k), so E(s) is F(k) times the
    # sampled Gaussian mass; at s = 15 that mass is 2 sqrt(pi) to near
    # machine accuracy
    lam, f = 1.0 / 3.0, 1.0
    k = asymptotic_limit(lam, f)  # = 1
    T = 0.25
    times = [T * (1.0 - math.exp(-s)) for s in (0.5, 2.0, 15.0)]
    traj = flat_gap_trajectory(k, T, times)
    frame = rescale(traj, 0.0, T)
    assert frame.s0 == frame.samples[0][0]
    Fk = F_profile(k, lam, f)[0]

    s, y, w = frame.samples[-1]
    trap = np.full(y.size, 0.01)
    trap[0] = trap[-1] = 0.005
    gamma = float(np.dot(np.exp(-y ** 2 / 4.0), trap))
    E, mass = frozen_energy(frame, lam, f, frame.samples[-1])
    assert mass == pytest.approx(gamma, rel=1e-14)
    assert E == pytest.approx(Fk * gamma, rel=1e-12)
    scale = abs(Fk) * 2.0 * math.sqrt(math.pi)
    assert abs(E - Fk * 2.0 * math.sqrt(math.pi)) < 1e-4 * scale

    trace = energy_trace(frame, lam, f)
    assert trace.k_a == pytest.approx(k, rel=1e-15)
    assert trace.E_limit == pytest.approx(Fk * 2.0 * math.sqrt(math.pi),
                                          rel=1e-15)
    assert trace.points[-1][1] == pytest.approx(trace.E_limit, rel=1e-4)

    # on the 3-ball the mass carries the sphere area 4 pi y^2, and at
    # s = 15 it is (2 sqrt(pi))^3
    frame = rescale(flat_gap_trajectory(k, T, times, geometry=RadialBall(3, 1.0)), 0.0, T)
    assert frame.s0 == frame.samples[0][0]
    s, y, w = frame.samples[-1]
    trap = np.full(y.size, 0.01)
    trap[0] = trap[-1] = 0.005
    gamma = float(np.dot(np.exp(-y ** 2 / 4.0) * 4.0 * math.pi * y ** 2, trap))
    E, mass = frozen_energy(frame, lam, f, frame.samples[-1])
    assert mass == pytest.approx(gamma, rel=1e-14)
    assert E == pytest.approx(Fk * gamma, rel=1e-12)
    assert mass == pytest.approx((2.0 * math.sqrt(math.pi)) ** 3, rel=1e-12)
    trace = energy_trace(frame, lam, f)
    assert trace.E_limit == pytest.approx(Fk * (2.0 * math.sqrt(math.pi)) ** 3, rel=1e-15)


def test_frozen_energy_without_containment():
    # the trailing sample still pokes out of the slab, so containment never
    # persists, s0 is +inf, and no finite s is admissible
    traj = flat_gap_trajectory(0.5, 1.0, (0.3, 0.9))
    frame = rescale(traj, 0.0, 1.0)
    assert frame.s0 == math.inf
    with pytest.raises(ValueError):
        frozen_energy(frame, 1.0, 1.0, frame.samples[-1])


def test_energy_trace_on_quench_run(quench_run_201):
    traj, rep = quench_run_201
    frame = rescale(traj, 0.0, rep.T)
    trace = energy_trace(frame, 5.0, 1.0)
    pts = trace.points
    assert len(pts) > 50
    # overall decay toward the self-similar level, with discretization
    # jitter bounded well below the net drop
    assert pts[-1][1] < pts[0][1]
    assert all(b - a < 1e-2 for (_, a), (_, b) in zip(pts, pts[1:]))
    assert pts[-1][1] == pytest.approx(trace.E_limit, rel=0.05)


def test_limit_amplitude_on_quench_run(quench_run_201):
    # w(0, s) approaches k(0); the last few samples are dominated by the
    # uncertainty of the extrapolated T, so measure at 0.85 s_max
    traj, rep = quench_run_201
    frame = rescale(traj, 0.0, rep.T)
    k = asymptotic_limit(5.0, 1.0)
    s_max = frame.samples[-1][0]

    def w_at_center(target):
        s, y, w = min(frame.samples, key=lambda smp: abs(smp[0] - target))
        return float(w[np.argmin(np.abs(y))])

    early = abs(w_at_center(0.1 * s_max) - k)
    late = abs(w_at_center(0.85 * s_max) - k)
    assert late < 0.02 * k
    assert late < early


# ---------------------------------------------------------------------------
# persistence


def test_frame_and_energy_csv(tmp_path):
    lam, f = 1.0 / 3.0, 1.0
    traj = flat_gap_trajectory(1.0, 1.0, (0.5, 0.9, 0.99))
    frame = rescale(traj, 0.0, 1.0)
    fpath = tmp_path / "frame.csv"
    write_frame_csv(frame, fpath)
    lines = fpath.read_text().splitlines()
    assert lines[0] == "s,y,w"
    assert len(lines) == 1 + sum(y.size for _, y, _ in frame.samples)

    trace = energy_trace(frame, lam, f)
    epath = tmp_path / "energy.csv"
    write_energy_csv(trace, epath)
    elines = epath.read_text().splitlines()
    assert elines[0] == "s,E,k_a,E_of_k"
    assert len(elines) == 1 + len(trace.points)
    assert isinstance(trace, EnergyTrace)
