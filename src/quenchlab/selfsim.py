"""Similarity-variable diagnostics near a touchdown point.

Around a touchdown point a with touchdown time T, the rescaled gap

    w(y, s) = (1 - u) / (T - t)^(1/3),   y = (x - a)/sqrt(T - t),
    s = -log(1 - t/T)

turns the touchdown asymptotics into the large-s behavior of w.  The
expected limit of w is the constant k(a) = (3 lam f(a))^(1/3), the
maximizer of F(z) = -z^2/6 - lam f(a)/z, and the frozen energy of w over
the expanding ball |y| <= s (Gaussian weight exp(-y^2/4)) decreases up
to an exponentially small defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from . import csvio
from .dynamics import Trajectory
from .mesh import Slab, sphere_area

__all__ = [
    "RescaledFrame",
    "EnergyTrace",
    "rescale",
    "asymptotic_limit",
    "F_profile",
    "frozen_energy",
    "energy_trace",
    "write_frame_csv",
    "write_energy_csv",
]

_Y_SPACING = 0.01


@dataclass(frozen=True)
class RescaledFrame:
    a: float
    T: float
    samples: Tuple[Tuple[float, np.ndarray, np.ndarray], ...]  # (s, y, w)
    s0: float
    contained: Tuple[bool, ...]
    dimension: int
    radial: bool

    @cached_property
    def s_values(self) -> np.ndarray:
        """The s of every sample, built once for nearest-sample lookups."""
        return np.array([smp[0] for smp in self.samples])


@dataclass(frozen=True)
class EnergyTrace:
    points: Tuple[Tuple[float, float], ...]
    k_a: float
    E_limit: float


def rescale(trajectory: Trajectory, a: float, T: float) -> RescaledFrame:
    """Transform stored snapshots to similarity variables around (a, T).

    Each snapshot becomes (s, y-grid, w-values) with w linearly
    interpolated onto a uniform y-grid of spacing 0.01 truncated to the
    ball |y| <= s intersected with the rescaled domain.  s0 is the first
    stored s from which the ball stays inside the rescaled domain.
    """
    mesh = trajectory.mesh
    if isinstance(mesh.geometry, Slab):
        radial = False
        dimension = 1
        x_lo, x_hi = mesh.geometry.x_left, mesh.geometry.x_right
        if not (x_lo < a < x_hi):
            raise ValueError("center outside the domain")
        boundary_dist = min(x_hi - a, a - x_lo)
    else:
        radial = True
        dimension = mesh.geometry.dimension
        if a != 0.0:
            raise ValueError("radial similarity frames must be centered at the origin")
        x_lo, x_hi = 0.0, mesh.geometry.radius
        boundary_dist = x_hi

    samples = []
    contained = []
    for t, u in zip(trajectory.times.tolist(), trajectory.values):
        if t >= T:
            raise ValueError("snapshot at t >= T cannot be rescaled")
        root = math.sqrt(T - t)
        s = -math.log1p(-t / T)
        if s <= 0.0:
            continue  # the t=0 snapshot carries no similarity information
        y_lo = max(-s, (x_lo - a) / root)
        y_hi = min(s, (x_hi - a) / root)
        if y_hi <= y_lo:
            continue
        m = int(math.floor((y_hi - y_lo) / _Y_SPACING)) + 1
        y = y_lo + _Y_SPACING * np.arange(m)
        x = a + y * root
        w = (1.0 - np.interp(x, mesh.nodes, u)) / (T - t) ** (1.0 / 3.0)
        samples.append((s, y, w))
        contained.append(bool(s * root <= boundary_dist))
    if not samples:
        raise ValueError("no usable snapshots before T")

    # first s from which containment persists
    s0 = samples[0][0]
    for idx in range(len(samples) - 1, -1, -1):
        if not contained[idx]:
            s0 = samples[idx + 1][0] if idx + 1 < len(samples) else math.inf
            break
    return RescaledFrame(
        a=float(a),
        T=float(T),
        samples=tuple(samples),
        s0=float(s0),
        contained=tuple(contained),
        dimension=dimension,
        radial=radial,
    )


def asymptotic_limit(lam: float, f_at_a: float) -> float:
    """Expected large-s limit k(a) = (3 lam f(a))^(1/3)."""
    if f_at_a <= 0:
        raise ValueError("profile must be positive at the touchdown point")
    return (3.0 * lam * f_at_a) ** (1.0 / 3.0)


def F_profile(z: float, lam: float, f_at_a: float) -> Tuple[float, float]:
    """Value and second derivative of F(z) = -z^2/6 - lam f(a)/z."""
    if z <= 0:
        raise ValueError("z must be positive")
    F = -(z**2) / 6.0 - lam * f_at_a / z
    F2 = -1.0 / 3.0 - 2.0 * lam * f_at_a / z**3
    return F, F2


def _rho_weights(frame: RescaledFrame, y: np.ndarray) -> np.ndarray:
    rho = np.exp(-(y**2) / 4.0)
    if frame.radial:
        rho = rho * sphere_area(frame.dimension) * np.abs(y) ** (frame.dimension - 1)
    trap = np.full(y.size, _Y_SPACING)
    trap[0] = trap[-1] = 0.5 * _Y_SPACING
    return rho * trap


def _nearest_sample(frame: RescaledFrame, s: float):
    idx = int(np.argmin(np.abs(frame.s_values - s)))
    return frame.samples[idx]


def frozen_energy(frame: RescaledFrame, lam: float, f_at_a: float, s: float) -> float:
    """Frozen energy over the ball |y| <= s at the stored sample nearest s."""
    if s < frame.s0:
        raise ValueError("ball not contained in the rescaled domain below s0")
    s_smp, y, w = _nearest_sample(frame, s)
    mask = np.abs(y) <= s + 1e-12
    y, w = y[mask], w[mask]
    if y.size < 3:
        raise ValueError("sample too short for quadrature")
    if w.min() <= 0:
        raise ValueError("rescaled gap must be positive")
    wy = np.gradient(w, _Y_SPACING)
    weights = _rho_weights(frame, y)
    density = 0.5 * wy**2 - w**2 / 6.0 - lam * f_at_a / w
    return float(np.dot(weights, density))


def _gamma(frame: RescaledFrame, s: float) -> float:
    s_smp, y, _ = _nearest_sample(frame, s)
    mask = np.abs(y) <= s + 1e-12
    return float(np.sum(_rho_weights(frame, y[mask])))


def energy_trace(frame: RescaledFrame, lam: float, f_at_a: float) -> EnergyTrace:
    """E(s) for every contained sample with s >= s0, with the k(a) target."""
    k = asymptotic_limit(lam, f_at_a)
    Fk, _ = F_profile(k, lam, f_at_a)
    gamma_inf = (2.0 * math.sqrt(math.pi)) ** frame.dimension
    points = []
    for (s, y, w), inside in zip(frame.samples, frame.contained):
        if not inside or s < frame.s0:
            continue
        if np.count_nonzero(np.abs(y) <= s + 1e-12) < 3:
            continue  # y-window narrower than the grid: no quadrature yet
        points.append((s, frozen_energy(frame, lam, f_at_a, s)))
    return EnergyTrace(points=tuple(points), k_a=k, E_limit=Fk * gamma_inf)


def write_frame_csv(frame: RescaledFrame, path, comments: Sequence[str] = ()) -> None:
    """(s, y, w) rows, one sample at a time; `comments` go below the header."""
    bodies = (
        csvio.template(y.size, [csvio.FLOAT % s, csvio.FLOAT, csvio.FLOAT]) % csvio.interleave(y, w)
        for s, y, w in frame.samples
    )
    csvio.write(path, "s,y,w", bodies, comments)


def write_energy_csv(trace: EnergyTrace, frame: RescaledFrame, lam: float, f_at_a: float, path) -> None:
    Fk, _ = F_profile(trace.k_a, lam, f_at_a)
    rows = [(s, E, trace.k_a, Fk * _gamma(frame, s)) for s, E in trace.points]
    csvio.write_rows(path, "s,E,k_a,E_of_k", rows)
