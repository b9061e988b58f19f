"""Similarity-variable diagnostics near a touchdown point.

Around a touchdown point a with touchdown time T, the rescaled gap

    w(y, s) = (1 - u) / (T - t)^(1/3),   y = (x - a)/sqrt(T - t),
    s = -log(1 - t/T)

turns the touchdown asymptotics into the large-s behavior of w.  The
expected limit of w is the constant k(a) = (3 lam f(a))^(1/3), the
maximizer of F(z) = -z^2/6 - lam f(a)/z, and the frozen energy of w over
the expanding ball |y| <= s (Gaussian weight exp(-y^2/4)) decreases up
to an exponentially small defect.

A sample is resolved while one mesh cell spans at most 10 y-grid
spacings, h <= 10 * 0.01 * sqrt(T - t).  Past that, w between two or
three nodes is linear interpolation and carries no information.  A frame
keeps every sample; `write_frame_csv` writes the resolved prefix and the
energy trace reads the contained suffix (`RescaledFrame`), by the mesh's
trapezoid rule on the y-grid times the Gaussian weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import csvio
from .dynamics import Trajectory
from .mesh import Mesh, trapezoid_weights

__all__ = [
    "RescaledFrame",
    "EnergyTrace",
    "RescaleStats",
    "rescale",
    "asymptotic_limit",
    "F_profile",
    "frozen_energy",
    "energy_trace",
    "write_frame_csv",
    "write_energy_csv",
    "rescale_stats",
]

_Y_SPACING = 0.01
# a sample is resolved while one mesh cell spans at most this many y-spacings
_RESOLVED_SPACINGS = 10


@dataclass(frozen=True)
class RescaledFrame:
    """Samples (s, y, w) of a trajectory on `mesh` around (a, T), s increasing.

    Prefix: samples[:resolved] are the resolved ones, h <= 0.1 sqrt(T - t);
    stored times increase, so T - t falls and a sample once unresolved stays
    so.  Suffix: the samples with s >= s0 follow the last one whose ball
    |y| <= s leaves the domain (s0 = inf if that is the last), so all their
    balls are inside it; s sqrt(T - t) rises and then falls with t, so early
    samples can be contained too, but containment persists only from s0 on.
    """

    a: float
    T: float
    mesh: Mesh
    samples: Tuple[Tuple[float, np.ndarray, np.ndarray], ...]
    s0: float
    resolved: int


@dataclass(frozen=True)
class EnergyTrace:
    """(s, E) per point, F(k) times the point's Gaussian mass Gamma, the
    limit k(a) and the limit energy F(k) Gamma(infinity)."""

    points: Tuple[Tuple[float, float], ...]
    E_of_k: Tuple[float, ...]
    k_a: float
    E_limit: float


@dataclass(frozen=True)
class RescaleStats:
    """How much of a frame `frame.csv` holds; `rescale`'s run.json stats."""

    samples: int
    resolved_samples: int
    resolved_s_max: Optional[float]  # s of the last resolved sample; None when none is


def rescale(trajectory: Trajectory, a: float, T: float) -> RescaledFrame:
    """Transform stored snapshots to similarity variables around (a, T).

    Each snapshot becomes (s, y-grid, w-values) with w linearly
    interpolated onto a uniform y-grid of spacing 0.01 truncated to the
    ball |y| <= s intersected with the rescaled domain.  The same pass
    finds the frame's two boundaries, s0 and `resolved`.
    """
    mesh = trajectory.mesh
    x_lo, x_hi = float(mesh.nodes[0]), float(mesh.nodes[-1])
    if mesh.is_radial and a != 0.0:
        raise ValueError("radial similarity frames must be centered at the origin")
    if not (mesh.is_radial or x_lo < a < x_hi):
        raise ValueError("center outside the domain")
    boundary_dist = x_hi if mesh.is_radial else min(x_hi - a, a - x_lo)

    samples = []
    resolved = escaped = 0
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
        if mesh.h <= _RESOLVED_SPACINGS * _Y_SPACING * root:
            resolved += 1
        if s * root > boundary_dist:
            escaped = len(samples)
    if not samples:
        raise ValueError("no usable snapshots before T")
    s0 = samples[escaped][0] if escaped < len(samples) else math.inf
    return RescaledFrame(a=float(a), T=float(T), mesh=mesh, samples=tuple(samples), s0=s0, resolved=resolved)


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


def frozen_energy(frame: RescaledFrame, lam: float, f_at_a: float, sample) -> Tuple[float, float]:
    """Frozen energy E of one stored sample (s, y, w) over its ball |y| <= s
    (the sample's whole y-grid), and the ball's Gaussian mass Gamma."""
    s, y, w = sample
    if s < frame.s0:
        raise ValueError("ball not contained in the rescaled domain below s0")
    if y.size < 3:
        raise ValueError("sample too short for quadrature")
    if w.min() <= 0:
        raise ValueError("rescaled gap must be positive")
    wy = np.gradient(w, _Y_SPACING)
    weights = np.exp(-(y**2) / 4.0) * trapezoid_weights(frame.mesh.geometry, y, _Y_SPACING)
    density = 0.5 * wy**2 - w**2 / 6.0 - lam * f_at_a / w
    return float(np.dot(weights, density)), float(np.sum(weights))


def energy_trace(frame: RescaledFrame, lam: float, f_at_a: float) -> EnergyTrace:
    """E(s) for every sample with s >= s0 (so contained), with the k(a) target."""
    k = asymptotic_limit(lam, f_at_a)
    Fk, _ = F_profile(k, lam, f_at_a)
    gamma_inf = (2.0 * math.sqrt(math.pi)) ** frame.mesh.dimension
    points, E_of_k = [], []
    for sample in frame.samples:
        s, y, _ = sample
        if s < frame.s0 or y.size < 3:
            continue  # not contained, or a y-window narrower than the grid: no quadrature yet
        E, gamma = frozen_energy(frame, lam, f_at_a, sample)
        points.append((s, E))
        E_of_k.append(Fk * gamma)
    return EnergyTrace(points=tuple(points), E_of_k=tuple(E_of_k), k_a=k, E_limit=Fk * gamma_inf)


def rescale_stats(frame: RescaledFrame) -> RescaleStats:
    """How many samples the frame has, how many `write_frame_csv` writes, and the last one's s."""
    n = frame.resolved
    return RescaleStats(len(frame.samples), n, frame.samples[n - 1][0] if n else None)


def write_frame_csv(frame: RescaledFrame, path, comments: Sequence[str] = ()) -> None:
    """(s, y, w) rows of the resolved samples, one sample at a time;
    `comments` go below the header.  The unresolved samples, the tail of
    the frame, are left out."""
    bodies = (
        csvio.template(y.size, [csvio.FLOAT % s, csvio.FLOAT, csvio.FLOAT]) % csvio.interleave(y, w)
        for s, y, w in frame.samples[: frame.resolved]
    )
    csvio.write(path, "s,y,w", bodies, comments)


def write_energy_csv(trace: EnergyTrace, path) -> None:
    rows = [(s, E, trace.k_a, Ek) for (s, E), Ek in zip(trace.points, trace.E_of_k)]
    csvio.write_rows(path, "s,E,k_a,E_of_k", rows)
