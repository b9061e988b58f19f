"""Permittivity profiles f(x) and their admissibility checks.

Admissible profiles take values in [0,1], are positive on a set of
positive measure, and are Hoelder continuous with some exponent
alpha in (0,1].  Each kind knows its own exponent, `holder_exponent`:
Power has alpha = min(beta, 1) (1 at beta = 0), and the other kinds are
Lipschitz, alpha = 1.  `holder_constant` gives each kind's exact
constant K for that exponent over a span, by default the kind's domain,
and `supremum` its exact sup f there.

The built-in kinds:

  Constant(value)      f = value, value in (0,1]
  Power(beta)          f = |x|^beta
  SlabSinPiecewise     the piecewise profile used by the simulation
                       sections: 1-16(x+1/4)^2 left of -1/4, |sin(2 pi x)|
                       on [-1/4, 1/4], 1-16(x-1/4)^2 right of 1/4,
                       on the slab (-1/2, 1/2)
  Tabulated(xs, fs)    piecewise-linear data, loaded from CSV if desired
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .mesh import Mesh, Slab

__all__ = [
    "Constant",
    "Power",
    "SlabSinPiecewise",
    "Tabulated",
    "Profile",
    "IncompatibleGeometry",
    "evaluate",
    "validate",
    "holder_constant",
    "supremum",
    "tabulated_from_csv",
]


class IncompatibleGeometry(ValueError):
    """Profile cannot be evaluated on the given geometry."""


@dataclass(frozen=True)
class Constant:
    """f = value everywhere; Lipschitz (alpha = 1)."""

    value: float = 1.0
    holder_exponent = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.value <= 1.0):
            raise ValueError("constant profile requires value in (0,1]")

    def domain(self) -> Tuple[float, float]:
        return (-np.inf, np.inf)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.value) if x.ndim else float(self.value)


@dataclass(frozen=True)
class Power:
    """f(x) = |x|^beta; stays in [0,1] on domains with |x| <= 1."""

    exponent: float

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("power profile requires exponent >= 0")

    @property
    def holder_exponent(self) -> float:
        """min(beta, 1); |x|^0 = 1 is Lipschitz."""
        return min(self.exponent, 1.0) if self.exponent > 0 else 1.0

    def domain(self) -> Tuple[float, float]:
        return (-1.0, 1.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.abs(x) ** self.exponent
        return out if x.ndim else float(out)


@dataclass(frozen=True)
class SlabSinPiecewise:
    """Two-bump profile on the slab (-1/2, 1/2) with maxima at x = -1/4, 1/4.

    Even, continuous, Lipschitz (alpha = 1), vanishing at x = 0 and at both
    endpoints.
    """

    holder_exponent = 1.0

    def domain(self) -> Tuple[float, float]:
        return (-0.5, 0.5)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -0.5) or np.any(x > 0.5):
            raise ValueError("profile evaluated outside [-1/2, 1/2]")
        mid = np.abs(np.sin(2.0 * np.pi * x))
        left = 1.0 - 16.0 * (x + 0.25) ** 2
        right = 1.0 - 16.0 * (x - 0.25) ** 2
        out = np.where(x < -0.25, left, np.where(x > 0.25, right, mid))
        return out if x.ndim else float(out)


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear profile through (xs, fs) samples; Lipschitz (alpha = 1)."""

    xs: np.ndarray
    fs: np.ndarray
    holder_exponent = 1.0

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        fs = np.asarray(self.fs, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != fs.shape:
            raise ValueError("tabulated profile needs matching 1-D xs, fs with >= 2 samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise ValueError("tabulated xs and fs must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("tabulated xs must be strictly increasing")
        if fs.min() < 0.0 or fs.max() > 1.0:
            raise ValueError("tabulated values must lie in [0,1]")
        xs.setflags(write=False)
        fs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "fs", fs)

    def domain(self) -> Tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain()
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise ValueError("profile evaluated outside tabulated span")
        out = np.interp(x, self.xs, self.fs)
        return out if x.ndim else float(out)


Profile = Constant | Power | SlabSinPiecewise | Tabulated


def evaluate(profile: Profile, x):
    """Profile value(s) at x; raises outside the profile's domain, or for a
    value that is not finite or escapes [0,1]."""
    out = profile(x)
    arr = np.asarray(out)
    if not np.all(np.isfinite(arr)):
        raise ValueError("profile value is not finite")
    if arr.min() < -1e-12 or arr.max() > 1.0 + 1e-9:
        raise ValueError("profile value escapes [0,1]; rejected, not clamped")
    return out


def tabulated_from_csv(path: str) -> Tabulated:
    """Load a two-column (coordinate, value) CSV.  The first non-blank line
    may be a header; a later row that is not two numbers, or any row
    without exactly two cells, raises ValueError."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    rows = []
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError("tabulated CSV row %r has %d cells, not two" % (line, len(parts)))
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if i:  # only the first line may be a header
                raise ValueError("tabulated CSV row %r is not two numbers" % line) from None
    if len(rows) < 2:
        raise ValueError("tabulated CSV needs at least 2 numeric rows")
    data = np.asarray(rows)
    return Tabulated(data[:, 0], data[:, 1])


def validate(profile: Profile, mesh: Mesh) -> None:
    """Check that the profile is defined on the mesh and lies in [0,1] at its nodes.

    Raises IncompatibleGeometry when the mesh leaves the profile's domain
    (or SlabSinPiecewise meets any geometry but the slab (-1/2, 1/2)), and
    ValueError when a nodal value escapes [0,1].
    """
    if isinstance(profile, SlabSinPiecewise):
        g = mesh.geometry
        ok = isinstance(g, Slab) and abs(g.x_left + 0.5) < 1e-12 and abs(g.x_right - 0.5) < 1e-12
        if not ok:
            raise IncompatibleGeometry("SlabSinPiecewise is defined on the slab (-1/2, 1/2) only")
    lo, hi = profile.domain()
    if mesh.nodes[0] < lo - 1e-12 or mesh.nodes[-1] > hi + 1e-12:
        raise IncompatibleGeometry("mesh extends beyond the profile's domain")
    evaluate(profile, mesh.nodes)


def holder_constant(profile: Profile, span: Optional[Tuple[float, float]] = None) -> float:
    """Hoelder constant K of the profile over `span` = (lo, hi), by default
    its domain: the least K with |f(x) - f(y)| <= K |x - y|^alpha for x, y
    in the span, alpha = its `holder_exponent`.

    Constant: 0.  Power |x|^beta, with m and M the least and largest |x|
    over the span: 0 at beta = 0; (M^beta - m^beta) / (M - m)^beta for
    0 < beta <= 1, reached by the pair at |x| = m, M (1 on a span that
    holds 0, and at beta = 1); beta M^(beta - 1) above, the slope at M.
    SlabSinPiecewise: 8, the wings' slope 32|x -+ 1/4| at -+1/2, above the
    sine's 2 pi; exact on its domain (-1/2, 1/2), the only span
    `validate` admits for it.  Tabulated: the steepest segment that meets
    the span.
    """
    lo, hi = profile.domain() if span is None else span
    if isinstance(profile, Constant):
        return 0.0
    if isinstance(profile, Power):
        beta = profile.exponent
        big = max(abs(lo), abs(hi))
        if beta > 1.0:
            return float(beta * big ** (beta - 1.0))
        if beta == 0.0:
            return 0.0
        small = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        return float((big**beta - small**beta) / (big - small) ** beta)
    if isinstance(profile, SlabSinPiecewise):
        return 8.0
    xs, fs = profile.xs, profile.fs
    meets = (xs[:-1] < hi) & (xs[1:] > lo)
    return float(np.max(np.abs(np.diff(fs) / np.diff(xs))[meets]))


def supremum(profile: Profile, span: Optional[Tuple[float, float]] = None) -> float:
    """sup f over `span` = (lo, hi), by default the profile's domain.

    Constant: its value.  Power |x|^beta: M^beta with M the largest |x| over
    the span.  SlabSinPiecewise: 1, at x = -+1/4 on its domain, the only
    span `validate` admits for it.  Tabulated: the largest of the values at
    the span's ends and at the samples inside it.
    """
    lo, hi = profile.domain() if span is None else span
    if isinstance(profile, Constant):
        return float(profile.value)
    if isinstance(profile, Power):
        return float(max(abs(lo), abs(hi)) ** profile.exponent)
    if isinstance(profile, SlabSinPiecewise):
        return 1.0
    inside = profile.fs[(profile.xs > lo) & (profile.xs < hi)]
    return float(max(profile(lo), profile(hi), *inside))
