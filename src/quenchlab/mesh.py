"""Uniform one-dimensional meshes for slab and ball domains.

A slab is an interval (x_left, x_right) with Dirichlet nodes at both ends.
A ball of dimension N is reduced to the radial coordinate r in [0, R]; the
only Dirichlet node is r = R, while r = 0 is an ordinary unknown governed
by the symmetry limit of the Laplacian,

    lap(u)(0) = N * u''(0)  ~  2 N (u_1 - u_0) / h^2.

Interior rows of the discrete Laplacian are second-order centered
differences; on a ball the operator acting on radial profiles is
u_rr + (N - 1)/r * u_r.  Quadrature is the composite trapezoid rule, with
radial integrands carrying the volume weight omega_{N-1} r^{N-1} where
omega_{N-1} = 2 pi^{N/2} / Gamma(N/2) is the area of the unit sphere.

Every tridiagonal solve is `solve_banded`, which calls LAPACK dgtsv.  The
routine is taken from scipy's compiled LAPACK wrapper, the extension file
scipy/linalg/_flapack<suffix>, loaded on its own: importing it through
`scipy.linalg.lapack` would run all of `scipy.linalg/__init__` (with
numpy.f2py, numpy.testing and numpy.ma), about 0.3 s and 26 MB per process
for code quenchlab never calls.  That file is private to scipy, so when it
is not where the loader looks, the public `scipy.linalg.lapack` import
supplies the same routine.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Slab",
    "RadialBall",
    "Geometry",
    "Mesh",
    "build_mesh",
    "integrate",
    "sphere_area",
]


def _load_dgtsv():
    """LAPACK dgtsv from scipy's _flapack extension file, without importing scipy.linalg.

    Neither scipy/__init__ nor scipy.linalg/__init__ runs.  The extension
    registers itself as scipy.linalg._flapack, so a later import of
    scipy.linalg reuses it and `scipy.linalg.lapack.dgtsv` is this object.
    Without the file, the public import is the fallback.
    """
    name = "scipy.linalg._flapack"
    spec = importlib.util.find_spec("scipy")
    for folder in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
                return module.dgtsv
    from scipy.linalg.lapack import dgtsv

    return dgtsv


dgtsv = _load_dgtsv()


@dataclass(frozen=True)
class Slab:
    """Interval domain (x_left, x_right)."""

    x_left: float = -0.5
    x_right: float = 0.5

    def __post_init__(self) -> None:
        if not np.isfinite(self.x_left) or not np.isfinite(self.x_right):
            raise ValueError("slab endpoints must be finite")
        if not self.x_right > self.x_left:
            raise ValueError("slab requires x_right > x_left")


@dataclass(frozen=True)
class RadialBall:
    """Ball of given dimension and radius, reduced to r in [0, radius]."""

    dimension: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError("ball dimension must be a positive integer")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be positive and finite")


Geometry = Slab | RadialBall


def sphere_area(dimension: int) -> float:
    """Area of the unit (N-1)-sphere: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


@dataclass(frozen=True)
class Mesh:
    """Uniform node set over a geometry, with cached quadrature weights."""

    geometry: Geometry
    nodes: np.ndarray
    h: float
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least 3 nodes")
        spacings = np.diff(nodes)
        if spacings.min() <= 0:
            raise ValueError("mesh nodes must be strictly increasing")
        scale = abs(nodes[-1] - nodes[0])
        if np.max(np.abs(spacings - self.h)) > 1e-12 * scale:
            raise ValueError("mesh nodes must be uniform")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", _trapezoid_weights(self.geometry, nodes, self.h))

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @property
    def is_radial(self) -> bool:
        return isinstance(self.geometry, RadialBall)

    @property
    def dimension(self) -> int:
        """Space dimension N of the domain; 1 for a slab."""
        return self.geometry.dimension if self.is_radial else 1

    @property
    def unknown_slice(self) -> slice:
        """Index range of the Dirichlet-eliminated unknowns."""
        return slice(0 if self.is_radial else 1, self.node_count - 1)


def _trapezoid_weights(geometry: Geometry, nodes: np.ndarray, h: float) -> np.ndarray:
    w = np.full(nodes.size, h)
    w[0] = w[-1] = 0.5 * h
    if isinstance(geometry, RadialBall):
        n = geometry.dimension
        w = w * sphere_area(n) * nodes ** (n - 1)
    w.setflags(write=False)
    return w


def build_mesh(geometry: Geometry, node_count: int) -> Mesh:
    """Uniform mesh on the geometry with node_count >= 3 nodes.

    Slab nodes run from x_left to x_right; ball nodes from r = 0 to r = R.
    """
    if int(node_count) != node_count or node_count < 3:
        raise ValueError("node_count must be an integer >= 3")
    if isinstance(geometry, Slab):
        lo, hi = geometry.x_left, geometry.x_right
    else:
        lo, hi = 0.0, geometry.radius
    nodes = np.linspace(lo, hi, int(node_count))
    h = (hi - lo) / (node_count - 1)
    return Mesh(geometry=geometry, nodes=nodes, h=h)


def integrate(mesh: Mesh, values: np.ndarray) -> float:
    """Trapezoid quadrature of nodal values over the mesh's domain.

    On a ball the integrand is weighted by omega_{N-1} r^{N-1}, so the
    result is the full N-dimensional integral of the radial profile.
    Exact for affine integrands on slabs.
    """
    return float(np.dot(mesh.weights, values))


def laplacian_bands(mesh: Mesh) -> np.ndarray:
    """Banded form (scipy solve_banded layout) of the Dirichlet Laplacian.

    Rows cover the unknowns of ``mesh.unknown_slice``; the zero boundary
    values are eliminated.
    """
    h2 = mesh.h * mesh.h
    if not mesh.is_radial:
        n = mesh.node_count - 2
        ab = np.zeros((3, n))
        ab[0, 1:] = 1.0 / h2
        ab[1, :] = -2.0 / h2
        ab[2, :-1] = 1.0 / h2
        return ab
    dim = mesh.geometry.dimension
    n = mesh.node_count - 1
    ab = np.zeros((3, n))
    r = mesh.nodes[1:n]
    # interior rows i = 1 .. n-1 at radius r_i; solve_banded layout puts
    # row i's coupling to r_{i+1} at ab[0, i+1] and to r_{i-1} at ab[2, i-1],
    # so both stripes carry the row radius r_i, shifted oppositely
    ab[1, 1:] = -2.0 / h2
    ab[0, 2:] = 1.0 / h2 + (dim - 1) / (2.0 * mesh.h * r[:-1])
    ab[2, 0:n - 1] = 1.0 / h2 - (dim - 1) / (2.0 * mesh.h * r)
    # origin row: lap(u)(0) = 2 N (u_1 - u_0) / h^2
    ab[1, 0] = -2.0 * dim / h2
    ab[0, 1] = 2.0 * dim / h2
    return ab


def bands_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply a tridiagonal matrix in solve_banded layout by a vector."""
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[2, :-1] * v[:-1]
    return out


def residual_floor(ab: np.ndarray) -> float:
    """Roundoff floor of a residual sup-norm for the tridiagonal A in solve_banded
    layout: 30 eps times the bound max|diag| + 2 max|off-diag| on ||A|| (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 7); below it is noise."""
    opnorm = float(np.max(np.abs(ab[1])) + 2.0 * np.max(np.abs(ab[(0, 2), :])))
    return 30.0 * np.finfo(float).eps * opnorm


def solve_banded(
    ab: np.ndarray, b: np.ndarray, overwrite_ab: bool = False, overwrite_b: bool = False
) -> np.ndarray:
    """Solve the tridiagonal system with bands ab (solve_banded layout) for b, (n,) or (n, k).

    Bit for bit `scipy.linalg.solve_banded((1, 1), ab, b)` on finite
    operands, but calling LAPACK dgtsv directly.  The operands are not
    scanned, since callers build them finite from validated input; the
    solution is.  A zero pivot or a solution that is not finite (an
    overflow, or a non-finite operand that reaches it) raises LinAlgError;
    mismatched shapes raise ValueError.  The overwrite flags let dgtsv work
    in ab or b in place of a copy.
    """
    if ab.shape[0] != 3 or ab.shape[1] != b.shape[0]:
        raise ValueError("shapes of ab and b are not compatible")
    if ab.shape[1] == 1:  # dgtsv's wrapper rejects empty off-diagonals
        with np.errstate(all="ignore"):
            x = b / ab[1, 0]
    else:
        *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_ab, overwrite_ab, overwrite_ab, overwrite_b)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError("illegal value in argument %d of dgtsv" % -info)
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("solution is not finite")
    return x

