"""Meshes, quadrature, and the discrete Laplacian."""

import importlib.machinery
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import linalg

from quenchlab import mesh as mesh_module
from quenchlab.mesh import (
    RadialBall,
    Slab,
    bands_matvec,
    build_mesh,
    integrate,
    laplacian_bands,
    solve_banded,
    sphere_area,
)

from oracles import apply_laplacian


# ---------------------------------------------------------------------------
# construction


def test_build_mesh_unit_slab_6000():
    mesh = build_mesh(Slab(-0.5, 0.5), 6000)
    assert mesh.node_count == 6000
    assert mesh.h == pytest.approx(1.0 / 5999, rel=1e-15)
    assert mesh.nodes[0] == -0.5 and mesh.nodes[-1] == 0.5


def test_build_mesh_three_nodes():
    mesh = build_mesh(Slab(0.0, 1.0), 3)
    assert np.allclose(mesh.nodes, [0.0, 0.5, 1.0])
    assert mesh.dimension == 1


def test_build_mesh_ball():
    mesh = build_mesh(RadialBall(3, 1.0), 5)
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.is_radial
    assert mesh.dimension == 3
    # r = 0 is an unknown, r = R the only Dirichlet node
    assert mesh.unknown_slice == slice(0, 4)


def test_build_mesh_rejects_degenerate():
    with pytest.raises(ValueError):
        build_mesh(Slab(0.0, 1.0), 2)
    with pytest.raises(ValueError):
        Slab(1.0, 0.0)
    with pytest.raises(ValueError):
        RadialBall(0, 1.0)
    with pytest.raises(ValueError):
        RadialBall(3, -1.0)


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_constant_slab():
    mesh = build_mesh(Slab(-0.5, 0.5), 17)
    assert integrate(mesh, np.ones(17)) == pytest.approx(1.0, abs=1e-14)


def test_integrate_constant_ball_volume():
    mesh = build_mesh(RadialBall(3, 1.0), 2001)
    vol = integrate(mesh, np.ones(mesh.node_count))
    assert vol == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)


def test_integrate_linear_exact():
    mesh = build_mesh(Slab(0.0, 1.0), 101)
    val = integrate(mesh, mesh.nodes)
    assert val == pytest.approx(0.5, abs=1e-14)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


@given(
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
    lo=st.floats(-2, 1),
    width=st.floats(0.1, 3),
    n=st.integers(3, 60),
)
def test_integrate_affine_exact_property(a, b, lo, width, n):
    mesh = build_mesh(Slab(lo, lo + width), n)
    val = integrate(mesh, a * mesh.nodes + b)
    hi = lo + width
    exact = a * (hi * hi - lo * lo) / 2.0 + b * width
    assert val == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_quadratic_slab_exact():
    mesh = build_mesh(Slab(0.0, 1.0), 41)
    out = apply_laplacian(mesh, mesh.nodes * (1.0 - mesh.nodes))
    assert np.allclose(out[1:-1], -2.0, atol=1e-11)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_laplacian_r_squared_ball():
    mesh = build_mesh(RadialBall(3, 1.0), 21)
    out = apply_laplacian(mesh, mesh.nodes**2)
    # lap(r^2) = 2N, exact for the centered stencil including the origin row
    assert np.allclose(out[:-1], 6.0, atol=1e-10)


def test_laplacian_sine_second_order():
    errs = []
    for n in (101, 201, 401):
        mesh = build_mesh(Slab(0.0, 1.0), n)
        out = apply_laplacian(mesh, np.sin(math.pi * mesh.nodes))
        exact = -math.pi**2 * np.sin(math.pi * mesh.nodes)
        errs.append(np.max(np.abs(out[1:-1] - exact[1:-1])))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    assert errs[1] < 1e-3


def test_laplacian_radial_smooth_second_order():
    errs = []
    for n in (101, 201, 401):
        mesh = build_mesh(RadialBall(3, 1.0), n)
        r = mesh.nodes
        # u = cos(pi r / 2): lap = -pi^2/4 u - (N-1) pi/(2r) sin(pi r/2)
        out = apply_laplacian(mesh, np.cos(0.5 * math.pi * r))
        with np.errstate(invalid="ignore", divide="ignore"):
            exact = -0.25 * math.pi**2 * np.cos(0.5 * math.pi * r) - (
                2.0 * 0.5 * math.pi * np.sin(0.5 * math.pi * r) / r
            )
        exact[0] = -0.25 * math.pi**2 * 3.0  # limit N * u''(0)
        errs.append(np.max(np.abs(out[:-1] - exact[:-1])))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_banded_matches_dense_stencil(rng):
    for geom in (Slab(-0.5, 0.5), RadialBall(1, 1.0), RadialBall(2, 1.0),
                 RadialBall(3, 1.0), RadialBall(8, 1.0)):
        mesh = build_mesh(geom, 41)
        vals = np.zeros(mesh.node_count)
        vals[mesh.unknown_slice] = rng.standard_normal(mesh.node_count)[mesh.unknown_slice]
        dense = apply_laplacian(mesh, vals)[mesh.unknown_slice]
        banded = bands_matvec(laplacian_bands(mesh), vals[mesh.unknown_slice])
        assert np.max(np.abs(dense - banded)) < 1e-10


def test_weighted_symmetry(rng):
    # the centered radial stencil is quadrature-symmetric only while the
    # trapezoid rule integrates r^(N-2) exactly, i.e. N <= 3; the N = 2
    # origin row pairs with a zero quadrature weight, so its symmetry is
    # tested on fields vanishing at r = 0
    cases = [
        (build_mesh(Slab(-0.5, 0.5), 101), False),
        (build_mesh(Slab(0.0, 2.0), 64), False),
        (build_mesh(RadialBall(1, 1.0), 101), False),
        (build_mesh(RadialBall(3, 1.0), 101), False),
        (build_mesh(RadialBall(2, 1.0), 101), True),
    ]
    for mesh, zero_origin in cases:
        ab = laplacian_bands(mesh)
        wq = mesh.weights[mesh.unknown_slice]
        n = ab.shape[1]
        for _ in range(10):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            if zero_origin:
                u[0] = v[0] = 0.0
            lhs = float(np.dot(wq * bands_matvec(ab, u), v))
            rhs = float(np.dot(wq * u, bands_matvec(ab, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_mesh_rejects_nonuniform():
    nodes = np.array([0.0, 0.4, 1.0])
    with pytest.raises(ValueError):
        from quenchlab.mesh import Mesh

        Mesh(geometry=Slab(0.0, 1.0), nodes=nodes, h=0.5)


# ---------------------------------------------------------------------------
# the banded solve


def _banded_system(geometry, unknowns, columns, seed):
    """Laplacian bands with a random diagonal added (indefinite, so dgtsv
    pivots) and a random right-hand side of 1 or 2 columns."""
    rng = np.random.default_rng(seed)
    mesh = build_mesh(geometry, unknowns + (1 if isinstance(geometry, RadialBall) else 2))
    ab = laplacian_bands(mesh)
    assert ab.shape == (3, unknowns)
    ab[1] += rng.standard_normal(unknowns) * np.max(np.abs(ab[1]))
    b = rng.standard_normal(unknowns if columns == 1 else (unknowns, columns))
    return ab, b


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("geometry,unknowns", [
    (Slab(-0.5, 0.5), 1), (Slab(-0.5, 0.5), 2), (Slab(-0.5, 0.5), 399), (Slab(-0.5, 0.5), 6000),
    (RadialBall(3, 1.0), 2), (RadialBall(3, 1.0), 399), (RadialBall(3, 1.0), 6000),
])
def test_solve_banded_is_scipy_bitwise(geometry, unknowns, columns):
    ab, b = _banded_system(geometry, unknowns, columns, seed=unknowns + columns)
    ab0, b0 = ab.copy(), b.copy()
    want = linalg.solve_banded((1, 1), ab, b)
    got = solve_banded(ab, b)
    assert got.shape == want.shape == b.shape
    assert got.tobytes() == want.tobytes()
    # without the overwrite flags the operands are left as they were
    assert ab.tobytes() == ab0.tobytes() and b.tobytes() == b0.tobytes()
    assert solve_banded(ab0.copy(), b0.copy(), overwrite_ab=True, overwrite_b=True).tobytes() == want.tobytes()


def test_dgtsv_falls_back_to_the_public_import(monkeypatch):
    # the direct load is the exported routine itself; without its file the loader imports it
    assert mesh_module.dgtsv is linalg.lapack.dgtsv
    with monkeypatch.context() as patch:
        patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        fallback = mesh_module._load_dgtsv()
    assert fallback is linalg.lapack.dgtsv
    ab, b = _banded_system(Slab(-0.5, 0.5), 399, 2, seed=0)
    want = solve_banded(ab, b)
    monkeypatch.setattr(mesh_module, "dgtsv", fallback)
    assert solve_banded(ab, b).tobytes() == want.tobytes()


def test_solve_banded_singular_raises():
    for ab in (np.zeros((3, 2)), np.ones((3, 2)), np.zeros((3, 399))):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_banded(ab, np.ones(ab.shape[1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["ab", "b"])
@pytest.mark.parametrize("unknowns", [1, 399])
def test_solve_banded_rejects_non_finite(operand, bad, unknowns):
    # the operands are not scanned; a solution that is not finite raises.  An
    # infinite pivot is the one case here whose solution stays finite (its
    # unknown is 0), and it is returned as such
    ab, b = _banded_system(Slab(-0.5, 0.5), unknowns, 1, seed=0)
    if operand == "ab":
        ab[1, -1] = bad
    else:
        b[-1] = bad
    if operand == "ab" and np.isinf(bad):
        x = solve_banded(ab, b)
        assert np.isfinite(x).all() and x[-1] == 0.0
        return
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        solve_banded(ab, b)


@pytest.mark.parametrize("unknowns", [1, 2, 399])
def test_solve_banded_rejects_overflow(unknowns):
    # finite operands whose solution overflows: 1e300 / 1e-300
    ab = np.zeros((3, unknowns))
    ab[1] = 1e-300
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        solve_banded(ab, np.full(unknowns, 1e300))


def test_solve_banded_rejects_mismatched_shapes():
    ab, b = _banded_system(Slab(-0.5, 0.5), 399, 2, seed=0)
    for args in ((ab, b[:-1]), (ab[:, :-1], b), (ab[:2], b), (np.vstack((ab, ab[:1])), b)):
        with pytest.raises(ValueError, match="shapes"):
            solve_banded(*args)
