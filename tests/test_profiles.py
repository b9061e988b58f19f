"""Permittivity profiles: evaluation, admissibility, Hoelder constants."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quenchlab.mesh import RadialBall, Slab, build_mesh
from quenchlab.profiles import (
    Constant,
    IncompatibleGeometry,
    Power,
    SlabSinPiecewise,
    Tabulated,
    evaluate,
    holder_constant,
    tabulated_from_csv,
    validate,
)

# Steepest slope of the two-bump profile: the parabolic wings reach
# |d/dx (1 - 16(x -+ 1/4)^2)| = 32|x -+ 1/4| = 8 at the endpoints, above the
# central |sin(2 pi x)| slope 2 pi, so the Lipschitz constant is 8.
SIN_PIECEWISE_LIPSCHITZ = 8.0


# ---------------------------------------------------------------------------
# evaluation


def test_sin_piecewise_values():
    f = SlabSinPiecewise()
    assert evaluate(f, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(f, 0.0) == 0.0
    assert evaluate(f, -0.5) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(f, 0.5) == pytest.approx(0.0, abs=1e-15)
    # left wing is the mirrored parabola
    assert evaluate(f, -0.3) == pytest.approx(1.0 - 16.0 * 0.05**2, abs=1e-15)


def test_sin_piecewise_even_and_continuous():
    f = SlabSinPiecewise()
    xs = np.linspace(0.0, 0.5, 1001)
    assert np.array_equal(np.asarray(evaluate(f, xs)), np.asarray(evaluate(f, -xs)))
    for x0 in (0.25, -0.25):
        eps = 1e-9
        lo = evaluate(f, x0 - eps)
        hi = evaluate(f, x0 + eps)
        assert abs(lo - hi) < 1e-7
        assert evaluate(f, x0) == pytest.approx(1.0, abs=1e-12)


def test_sin_piecewise_domain_guard():
    with pytest.raises(ValueError):
        SlabSinPiecewise()(0.6)


def test_constant_bounds():
    assert Constant(0.3)(17.0) == 0.3
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Constant(1.5)


def test_power_profile():
    f = Power(2.0)
    assert evaluate(f, -0.5) == 0.25
    assert f.holder_exponent == 1.0
    assert Power(0.5).holder_exponent == 0.5
    with pytest.raises(ValueError):
        Power(-1.0)


def test_evaluate_rejects_escape():
    bad = Tabulated(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    object.__setattr__(bad, "fs", np.array([0.0, 2.0]))  # corrupt past validation
    with pytest.raises(ValueError):
        evaluate(bad, 1.0)


@given(st.floats(-0.5, 0.5))
def test_eval_in_unit_range_property(x):
    for profile in (SlabSinPiecewise(), Constant(0.7), Power(1.5)):
        v = evaluate(profile, x)
        assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# geometry check


def test_validate_geometry_mismatch():
    assert validate(SlabSinPiecewise(), build_mesh(Slab(-0.5, 0.5), 11)) is None
    with pytest.raises(IncompatibleGeometry):
        validate(SlabSinPiecewise(), build_mesh(Slab(0.0, 1.0), 11))
    with pytest.raises(IncompatibleGeometry):
        validate(SlabSinPiecewise(), build_mesh(RadialBall(2, 1.0), 11))
    with pytest.raises(IncompatibleGeometry):
        validate(Power(2.0), build_mesh(Slab(-2.0, 2.0), 11))


# ---------------------------------------------------------------------------
# Hoelder constants


def test_holder_constant_trivial_cases():
    assert holder_constant(Constant(0.5), 1.0, 100) == 0.0
    ident = Tabulated(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert holder_constant(ident, 1.0, 501) == pytest.approx(1.0, rel=1e-12)


def test_holder_constant_sin_piecewise():
    K = holder_constant(SlabSinPiecewise(), 1.0, 4001)
    assert K == pytest.approx(SIN_PIECEWISE_LIPSCHITZ, abs=0.02)
    assert K <= SIN_PIECEWISE_LIPSCHITZ + 1e-12


def test_holder_constant_errors():
    with pytest.raises(ValueError):
        holder_constant(Constant(0.5), 1.5, 100)
    with pytest.raises(ValueError):
        holder_constant(Constant(0.5), 1.0, 1)


def test_holder_constant_fractional_alpha():
    # |x|^(1/2) on [-1,1] has C^(1/2) seminorm exactly 1: pairs (0, t) give
    # ratio 1 and (sqrt s - sqrt t)/sqrt(s - t) <= 1 elsewhere.  Node 0 is on
    # every odd grid, so the sampled value is exact.
    K = holder_constant(Power(0.5), 0.5, 2001)
    assert K == pytest.approx(1.0, abs=1e-12)


@given(n=st.integers(3, 200), doublings=st.integers(1, 3))
def test_holder_nested_grid_monotone(n, doublings):
    # refining n -> 2n-1 keeps every old sample and every dyadic stride,
    # so the pair maximum can only grow
    prev = holder_constant(SlabSinPiecewise(), 1.0, n)
    count = n
    for _ in range(doublings):
        count = 2 * count - 1
        cur = holder_constant(SlabSinPiecewise(), 1.0, count)
        assert cur >= prev - 1e-12
        prev = cur


# ---------------------------------------------------------------------------
# tabulated round-trip


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,f\n-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    f = tabulated_from_csv(path)
    assert f.domain() == (-1.0, 1.0)
    assert evaluate(f, 0.5) == pytest.approx(0.5)


def test_tabulated_rejects_bad_tables(tmp_path):
    with pytest.raises(ValueError):
        Tabulated(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Tabulated(np.array([0.0, 1.0]), np.array([0.0, 1.5]))
    path = tmp_path / "short.csv"
    path.write_text("only,header\n")
    with pytest.raises(ValueError):
        tabulated_from_csv(path)
