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
    assert holder_constant(Constant(0.5)) == 0.0
    assert holder_constant(Power(0.0)) == 0.0  # |x|^0 = 1
    ident = Tabulated(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert holder_constant(ident) == 1.0


def test_holder_constant_sin_piecewise():
    assert holder_constant(SlabSinPiecewise()) == SIN_PIECEWISE_LIPSCHITZ


def test_holder_constant_fractional_alpha():
    # |x|^(1/2) on [-1,1] has C^(1/2) seminorm exactly 1: pairs (0, t) give
    # ratio 1 and (sqrt s - sqrt t)/sqrt(s - t) <= 1 elsewhere
    assert holder_constant(Power(0.5)) == 1.0


# a table from -1/2 on: 2 to 8 knots at spacings of 1e-3 to 1, values in [0, 1]
TABLES = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
)).map(lambda t: Tabulated(np.concatenate(([-0.5], -0.5 + np.cumsum(t[0]))), np.array(t[1])))
KINDS = {
    "constant": st.floats(1e-3, 1.0).map(Constant),
    "power": st.floats(0.0, 3.0).map(Power),
    "sin_piecewise": st.just(SlabSinPiecewise()),
    "tabulated": TABLES,
}
# each computed value of f, a number of size at most 1, is a few roundings
# off; pairs closer than that are judged with this absolute slack
ROUNDING = 16.0 * np.finfo(float).eps


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
def test_holder_constant_bounds_every_pair(kind, data):
    f = data.draw(KINDS[kind])
    K, alpha = holder_constant(f), f.holder_exponent
    lo, hi = np.clip(f.domain(), -10.0, 10.0)  # the constant's domain is the line
    s = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20)))
    x = np.clip(lo + (hi - lo) * s, lo, hi)
    vals = np.asarray(evaluate(f, x))
    lhs = np.abs(vals[:, None] - vals[None, :])
    rhs = K * np.abs(x[:, None] - x[None, :]) ** alpha * (1.0 + 1e-9) + ROUNDING
    assert np.all(lhs <= rhs)


NARROW_PEAK = Tabulated(np.array([-0.5, -1e-4, 0.0, 1e-4, 0.5]), np.array([0.5, 0.5, 1.0, 0.5, 0.5]))


@pytest.mark.parametrize("f,x,y", [
    (Power(0.5), 0.0, 1.0),
    (Power(1.0), 0.0, 1.0),
    (Power(2.0), 1.0 - 1e-7, 1.0),
    (Power(3.0), 1.0 - 1e-7, 1.0),
    (SlabSinPiecewise(), 0.5 - 1e-7, 0.5),
    (NARROW_PEAK, -1e-4, 0.0),
])
def test_holder_constant_is_reached(f, x, y):
    # a named pair comes within 1e-6 of K: no smaller constant holds
    K = holder_constant(f)
    ratio = abs(evaluate(f, x) - evaluate(f, y)) / abs(x - y) ** f.holder_exponent
    assert (1.0 - 1e-6) * K <= ratio <= (1.0 + 1e-9) * K


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


@pytest.mark.parametrize("text", [
    "-1.0,0.0\n0.0,abc\n0.5,0.5\n1.0,0.0\n",  # a text row after the first line
    "x,f\ny,g\n-1.0,0.0\n1.0,0.0\n",  # a second header
    "-1.0,0.0\n0.0,0.9,7\n1.0,0.0\n",  # three cells
    "x,f,g\n-1.0,0.0\n1.0,0.0\n",  # a header of three cells
    "-1.0,0.0\n0.0\n1.0,0.0\n",  # one cell
], ids=["text_row", "second_header", "three_cells", "three_cell_header", "one_cell"])
def test_tabulated_csv_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        tabulated_from_csv(path)


def test_tabulated_csv_header_first_or_none(tmp_path):
    # a header is read only on the first non-blank line; blank lines are skipped
    headed, bare = tmp_path / "headed.csv", tmp_path / "bare.csv"
    headed.write_text("\n  x , f \n-1.0,0.0\n\n0.0,1.0\n1.0,0.0\n")
    bare.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    for path in (headed, bare):
        f = tabulated_from_csv(path)
        assert np.array_equal(f.xs, [-1.0, 0.0, 1.0]) and np.array_equal(f.fs, [0.0, 1.0, 0.0])
