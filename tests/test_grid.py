"""Grid geometry, fields, quadrature, and the field file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldiff import (
    ConfigParseError,
    ConfigurationError,
    Field,
    GridMismatchError,
    build_grid,
    integrate,
    load_field,
    lp_norm,
    save_field,
)


def test_unit_interval_four_cells():
    # hand-checked: spacing 1/4, centers half a cell inside each end
    g = build_grid(1, [(0.0, 1.0)], [4])
    assert g.node_count == 4
    assert g.spacing == (0.25,)
    assert g.node_volume == 0.25
    assert g.total_measure == 1.0
    np.testing.assert_array_equal(g.axis_coordinates(0), [0.125, 0.375, 0.625, 0.875])


def test_2d_grid_geometry():
    g = build_grid(2, [(0.0, 2.0), (-1.0, 1.0)], [4, 5])
    assert g.node_count == 20
    assert g.spacing == (0.5, 0.4)
    assert g.node_volume == pytest.approx(0.2, abs=0.0)
    coords = g.node_coordinates()
    assert coords.shape == (20, 2)
    # row-major: the first axis is slow, so the first five nodes share x
    np.testing.assert_allclose(coords[:5, 0], 0.25)
    np.testing.assert_allclose(coords[:5, 1], [-0.8, -0.4, 0.0, 0.4, 0.8])


def test_flat_and_nearest_index():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [3, 4])
    assert g.flat_index((0, 0)) == 0
    assert g.flat_index((1, 2)) == 6
    assert g.flat_index((2, 3)) == 11
    with pytest.raises(ConfigurationError):
        g.flat_index((3, 0))


@pytest.mark.parametrize(
    "dim,extents,counts",
    [
        (3, [(0, 1)] * 3, [4] * 3),
        (1, [(0.0, 0.0)], [4]),
        (1, [(1.0, 0.0)], [4]),
        (1, [(0.0, 1.0)], [1]),
        (1, [(0.0, 1.0)], [4.5]),
        (2, [(0.0, 1.0)], [4, 4]),
        (1, [(-1e308, 1e308)], [16]),  # the span overflows
        (1, [(0.0, 1e-320)], [16]),  # a subnormal spacing
        (2, [(0.0, 1e-160)] * 2, [4, 4]),  # normal spacings, a subnormal node volume
    ],
)
def test_grid_rejects_bad_geometry(dim, extents, counts):
    with pytest.raises(ConfigurationError):
        build_grid(dim, extents, counts)


def test_field_validation():
    g = build_grid(1, [(0.0, 1.0)], [4])
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(5))
    with pytest.raises(ConfigurationError, match="node 2"):
        Field(g, np.array([0.0, 1.0, np.nan, 2.0]))
    f = Field(g, [1, 2, 3, 4])
    assert f.values.dtype == np.float64
    np.testing.assert_array_equal(f.reshaped(), [1.0, 2.0, 3.0, 4.0])


def test_integrate_and_norm_hand_values():
    g = build_grid(1, [(0.0, 1.0)], [2])
    f = Field(g, [3.0, -4.0])
    assert integrate(g, f) == pytest.approx(-0.5, abs=0.0)
    assert lp_norm(g, f, 1) == pytest.approx(3.5)
    assert lp_norm(g, f, 2) == pytest.approx(math.sqrt(12.5))
    assert lp_norm(g, f, math.inf) == 4.0


def test_norm_rejects_bad_exponent():
    g = build_grid(1, [(0.0, 1.0)], [2])
    f = Field(g, [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        lp_norm(g, f, 0.5)


def test_field_grid_mismatch_is_refused():
    g1 = build_grid(1, [(0.0, 1.0)], [4])
    g2 = build_grid(1, [(0.0, 2.0)], [4])
    f = Field(g2, np.ones(4))
    with pytest.raises(GridMismatchError):
        integrate(g1, f)


@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_integrate_is_linear(a, b, seed):
    g = build_grid(1, [(0.0, 2.0)], [16])
    rng = np.random.default_rng(seed)
    f = Field(g, rng.normal(size=16))
    h = Field(g, rng.normal(size=16))
    combo = Field(g, a * f.values + b * h.values)
    assert integrate(g, combo) == pytest.approx(
        a * integrate(g, f) + b * integrate(g, h), rel=1e-12, abs=1e-12
    )


@given(
    mag=st.floats(0.01, 100, allow_nan=False),
    sign=st.sampled_from([-1.0, 1.0]),
    p=st.sampled_from([1.0, 2.0, 3.5, math.inf]),
)
@settings(max_examples=50, deadline=None)
def test_norm_scales_homogeneously(mag, sign, p):
    # scales kept away from the regime where |c f|^p underflows
    c = sign * mag
    g = build_grid(1, [(0.0, 1.0)], [8])
    f = Field(g, np.linspace(-1.0, 2.0, 8))
    assert lp_norm(g, Field(g, c * f.values), p) == pytest.approx(
        abs(c) * lp_norm(g, f, p), rel=1e-12
    )


@given(p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_norm_triangle_inequality(p, seed):
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    rng = np.random.default_rng(seed)
    f = Field(g, rng.normal(size=16))
    h = Field(g, rng.normal(size=16))
    lhs = lp_norm(g, Field(g, f.values + h.values), p)
    assert lhs <= lp_norm(g, f, p) + lp_norm(g, h, p) + 1e-12


def test_save_load_round_trip_is_bit_exact(tmp_path):
    g = build_grid(2, [(0.0, 1.0), (-0.5, 2.5)], [3, 5])
    rng = np.random.default_rng(11)
    values = rng.normal(size=15) * np.exp(rng.uniform(-300, 300, size=15) * np.log(2) / 4)
    values[0] = -0.0
    values[1] = 5e-324  # smallest subnormal survives the 17g format
    f = Field(g, values)
    path = tmp_path / "field.csv"
    save_field(f, path)
    back = load_field(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)
    assert np.signbit(back.values[0])


def test_load_field_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a field\n")
    with pytest.raises(ConfigurationError, match="header"):
        load_field(path)
    path.write_text("# nldiff-field v1\n# dim 1\n# extents 0 1\n# counts 4\n1\n2\nxx\n4\n")
    with pytest.raises(ConfigurationError, match="line 7"):
        load_field(path)
    with pytest.raises(ConfigParseError, match="cannot read file"):
        load_field(tmp_path / "absent.csv")
