"""Spatial kernels, range kernels, mollification, reactions, validation.

The frozen reference numbers were computed through independent routes
before the assertions were written: adaptive quadrature (scipy) for the
bump integrals, a long trapezoid sum for the Gaussian mass, and closed
forms everywhere a closed form exists.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldiff import (
    AssumptionViolationError,
    ConfigurationError,
    Field,
    KernelValidationError,
    RangeKernel,
    SolverConfig,
    SpatialKernelTable,
    bilateral_kernel,
    build_grid,
    bump_mass,
    custom_kernel,
    custom_table_reaction,
    eval_range_kernel,
    linear_decay_reaction,
    linear_kernel,
    logistic_reaction,
    make_spatial_kernel,
    mollifier_density,
    mollifier_moment,
    mollify_range_kernel,
    p_laplacian_kernel,
    sample_growth_constant,
    sample_holder_constant,
    sample_lipschitz_constant,
    solve,
    spatial_exponent_kernel,
    validate_assumptions,
    variable_exponent_kernel,
    zero_reaction,
)
from nldiff import kernels, operator
from nldiff.kernels import _signed_power

# scipy.integrate.quad oracles, absolute error below 1e-13
BUMP_MASS_QUAD = 0.44399381616807937
MOMENT_HALF_QUAD = 0.54026912222927181
MOMENT_ONE_QUAD = 0.3344539977099753


# ---------------------------------------------------------------------------
# spatial kernels


def test_box_kernel_hand_values():
    # radius 0.15 on spacing 0.1 reaches exactly one neighbor per side;
    # normalization 0.1 * 3 makes every weight 10/3
    g = build_grid(1, [(0.0, 1.0)], [10])
    t = make_spatial_kernel(g, "box", 0.15)
    assert t.size == 3
    np.testing.assert_array_equal(t.offsets.ravel(), [-1, 0, 1])
    np.testing.assert_allclose(t.weights, 10.0 / 3.0, rtol=1e-15)
    assert t.normalization == pytest.approx(0.3, rel=1e-15)
    assert t.discrete_mass() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kernel_neighbor_ratio():
    g = build_grid(1, [(0.0, 1.0)], [10])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    ratio = t.weight_of([1]) / t.weight_of([0])
    assert ratio == pytest.approx(math.exp(-0.25), rel=1e-14)
    assert t.weight_of([-1]) == t.weight_of([1])
    assert t.discrete_mass() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_cutoff_is_strict():
    # cutoff at 4 * 0.025 = 0.1 equals the spacing, so neighbors are out
    g = build_grid(1, [(0.0, 1.0)], [10])
    t = make_spatial_kernel(g, "gaussian", 0.025)
    assert t.size == 1
    np.testing.assert_array_equal(t.offsets.ravel(), [0])


def test_gaussian_mass_against_trapezoid_oracle():
    # On a fine grid the normalization approximates the continuum integral
    # of exp(-x^2 / rho^2) over the truncation ball.  The oracle is an
    # independent trapezoid sum; both quadrature errors sit far below 1e-6.
    rho = 0.2
    g = build_grid(1, [(-0.5, 0.5)], [50000])
    t = make_spatial_kernel(g, "gaussian", rho)
    lim = 4.0 * rho
    x = np.linspace(-lim, lim, 1_000_001)
    fx = np.exp(-(x * x) / (rho * rho))
    h = x[1] - x[0]
    oracle = h * (np.sum(fx) - 0.5 * (fx[0] + fx[-1]))
    assert abs(t.normalization - oracle) < 1e-6


def test_2d_gaussian_is_isotropic_on_square_cells():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    assert t.weight_of([0, 1]) == t.weight_of([1, 0]) == t.weight_of([0, -1])
    assert t.discrete_mass() == pytest.approx(1.0, abs=1e-12)


def test_kernel_table_is_sorted_lexicographically():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [8, 8])
    t = make_spatial_kernel(g, "box", 0.14)
    rows = [tuple(r) for r in t.offsets]
    assert rows == sorted(rows)


def _full_box_table(g, family, radius):
    """Gaussian or box table from every offset of the grid, filtered."""
    ranges = [np.arange(-(c - 1), c) for c in g.counts]
    cand = np.stack([a.ravel() for a in np.meshgrid(*ranges, indexing="ij")], axis=-1)
    rsq = np.zeros(cand.shape[0])
    for k in range(g.dim):
        rsq += (cand[:, k] * g.spacing[k]) ** 2
    if family == "gaussian":
        keep = rsq < (4.0 * radius) ** 2
        raw = np.exp(-rsq[keep] / (radius * radius))
    else:
        keep = rsq <= radius * radius
        raw = np.ones(int(np.count_nonzero(keep)))
    normalization = g.node_volume * float(np.sum(raw))
    return cand[keep], raw / normalization, normalization


@pytest.mark.parametrize("family", ["gaussian", "box"])
@pytest.mark.parametrize(
    "extents, counts, radii",
    [
        ([(0.0, 1.0)], [37], [0.01, 0.05, 0.3, 5.0, 1e150]),
        ([(0.0, 1.0), (-0.5, 0.7)], [24, 17], [0.03, 0.1, 0.5, 3.0, 1e150]),
    ],
    ids=["1d", "2d"],
)
def test_radius_box_enumeration_matches_the_full_grid(family, extents, counts, radii):
    g = build_grid(len(counts), extents, counts)
    for radius in radii:
        t = make_spatial_kernel(g, family, radius)
        offsets, weights, normalization = _full_box_table(g, family, radius)
        assert np.array_equal(t.offsets, offsets)
        assert np.array_equal(t.weights, weights)
        assert t.normalization == normalization


def test_narrow_gaussian_table_on_a_large_grid_stays_small():
    import tracemalloc

    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [512, 512])
    tracemalloc.start()
    try:
        t = make_spatial_kernel(g, "gaussian", 0.002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.size == 49
    assert peak < 8e6


def test_custom_table_normalization_and_lookup():
    g = build_grid(1, [(0.0, 1.0)], [8])
    offs = np.array([[-1], [0], [1]])
    t = make_spatial_kernel(g, "custom_table", table=(offs, np.array([1.0, 2.0, 1.0])))
    # node_volume 1/8, raw sum 4 -> normalization 0.5
    assert t.normalization == pytest.approx(0.5, rel=1e-15)
    assert t.weight_of([0]) == pytest.approx(4.0)
    assert t.weight_of([7]) == 0.0
    assert t.discrete_mass() == pytest.approx(1.0, abs=1e-14)


def test_custom_table_rejects_uneven_and_duplicate_and_negative():
    g = build_grid(1, [(0.0, 1.0)], [8])
    with pytest.raises(KernelValidationError) as exc:
        make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 2.0, 1.5]))
    assert (1,) in exc.value.offenders and (-1,) in exc.value.offenders
    with pytest.raises(KernelValidationError):
        make_spatial_kernel(g, "custom_table", table=([[0], [0]], [1.0, 1.0]))
    # every listing of every duplicated offset is reported, in table order
    offs = [[-1], [1], [0], [1], [-1], [2], [-2]]
    with pytest.raises(KernelValidationError) as exc:
        make_spatial_kernel(g, "custom_table", table=(offs, [1.0] * len(offs)))
    assert exc.value.offenders == [(-1,), (1,), (1,), (-1,)]
    assert "offending offsets [(-1,), (1,), (1,), (-1,)]" in str(exc.value)
    with pytest.raises(KernelValidationError) as exc:
        make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, -2.0, 1.0]))
    assert (0,) in exc.value.offenders
    with pytest.raises(KernelValidationError) as exc:
        make_spatial_kernel(g, "custom_table", table=([[1], [0], [-1]], [-0.5, 0.0, -0.5]))
    assert "offending offsets [(1,), (-1,)]" in str(exc.value)


def test_offsets_beyond_int64_are_refused():
    g = build_grid(1, [(0.0, 1.0)], [8])
    # -2^63 negates to itself in int64, so it looked even
    for offs in ([[-(2**63)]], [[-1], [2**64], [1]]):
        with pytest.raises(KernelValidationError) as exc:
            make_spatial_kernel(g, "custom_table", table=(offs, [1.0] * len(offs)))
        assert exc.value.offenders == [tuple(o) for o in offs if abs(o[0]) >= 2**63]
    with pytest.raises(KernelValidationError, match=r"offending offsets \[\(-9223372036854775808,\)\]"):
        SpatialKernelTable(g, 0.1, np.array([[-(2**63)]]), [1.0], 1.0)
    t = make_spatial_kernel(g, "custom_table", table=([[-(2**63 - 1)], [2**63 - 1]], [1.0, 1.0]))
    assert t.offsets.dtype == np.int64 and operator._Walk(t).blocks == ()


def test_ragged_table_offsets_are_refused():
    # numpy's "inhomogeneous shape" ValueError used to escape
    g = build_grid(1, [(0.0, 1.0)], [8])
    cases = (([[1], [1, 2]], [(1, 2)]), ([[1, 2], [3], [-1, -2], []], [(3,), ()]),
             ([1, [2]], [(2,)]), ([[1], 2], [2]))  # rows that are not sequences
    for offs, bad in cases:
        with pytest.raises(KernelValidationError, match="as long as the first") as exc:
            make_spatial_kernel(g, "custom_table", table=(offs, [1.0] * len(offs)))
        assert exc.value.offenders == bad


def test_table_walks_positive_offsets_and_keeps_the_zero_weight():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [5, 4])
    t = make_spatial_kernel(g, "box", 0.3)
    rows = [tuple(r) for r in t.offsets]
    positive = [r for r in rows if r > (0, 0)]
    assert len(positive) == (len(rows) - 1) // 2
    # one gather block holds the pairs of each positive offset, in table order
    (w, _, _, wrap), = operator._Walk(t).blocks
    assert wrap is None
    sizes = [(5 - abs(a)) * (4 - abs(b)) for a, b in positive]
    assert w.tolist() == np.repeat([t.weight_of(r) for r in positive], sizes).tolist()
    assert t.zero_weight == t.weight_of([0, 0])
    # every ordered pair of the full table, the zero offset included
    assert sum(kernels._pair_counts(g, t.offsets)) == sum((5 - abs(a)) * (4 - abs(b)) for a, b in rows)


def test_uneven_table_is_refused_at_construction():
    g = build_grid(1, [(0.0, 1.0)], [8])
    even = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 2.0, 1.0]))
    with pytest.raises(KernelValidationError) as exc:
        SpatialKernelTable(g, 0.1, [[-1], [0], [1]], [1.0, 2.0, 1.5], 1.0)
    assert exc.value.offenders == [(-1,), (1,)]
    with pytest.raises(KernelValidationError) as exc:
        SpatialKernelTable(g, 0.1, [[0], [1]], [1.0, 1.0], 1.0)
    assert exc.value.offenders == [(1,)]
    # a zero weight is dropped before the table is built, leaving 1 unmatched
    with pytest.raises(KernelValidationError) as exc:
        make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [0.0, 1.0, 0.5]))
    assert exc.value.offenders == [(1,)]
    same = SpatialKernelTable(g, even.radius, even.offsets[::-1], even.weights[::-1],
                              even.normalization)
    np.testing.assert_array_equal(same.offsets, even.offsets)


def test_signed_power_scalar_path_matches_masked_path():
    tiny = np.nextafter(0.0, 1.0)
    s = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -2.5e-308, 1e-200, 0.3, -0.7, 1.0,
                  -1.0, 3.5, -1e150, np.inf, -np.inf])
    for e in (0.0, 0.5, 1.0, 1.5, 2.0):
        fast = _signed_power(s, e, np.empty_like(s))
        masked = _signed_power(s, np.full(s.shape, e), np.empty_like(s))
        if e in (0.5, 2.0):
            # sqrt and square for a scalar exponent, generic pow for an array
            np.testing.assert_array_max_ulp(fast, masked, maxulp=1)
        else:
            np.testing.assert_array_equal(fast, masked)
        assert not np.any(np.signbit(fast[s == 0.0]))
        np.testing.assert_array_equal(fast[s == 0.0], 0.0)
        assert np.all(np.sign(fast) * np.sign(s) >= 0.0)


_TINY = np.nextafter(0.0, 1.0)
_EDGE_VALUES = [0.0, -0.0, _TINY, -_TINY, 1e-310, -2.5e-308, 1e-200, -1e300, 1e300,
                np.inf, -np.inf, np.nan]
_GRID_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_ONE_ULP_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_VALUES)), min_size=1, max_size=40),
    e=st.one_of(st.sampled_from(_GRID_EXPONENTS), st.floats(0.0, 4.0)),
)
def test_signed_power_properties(values, e):
    s = np.array(values)
    with np.errstate(all="ignore"):
        fast = _signed_power(s, e, np.empty_like(s))
        masked = _signed_power(s, np.full(s.shape, e), np.empty_like(s))
        mirror = _signed_power(-s, e, np.empty_like(s))
        plain = np.sign(s) * np.abs(s) ** e
    # s |s|^(e-1) rounds once more than one generic pow unless |s|^(e-1)
    # is exact or correctly rounded (e - 1 of 0, 0.5, 1 or 2); the others,
    # e = 2.5 among them, round twice and reached 2 ulp on about 3 values
    # in a million (e = 1.7, 2.9 and 3.7)
    normal = np.isfinite(masked) & (np.abs(masked) >= np.finfo(np.float64).tiny)
    np.testing.assert_array_max_ulp(fast[normal], masked[normal],
                                    maxulp=1 if e in _ONE_ULP_EXPONENTS else 2)
    zero = s == 0.0
    np.testing.assert_array_equal(fast[zero], 0.0)
    assert not np.any(np.signbit(fast[zero]))
    odd = ~zero & ~np.isnan(s)
    np.testing.assert_array_equal(mirror[odd], -fast[odd])
    np.testing.assert_array_equal(np.isnan(fast), np.isnan(s))
    inf = np.isinf(s)
    np.testing.assert_array_equal(fast[inf], np.sign(s[inf]) if e == 0.0 else s[inf])
    if e in (1.0, 2.0):  # p = 2 and p = 3
        # bit for bit, but a product that underflows to zero is +0.0 here
        # where sign(s) |s|^e gives -0.0 for s < 0
        nonzero = (plain != 0.0) & ~np.isnan(plain)
        assert np.array_equal(fast[nonzero].view(np.int64), plain[nonzero].view(np.int64))
        np.testing.assert_array_equal(fast, plain)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_VALUES)), min_size=1, max_size=40),
    e=st.one_of(st.sampled_from([0.5, 0.25, float(_TINY), float(np.nextafter(1.0, 0.0))]),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    seed=st.integers(0, 2**32 - 1),
)
def test_signed_power_below_one_copies_the_sign_bit_for_bit(values, e, seed):
    # a scalar 0 < e < 1 copies the sign of s onto |s|^e and adds +0.0: the
    # bits of sign(s) |s|^e, on the edge values (zeros, subnormals,
    # infinities, NaN) and on random values of every magnitude
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # a product of the spread may overflow to inf
        spread = rng.standard_normal(64) * 10.0 ** rng.uniform(-320.0, 308.0, 64)
        s = np.concatenate([values, _EDGE_VALUES, spread])
        want = np.sign(s) * np.abs(s) ** e
        got = _signed_power(s, e, np.empty_like(s))
    assert got.tobytes() == want.tobytes()


def test_signed_power_scalar_exponent_allocates_no_block_sized_temporary():
    s = np.random.default_rng(3).standard_normal(1 << 16)
    out = np.empty_like(s)
    for e in (0.5, 0.3, 1.0, 1.5, 2.0, 2.7):
        tracemalloc.start()
        try:
            _signed_power(s, e, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.nbytes / 2, (e, peak)


def test_spatial_kernel_bad_arguments():
    g = build_grid(1, [(0.0, 1.0)], [8])
    with pytest.raises(ConfigurationError):
        make_spatial_kernel(g, "gaussian", 0.0)
    with pytest.raises(ConfigurationError):
        make_spatial_kernel(g, "no_such_family", 0.1)
    with pytest.raises(ConfigurationError):
        make_spatial_kernel(g, "custom_table")
    for family in ("gaussian", "box"):
        for radius in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                make_spatial_kernel(g, family, radius)


@pytest.mark.parametrize("family", ["gaussian", "box"])
def test_huge_radius_builds_the_table_of_radius_1e150(family):
    # (4 radius)^2 overflows a float past ~1e154
    g = build_grid(2, [(0.0, 1.0), (-0.5, 0.7)], [7, 5])
    flat = make_spatial_kernel(g, family, 1e150)
    assert flat.size == 13 * 9
    for radius in (1e155, 1e300, np.finfo(np.float64).max):
        t = make_spatial_kernel(g, family, radius)
        assert t.radius == radius
        assert np.array_equal(t.offsets, flat.offsets)
        assert np.array_equal(t.weights, flat.weights)
        assert t.normalization == flat.normalization


def test_bilateral_width_keeps_its_energy_scale_normal():
    for h in (0.0, -1.0, math.nan, math.inf, 1e-160, 1e-200, 1e160):
        with pytest.raises(ConfigurationError):
            bilateral_kernel(h)
    # h^2/2 is normal at both ends, though h * h overflows at the top
    assert bilateral_kernel(2.2e-154).h == 2.2e-154
    assert bilateral_kernel(1.5e154).h == 1.5e154


# the narrowest and widest widths bilateral_width admits, one each side of
# h = 2^511, above which -1/h/h is subnormal, and 1.8562714315612554e154,
# where the product with that subnormal c errs by 5 eps (1 + z), over the bound
_WIDTHS = [math.sqrt(2.0 * np.finfo(np.float64).tiny) * (1.0 + 1e-15), 2.2e-154, 1e-3, 0.1,
           1.0, 1e3, 6e153, 7e153, 1.5e154, 1.8562714315612554e154,
           math.sqrt(2.0) * math.sqrt(np.finfo(np.float64).max)]


@pytest.mark.parametrize("h", _WIDTHS)
def test_gaussian_window_matches_the_divided_form(h):
    # the window is exp((s c) s) with c = -1/h/h, no division per value; it
    # must agree with exp(-(s/h)^2) to the rounding of the exponent z, for
    # every width the bilateral family admits, and be exactly 1 at s = 0.
    # s = h x with x in [-3, 3], so z covers [0, 9] at every width.
    x = np.concatenate([np.linspace(-3.0, 3.0, 2001), np.random.default_rng(3).uniform(-3.0, 3.0, 20000)])
    s = np.concatenate([h * x, [0.0, -0.0]])
    g = kernels._gaussian_window(s, bilateral_kernel(h).h, np.empty_like(s))
    z = (s / h) ** 2
    assert np.all((0.0 <= g) & (g <= 1.0)), h
    want = np.exp(-z)
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(g - want) <= 4.0 * eps * (1.0 + z) * want), h
    assert np.all(g[s == 0.0] == 1.0), h


# ---------------------------------------------------------------------------
# range kernels


def test_range_kernel_hand_values():
    assert float(linear_kernel().eval(0.0, np.array(0.7))) == 0.7
    # p = 1.5: |s|^(-1/2) s, so A(-0.25) = -sqrt(0.25) = -0.5 exactly
    assert float(p_laplacian_kernel(1.5).eval(0.0, np.array(-0.25))) == -0.5
    k3 = p_laplacian_kernel(3.0)
    assert float(k3.eval(0.0, np.array(2.0))) == 4.0
    assert float(k3.eval(0.0, np.array(-2.0))) == -4.0
    assert float(k3.eval(0.0, np.array(0.5))) == 0.25
    b = bilateral_kernel(0.5)
    assert float(b.eval(0.0, np.array(0.5))) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)


def test_variable_exponent_values_and_admissibility():
    # constant exponent 3 reduces to the cubic-type nonlinearity
    k = variable_exponent_kernel([0.0, 1.0], [3.0, 3.0])
    assert float(k.eval(0.0, np.array(-0.5))) == -0.25
    # p(0) = 2 decreasing: the tail exponent 1.5 is held past the table end
    k2 = variable_exponent_kernel([0.0, 1.0], [2.0, 1.5])
    assert float(k2.eval(0.0, np.array(2.0))) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ConfigurationError):
        variable_exponent_kernel([0.0, 1.0], [2.0, 2.0])  # flat at 2: inadmissible
    with pytest.raises(ConfigurationError):
        variable_exponent_kernel([0.0, 1.0], [1.9, 1.5])  # p(0) < 2
    with pytest.raises(ConfigurationError):
        variable_exponent_kernel([0.0, 1.0], [3.0, 3.5])  # increasing
    with pytest.raises(ConfigurationError):
        variable_exponent_kernel([0.5, 1.0], [3.0, 2.5])  # must start at 0
    # a NaN exponent gave A = NaN, an infinite one A = 0 or inf
    for values in ([3.0, math.nan], [math.inf, 3.0], [3.0, -math.inf]):
        with pytest.raises(ConfigurationError, match="finite"):
            variable_exponent_kernel([0.0, 1.0], values)
    with pytest.raises(ConfigurationError, match="finite"):
        variable_exponent_kernel([0.0, math.inf], [3.0, 2.5])


def test_spatial_exponent_kernel_pairwise():
    g = build_grid(1, [(0.0, 1.0)], [2])
    ref = Field(g, [0.0, 0.5])
    k = spatial_exponent_kernel([0.0, 1.0], [4.0, 2.0], ref)
    # |ref diff| = 0.5 -> exponent 3 -> A(s) = |s| s
    assert eval_range_kernel(k, 0.0, 0, 1, -0.5) == pytest.approx(-0.25, rel=1e-14)
    # same exponent both directions: the pair sees one value of q
    assert eval_range_kernel(k, 0.0, 1, 0, -0.5) == pytest.approx(-0.25, rel=1e-14)
    assert k.monotone
    with pytest.raises(ConfigurationError):
        spatial_exponent_kernel([0.0, 1.0], [2.0, 1.0], ref)  # table touches 1


def test_every_builtin_family_is_odd_bit_for_bit():
    g = build_grid(1, [(0.0, 1.0)], [4])
    ref = Field(g, [0.0, 0.2, 0.6, 1.0])
    kernels = [
        linear_kernel(),
        p_laplacian_kernel(1.5),
        p_laplacian_kernel(3.0),
        variable_exponent_kernel([0.0, 1.0], [2.5, 2.0]),
        spatial_exponent_kernel([0.0, 1.0], [3.0, 2.5], ref),
        bilateral_kernel(0.3),
        mollify_range_kernel(p_laplacian_kernel(1.5), 4),
    ]
    rng = np.random.default_rng(0)
    s = rng.uniform(-3.0, 3.0, size=1000)
    for k in kernels:
        pair = rng.uniform(-1.0, 1.0, size=s.shape) if k.needs_pair_reference else None
        plus = k.eval(0.0, s, pair)
        minus = k.eval(0.0, -s, pair)
        np.testing.assert_array_equal(minus, -plus, err_msg=k.family)
        assert np.all(plus * s >= 0.0), k.family


def test_spatial_exponent_kernel_without_a_reference_field_is_refused_when_built():
    g = build_grid(1, [(0.0, 1.0)], [4])
    u = Field(g, [0.0, 0.5, 1.0, 0.5])
    for ref in (None, u.values):
        with pytest.raises(ConfigurationError, match="needs a reference Field"):
            spatial_exponent_kernel([0.0, 1.0], [3.0, 2.5], ref)
        with pytest.raises(ConfigurationError, match="needs a reference Field"):
            RangeKernel("spatial_exponent", exponent_sigmas=[0.0, 1.0], exponent_values=[3.0, 2.5],
                        reference=ref)
    # a mollified kernel takes its reference and declarations from its base
    base = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.5], u)
    spec = mollify_range_kernel(base, 4).mollifier
    mol = RangeKernel("mollified", base=base, mollifier=spec, holder_alpha=0.1, monotone=False)
    assert mol.reference is u
    assert (mol.holder_alpha, mol.monotone) == (base.holder_alpha, base.monotone) == (1.0, True)


def test_eval_range_kernel_requires_reference():
    with pytest.raises(ConfigurationError):
        k = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.5], None)
        eval_range_kernel(k, 0.0, 0, 1, 0.5)


# ---------------------------------------------------------------------------
# mollifier


def test_bump_mass_matches_quadrature_oracle():
    assert bump_mass() == pytest.approx(BUMP_MASS_QUAD, abs=1e-12)


def test_mollifier_moments_match_quadrature_oracle():
    # alpha = 1/2 has a kink at 0, which caps the midpoint rule near 1e-8
    assert mollifier_moment(0.5) == pytest.approx(MOMENT_HALF_QUAD, abs=5e-8)
    assert mollifier_moment(1.0) == pytest.approx(MOMENT_ONE_QUAD, abs=1e-9)
    assert mollifier_moment(1) is mollifier_moment(1.0)  # one cached entry


def test_mollifier_density_unit_mass_and_support():
    for n in (1, 4, 16):
        x = np.linspace(-1.0 / n, 1.0 / n, 200001)
        mass = (x[1] - x[0]) * np.sum(mollifier_density(n, x))
        assert mass == pytest.approx(1.0, abs=1e-8)
    assert mollifier_density(4, np.array([0.25, -0.3, 1.0])).tolist() == [0.0, 0.0, 0.0]


def test_mollified_kernel_vanishes_at_zero_exactly():
    for base in (p_laplacian_kernel(1.5), bilateral_kernel(0.4)):
        mol = mollify_range_kernel(base, 4)
        assert float(mol.eval(0.0, np.array(0.0))) == 0.0


def two_evaluation_mollifier(k, t, s, pair_ref=None):
    """The mollified kernel as the base evaluated at s and at -s:
    (raw(s) - raw(-s)) / 2 with raw the quadrature of the base."""
    m = k.mollifier
    pr = None if pair_ref is None else pair_ref[:, None]

    def raw(x):
        return k.base.eval(t, x[:, None] - m.nodes / m.n, pr) @ m.weights

    return 0.5 * (raw(s) - raw(-s))


@pytest.mark.parametrize("quad_count", [64, 129, 257, 513])
def test_mollified_single_evaluation_matches_two_evaluations(quad_count):
    g = build_grid(1, [(0.0, 1.0)], [2])
    bases = [
        p_laplacian_kernel(1.5),
        bilateral_kernel(0.3),
        spatial_exponent_kernel([0.0, 1.0], [3.0, 1.5], Field(g, [0.0, 1.0])),
        # odd bit for bit at every t, and t-dependent
        custom_kernel(lambda t, s: (1.0 + t) * s + 0.1 * s * s * s),
    ]
    rng = np.random.default_rng(quad_count)
    s = np.concatenate([rng.uniform(-1.0, 1.0, 500), rng.uniform(-1e-3, 1e-3, 100), [0.0]])
    for base in bases:
        k = mollify_range_kernel(base, 4, quad_count)
        assert np.array_equal(k.mollifier.nodes[::-1], -k.mollifier.nodes)
        pair = rng.uniform(-1.0, 1.0, s.shape) if k.needs_pair_reference else None
        for t in (0.0, 1.0):
            a = k.eval(t, s, pair)
            np.testing.assert_array_equal(k.eval(t, -s, pair), -a, err_msg=base.family)
            assert a[-1] == 0.0
            want = two_evaluation_mollifier(k, t, s, pair)
            # relative to the largest value: near s = 0 the oracle's own
            # cancellation error is far above 1e-14 of its value
            assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want)), base.family


def _batch_test_kernels():
    g = build_grid(1, [(0.0, 1.0)], [2])
    ref = Field(g, [0.0, 1.0])
    odd = [
        linear_kernel(),
        p_laplacian_kernel(1.5),
        p_laplacian_kernel(2.5),
        variable_exponent_kernel([0.0, 1.0], [2.5, 2.0]),
        spatial_exponent_kernel([0.0, 1.0], [3.0, 1.5], ref),
        bilateral_kernel(0.3),
        custom_kernel(lambda t, s: np.tanh(s) + s ** 3),
    ]
    mollified = [mollify_range_kernel(k, n, q) for k, n, q in
                 zip(odd, (2, 4, 8, 4, 4, 16, 4), (64, 129, 257, 513, 129, 257, 64))]
    return odd + mollified


_BATCH_KERNELS = _batch_test_kernels()


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, len(_BATCH_KERNELS) - 1),
    values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=48),
    cut=st.integers(1, 47),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_value_is_evaluated_as_if_alone(which, values, cut, rows, seed):
    # A value's A, bit for bit, whatever else its call holds: one batch,
    # two batches, every other value, a transposed 2-D array; mollified
    # kernels included, whose quadrature sum must not depend on the layout
    k = _BATCH_KERNELS[which]
    s = np.array(values)
    pair = np.random.default_rng(seed).uniform(-1.0, 1.0, s.shape) if k.needs_pair_reference else None

    def ev(idx):
        return k.eval(0.0, s[idx], None if pair is None else pair[idx])

    alone = np.array([ev(slice(i, i + 1))[0] for i in range(s.size)])
    assert ev(slice(None)).tobytes() == alone.tobytes(), k.family
    cut = min(cut, s.size - 1)
    assert np.concatenate([ev(slice(None, cut)), ev(slice(cut, None))]).tobytes() == alone.tobytes()
    assert ev(slice(None, None, 2)).tobytes() == alone[::2].tobytes()
    n = s.size - s.size % rows
    pair_t = None if pair is None else pair[:n].reshape(rows, -1).T
    transposed = k.eval(0.0, s[:n].reshape(rows, -1).T, pair_t)
    assert transposed.T.tobytes() == alone[:n].reshape(rows, -1).tobytes()


@pytest.mark.parametrize("k", [k for k in _BATCH_KERNELS if k.family == "mollified"],
                         ids=lambda k: f"{k.base.family}-{k.mollifier.nodes.size}")
def test_values_across_mollified_block_boundaries_are_evaluated_as_if_alone(k):
    # calls of 1, W - 1, W, W + 1 and 3W + 5 values, W the values of one
    # block of the quadrature: each value's A, bit for bit, is its own
    w = k.mollifier.shifts.shape[1]
    rng = np.random.default_rng(k.mollifier.nodes.size)
    s = rng.uniform(-3.0, 3.0, 3 * w + 5)
    pair = rng.uniform(-1.0, 1.0, s.shape) if k.needs_pair_reference else None

    def ev(idx):
        return k.eval(0.0, s[idx], None if pair is None else pair[idx])

    alone = np.array([ev(slice(i, i + 1))[0] for i in range(s.size)])
    for size in (1, w - 1, w, w + 1, 3 * w + 5):
        assert ev(slice(size)).tobytes() == alone[:size].tobytes(), size


def test_mollified_quadrature_data_is_read_only():
    m = mollify_range_kernel(p_laplacian_kernel(1.5), 8, 257).mollifier
    width = kernels._MOLLIFY_BLOCK // 257
    assert (m.shifts.shape, m.scales.shape) == ((257, width), (129, width))
    for a in (m.shifts, m.scales):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    # the node order folds each node onto its mirror, two contiguous ranges
    np.testing.assert_array_equal(m.shifts[129:, 0], -m.shifts[:128, 0])
    assert m.shifts[128, 0] == 0.0


def test_mollifying_an_affine_kernel_changes_nothing():
    # the quadrature weights sum to one and the bump is even, so smoothing
    # the identity reproduces it to round-off
    mol = mollify_range_kernel(linear_kernel(), 8)
    s = np.array([-1.5, -0.3, 0.2, 0.9, 2.0])
    np.testing.assert_allclose(mol.eval(0.0, s), s, rtol=1e-13, atol=1e-15)


def test_mollified_rate_bound_and_decay():
    # sup |A_n - A| <= C_H I_alpha n^-alpha, and halving when n quadruples
    base = p_laplacian_kernel(1.5)
    rng = np.random.default_rng(42)
    ch = sample_holder_constant(base, 0.5, 2.0, rng)
    assert ch == pytest.approx(math.sqrt(2.0), rel=1e-3)
    s = np.linspace(-2.0, 2.0, 8001)
    a = base.eval(0.0, s)
    sups = {}
    for n in (4, 16):
        an = mollify_range_kernel(base, n, 257).eval(0.0, s)
        sups[n] = float(np.max(np.abs(an - a)))
        assert sups[n] <= ch * mollifier_moment(0.5) * n ** -0.5 * 1.05
    assert sups[16] == pytest.approx(0.5 * sups[4], rel=0.02)


def test_mollified_keeps_base_monotonicity():
    mol = mollify_range_kernel(p_laplacian_kernel(1.5), 4)
    assert mol.monotone
    s = np.sort(np.random.default_rng(3).uniform(-2.0, 2.0, size=512))
    vals = mol.eval(0.0, s)
    assert float(np.min(np.diff(vals))) >= -1e-12


def test_mollified_keeps_base_holder_bound():
    base = p_laplacian_kernel(1.5)
    c0 = sample_holder_constant(base, 0.5, 2.0, np.random.default_rng(42))
    mol = mollify_range_kernel(base, 4, 257)
    rng = np.random.default_rng(7)
    s1 = rng.uniform(-2.0, 2.0, size=1000)
    s2 = rng.uniform(-2.0, 2.0, size=1000)
    keep = s1 != s2
    ratios = np.abs(mol.eval(0.0, s1[keep]) - mol.eval(0.0, s2[keep])) / np.abs(
        s1[keep] - s2[keep]
    ) ** 0.5
    assert float(np.max(ratios)) <= c0 * (1.0 + 1e-6)


def test_mollify_refusals():
    with pytest.raises(ConfigurationError):
        mollify_range_kernel(mollify_range_kernel(linear_kernel(), 2), 2)
    with pytest.raises(ConfigurationError):
        mollify_range_kernel(linear_kernel(), 0)
    with pytest.raises(ConfigurationError):
        mollify_range_kernel(linear_kernel(), 4, quad_count=32)
    # a level or panel count that is not a whole number is named; inf and
    # NaN levels raised OverflowError and ValueError, 129.5 panels built 129
    for n, quad_count, named in ((math.inf, 129, "level must be a whole number, got inf"),
                                 (math.nan, 129, "level must be a whole number, got nan"),
                                 (2.5, 129, "level must be a whole number, got 2.5"),
                                 (4, 129.5, "panel count must be a whole number, got 129.5"),
                                 (4, math.inf, "panel count must be a whole number, got inf")):
        with pytest.raises(ConfigurationError, match=named):
            mollify_range_kernel(linear_kernel(), n, quad_count)
    assert mollify_range_kernel(linear_kernel(), 4.0, 129.0).mollifier.nodes.size == 129
    # refused before the quadrature is allocated
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_mollifier_quadrature", lambda n: pytest.fail("quadrature built"))
        for quad_count in (kernels._BUMP_PANELS + 1, 100_000_000):
            with pytest.raises(ConfigurationError, match="64 to 65536 panels"):
                mollify_range_kernel(linear_kernel(), 4, quad_count=quad_count)
    # a base that is not odd is refused where it is built
    with pytest.raises(ConfigurationError, match="odd"):
        custom_kernel(lambda t, s: np.asarray(s) + 0.1)


# ---------------------------------------------------------------------------
# reactions


def test_reaction_declared_constants():
    z = zero_reaction()
    assert (z.c_growth, z.l_lipschitz, z.non_increasing, z.is_zero) == (0.0, 0.0, True, True)
    d = linear_decay_reaction(0.7)
    assert (d.c_growth, d.l_lipschitz, d.non_increasing) == (0.7, 0.7, True)
    assert float(d.eval(0.0, None, np.array(2.0))) == -1.4


def test_logistic_reaction_constants_and_values():
    r = logistic_reaction(0.4, 2.0)
    assert float(r.eval(0.0, None, np.array(1.0))) == pytest.approx(0.2)
    assert float(r.eval(0.0, None, np.array(0.0))) == 0.0
    # on [-2, 2]: |f| peaks at s = -2 with 1.6, ratio 1.6/3; slope peaks there too
    assert r.c_growth == pytest.approx(1.6 / 3.0, rel=1e-3)
    assert r.l_lipschitz == pytest.approx(1.2, rel=1e-3)
    assert not r.non_increasing


def test_custom_table_reaction_interpolates():
    r = custom_table_reaction([-1.0, 0.0, 1.0], [1.0, 0.5, 0.0])
    assert float(r.eval(0.0, None, np.array(0.5))) == pytest.approx(0.25)
    assert r.non_increasing
    assert r.working_range == (-1.0, 1.0)


def test_reaction_bad_parameters():
    with pytest.raises(ConfigurationError):
        linear_decay_reaction(-0.1)
    with pytest.raises(ConfigurationError):
        logistic_reaction(0.4, 0.0)
    with pytest.raises(ConfigurationError):
        custom_table_reaction([0.0, 0.0], [1.0, 1.0])


def test_reaction_working_range_is_derived_and_a_nan_abscissa_is_refused():
    assert zero_reaction().working_range == logistic_reaction(0.4, 2.0).working_range == (-2.0, 2.0)
    r = kernels.Reaction("custom_table", table=([-0.5, 0.25, 3.0], [1.0, 0.5, 0.0]))
    assert r.working_range == (-0.5, 3.0)
    for ts in ([math.nan, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan]):
        with pytest.raises(ConfigurationError, match="reaction table needs strictly increasing abscissae"):
            custom_table_reaction(ts, [1.0, 0.5, 0.0])


def test_empty_reaction_table_is_refused():
    with pytest.raises(ConfigurationError, match="reaction table"):
        custom_table_reaction([], [])


# ---------------------------------------------------------------------------
# sampled constants


def test_sampled_constants_known_kernels():
    rng = np.random.default_rng(1)
    assert sample_growth_constant(linear_kernel(), 2.0, rng) == pytest.approx(1.0, abs=1e-12)
    # p = 3: |A(s)| / |s| = |s|, maximal near the window edge
    c = sample_growth_constant(p_laplacian_kernel(3.0), 2.0, np.random.default_rng(1))
    assert 1.9 <= c <= 2.0
    assert sample_lipschitz_constant(linear_kernel(), 2.0, np.random.default_rng(1)) == (
        pytest.approx(1.0, rel=1e-9)
    )
    # p = 1.5 slopes blow up near 0; the 1e-8 exclusion caps what sampling sees
    lip = sample_lipschitz_constant(p_laplacian_kernel(1.5), 2.0, np.random.default_rng(1))
    assert lip > 100.0


def concatenated_lipschitz_constant(kernel, radius, rng):
    """sample_lipschitz_constant as it was before it reused the values at
    ``base``: one evaluation of the concatenated first points."""
    base = kernels._sample_points(radius, rng)
    tight = base + 1e-6 * rng.uniform(0.5, 1.5, size=base.shape)
    wide = kernels._sample_points(radius, rng)
    s1 = np.concatenate([base, base])
    s2 = np.concatenate([tight, wide])
    keep = (np.abs(s1) >= kernels._EXCLUDE) & (np.abs(s2) >= kernels._EXCLUDE) & (s1 != s2)
    s1, s2 = s1[keep], s2[keep]
    v1, v2 = kernels._eval_for_constants(kernel, rng, radius, s1, s2)
    return float(np.max(np.abs(v1 - v2) / np.abs(s1 - s2)))


@pytest.mark.parametrize("which", range(len(_BATCH_KERNELS)))
def test_lipschitz_sampler_evaluates_its_base_points_once(which):
    k = _BATCH_KERNELS[which]
    got = sample_lipschitz_constant(k, 2.0, np.random.default_rng(which))
    assert got == concatenated_lipschitz_constant(k, 2.0, np.random.default_rng(which)), k.family
    if k.family == "custom":
        counted = []
        fn = k.fn
        k_counted = custom_kernel(lambda t, s: counted.append(np.size(s)) or fn(t, s))
        counted.clear()  # the oddness probe of the constructor
        sample_lipschitz_constant(k_counted, 2.0, np.random.default_rng(0))
        # base, then the tight and the wide points; the concatenation was 4 x 4096
        assert sum(counted) <= 3 * kernels._SAMPLES


def test_sample_holder_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        sample_holder_constant(linear_kernel(), 0.0, 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# assumption validation


def _conformant_setup():
    g = build_grid(1, [(0.0, 1.0)], [16])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    k = p_laplacian_kernel(2.5)
    u0 = Field(g, np.linspace(0.1, 0.9, 16))
    return g, t, k, u0


def test_validate_assumptions_conformant_passes():
    g, t, k, u0 = _conformant_setup()
    report = validate_assumptions(t, k, linear_decay_reaction(0.3), u0)
    assert report.all_passed, str(report)
    names = [c.name for c in report.checks]
    assert "range kernel oddness" in names
    assert "range kernel monotonicity" in names  # declared monotone, so checked


def test_validate_flags_even_window_kernel():
    # the classical filter window exp(-s^2/h^2) is even, not odd: refused
    # when the kernel is built, with a message pointing at the even-window
    # mistake
    with pytest.raises(ConfigurationError, match="even window"):
        custom_kernel(lambda t_, s: np.exp(-np.asarray(s) ** 2))


def test_custom_kernel_that_is_not_odd_is_refused_at_construction():
    for fn in (
        lambda t, s: s + 0.1 * s * s,  # neither odd nor even
        lambda t, s: s + 0.1,  # A(s) + A(-s) = 0.2
        lambda t, s: np.exp(-s * s),  # the bare even window
        lambda t, s: s + np.copysign(0.1, s),  # odd bit for bit, but A(+0.0) = 0.1
    ):
        with pytest.raises(ConfigurationError, match="odd with A\\(0\\) = 0"):
            custom_kernel(fn)
    with pytest.raises(ConfigurationError, match="odd"):
        RangeKernel("custom", fn=lambda t, s: s * s)
    # t = 0 is what the probe sees: a kernel odd there is built
    assert custom_kernel(lambda t, s: s + t).family == "custom"


def test_kernel_odd_only_on_the_probe_fails_the_oddness_check_of_solve():
    # odd on [-1, 1], where the constructor probes, and even beyond it;
    # validate_assumptions samples [-2, 2] here, so solve refuses the run
    g, t, _, u0 = _conformant_setup()
    k = custom_kernel(lambda t_, s: np.where(np.abs(s) <= 1.0, s, s * s))
    cfg = SolverConfig(T=0.01, steps=2, mu_mode="manual", mu=0.0)
    with pytest.raises(AssumptionViolationError, match="range kernel oddness") as exc:
        solve(g, t, k, zero_reaction(), u0, cfg)
    assert not next(c for c in exc.value.report.checks if c.name == "range kernel oddness").passed


def test_no_override_runs_a_kernel_that_fails_the_oddness_check():
    # odd on [-1, 1] but not beyond, where the walk's flux is not the
    # ordered-pair operator: solve refuses it, like every failed check
    g = build_grid(1, [(0.0, 1.0)], [16])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    k = custom_kernel(lambda t_, s: np.where(np.abs(s) <= 1.0, s, s * s))
    u0 = Field(g, np.linspace(0.0, 3.0, 16))
    cfg = SolverConfig(T=0.01, steps=2, mu_mode="manual", mu=0.0)
    with pytest.raises(AssumptionViolationError) as exc:
        solve(g, t, k, zero_reaction(), u0, cfg)
    failed = [c.name for c in exc.value.report.failed()]
    assert "range kernel oddness" in failed
    assert str(exc.value) == f"problem data violates the structural hypotheses ({', '.join(failed)})"


def test_validate_flags_negative_initial_state():
    g, t, k, _ = _conformant_setup()
    vals = np.linspace(0.1, 0.9, 16)
    vals[5] = -0.25
    report = validate_assumptions(t, k, zero_reaction(), Field(g, vals))
    bad = next(c for c in report.checks if c.name == "initial state non-negativity")
    assert not bad.passed
    assert "node 5" in bad.note


def test_validate_flags_negative_reaction_at_zero():
    g, t, k, u0 = _conformant_setup()
    r = custom_table_reaction([-1.0, 0.0, 1.0], [0.5, -0.2, 0.1])
    report = validate_assumptions(t, k, r, u0)
    assert not next(c for c in report.checks if c.name == "reaction non-negative at 0").passed


def test_reaction_growth_check_of_an_overflowing_reaction_is_inf_not_nan():
    # |f| and C(1 + |s|) both overflow on [-2, 2]; inf - inf used to make
    # the measurement NaN, with numpy overflow and invalid-value warnings
    # (errors under this suite's warning filters)
    g, t, k, u0 = _conformant_setup()
    report = validate_assumptions(t, k, linear_decay_reaction(1e308), u0)
    growth = next(c for c in report.checks if c.name == "reaction growth bound")
    assert growth.measured == math.inf and not growth.passed
    # a finite bound with no overflow keeps its measured value
    fine = validate_assumptions(t, k, linear_decay_reaction(1e300), u0)
    growth = next(c for c in fine.checks if c.name == "reaction growth bound")
    assert growth.passed and math.isfinite(growth.measured)


def test_sign_check_of_a_huge_state_raises_no_overflow_warning():
    # the data-scaled window reaches 2e300, where A(s) s overflows to +inf;
    # the overflow keeps the sign, so the check passes without a warning
    g = build_grid(1, [(0.0, 1.0)], [64])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_assumptions(t, linear_kernel(), zero_reaction(), Field(g, np.full(64, 1e300)))
    assert next(c for c in report.checks if c.name == "range kernel sign condition").passed


def test_validate_report_is_deterministic():
    g, t, k, u0 = _conformant_setup()
    r1 = validate_assumptions(t, k, zero_reaction(), u0, seed=9)
    r2 = validate_assumptions(t, k, zero_reaction(), u0, seed=9)
    assert str(r1) == str(r2)
