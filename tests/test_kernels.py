"""Spatial kernels, range kernels, mollification, reactions, validation.

The frozen reference numbers were computed through independent routes
before the assertions were written: adaptive quadrature (scipy) for the
bump integrals, a long trapezoid sum for the Gaussian mass, and closed
forms everywhere a closed form exists.
"""

import math

import numpy as np
import pytest

from nldiff import (
    ConfigurationError,
    Field,
    KernelValidationError,
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
    spatial_exponent_kernel,
    validate_assumptions,
    variable_exponent_kernel,
    zero_reaction,
)
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


def test_table_walks_positive_offsets_and_keeps_the_zero_weight():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [5, 4])
    t = make_spatial_kernel(g, "box", 0.3)
    rows = [tuple(r) for r in t.offsets]
    positive = [r for r in rows if r > (0, 0)]
    assert len(t.pairs) == len(positive) == (len(rows) - 1) // 2
    assert [w for w, _, _ in t.pairs] == [t.weight_of(r) for r in positive]
    assert t.zero_weight == t.weight_of([0, 0])
    # every ordered pair of the full table, the zero offset included
    assert t.pair_count == sum((5 - abs(a)) * (4 - abs(b)) for a, b in rows)


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
        fast = _signed_power(s, e)
        masked = _signed_power(s, np.full(s.shape, e))
        if e in (0.5, 2.0):
            # sqrt and square for a scalar exponent, generic pow for an array
            np.testing.assert_array_max_ulp(fast, masked, maxulp=1)
        else:
            np.testing.assert_array_equal(fast, masked)
        assert not np.any(np.signbit(fast[s == 0.0]))
        np.testing.assert_array_equal(fast[s == 0.0], 0.0)
        assert np.all(np.sign(fast) * np.sign(s) >= 0.0)


def test_spatial_kernel_bad_arguments():
    g = build_grid(1, [(0.0, 1.0)], [8])
    with pytest.raises(ConfigurationError):
        make_spatial_kernel(g, "gaussian", 0.0)
    with pytest.raises(ConfigurationError):
        make_spatial_kernel(g, "no_such_family", 0.1)
    with pytest.raises(ConfigurationError):
        make_spatial_kernel(g, "custom_table")


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


def test_eval_range_kernel_requires_reference():
    k = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.5], None)
    with pytest.raises(ConfigurationError):
        eval_range_kernel(k, 0.0, 0, 1, 0.5)


# ---------------------------------------------------------------------------
# mollifier


def test_bump_mass_matches_quadrature_oracle():
    assert bump_mass() == pytest.approx(BUMP_MASS_QUAD, abs=1e-12)


def test_mollifier_moments_match_quadrature_oracle():
    # alpha = 1/2 has a kink at 0, which caps the midpoint rule near 1e-8
    assert mollifier_moment(0.5) == pytest.approx(MOMENT_HALF_QUAD, abs=5e-8)
    assert mollifier_moment(1.0) == pytest.approx(MOMENT_ONE_QUAD, abs=1e-9)


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
        # a custom base is odd only at t = 0, so it is evaluated at -s too
        custom_kernel(lambda t, s: s + 0.1 * t),
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
    shifted = custom_kernel(lambda t, s: np.asarray(s) + 0.1)
    with pytest.raises(ConfigurationError, match="odd"):
        mollify_range_kernel(shifted, 4)


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
    # the classical filter window exp(-s^2/h^2) is even, not odd; both the
    # oddness and the sign condition must fire, and the message should point
    # at the even-window mistake
    g, t, _, u0 = _conformant_setup()
    window = custom_kernel(lambda t_, s: np.exp(-np.asarray(s) ** 2))
    report = validate_assumptions(t, window, zero_reaction(), u0)
    failed = {c.name for c in report.failed()}
    assert "range kernel oddness" in failed
    assert "range kernel sign condition" in failed
    odd = next(c for c in report.checks if c.name == "range kernel oddness")
    assert "even window" in odd.note


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


def test_validate_report_is_deterministic():
    g, t, k, u0 = _conformant_setup()
    r1 = validate_assumptions(t, k, zero_reaction(), u0, seed=9)
    r2 = validate_assumptions(t, k, zero_reaction(), u0, seed=9)
    assert str(r1) == str(r2)
