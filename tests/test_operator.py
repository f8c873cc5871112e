"""Operator evaluation, pairing identity, energies, gradient consistency.

The main oracle is a scalar double loop over nodes and offsets written
directly from the operator definition, with none of the sliced-array
machinery of the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldiff import (
    ConfigurationError,
    Field,
    GridMismatchError,
    apply_nonlocal,
    bilateral_kernel,
    build_grid,
    dissipation_pairing,
    energy_bilateral,
    energy_p,
    eval_range_kernel,
    flow_energy,
    integrate,
    linear_kernel,
    make_spatial_kernel,
    mollify_range_kernel,
    p_laplacian_kernel,
    spatial_exponent_kernel,
    variable_exponent_kernel,
)


def two_node_setup(c):
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 0.0, 1.0]))
    return g, t, Field(g, [0.0, c])


def test_two_node_hand_values():
    # node volume 1/2, normalization 1, both weights 1; the only in-range
    # neighbor of each node is the other one
    g, t, u = two_node_setup(0.8)
    out = apply_nonlocal(g, t, linear_kernel(), 0.0, u)
    np.testing.assert_allclose(out.result.values, [0.4, -0.4], rtol=1e-15)
    assert out.t == 0.0
    assert out.flops_estimate == 2
    assert energy_p(g, t, u, 2.0).value == pytest.approx(0.25 * 0.8**2, rel=1e-15)


def dense_oracle(grid, table, kernel, t, u):
    """Scalar reimplementation of the operator straight from its definition."""
    vals = u.values
    out = np.zeros(grid.node_count)
    for mi in np.ndindex(*grid.counts):
        x = grid.flat_index(mi)
        acc = 0.0
        for row, w in zip(table.offsets, table.weights):
            ni = tuple(int(a) + int(d) for a, d in zip(mi, row))
            if any(not 0 <= a < c for a, c in zip(ni, grid.counts)):
                continue
            y = grid.flat_index(ni)
            acc += w * eval_range_kernel(kernel, t, x, y, vals[y] - vals[x])
        out[x] = grid.node_volume * acc
    return out


def _kernels_for(grid, u0):
    return [
        linear_kernel(),
        p_laplacian_kernel(1.5),
        p_laplacian_kernel(3.0),
        variable_exponent_kernel([0.0, 1.0], [2.5, 2.0]),
        spatial_exponent_kernel([0.0, 0.5], [3.0, 2.2], u0),
        bilateral_kernel(0.4),
        mollify_range_kernel(p_laplacian_kernel(1.5), 4),
    ]


@pytest.mark.parametrize("shape", [((0.0, 1.0),), ((0.0, 1.0), (-0.5, 0.5))])
def test_operator_matches_dense_oracle(shape):
    counts = [9] if len(shape) == 1 else [4, 5]
    g = build_grid(len(shape), list(shape), counts)
    t = make_spatial_kernel(g, "gaussian", 0.12)
    rng = np.random.default_rng(11)
    u = Field(g, rng.uniform(0.0, 1.0, g.node_count))
    for k in _kernels_for(g, u):
        got = apply_nonlocal(g, t, k, 0.3, u).result.values
        want = dense_oracle(g, t, k, 0.3, u)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=k.family)


def test_operator_output_integrates_to_zero():
    # pair symmetry makes every exchange cancel, even with boundary clipping
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [12, 12])
    t = make_spatial_kernel(g, "gaussian", 0.09)
    rng = np.random.default_rng(4)
    u = Field(g, rng.uniform(0.0, 2.0, g.node_count))
    for k in _kernels_for(g, u):
        lu = apply_nonlocal(g, t, k, 0.0, u).result
        assert abs(integrate(g, lu)) < 1e-13, k.family


def test_pairing_identity_random_fields():
    rng = np.random.default_rng(21)
    for counts in ([16], [7, 9]):
        g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
        t = make_spatial_kernel(g, "gaussian", 0.15)
        for k in (linear_kernel(), p_laplacian_kernel(1.5), bilateral_kernel(0.3)):
            for _ in range(10):
                u = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
                phi = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
                lhs, rhs = dissipation_pairing(g, t, k, 0.0, u, phi)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_pairing_with_monotone_test_function_dissipates():
    g = build_grid(1, [(0.0, 1.0)], [32])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    rng = np.random.default_rng(8)
    u = Field(g, rng.uniform(-1.0, 1.0, 32))
    transforms = [
        lambda v: v,
        lambda v: np.clip(v, -0.3, 0.3),
        lambda v: v**3,
    ]
    for k in (linear_kernel(), p_laplacian_kernel(3.0), bilateral_kernel(0.5)):
        for tr in transforms:
            _, rhs = dissipation_pairing(g, t, k, 0.0, u, Field(g, tr(u.values)))
            assert rhs <= 1e-15


def test_pairing_against_constant_test_function_is_zero():
    g, t, u = two_node_setup(1.3)
    lhs, rhs = dissipation_pairing(g, t, p_laplacian_kernel(3.0), 0.0, u, Field(g, [1.0, 1.0]))
    assert rhs == 0.0
    assert lhs == pytest.approx(0.0, abs=1e-16)


def test_value_shift_and_negation_symmetries():
    g = build_grid(1, [(0.0, 1.0)], [24])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    rng = np.random.default_rng(17)
    vals = rng.uniform(0.0, 1.0, 24)
    k = p_laplacian_kernel(2.5)
    base = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).result.values
    shifted = apply_nonlocal(g, t, k, 0.0, Field(g, vals + 5.0)).result.values
    np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-13)
    # negating the state negates every difference exactly, and odd kernels
    # turn that into an exact sign flip of the output
    negated = apply_nonlocal(g, t, k, 0.0, Field(g, -vals)).result.values
    np.testing.assert_array_equal(negated, -base)


def fd_gradient(energy_fn, vals, delta=1e-6):
    grad = np.zeros_like(vals)
    for i in range(vals.size):
        up, dn = vals.copy(), vals.copy()
        up[i] += delta
        dn[i] -= delta
        grad[i] = (energy_fn(up) - energy_fn(dn)) / (2.0 * delta)
    return grad


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_energy_gradient_matches_operator_p(p):
    g = build_grid(1, [(0.0, 1.0)], [12])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    rng = np.random.default_rng(int(10 * p))
    vals = rng.uniform(0.2, 1.0, 12)
    k = p_laplacian_kernel(p)
    grad = fd_gradient(lambda v: flow_energy(g, t, k, Field(g, v)), vals)
    op = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).result.values
    np.testing.assert_allclose(grad / (2.0 * g.node_volume), -op, rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("h", [0.1, 1.0])
def test_energy_gradient_matches_operator_bilateral(h):
    # field scaled with h keeps the differences inside the responsive band
    g = build_grid(1, [(0.0, 1.0)], [12])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    vals = h * np.random.default_rng(5).uniform(0.0, 1.0, 12)
    k = bilateral_kernel(h)
    grad = fd_gradient(lambda v: flow_energy(g, t, k, Field(g, v)), vals)
    op = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).result.values
    np.testing.assert_allclose(grad / (2.0 * g.node_volume), -op, rtol=1e-6, atol=1e-12)


def test_energy_gradient_matches_operator_spatial_exponent():
    g = build_grid(1, [(0.0, 1.0)], [12])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    rng = np.random.default_rng(23)
    ref = Field(g, rng.uniform(0.0, 1.0, 12))
    k = spatial_exponent_kernel([0.0, 0.5], [3.0, 2.2], ref)
    vals = rng.uniform(0.2, 1.0, 12)
    grad = fd_gradient(lambda v: flow_energy(g, t, k, Field(g, v)), vals)
    op = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).result.values
    np.testing.assert_allclose(grad / (2.0 * g.node_volume), -op, rtol=1e-6, atol=1e-10)


def test_flow_energy_closed_forms():
    g, t, u = two_node_setup(0.6)
    assert flow_energy(g, t, linear_kernel(), u) == pytest.approx(0.25 * 0.36, rel=1e-14)
    assert flow_energy(g, t, p_laplacian_kernel(3.0), u) == energy_p(g, t, u, 3.0).value
    h = 0.7
    assert flow_energy(g, t, bilateral_kernel(h), u) == pytest.approx(
        0.5 * h * h * energy_bilateral(g, t, u, h).value, rel=1e-15
    )
    # mollified kernels monitor their base energy
    mol = mollify_range_kernel(p_laplacian_kernel(3.0), 4)
    assert flow_energy(g, t, mol, u) == flow_energy(g, t, p_laplacian_kernel(3.0), u)
    # families without a closed antiderivative fall back to the quadratic
    ve = variable_exponent_kernel([0.0, 1.0], [2.5, 2.0])
    assert flow_energy(g, t, ve, u) == energy_p(g, t, u, 2.0).value


def test_flops_counts_clipped_pairs():
    g = build_grid(1, [(0.0, 1.0)], [8])
    t = make_spatial_kernel(g, "box", 0.15)  # offsets -1, 0, 1
    u = Field(g, np.linspace(0.0, 1.0, 8))
    assert apply_nonlocal(g, t, linear_kernel(), 0.0, u).flops_estimate == 7 + 8 + 7


def test_operator_grid_mismatches():
    g = build_grid(1, [(0.0, 1.0)], [8])
    other = build_grid(1, [(0.0, 1.0)], [9])
    t = make_spatial_kernel(g, "box", 0.2)
    u_other = Field(other, np.zeros(9))
    with pytest.raises(GridMismatchError):
        apply_nonlocal(g, t, linear_kernel(), 0.0, u_other)
    with pytest.raises(GridMismatchError):
        apply_nonlocal(other, t, linear_kernel(), 0.0, u_other)
    with pytest.raises(GridMismatchError):
        energy_p(g, t, u_other, 2.0)
    ref_other = Field(other, np.zeros(9))
    k = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.0], ref_other)
    with pytest.raises(GridMismatchError):
        apply_nonlocal(g, t, k, 0.0, Field(g, np.zeros(8)))


def test_energy_parameter_validation():
    g, t, u = two_node_setup(1.0)
    with pytest.raises(ConfigurationError):
        energy_p(g, t, u, 0.5)
    with pytest.raises(ConfigurationError):
        energy_bilateral(g, t, u, 0.0)
    k = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.0], None)
    with pytest.raises(ConfigurationError):
        apply_nonlocal(g, t, k, 0.0, u)


@st.composite
def even_tables(draw):
    """Random counts and an even custom table with at least one offset that
    overlaps no node pair of the grid."""
    counts = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    reach = [st.integers(-(c + 2), c + 2) for c in counts]
    half = draw(st.lists(st.tuples(*reach), min_size=1, max_size=6))
    far = tuple(c + draw(st.integers(0, 2)) for c in counts)
    table = {}
    for d in half + [far]:
        w = draw(st.floats(0.1, 2.0))
        table[d] = table[tuple(-a for a in d)] = w
    offsets = sorted(table)
    return counts, offsets, [table[d] for d in offsets], draw(st.integers(0, 2**31 - 1))


def scalar_pairs(grid, table):
    """(x, y, w) for every weighted pair of nodes y = x + d on the grid."""
    for mi in np.ndindex(*grid.counts):
        for row, w in zip(table.offsets, table.weights):
            ni = tuple(int(a) + int(d) for a, d in zip(mi, row))
            if all(0 <= a < c for a, c in zip(ni, grid.counts)):
                yield grid.flat_index(mi), grid.flat_index(ni), w


@given(even_tables(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=12, deadline=None)
def test_pair_walk_matches_scalar_sums(case, p):
    counts, offsets, weights, seed = case
    g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
    t = make_spatial_kernel(g, "custom_table", table=(offsets, weights))
    rng = np.random.default_rng(seed)
    u = Field(g, rng.uniform(0.0, 1.0, g.node_count))
    phi = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
    pairs = list(scalar_pairs(g, t))
    nv = g.node_volume
    want_e = nv**2 * sum(w * abs(u.values[y] - u.values[x]) ** p for x, y, w in pairs) / p
    assert energy_p(g, t, u, p).value == pytest.approx(want_e, rel=1e-12, abs=1e-14)
    for k in _kernels_for(g, u):
        out = apply_nonlocal(g, t, k, 0.3, u)
        assert out.flops_estimate == len(pairs)
        want = dense_oracle(g, t, k, 0.3, u)
        np.testing.assert_allclose(out.result.values, want, rtol=1e-12, atol=1e-14, err_msg=k.family)
        lhs, rhs = dissipation_pairing(g, t, k, 0.3, u, phi)
        assert lhs == pytest.approx(nv * float(np.sum(phi.values * want)), rel=1e-12, abs=1e-14)
        want_rhs = -0.5 * nv**2 * sum(
            w * eval_range_kernel(k, 0.3, x, y, u.values[y] - u.values[x])
            * (phi.values[y] - phi.values[x])
            for x, y, w in pairs
        )
        assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=1e-14), k.family
