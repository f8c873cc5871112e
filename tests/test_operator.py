"""Operator evaluation, pairing identity, energies, gradient consistency.

The main oracle is a scalar double loop over nodes and offsets written
directly from the operator definition, with none of the sliced-array
machinery of the implementation.
"""

import contextlib
import itertools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nldiff import (
    ConfigurationError,
    Field,
    GridMismatchError,
    NumericalBlowupError,
    Problem,
    SolverConfig,
    apply_nonlocal,
    bilateral_kernel,
    build_grid,
    custom_kernel,
    dissipation_pairing,
    energy_p,
    eval_range_kernel,
    flow_energy,
    integrate,
    linear_decay_reaction,
    linear_kernel,
    logistic_reaction,
    make_spatial_kernel,
    mollifier_cauchy_study,
    mollify_range_kernel,
    p_laplacian_kernel,
    solve,
    spatial_exponent_kernel,
    variable_exponent_kernel,
    zero_reaction,
)
from nldiff import kernels, operator
from nldiff.errors import _Helper
from nldiff.operator import one_step_filter


def two_node_setup(c):
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 0.0, 1.0]))
    return g, t, Field(g, [0.0, c])


def test_two_node_hand_values():
    # node volume 1/2, normalization 1, both weights 1; the only in-range
    # neighbor of each node is the other one
    g, t, u = two_node_setup(0.8)
    out = apply_nonlocal(g, t, linear_kernel(), 0.0, u)
    np.testing.assert_allclose(out.values, [0.4, -0.4], rtol=1e-15)
    assert sum(kernels._pair_counts(g, t.offsets)) == 2
    assert energy_p(g, t, u, 2.0) == pytest.approx(0.25 * 0.8**2, rel=1e-15)


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
        got = apply_nonlocal(g, t, k, 0.3, u).values
        want = dense_oracle(g, t, k, 0.3, u)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=k.family)


def test_operator_output_integrates_to_zero():
    # pair symmetry makes every exchange cancel, even with boundary clipping
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [12, 12])
    t = make_spatial_kernel(g, "gaussian", 0.09)
    rng = np.random.default_rng(4)
    u = Field(g, rng.uniform(0.0, 2.0, g.node_count))
    for k in _kernels_for(g, u):
        lu = apply_nonlocal(g, t, k, 0.0, u)
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
    base = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).values
    shifted = apply_nonlocal(g, t, k, 0.0, Field(g, vals + 5.0)).values
    np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-13)
    # negating the state negates every difference exactly, and odd kernels
    # turn that into an exact sign flip of the output
    negated = apply_nonlocal(g, t, k, 0.0, Field(g, -vals)).values
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
    op = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).values
    np.testing.assert_allclose(grad / (2.0 * g.node_volume), -op, rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("h", [0.1, 1.0])
def test_energy_gradient_matches_operator_bilateral(h):
    # field scaled with h keeps the differences inside the responsive band
    g = build_grid(1, [(0.0, 1.0)], [12])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    vals = h * np.random.default_rng(5).uniform(0.0, 1.0, 12)
    k = bilateral_kernel(h)
    grad = fd_gradient(lambda v: flow_energy(g, t, k, Field(g, v)), vals)
    op = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).values
    np.testing.assert_allclose(grad / (2.0 * g.node_volume), -op, rtol=1e-6, atol=1e-12)


def test_energy_gradient_matches_operator_spatial_exponent():
    g = build_grid(1, [(0.0, 1.0)], [12])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    rng = np.random.default_rng(23)
    ref = Field(g, rng.uniform(0.0, 1.0, 12))
    k = spatial_exponent_kernel([0.0, 0.5], [3.0, 2.2], ref)
    vals = rng.uniform(0.2, 1.0, 12)
    grad = fd_gradient(lambda v: flow_energy(g, t, k, Field(g, v)), vals)
    op = apply_nonlocal(g, t, k, 0.0, Field(g, vals)).values
    np.testing.assert_allclose(grad / (2.0 * g.node_volume), -op, rtol=1e-6, atol=1e-10)


def test_flow_energy_closed_forms():
    g, t, u = two_node_setup(0.6)
    assert flow_energy(g, t, linear_kernel(), u) == pytest.approx(0.25 * 0.36, rel=1e-14)
    assert flow_energy(g, t, p_laplacian_kernel(3.0), u) == energy_p(g, t, u, 3.0)
    h = 0.7
    # two ordered pairs of weight 1 at |s| = 0.6, node volume 1/2
    assert flow_energy(g, t, bilateral_kernel(h), u) == pytest.approx(
        0.5 * (0.5 * h * h) * (1.0 - np.exp(-((0.6 / h) ** 2))), rel=1e-15
    )
    # mollified kernels monitor their base energy
    mol = mollify_range_kernel(p_laplacian_kernel(3.0), 4)
    assert flow_energy(g, t, mol, u) == flow_energy(g, t, p_laplacian_kernel(3.0), u)
    # families without a closed antiderivative fall back to the quadratic
    ve = variable_exponent_kernel([0.0, 1.0], [2.5, 2.0])
    assert flow_energy(g, t, ve, u) == energy_p(g, t, u, 2.0)


def test_flops_counts_clipped_pairs():
    g = build_grid(1, [(0.0, 1.0)], [8])
    t = make_spatial_kernel(g, "box", 0.15)  # offsets -1, 0, 1
    assert sum(kernels._pair_counts(g, t.offsets)) == 7 + 8 + 7


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
    u = Field(g, np.zeros(8))
    with pytest.raises(GridMismatchError):
        dissipation_pairing(g, t, linear_kernel(), 0.0, u_other, u)
    with pytest.raises(GridMismatchError):
        dissipation_pairing(g, t, linear_kernel(), 0.0, u, u_other)
    with pytest.raises(GridMismatchError):
        one_step_filter(g, t, u_other, 0.5)
    ref_other = Field(other, np.zeros(9))
    k = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.0], ref_other)
    with pytest.raises(GridMismatchError):
        apply_nonlocal(g, t, k, 0.0, Field(g, np.zeros(8)))


def test_energy_parameter_validation():
    g, t, u = two_node_setup(1.0)
    for p in (0.5, np.inf, np.nan):  # energy_p(inf) was 0.0
        with pytest.raises(ConfigurationError):
            energy_p(g, t, u, p)
    for p in (1.0, np.inf, np.nan):  # p = inf gave A(0.5) = 0, A(2) = inf
        with pytest.raises(ConfigurationError):
            p_laplacian_kernel(p)
    with pytest.raises(ConfigurationError):
        bilateral_kernel(0.0)
    for h in (1e-160, 1e160):  # h^2/2 underflows, overflows
        with pytest.raises(ConfigurationError, match="not a normal float"):
            bilateral_kernel(h)
        with pytest.raises(ConfigurationError, match="not a normal float"):
            one_step_filter(g, t, u, h)
    with pytest.raises(ConfigurationError):
        one_step_filter(g, t, u, 0.0)
    with pytest.raises(ConfigurationError):
        k = spatial_exponent_kernel([0.0, 1.0], [3.0, 2.0], None)
        apply_nonlocal(g, t, k, 0.0, u)


@st.composite
def even_tables(draw):
    """Random counts and an even custom table with at least one offset that
    overlaps no node pair of the grid, half the time with the zero offset."""
    counts = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    reach = [st.integers(-(c + 2), c + 2) for c in counts]
    half = draw(st.lists(st.tuples(*reach), min_size=1, max_size=6))
    far = tuple(c + draw(st.integers(0, 2)) for c in counts)
    zero = [(0,) * len(counts)] if draw(st.booleans()) else []
    table = {}
    for d in half + [far] + zero:
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


def antiderivative(k, s, pr):
    """The energy density of one ordered pair, written per family from the
    closed forms in the operator module docstring."""
    if k.family == "mollified":
        return antiderivative(k.base, s, pr)
    if k.family == "p_laplacian":
        return abs(s) ** k.p / k.p
    if k.family == "spatial_exponent":
        q = float(np.interp(abs(pr), k.exponent_sigmas, k.exponent_values))
        return abs(s) ** q / q
    if k.family == "bilateral_gaussian":
        return 0.5 * k.h**2 * (1.0 - np.exp(-((s / k.h) ** 2)))
    return 0.5 * s * s  # linear, and the quadratic fallback of the others


def custom_odd_kernel():
    # odd bit for bit at every t, and t-dependent; s ** 3 is not odd bit
    # for bit on numpy arrays, s * s * s is
    return custom_kernel(lambda t, s: (1.0 + t) * s + 0.1 * s * s * s)


def custom_table(grid, offsets, weights):
    return make_spatial_kernel(grid, "custom_table", table=(offsets, weights))


def set_layout(mp, gather_below, chunk):
    """Cut the walks built from now on with the given gather threshold and
    chunk, so that small grids mix slice blocks and gather blocks."""
    mp.setattr(operator, "_GATHER_BELOW", gather_below)
    mp.setattr(operator, "_GATHER_CHUNK", chunk)


@contextlib.contextmanager
def walk_layout(gather_below, chunk):
    """The walks built inside cut with the given gather threshold and chunk
    (see set_layout)."""
    with pytest.MonkeyPatch.context() as mp:
        set_layout(mp, gather_below, chunk)
        yield


def block_keys(blocks):
    """Each block's weights, ranges or indices and wrap, as values that
    compare with ==."""
    return [tuple((x.dtype.str, x.tobytes()) if isinstance(x, np.ndarray) else x for x in b)
            for b in blocks]


# (gather threshold, chunk): every offset sliced; short offsets gathered one
# per block; mixed layouts with chunks of several offsets; the defaults,
# which gather every offset of these small grids
LAYOUTS = [(1, 1), (3, 1), (4, 5), (8, 12), (operator._GATHER_BELOW, operator._GATHER_CHUNK)]


@given(even_tables(), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from(LAYOUTS))
@example(([6], [(-4,), (-1,), (1,), (4,)], [0.5, 1.0, 1.0, 0.5], 3), 2.0, (3, 1))  # slice + gather
@settings(max_examples=12, deadline=None)
def test_pair_walk_matches_scalar_sums(case, p, layout):
    counts, offsets, weights, seed = case
    g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
    t = custom_table(g, offsets, weights)
    rng = np.random.default_rng(seed)
    u = Field(g, rng.uniform(0.0, 1.0, g.node_count))
    phi = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
    pairs = list(scalar_pairs(g, t))
    nv = g.node_volume
    want_e = nv**2 * sum(w * abs(u.values[y] - u.values[x]) ** p for x, y, w in pairs) / p
    with walk_layout(*layout):
        assert energy_p(g, t, u, p) == pytest.approx(want_e, rel=1e-12, abs=1e-14)
        assert sum(kernels._pair_counts(g, t.offsets)) == len(pairs)
        for k in _kernels_for(g, u) + [custom_odd_kernel()]:
            # the fused pass, in the walk's scratch buffers, is terms alone bit for bit
            for _, s, pe, scratch in operator._Walk(t, k).pairs(u.values):
                a, dens = k.terms(0.3, s, pe, True, scratch)
                assert a is scratch[0] and dens is scratch[1], k.family
                assert np.array_equal(a, k.terms(0.3, s, pe)[0]), k.family
            want = dense_oracle(g, t, k, 0.3, u)
            got = apply_nonlocal(g, t, k, 0.3, u).values
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=k.family)
            lhs, rhs = dissipation_pairing(g, t, k, 0.3, u, phi)
            assert lhs == pytest.approx(nv * float(np.sum(phi.values * want)), rel=1e-12, abs=1e-14)
            want_rhs = -0.5 * nv**2 * sum(
                w * eval_range_kernel(k, 0.3, x, y, u.values[y] - u.values[x])
                * (phi.values[y] - phi.values[x])
                for x, y, w in pairs
            )
            assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=1e-14), k.family
            ref = u.values  # the spatial_exponent kernel's reference is u itself
            want_flow = nv**2 * sum(
                w * antiderivative(k, u.values[y] - u.values[x], ref[y] - ref[x]) for x, y, w in pairs
            )
            assert flow_energy(g, t, k, u) == pytest.approx(want_flow, rel=1e-12, abs=1e-14), k.family
        num = np.zeros(g.node_count)
        den = np.zeros(g.node_count)
        for x, y, w in pairs:
            weight = w * np.exp(-(((u.values[y] - u.values[x]) / 0.7) ** 2))
            num[x] += weight * u.values[y]
            den[x] += weight
        if np.all(den > 0.0):
            got = one_step_filter(g, t, u, 0.7).values
            np.testing.assert_allclose(got, num / den, rtol=1e-12, atol=1e-14)
        else:  # a node with no neighbor on the grid and no zero offset
            with pytest.raises(ConfigurationError):
                one_step_filter(g, t, u, 0.7)


@given(even_tables(), st.sampled_from([1.5, 2.0, 3.0]))
# under the layout (8, 12) the half falls inside the first of two gather blocks
@example(([6], [(d,) for d in range(-5, 6)], [1.0 / (1 + abs(d)) for d in range(-5, 6)], 4), 3.0)
@settings(max_examples=12, deadline=None)
def test_one_table_walks_alike_under_every_layout(case, p):
    # the layout is the walk's, so one table, built once, is walked under
    # every layout, whole and split in two halves
    counts, offsets, weights, seed = case
    g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
    t = custom_table(g, offsets, weights)
    u = Field(g, np.random.default_rng(seed).uniform(0.0, 1.0, g.node_count))
    ks = _kernels_for(g, u) + [custom_odd_kernel()]
    want = [apply_nonlocal(g, t, k, 0.3, u).values for k in ks]
    want_e = energy_p(g, t, u, p)
    for layout, split in itertools.product(LAYOUTS, (operator._SPLIT_PAIRS, 1)):
        with walk_layout(*layout), pytest.MonkeyPatch.context() as mp:
            mp.setattr(operator, "_SPLIT_PAIRS", split)
            for k, op in zip(ks, want):
                got = apply_nonlocal(g, t, k, 0.3, u).values
                np.testing.assert_allclose(got, op, rtol=1e-12, atol=1e-14, err_msg=k.family)
            assert energy_p(g, t, u, p) == pytest.approx(want_e, rel=1e-12, abs=1e-14)


def test_one_step_filter_refuses_a_node_without_weight():
    # no zero offset, and exp(-(1/0.01)^2) underflows: 0/0 at both nodes
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [1]], [1.0, 1.0]))
    with pytest.raises(ConfigurationError, match="2 node"):
        one_step_filter(g, t, Field(g, [0.0, 1.0]), 0.01)
    # with the zero offset each node keeps its own value
    t0 = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(one_step_filter(g, t0, Field(g, [0.0, 1.0]), 0.01).values,
                                  [0.0, 1.0])


def test_one_step_filter_uses_the_bilateral_window_bit_for_bit():
    # on two nodes each one sees itself and the other: the filter is
    # (w0 u + w1 g u') / (w0 + w1 g) with the bilateral kernel's window g
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [0.7, 1.3, 0.7]))
    w0, w1 = t.zero_weight, t.weight_of([1])
    rng = np.random.default_rng(17)
    for _ in range(200):
        u = rng.uniform(-1.0, 1.0, 2)
        h = 10.0 ** rng.uniform(-1.0, 1.0)
        s = u[1] - u[0]
        gw = np.exp(s * (-1.0 / h / h) * s)  # the window's exp((s c) s), c = -1/h/h
        want = (w0 * u + w1 * gw * u[::-1]) / (w0 + w1 * gw)
        assert np.array_equal(one_step_filter(g, t, Field(g, u), h).values, want), (u, h)


@pytest.mark.parametrize("record_every", [1, 3])
def test_recorded_energy_is_flow_energy_of_the_recorded_state(record_every):
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [6, 5])
    t = make_spatial_kernel(g, "gaussian", 0.3)
    u0 = Field(g, np.random.default_rng(31).uniform(0.1, 0.9, g.node_count))
    cfg = SolverConfig(T=0.05, steps=7, mu_mode="manual", mu=0.5, record_every=record_every)
    for k in _kernels_for(g, u0) + [custom_odd_kernel()]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # step size above the positivity bound
            traj = solve(g, t, k, zero_reaction(), u0, cfg)
        for j, state in zip(traj.record_steps, traj.states):
            assert traj.per_step["energy"][j] == flow_energy(g, t, k, state), (k.family, j)


@pytest.mark.parametrize("counts,h", [([16], 0.1), ([64, 64], 0.03)])
def test_flow_energy_is_a_python_float_on_gather_and_slice_blocks(counts, h):
    g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
    t = make_spatial_kernel(g, "gaussian", h)
    slices = sum(isinstance(b[1], slice) for b in operator._Walk(t).blocks)
    assert (slices > 0) == (len(counts) == 2)
    u = Field(g, np.random.default_rng(5).uniform(0.1, 0.9, g.node_count))
    k = p_laplacian_kernel(2.5)
    assert type(flow_energy(g, t, k, u)) is float
    assert type(operator._Walk(t, k).apply(u.values, 0.0, True)[1]) is float


@pytest.mark.parametrize("counts, layout, kinds, wrapped", [
    ([40], (1, 1), {"slice"}, False),
    ([7, 6], (1, 1), {"slice"}, True),
    ([7, 6], (4, 5), {"slice", "gather"}, True),
    ([7, 6], (operator._GATHER_BELOW, operator._GATHER_CHUNK), {"gather"}, False),
], ids=["slice", "wrapped_slice", "mixed", "gather"])
def test_flux_energy_matches_the_scalar_oracle(monkeypatch, counts, layout, kinds, wrapped):
    # the linear and p_laplacian energies are sum(w A s) / q over the
    # walk's weighted flux, with no density formed: against an exact sum
    # of w |s|^p / p (s^2 / 2 for linear) over every ordered pair
    g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
    t = custom_table(g, *_gaussian_rows(g, 0.25))
    set_layout(monkeypatch, *layout)
    assert set(block_kinds(t)) == kinds
    assert any(b[3] is not None and b[3].size for b in operator._Walk(t).blocks) == wrapped
    u = np.random.default_rng(71).uniform(0.0, 1.0, g.node_count)
    pairs = list(scalar_pairs(g, t))
    formed = []
    terms = kernels.RangeKernel.terms
    monkeypatch.setattr(kernels.RangeKernel, "terms",
                        lambda k, t_, s, pr=None, energy=False, out=None:
                        formed.append(energy) or terms(k, t_, s, pr, energy, out))
    cases = [(linear_kernel(), 2.0)] + [(p_laplacian_kernel(p), p) for p in (1.5, 2.0, 2.5, 3.0)]
    for k, q in cases:
        assert k.flux_exponent == q
        want = g.node_volume**2 * math.fsum(
            w * (0.5 * (u[y] - u[x]) ** 2 if k.family == "linear" else abs(u[y] - u[x]) ** q / q)
            for x, y, w in pairs)
        assert flow_energy(g, t, k, Field(g, u)) == pytest.approx(want, rel=1e-14), q
    assert formed and not any(formed)


def test_eval_wrapped_with_its_exact_signature_changes_no_result():
    # A profiler may time range evaluations by replacing RangeKernel.eval
    # with a wrapper of exactly (kernel, t, s, pair_ref=None); the program
    # must pass eval nothing else, and the wrapper must change no result.
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [7, 6])
    t = custom_table(g, *_gaussian_rows(g, 0.3))
    u0 = Field(g, np.random.default_rng(41).uniform(0.1, 0.9, g.node_count))
    cfg = SolverConfig(T=0.02, steps=6, mu_mode="manual", mu=0.0)
    kernels_ = (bilateral_kernel(0.4), p_laplacian_kernel(2.5))
    mol = mollify_range_kernel(p_laplacian_kernel(2.5), 4)

    def results():
        out = []
        for k in kernels_:
            traj = solve(g, t, k, zero_reaction(), u0, cfg)
            out += [traj.final_state.values, traj.per_step["energy"], flow_energy(g, t, k, u0)]
        return out + [apply_nonlocal(g, t, mol, 0.0, u0).values, flow_energy(g, t, mol, u0)]

    with walk_layout(30, 64):
        plain = results()
    original = kernels.RangeKernel.eval
    seen = []

    def traced_eval(kernel, t, s, pair_ref=None):
        seen.append(kernel.family)
        return original(kernel, t, s, pair_ref)

    with pytest.MonkeyPatch.context() as mp:
        set_layout(mp, 30, 64)
        mp.setattr(kernels.RangeKernel, "eval", traced_eval)
        wrapped = results()
    assert {"bilateral_gaussian", "p_laplacian"} <= set(seen)
    for a, b in zip(plain, wrapped):
        assert np.array_equal(a, b)


def block_kinds(table):
    blocks = operator._Walk(table).blocks
    return ["slice" if isinstance(dst, slice) else "gather" for _, dst, _, _ in blocks]


def offset_slices(table):
    """(weight, offset, dst, src) of each positive offset that overlaps the
    grid, in table order: the node pairs the walk covers, dst and src as
    slice tuples of the grid-shaped node array."""
    out = []
    for w, d in zip(table.weights, table.offsets.tolist()):
        dst = tuple(slice(max(0, -a), c - max(0, a)) for c, a in zip(table.grid.counts, d))
        src = tuple(slice(s.start + a, s.stop + a) for s, a in zip(dst, d))
        if tuple(d) > (0,) * len(d) and all(s.stop > s.start for s in dst):
            out.append((w, tuple(d), dst, src))
    return out


def block_offsets(table):
    """Per block of the table's walk, the offset_slices entries whose pairs
    it holds: one for a slice block, consecutive ones for a gather block."""
    todo = iter(offset_slices(table))
    out = []
    for w, dst, _, _ in operator._Walk(table).blocks:
        if isinstance(dst, slice):
            out.append([next(todo)])
            continue
        group, held = [], 0
        while held < w.size:
            group.append(next(todo))
            held += math.prod(s.stop - s.start for s in group[-1][2])
        out.append(group)
    assert next(todo, None) is None
    return out


def check_slice_blocks(table):
    """Each slice block holds its offset's node pairs: its flat ranges less
    its wrapped positions are node[dst] and node[src] of the offset's
    slices; and each wrap is a prefix view of the one array of wrapped
    positions the table keeps for its column offset dj."""
    nodes = np.arange(table.grid.node_count).reshape(table.grid.counts)
    shared = {}
    for (w, dst, src, wrap), group in zip(operator._Walk(table).blocks, block_offsets(table)):
        if not isinstance(dst, slice):
            continue
        (wt, d, dsl, ssl), = group
        assert w == wt and dst.stop - dst.start == src.stop - src.start
        keep = np.ones(dst.stop - dst.start, dtype=bool)
        if table.grid.dim == 1 or d[-1] == 0:
            assert wrap is None
        else:
            base = shared.setdefault(d[-1], wrap.base)
            assert wrap.base is base and np.array_equal(wrap, base.reshape(-1)[: wrap.size])
            keep[wrap] = False
        assert np.array_equal(np.arange(dst.start, dst.stop)[keep], nodes[dsl].ravel())
        assert np.array_equal(np.arange(src.start, src.stop)[keep], nodes[ssl].ravel())
    assert len({id(b) for b in shared.values()}) == len(shared)
    return shared


def test_walk_layout_follows_slice_length():
    # every offset of a 128^2 Gaussian-0.03 table (the denoise default)
    # holds at least 12,769 pairs: all slices
    big = make_spatial_kernel(build_grid(2, [(0.0, 1.0)] * 2, [128, 128]), "gaussian", 0.03)
    assert block_kinds(big) == ["slice"] * len(offset_slices(big))
    shared = check_slice_blocks(big)
    # every column offset but 0 wraps, |dj| positions per row of the grid
    assert sorted(shared) == [dj for dj in range(-15, 16) if dj]
    assert sum(b.size for b in shared.values()) == 128 * sum(abs(dj) for dj in shared)
    # on a 24^2 Gaussian-0.12 table no offset holds more than 552 pairs
    g = build_grid(2, [(0.0, 1.0)] * 2, [24, 24])
    small = make_spatial_kernel(g, "gaussian", 0.12)
    assert set(block_kinds(small)) == {"gather"}
    small_blocks = operator._Walk(small).blocks
    for w, dst, src, wrap in small_blocks:
        assert w.dtype == np.float64 and dst.dtype == np.intp and src.dtype == np.intp
        assert w.size == dst.size == src.size < operator._GATHER_CHUNK + operator._GATHER_BELOW
        assert wrap is None
    # the gather blocks hold every pair of the positive offsets, in table
    # order, each with its offset's weight
    w, dst, src = (np.concatenate(col) for col in list(zip(*small_blocks))[:3])
    nodes = np.arange(g.node_count).reshape(g.counts)
    pairs = offset_slices(small)
    assert np.array_equal(dst, np.concatenate([nodes[d].ravel() for _, _, d, _ in pairs]))
    assert np.array_equal(src, np.concatenate([nodes[s].ravel() for _, _, _, s in pairs]))
    assert np.array_equal(w, np.concatenate([np.full(nodes[d].size, wt) for wt, _, d, _ in pairs]))
    # a 1-D grid longer than the threshold: offsets 1 and 2 keep their
    # slices, offsets near the grid size are gathered around them
    n = operator._GATHER_BELOW + 2
    line = build_grid(1, [(0.0, 1.0)], [n])
    half = [1, n - 3, n - 2, 2, n - 1]
    offs = sorted(half + [-d for d in half])
    mixed = make_spatial_kernel(line, "custom_table", table=([[d] for d in offs], [1.0] * len(offs)))
    assert block_kinds(mixed) == ["slice", "slice", "gather"]
    u = Field(line, np.random.default_rng(5).uniform(0.0, 1.0, n))
    for k in (p_laplacian_kernel(1.5), custom_odd_kernel()):
        got = apply_nonlocal(line, mixed, k, 0.3, u).values
        np.testing.assert_allclose(got, dense_oracle(line, mixed, k, 0.3, u), rtol=1e-12, atol=1e-14)


def _gaussian_rows(grid, radius):
    t = make_spatial_kernel(grid, "gaussian", radius)
    return t.offsets.tolist(), t.weights.tolist()


def test_spatial_exponents_are_interpolated_once_and_bit_identical(monkeypatch):
    g = build_grid(2, [(0.0, 1.0)] * 2, [12, 9])
    u = Field(g, np.random.default_rng(9).uniform(0.1, 0.9, g.node_count))
    ref = Field(g, np.random.default_rng(10).uniform(0.0, 1.0, g.node_count))
    t = custom_table(g, *_gaussian_rows(g, 0.2))
    set_layout(monkeypatch, 40, 64)
    assert set(block_kinds(t)) == {"slice", "gather"}
    base = spatial_exponent_kernel([0.0, 0.3, 1.0], [3.0, 2.4, 1.6], ref)
    for k in (base, mollify_range_kernel(base, 4)):
        op = apply_nonlocal(g, t, k, 0.0, u).values
        energy = flow_energy(g, t, k, u)
        walk = operator._Walk(t, k)  # a solve's walk: the exponents are interpolated here
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            interp = np.interp
            mp.setattr(np, "interp", lambda *a, **kw: calls.append(1) or interp(*a, **kw))
            for _ in range(2):
                assert np.array_equal(walk.apply(u.values, 0.0)[0], op)
                assert walk.apply(u.values, 0.0, True)[1] == energy
        assert calls == []
        # eval, which interpolates raw reference differences on every call, agrees
        rr = ref.values
        for (_, d, src, wrap), s, pe, _ in walk.pairs(u.values):
            raw = operator._drop_wrapped(operator._take(rr, src) - operator._take(rr, d), wrap)
            assert np.array_equal(k.eval(0.0, s, raw), k.terms(0.0, s, pe)[0])


def sliced_apply(table, kernel, t, u):
    """The operator as the walk computed it when each slice block held one
    offset's 2-D slice tuples, for the same blocks: a copy of that walk,
    the reference the flat ranges must reproduce bit for bit."""
    uu = u.reshaped()
    ref = kernel.reference.reshaped() if kernel.needs_pair_reference else None
    out = np.zeros_like(uu)

    def scatter(op, idx, v):
        if isinstance(idx, tuple):
            view = out[idx]
        else:
            view, v = out.reshape(-1), np.bincount(idx, v, out.size)
        op(view, v, out=view)

    for (w, dst, src, _), group in zip(operator._Walk(table).blocks, block_offsets(table)):
        if isinstance(dst, slice):
            (_, _, dst, src), = group
        take = (lambda a, idx: a[idx]) if isinstance(dst, tuple) else (lambda a, idx: a.take(idx))
        s = take(uu, src) - take(uu, dst)
        r = None if ref is None else take(ref, src) - take(ref, dst)
        wa = w * kernel.eval(t, s, r)
        scatter(np.add, dst, wa)
        scatter(np.subtract, src, wa)
    return (out * table.grid.node_volume).ravel()


@st.composite
def tables_2d(draw):
    """Random 2-D counts, the thinnest grids, 2 x N and N x 2, among them,
    and an even custom table whose positive offsets have column offsets
    below, at and above 0, half the time with the zero offset."""
    counts = (draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    reach = st.tuples(*(st.integers(-(c - 1), c - 1) for c in counts))
    half = draw(st.lists(reach, min_size=1, max_size=8)) + [(1, -1), (1, 0), (0, 1)]
    zero = [(0, 0)] if draw(st.booleans()) else []
    table = {}
    for d in half + zero:
        w = draw(st.floats(0.1, 2.0))
        table[d] = table[(-d[0], -d[1])] = w
    offsets = sorted(table)
    return counts, offsets, [table[d] for d in offsets], draw(st.integers(0, 2**31 - 1))


# every offset sliced, and mixed layouts of slice and gather blocks
LAYOUTS_2D = [(1, 1), (3, 1), (4, 5), (8, 12)]


@given(tables_2d(), st.sampled_from(LAYOUTS_2D))
@example(((2, 7), [(-1, 3), (0, -1), (0, 1), (1, -3)], [0.5, 1.0, 1.0, 0.5], 1), (1, 1))
@example(((7, 2), [(-3, 1), (-1, 0), (1, 0), (3, -1)], [0.5, 1.0, 1.0, 0.5], 2), (1, 1))
@example(((4, 6), [(-2, 3), (-1, -5), (0, -1), (0, 1), (1, 5), (2, -3)], [1.0] * 6, 3), (1, 1))
@settings(max_examples=30, deadline=None)
def test_flat_walk_matches_the_sliced_walk(case, layout):
    counts, offsets, weights, seed = case
    g = build_grid(2, [(0.0, 1.0)] * 2, list(counts))
    t = custom_table(g, offsets, weights)
    rng = np.random.default_rng(seed)
    u = Field(g, rng.uniform(0.0, 1.0, g.node_count))
    phi = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
    with walk_layout(*layout):
        check_slice_blocks(t)
        for k in _kernels_for(g, u) + [p_laplacian_kernel(2.5), custom_odd_kernel()]:
            op, e = operator._Walk(t, k).apply(u.values, 0.3, True)
            if k.family != "mollified":
                assert np.array_equal(op, sliced_apply(t, k, 0.3, u)), k.family
            assert e == flow_energy(g, t, k, u), k.family
            assert abs(integrate(g, Field(g, op))) < 1e-13, k.family
            lhs, rhs = dissipation_pairing(g, t, k, 0.3, u, phi)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15), k.family


def wrapping_setup(monkeypatch):
    """Every offset of a 5 x 5 stencil, less the zero offset, on a 6 x 7
    grid, all sliced, so each with a column part has pairs in its flat range
    that wrap around a row end; those join nodes 5 or more columns apart,
    which no offset does.  Returns the grid, the table, u and a test field."""
    g = build_grid(2, [(0.0, 1.0)] * 2, [6, 7])
    offsets = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    t = custom_table(g, offsets, [np.exp(-0.5 * (a * a + b * b)) for a, b in offsets])
    set_layout(monkeypatch, 1, 1)
    assert set(block_kinds(t)) == {"slice"}
    assert any(b[3] is not None and b[3].size for b in operator._Walk(t).blocks)
    rng = np.random.default_rng(12)
    u = Field(g, rng.uniform(0.0, 1.0, g.node_count))
    return g, t, u, Field(g, rng.uniform(-1.0, 1.0, g.node_count))


def every_family(u):
    """A kernel of every family, a mollified one of every built-in base, and
    the custom odd kernel."""
    bases = [linear_kernel(), p_laplacian_kernel(1.5), p_laplacian_kernel(3.0),
             variable_exponent_kernel([0.0, 1.0], [2.5, 2.0]),
             spatial_exponent_kernel([0.0, 0.5], [3.0, 2.2], u), bilateral_kernel(0.4)]
    return bases + [mollify_range_kernel(k, 4) for k in bases] + [custom_odd_kernel()]


def test_every_density_is_plus_zero_where_s_is(monkeypatch):
    # the walk drops no density at the wrapped pairs, where it sets s = +0.0:
    # each family's density must be +0.0 there, with no sign bit, so that
    # the pair adds exactly +0.0 to the energy's sum
    g, t, u, _ = wrapping_setup(monkeypatch)
    for k in every_family(u):
        for time in (0.0, 0.3):
            zeros = 0
            for _, s, pe, scratch in operator._Walk(t, k).pairs(u.values):
                dens = k.terms(time, s, pe, True, scratch)[1]
                at = (s == 0.0) & ~np.signbit(s)
                zeros += int(np.count_nonzero(at))
                assert np.all(dens[at] == 0.0) and not np.any(np.signbit(dens[at])), (k.family, time)
            assert zeros, k.family


def test_flow_energy_on_a_wrapping_table_matches_the_scalar_oracle(monkeypatch):
    g, t, u, _ = wrapping_setup(monkeypatch)
    pairs = list(scalar_pairs(g, t))
    v = u.values  # also the spatial_exponent kernels' reference
    for k in every_family(u):
        want = g.node_volume**2 * math.fsum(w * antiderivative(k, v[y] - v[x], v[y] - v[x])
                                            for x, y, w in pairs)
        assert flow_energy(g, t, k, u) == pytest.approx(want, rel=1e-12), (k.family, k.base)


def test_no_kernel_sees_a_wrapped_pair(monkeypatch):
    # The kernel is odd bit for bit, 0 at s = 0 when t = 0, and 0.3 at +0.0
    # and -0.3 at -0.0 when t = 0.3, so a wrapped pair of wrapping_setup's
    # table that reached a sum or a scatter would show in every result.
    g, t, u, phi = wrapping_setup(monkeypatch)
    pairs = list(scalar_pairs(g, t))
    seen = []
    k = custom_kernel(lambda t, s: seen.append(np.array(s)) or s + np.copysign(t, s))
    seen.clear()  # the oddness probe of the constructor
    got = apply_nonlocal(g, t, k, 0.3, u).values
    _, rhs = dissipation_pairing(g, t, k, 0.3, u, phi)
    # the kernel saw the pairs' differences and the wrapped pairs' zeros only
    diffs = np.array([u.values[y] - u.values[x] for x, y, _ in pairs])
    assert np.all(np.isin(np.concatenate([a.ravel() for a in seen]), np.concatenate([diffs, [0.0]])))
    seen.clear()
    np.testing.assert_allclose(got, dense_oracle(g, t, k, 0.3, u), rtol=1e-12, atol=1e-14)
    nv = g.node_volume
    want_rhs = -0.5 * nv**2 * sum(
        w * eval_range_kernel(k, 0.3, x, y, u.values[y] - u.values[x]) * (phi.values[y] - phi.values[x])
        for x, y, w in pairs
    )
    assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=1e-14)
    # the filter's window is 1 at s = 0: a wrapped pair would add its weight
    num = np.zeros(g.node_count)
    den = np.zeros(g.node_count)
    for x, y, w in pairs:
        weight = w * np.exp(-(((u.values[y] - u.values[x]) / 0.7) ** 2))
        num[x] += weight * u.values[y]
        den[x] += weight
    np.testing.assert_allclose(one_step_filter(g, t, u, 0.7).values, num / den, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# the split walk and its helper process

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


def split_setup(monkeypatch):
    """A 12 x 10 grid whose table mixes slice and gather blocks, walked in
    two halves: ``_SPLIT_PAIRS`` is lowered, as set_layout lowers the
    gather constants."""
    monkeypatch.setattr(operator, "_SPLIT_PAIRS", 1)
    g = build_grid(2, [(0.0, 1.0)] * 2, [12, 10])
    t = custom_table(g, *_gaussian_rows(g, 0.3))
    set_layout(monkeypatch, 40, 64)
    u0 = Field(g, np.random.default_rng(51).uniform(0.1, 0.9, g.node_count))
    return g, t, u0


def ramp_setup(monkeypatch):
    """A ramp on 40 nodes and a table of offsets up to 6, one slice block
    each, walked in two halves; on the ramp an offset d has s = d * 0.8/39,
    so a threshold between the largest s of the first half and the
    smallest of the second tells the halves apart."""
    monkeypatch.setattr(operator, "_SPLIT_PAIRS", 1)
    g = build_grid(1, [(0.0, 1.0)], [40])
    offsets = [(d,) for d in range(-6, 7)]
    t = custom_table(g, offsets, [1.0 / (1 + abs(d)) for (d,) in offsets])
    set_layout(monkeypatch, 1, 1)
    first, second = operator._Walk(t).halves
    assert len(first) == len(second) == 3  # block k holds the offset k + 1
    return g, t, Field(g, np.linspace(0.1, 0.9, 40)), (len(first) + 0.5) * 0.8 / 39


def count_forks(monkeypatch):
    """The helper processes forked from now on, by what each serves."""
    forks = []
    init = _Helper.__init__
    monkeypatch.setattr(_Helper, "__init__",
                        lambda helper, fn, what: forks.append(what) or init(helper, fn, what))
    return forks


@contextlib.contextmanager
def one_cpu():
    """This process pinned to one of its CPUs, restored afterwards."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def test_split_solve_is_bit_identical_with_the_helper_and_on_one_cpu(monkeypatch):
    g, t, u0 = split_setup(monkeypatch)
    forks = count_forks(monkeypatch)
    cfg = SolverConfig(T=0.05, steps=6, mu_mode="auto_linf", record_every=2)
    cases = [(k, zero_reaction()) for k in _kernels_for(g, u0)]
    cases.append((custom_odd_kernel(), logistic_reaction(0.4, 2.0)))
    for k, r in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # step size above the positivity bound
            forked = solve(g, t, k, r, u0, cfg)
            with one_cpu():
                pinned = solve(g, t, k, r, u0, cfg)
        pairs = [(forked.times, pinned.times), (forked.record_steps, pinned.record_steps)]
        pairs += [(a.values, b.values) for a, b in zip(forked.states, pinned.states)]
        pairs += [(forked.per_step[c], pinned.per_step[c]) for c in forked.per_step]
        assert len(forked.states) == len(pinned.states) == 4
        for a, b in pairs:
            assert a.tobytes() == b.tobytes(), k.family
        assert repr(forked.constants) == repr(pinned.constants)
        # the split walk is the operator: against the walk in one half
        op, e = operator._Walk(t, k).apply(u0.values, 0.3, True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operator, "_SPLIT_PAIRS", sum(kernels._pair_counts(g, t.offsets)))
            whole = operator._Walk(t, k)
            assert len(whole.halves) == 1
            op1, e1 = whole.apply(u0.values, 0.3, True)
        np.testing.assert_allclose(op, op1, rtol=1e-13, atol=1e-15 * np.max(np.abs(op1)))
        assert e == pytest.approx(e1, rel=1e-14)
    assert len(forks) == (len(cases) if TWO_CPUS else 0)


def test_an_even_split_cuts_the_gather_block_that_holds_the_half(monkeypatch):
    monkeypatch.setattr(operator, "_SPLIT_PAIRS", 1)
    g = build_grid(2, [(0.0, 1.0)] * 2, [12, 10])
    t = custom_table(g, *_gaussian_rows(g, 0.3))
    set_layout(monkeypatch, operator._GATHER_BELOW, 64)
    assert set(block_kinds(t)) == {"gather"}
    u0 = Field(g, np.random.default_rng(53).uniform(0.1, 0.9, g.node_count))
    blocks = operator._walk_blocks(t)
    walk = operator._Walk(t)
    first, second = ([operator._positions(walk.blocks[i]) for i in half] for half in walk.halves)
    assert abs(sum(first) - sum(second)) <= 1
    assert sum(first) + sum(second) == sum(map(operator._positions, blocks))
    # the block that holds the half is cut in two, as views of its arrays
    k = len(first) - 1
    assert len(walk.blocks) == len(blocks) + 1
    keys = block_keys(walk.blocks)
    assert keys[:k] == block_keys(blocks[:k]) and keys[k + 2:] == block_keys(blocks[k + 1:])
    assert 0 < first[-1] < operator._positions(blocks[k])
    for whole, a, b in zip(blocks[k][:3], walk.blocks[k][:3], walk.blocks[k + 1][:3]):
        assert a.base is not None and a.base is b.base
        assert np.array_equal(np.concatenate([a, b]), whole)
    forks = count_forks(monkeypatch)
    cfg = SolverConfig(T=0.05, steps=6, mu_mode="auto_linf", record_every=2)
    ks = _kernels_for(g, u0) + [custom_odd_kernel()]
    for k in ks:
        # the split walk against the whole walk's blocks in one half
        op, e = operator._Walk(t, k).apply(u0.values, 0.3, True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operator, "_SPLIT_PAIRS", sum(kernels._pair_counts(g, t.offsets)))
            whole = operator._Walk(t, k)
            assert len(whole.halves) == 1 and block_keys(whole.blocks) == block_keys(blocks)
            op1, e1 = whole.apply(u0.values, 0.3, True)
        np.testing.assert_allclose(op, op1, rtol=1e-13, atol=1e-15 * np.max(np.abs(op1)))
        assert e == pytest.approx(e1, rel=1e-14)
        # and a solve gives the same bytes with the helper and on one CPU
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # step size above the positivity bound
            forked = solve(g, t, k, zero_reaction(), u0, cfg)
            with one_cpu():
                pinned = solve(g, t, k, zero_reaction(), u0, cfg)
        for a, b in zip(forked.states, pinned.states):
            assert a.values.tobytes() == b.values.tobytes(), k.family
        for c in forked.per_step:
            assert forked.per_step[c].tobytes() == pinned.per_step[c].tobytes(), (k.family, c)
    assert len(forks) == (len(ks) if TWO_CPUS else 0)


def test_split_solve_records_the_flow_energy_of_each_state(monkeypatch):
    g, t, u0 = split_setup(monkeypatch)
    forks = count_forks(monkeypatch)
    cfg = SolverConfig(T=0.05, steps=5, mu_mode="manual", mu=0.5)
    kernels_ = (bilateral_kernel(0.4), p_laplacian_kernel(2.5),
                spatial_exponent_kernel([0.0, 0.5], [3.0, 2.2], u0))
    for k in kernels_:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # step size above the positivity bound
            traj = solve(g, t, k, zero_reaction(), u0, cfg)
        for j, state in zip(traj.record_steps, traj.states):
            assert traj.per_step["energy"][j] == flow_energy(g, t, k, state), (k.family, j)
    assert len(forks) == (len(kernels_) if TWO_CPUS else 0)


def test_an_error_in_the_second_half_reaches_the_caller_with_its_class(monkeypatch):
    g, t, u0, between = ramp_setup(monkeypatch)
    forks = count_forks(monkeypatch)

    def fn(t_, s):
        if t_ > 0.0 and np.max(np.abs(s), initial=0.0) > between:
            raise ZeroDivisionError("a value of the second half")
        return s * 1.0

    k = custom_kernel(fn)
    cfg = SolverConfig(T=1e-3, steps=3, mu_mode="manual", mu=0.0)
    blowup = SolverConfig(T=0.1, steps=8, mu_mode="manual", mu=0.0)
    seen = {}
    for pin in (False, True):
        with one_cpu() if pin else contextlib.nullcontext():
            with pytest.raises(ZeroDivisionError, match="second half"):
                solve(g, t, k, zero_reaction(), u0, cfg)
            # a blow-up ends the solve, and its helper, the same way
            with np.errstate(over="ignore"), pytest.warns(UserWarning, match="positivity bound"):
                with pytest.raises(NumericalBlowupError) as exc:
                    solve(g, t, linear_kernel(), linear_decay_reaction(1e80), u0, blowup)
        err = exc.value
        seen[pin] = (str(err), err.step, err.t, err.last_state.values.tobytes())
    assert seen[False] == seen[True]
    assert len(forks) == (2 if TWO_CPUS else 0)


def test_a_dead_helper_ends_the_solve_with_a_runtime_error(monkeypatch):
    g, t, u0, _ = ramp_setup(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = count_forks(monkeypatch)
    parent = os.getpid()

    def fn(t_, s):
        if t_ > 0.0 and os.getpid() != parent:
            os._exit(1)
        return s * 1.0

    cfg = SolverConfig(T=1e-3, steps=3, mu_mode="manual", mu=0.0)
    with pytest.raises(RuntimeError, match="helper process of the pair walk ended without a reply"):
        solve(g, t, custom_kernel(fn), zero_reaction(), u0, cfg)
    assert forks == ["the pair walk"]


def test_a_warning_in_the_second_half_reaches_the_caller(monkeypatch):
    g, t, u0, between = ramp_setup(monkeypatch)
    forks = count_forks(monkeypatch)

    def fn(t_, s):
        if t_ > 0.0 and np.max(np.abs(s), initial=0.0) > between:
            warnings.warn("a value of the second half", RuntimeWarning)
        return s * 1.0

    k = custom_kernel(fn)
    cfg = SolverConfig(T=1e-3, steps=3, mu_mode="manual", mu=0.0)
    # pytest's error::RuntimeWarning filter makes it an error here
    with pytest.raises(RuntimeWarning, match="second half"):
        solve(g, t, k, zero_reaction(), u0, cfg)
    seen = {}
    for pin in (False, True):
        with one_cpu() if pin else contextlib.nullcontext():
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                solve(g, t, k, zero_reaction(), u0, cfg)
        seen[pin] = [(w.category, str(w.message), w.filename, w.lineno) for w in rec]
    assert len(seen[False]) == 3 * 3  # the second half's three blocks at steps 1 to 3, where t > 0
    assert seen[False] == seen[True]
    assert len(forks) == (2 if TWO_CPUS else 0)


def test_no_helper_below_the_split_on_one_cpu_or_in_a_pool_worker(monkeypatch, tmp_path):
    log = tmp_path / "forks"
    init = _Helper.__init__

    def logged(helper, fn, what):  # in a file, which a helper's own fork would reach too
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {what}\n")
        init(helper, fn, what)

    monkeypatch.setattr(_Helper, "__init__", logged)
    g, t, u0, _ = ramp_setup(monkeypatch)
    cfg = SolverConfig(T=1e-3, steps=3, mu_mode="manual", mu=0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operator, "_SPLIT_PAIRS", 220)  # the walk has 219 pair positions
        assert len(operator._Walk(t).halves) == 1
        solve(g, t, linear_kernel(), zero_reaction(), u0, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        solve(g, t, linear_kernel(), zero_reaction(), u0, cfg)
    assert not log.exists()
    # the study's levels run on forked helpers, one per level, whose solves fork none
    mollifier_cauchy_study(Problem(g, t, p_laplacian_kernel(2.5), zero_reaction(), u0, cfg),
                           [2, 4, 8])
    study = f"{os.getpid()} the Cauchy study\n" * 3
    assert log.read_text(encoding="ascii") == study
    # the same split solve here does fork its helper
    solve(g, t, linear_kernel(), zero_reaction(), u0, cfg)
    assert log.read_text(encoding="ascii") == study + f"{os.getpid()} the pair walk\n"


def test_a_mollified_walk_applies_what_eval_gives_across_block_boundaries(monkeypatch):
    # one slice block per offset, of 1, W - 1, W, W + 1 and 3W + 5 pairs, W
    # the values of one block of the quadrature: each block's A is eval's
    # on the same s
    k = mollify_range_kernel(p_laplacian_kernel(1.5), 8, 257)
    w = k.mollifier.shifts.shape[1]
    n = 3 * w + 6
    g = build_grid(1, [(0.0, 1.0)], [n])
    ds = [1, 2 * w + 5, 2 * w + 6, 2 * w + 7, 3 * w + 5]
    t = custom_table(g, [(s * d,) for d in ds for s in (-1, 1)], [1.0] * 2 * len(ds))
    set_layout(monkeypatch, 1, 1)
    walk = operator._Walk(t, k)
    assert sorted(operator._positions(b) for b in walk.blocks) == [1, w - 1, w, w + 1, 3 * w + 5]
    seen = []
    terms = kernels.RangeKernel.terms

    def recorded(kernel, t_, s, pr=None, energy=False, out=None):
        a, phi = terms(kernel, t_, s, pr, energy, out)
        if kernel is k:  # not the base's calls inside the quadrature
            seen.append((s.copy(), a.copy()))
        return a, phi

    monkeypatch.setattr(kernels.RangeKernel, "terms", recorded)
    u = np.random.default_rng(83).uniform(0.0, 1.0, n)
    for energy in (False, True):
        seen.clear()
        walk.apply(u, 0.4, energy)
        calls = list(seen)  # eval below records its own call
        assert len(calls) == len(walk.blocks)
        for s, a in calls:
            assert a.tobytes() == k.eval(0.4, s).tobytes(), s.size


def test_a_split_mollified_walk_gives_the_same_bits_with_the_helper():
    g = build_grid(2, [(0.0, 1.0)] * 2, [20, 20])
    t = make_spatial_kernel(g, "gaussian", 0.15)
    k = mollify_range_kernel(p_laplacian_kernel(1.5), 4, 64)
    rng = np.random.default_rng(89)
    states = [rng.uniform(0.1, 0.9, g.node_count) for _ in range(2)]
    walk = operator._Walk(t, k)
    assert sum(map(operator._positions, walk.blocks)) >= operator._SPLIT_PAIRS
    assert len(walk.halves) == 2
    here = [(op.copy(), e) for op, e in (walk.apply(u, 0.2, True) for u in states)]
    with operator._Walk(t, k) as forked:
        assert (forked.helper is not None) == TWO_CPUS
        there = [(op.copy(), e) for op, e in (forked.apply(u, 0.2, True) for u in states)]
    for (op, e), (fop, fe) in zip(here, there):
        assert fop.tobytes() == op.tobytes() and fe == e


def test_kernels_that_share_a_table_share_no_walk_state(monkeypatch):
    g = build_grid(2, [(0.0, 1.0)] * 2, [12, 9])
    t = custom_table(g, *_gaussian_rows(g, 0.2))
    set_layout(monkeypatch, 40, 64)
    rng = np.random.default_rng(61)
    u = Field(g, rng.uniform(0.1, 0.9, g.node_count))
    refs = [Field(g, rng.uniform(0.0, 1.0, g.node_count)) for _ in range(2)]
    ks = [spatial_exponent_kernel([0.0, 0.3, 1.0], [3.0, 2.4, 1.6], r) for r in refs]
    ks.append(mollify_range_kernel(ks[0], 4))  # its base is ks[0]
    before = [dict(vars(k)) for k in ks]
    first = [apply_nonlocal(g, t, k, 0.0, u).values for k in ks]
    walks = [operator._Walk(t, k) for k in ks]
    for a, b in itertools.combinations(walks, 2):
        assert not np.shares_memory(a.buf, b.buf) and not np.shares_memory(a.out, b.out)
        assert all(x is not y for x, y in zip(a.exps, b.exps))
    assert not np.array_equal(walks[0].exps[0], walks[1].exps[0])
    # in the other order, each kernel's operator is what it was
    for k, want in reversed(list(zip(ks, first))):
        assert np.array_equal(apply_nonlocal(g, t, k, 0.0, u).values, want)
    # and no walk left anything on a kernel
    for k, old in zip(ks, before):
        assert vars(k).keys() == old.keys()
        assert all(vars(k)[name] is value for name, value in old.items())
