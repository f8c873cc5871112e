"""Kernels and coefficient data for the nonlocal flow.

Three ingredients drive the evolution: a spatial kernel J weighting each
offset between nodes, an odd range kernel A acting on value differences,
and a reaction term f.  This module builds and validates all three.

Spatial kernels are tabulated on integer node offsets and rescaled so the
discrete integral (node volume times the weight sum) is exactly one, the
same normalization the continuum problem puts on J.  Range kernels come in
the families

* ``linear``              A(s) = s
* ``p_laplacian``         A(s) = |s|^(p-2) s, p > 1
* ``variable_exponent``   A(s) = |s|^(p(|s|)-2) s with a tabulated,
                          non-increasing exponent function
* ``spatial_exponent``    A(x, y, s) = |s|^(q-2) s where q is the exponent
                          function evaluated at the reference-field
                          difference between y and x
* ``bilateral_gaussian``  A(s) = s exp(-s^2 / h^2)
* ``mollified``           a smoothed copy of another family, see
                          :func:`mollify_range_kernel`
* ``custom``              any odd callable with A(0) = 0, for experiments
                          and validation tests

Note the bilateral family multiplies the Gaussian window by s.  The bare
window exp(-s^2/h^2) familiar from image filters is even in s, which an
odd range kernel cannot be; the extra factor of s is what makes the
classical filter's window fit this framework, and :func:`custom_kernel`
refuses the bare form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, KernelValidationError
from .grid import Field, Grid

RANGE_FAMILIES = (
    "linear",
    "p_laplacian",
    "variable_exponent",
    "spatial_exponent",
    "bilateral_gaussian",
    "mollified",
    "custom",
)

REACTION_FAMILIES = ("zero", "linear_decay", "affine", "logistic", "custom_table")


# ---------------------------------------------------------------------------
# spatial kernels


@dataclass(frozen=True)
class SpatialKernelTable:
    """A spatial kernel sampled on integer node offsets, and the walk over
    the node pairs it couples.

    ``offsets`` has shape (K, dim) and ``weights`` shape (K,).  Entries are
    sorted lexicographically by offset, which fixes the evaluation order of
    every loop that walks the table and so keeps runs reproducible.
    ``normalization`` records the constant the raw samples were divided by
    to reach a unit discrete integral.

    The table owns that walk.  The spatial kernel is even and every range
    kernel is odd, so the pair (x, x + d) and its mirror (x + d, x) carry
    the same flux with opposite signs; the walk therefore visits only the
    lexicographically positive offsets d > 0, in table order, leaving out
    those whose overlap with the grid is empty.

    ``blocks`` is the walk itself, cut into blocks, each a tuple
    ``(w, dst, src, wrap)`` that only the walk,
    :func:`nldiff.operator._pairs`, decodes.  An offset whose slice holds
    at least ``_GATHER_BELOW`` pairs is a slice block: its weight, and the
    flat ranges ``dst = slice(0, n)`` and ``src = slice(D, D + n)`` of the
    C-ordered node array, with D the flat distance of d and n = N - D, so
    that the walk forms s with one contiguous 1-D subtraction.  On a 2-D
    grid an offset d = (di, dj) with dj != 0 has pairs in that range that
    are no pair of the grid, x and x + D on either side of a row end;
    ``wrap`` holds their positions in the range, |dj| per row, and is None
    where no pair wraps (1-D grids, dj = 0).  Every offset of one dj
    shares one sorted array of such positions, |dj| columns of every row,
    and its ``wrap`` is the prefix of it inside its range.  Consecutive
    shorter offsets are packed into gather blocks of about
    ``_GATHER_CHUNK`` pairs: a float64 weight per pair next to int32 flat
    node indices of every pair, offset after offset, and wrap None.  On
    short slices the walk's cost is per-offset numpy dispatch rather than
    arithmetic, which gathering removes; on long ones the gather costs
    more than the slices, so the choice follows the slice length.

    ``zero_weight`` is the weight of d = 0, which couples a node with
    itself and so carries no flux of an odd kernel; the one-step filter
    still counts it.  ``pair_count`` is the number of ordered node pairs
    the full table couples, every offset included, and ``largest_block``
    the length of the walk's longest block, a slice block's range counted
    whole, wrapped pairs included.  A table that is not
    even, offsets and weights bit for bit, raises
    :class:`KernelValidationError`.
    """

    grid: Grid
    radius: float
    offsets: np.ndarray
    weights: np.ndarray
    normalization: float
    blocks: tuple = field(init=False, repr=False, compare=False)
    zero_weight: float = field(init=False, repr=False, compare=False)
    pair_count: int = field(init=False, repr=False, compare=False)
    largest_block: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets = np.atleast_2d(np.asarray(self.offsets, dtype=np.int64))
        weights = np.asarray(self.weights, dtype=np.float64)
        if offsets.shape[1] != self.grid.dim or offsets.shape[0] != weights.shape[0]:
            raise ConfigurationError("kernel table shapes do not match the grid")
        order = np.lexsort(offsets.T[::-1])
        offsets, weights = offsets[order], weights[order]
        # Negation reverses lexicographic order, so an even table reads the
        # same backwards with its offsets negated.
        if not (np.array_equal(offsets[::-1], -offsets) and np.array_equal(weights[::-1], weights)):
            index = dict(zip(map(tuple, offsets.tolist()), weights.tolist()))
            uneven = sorted(o for o, w in index.items() if index.get(tuple(-c for c in o)) != w)
            raise KernelValidationError(
                f"kernel table is not even under offset negation; offending offsets {uneven}",
                offenders=uneven,
            )
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)
        zero = (0,) * self.grid.dim
        pairs, count, w0 = [], 0, 0.0
        for w, offset in zip(weights, offsets.tolist()):
            size = 1
            for c, a in zip(self.grid.counts, offset):
                size *= max(0, c - abs(a))
            count += size
            if tuple(offset) == zero:
                w0 += float(w)
            elif size and tuple(offset) > zero:
                pairs.append((w, tuple(offset), size))
        blocks, largest = _walk_blocks(self.grid, pairs)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "largest_block", largest)
        object.__setattr__(self, "zero_weight", w0)
        object.__setattr__(self, "pair_count", count)

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    def discrete_mass(self) -> float:
        """Node volume times the weight sum; one for conformant kernels."""
        return self.grid.node_volume * float(np.sum(self.weights))

    def weight_of(self, offset) -> float:
        """Weight stored for one offset, or 0.0 if absent."""
        key = np.asarray(offset, dtype=np.int64)
        hit = np.flatnonzero(np.all(self.offsets == key, axis=1))
        return float(self.weights[hit[0]]) if hit.size else 0.0


# Offsets with fewer pairs than _GATHER_BELOW are gathered, in blocks of about
# _GATHER_CHUNK pairs, which bounds the index memory and the temporaries of
# one block.  Measured on a 2-core x86 machine, numpy 2.4, one application
# of a p = 2.5 operator with its energy:
# - over 16 offsets of n pairs each, sliced vs gathered: n = 512: 0.32 vs
#   0.17 ms, 1024: 0.42 vs 0.34 ms, 1536: 0.48 vs 0.50 ms, 4096: 0.86 vs
#   1.39 ms.  A slice block of a 2-D grid is a contiguous 1-D range too,
#   longer than its pairs by the wrapped ones (see SpatialKernelTable).
# - on an all-gathered 24^2 Gaussian-0.12 table, chunks of 2048, 8192 and
#   65536 pairs: 1.52, 1.14 and 3.14 ms.
_GATHER_BELOW = 1024
_GATHER_CHUNK = 8192


def _walk_blocks(grid: Grid, pairs: list) -> tuple:
    """Cut the positive offsets, each (w, offset, pair count), into slice
    blocks and gather blocks, in order; returns the blocks and the length
    of the largest, a slice block's whole range included."""
    node = np.arange(grid.node_count, dtype=np.int32).reshape(grid.counts)
    blocks, group, held, largest, wraps = [], [], 0, 0, {}
    for w, offset, size in pairs:
        if group and (size >= _GATHER_BELOW or held >= _GATHER_CHUNK):
            blocks.append(_gather_block(node, group))
            group, held = [], 0
        if size >= _GATHER_BELOW:
            blocks.append(_slice_block(node, w, offset, wraps))
            largest = max(largest, blocks[-1][1].stop)
        else:
            group.append((w, offset, size))
            held += size
            largest = max(largest, held)
    if group:
        blocks.append(_gather_block(node, group))
    return tuple(blocks), largest


def _flat_offset(counts, offset) -> int:
    """The distance between the nodes x and x + d in the C-ordered node
    array."""
    return offset[0] * counts[1] + offset[1] if len(counts) == 2 else offset[0]


def _slice_block(node: np.ndarray, w, offset, wraps: dict) -> tuple:
    """The slice block of one offset: its weight, the flat ranges of x and
    x + d, and the positions of its wrapped pairs in them (None on a 1-D
    grid and for a column offset of 0).  ``wraps`` keeps one sorted array
    of wrapped positions per column offset dj, |dj| columns of every row,
    and an offset's are the prefix of it inside its range."""
    d = _flat_offset(node.shape, offset)
    n = node.size - d
    dj = offset[-1]
    if node.ndim == 1 or dj == 0:
        return w, slice(0, n), slice(d, d + n), None
    if dj not in wraps:
        rows, cols = node.shape
        first = cols - dj if dj > 0 else 0
        wraps[dj] = (np.arange(rows)[:, None] * cols + np.arange(first, first + abs(dj))).ravel()
    shared = wraps[dj]
    return w, slice(0, n), slice(d, d + n), shared[: int(np.searchsorted(shared, n))]


def _gather_block(node: np.ndarray, group: list) -> tuple:
    dst = [
        node[tuple(slice(max(0, -a), c - max(0, a)) for c, a in zip(node.shape, offset))].ravel()
        for _, offset, _ in group
    ]
    return (
        np.concatenate([np.full(size, w) for w, _, size in group]),
        np.concatenate(dst),
        np.concatenate([x + _flat_offset(node.shape, offset) for x, (_, offset, _) in zip(dst, group)]),
        None,
    )


def _candidate_offsets(grid: Grid, reach: float):
    """The grid's offsets, in lexicographic order, whose length along each
    axis is at most ``reach`` plus one node spacing: every offset of the
    ball of radius ``reach``, in the order of the grid's full offset box."""
    cells = [int(min(c - 1, reach / h + 1.0)) for c, h in zip(grid.counts, grid.spacing)]
    ranges = [np.arange(-m, m + 1) for m in cells]
    if grid.dim == 1:
        return ranges[0][:, None]
    a, b = np.meshgrid(*ranges, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=-1)


def _physical_sq_norm(grid: Grid, offsets: np.ndarray) -> np.ndarray:
    acc = np.zeros(offsets.shape[0])
    for k in range(grid.dim):
        acc += (offsets[:, k] * grid.spacing[k]) ** 2
    return acc


# A larger radius builds the offsets and weights of this one: on a grid
# narrower than 1e140 both hold every offset with Gaussian weight 1.0, and
# (4 radius)^2 stays finite, which it does not past ~1e154.
_FLAT_RADIUS = 1e150


def make_spatial_kernel(grid: Grid, family: str, radius: float = 0.0, table=None) -> SpatialKernelTable:
    """Build a spatial kernel table on a grid.

    Parameters
    ----------
    grid : Grid
    family : str
        ``gaussian``, ``box``, or ``custom_table``.
    radius : float
        Length scale, positive and finite.  The Gaussian is
        exp(-|x|^2 / radius^2), truncated to zero where |x| >= 4 radius; the
        box is the indicator of the ball |x| <= radius.  A radius above
        1e150 builds the table of radius 1e150.
    table : (offsets, weights), optional
        Raw samples for ``custom_table``.  They must be non-negative, list
        each offset once, and be even under offset negation with
        bit-identical weights once zero weights are dropped; violations
        raise :class:`KernelValidationError` listing the offenders.

    Whatever the family, raw weights are divided by their discrete integral
    so that ``node_volume * sum(weights)`` is one; the divisor is kept in
    ``normalization``.
    """
    if family in ("gaussian", "box"):
        if not 0.0 < radius < math.inf:
            raise ConfigurationError(f"kernel radius must be positive and finite, got {radius}")
        r = min(float(radius), _FLAT_RADIUS)
        cand = _candidate_offsets(grid, 4.0 * r if family == "gaussian" else r)
        rsq = _physical_sq_norm(grid, cand)
        if family == "gaussian":
            keep = rsq < (4.0 * r) ** 2
            cand = cand[keep]
            raw = np.exp(-rsq[keep] / (r * r))
        else:
            keep = rsq <= r * r
            cand = cand[keep]
            raw = np.ones(int(np.count_nonzero(keep)))
    elif family == "custom_table":
        if table is None:
            raise ConfigurationError("custom_table kernels need an (offsets, weights) table")
        cand = np.atleast_2d(np.asarray(table[0], dtype=np.int64))
        raw = np.asarray(table[1], dtype=np.float64)
        if cand.shape[1] != grid.dim or cand.shape[0] != raw.shape[0]:
            raise ConfigurationError("kernel table shapes do not match the grid")
        _check_table_validity(cand, raw)
        keep = raw != 0.0
        cand, raw = cand[keep], raw[keep]
        radius = float(np.sqrt(np.max(_physical_sq_norm(grid, cand)))) if cand.size else 0.0
    else:
        raise ConfigurationError(f"unknown spatial kernel family {family!r}")

    if cand.shape[0] == 0:
        raise ConfigurationError("spatial kernel support contains no offsets")
    normalization = grid.node_volume * float(np.sum(raw))
    if not normalization > 0.0:
        raise ConfigurationError("spatial kernel has zero discrete mass")
    return SpatialKernelTable(
        grid=grid,
        radius=float(radius),
        offsets=cand,
        weights=raw / normalization,
        normalization=normalization,
    )


def _check_table_validity(offsets: np.ndarray, weights: np.ndarray):
    keys = list(map(tuple, offsets.tolist()))
    bad_sign = [o for o, w in zip(keys, weights.tolist()) if w < 0 or not math.isfinite(w)]
    if bad_sign:
        raise KernelValidationError(
            f"kernel weights must be finite and non-negative; offending offsets {bad_sign}",
            offenders=bad_sign,
        )
    seen = Counter(keys)
    if len(seen) != len(keys):
        dupes = [o for o in keys if seen[o] > 1]
        raise KernelValidationError(
            f"kernel table lists an offset twice; offending offsets {dupes}", offenders=dupes
        )


# ---------------------------------------------------------------------------
# mollifier

_BUMP_PANELS = 1 << 16
_bump_cache = {}


def bump_profile(s) -> np.ndarray:
    """The standard unnormalized bump exp(-1/(1-s^2)) on (-1, 1), else 0."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _bump_quadrature(n_panels: int):
    h = 2.0 / n_panels
    mid = -1.0 + h * (np.arange(n_panels) + 0.5)
    return mid, h


def bump_mass() -> float:
    """Integral of the unnormalized bump over (-1, 1).

    Midpoint rule with a fixed fine panel count; the integrand is smooth and
    flat to all orders at the endpoints, so this converges far past float64
    resolution.
    """
    if "mass" not in _bump_cache:
        mid, h = _bump_quadrature(_BUMP_PANELS)
        _bump_cache["mass"] = h * float(np.sum(bump_profile(mid)))
    return _bump_cache["mass"]


def mollifier_moment(alpha: float) -> float:
    """Integral of the unit-mass bump times |s|^alpha over (-1, 1)."""
    key = ("moment", float(alpha))
    if key not in _bump_cache:
        mid, h = _bump_quadrature(_BUMP_PANELS)
        raw = h * float(np.sum(bump_profile(mid) * np.abs(mid) ** alpha))
        _bump_cache[key] = raw / bump_mass()
    return _bump_cache[key]


def mollifier_density(n: int, s) -> np.ndarray:
    """The unit-mass mollifier at level n: n * bump(n s) / bump mass."""
    return n * bump_profile(np.asarray(s) * n) / bump_mass()


@dataclass(frozen=True)
class MollifierSpec:
    """Quadrature data for one mollification level.

    ``nodes`` are midpoints on (-1, 1) in the rescaled variable, and
    ``weights`` are bump samples normalized to sum exactly to one, so
    smoothing an affine kernel reproduces it to round-off.
    """

    n: int
    quad_count: int
    nodes: np.ndarray
    weights: np.ndarray


def _mollifier_quadrature(quad_count: int):
    # The midpoints, built from the right half so that they are mirror
    # images bit for bit; the mollified evaluation relies on it.
    h = 2.0 / quad_count
    half = 1.0 - h * (np.arange(quad_count // 2) + 0.5)
    nodes = np.concatenate([-half, np.zeros(quad_count % 2), half[::-1]])
    w = bump_profile(nodes)
    return nodes, w / np.sum(w)


# Base evaluations per block of a mollified evaluation, (nodes x values).
# Constant sampling would otherwise make 16 MB temporaries; blocks under
# 128 kB stay below malloc's mmap threshold and in cache.  For 257 nodes
# (p = 1.5, level 32, fastest of 40 calls, three processes each), blocks of
# 63 values evaluated 16,384 values in 25-34 ms, blocks of 31 in 31-43 ms
# and blocks of 127 in 36-46 ms, with this fold and tree as the reduction.
_MOLLIFY_BLOCK = 16384


# ---------------------------------------------------------------------------
# range kernels


@dataclass(frozen=True)
class PairExponents:
    """The exponents q of a set of node pairs for the spatial_exponent
    family, interpolated once from the pairs' reference differences by
    :meth:`RangeKernel.pair_exponents`.  :meth:`RangeKernel.eval` takes it
    in place of the differences."""

    q: np.ndarray


class RangeKernel:
    """Odd range kernel A(t, x, y, s).

    All built-in families are autonomous and act through the value
    difference s; the spatial_exponent family additionally reads the
    difference of a reference field between the two nodes.  ``monotone``
    declares non-decreasing dependence on s (the hypothesis behind the
    contraction estimates) and ``holder_alpha`` the Holder exponent used by
    the mollification bounds.
    """

    def __init__(
        self,
        family: str,
        *,
        p: float | None = None,
        h: float | None = None,
        exponent_sigmas=None,
        exponent_values=None,
        reference: Field | None = None,
        base: "RangeKernel | None" = None,
        mollifier: MollifierSpec | None = None,
        fn=None,
        holder_alpha: float = 1.0,
        monotone: bool = False,
    ):
        if family not in RANGE_FAMILIES:
            raise ConfigurationError(f"unknown range kernel family {family!r}")
        self.family = family
        self.p = p
        self.h = h
        self.exponent_sigmas = (
            None if exponent_sigmas is None else np.asarray(exponent_sigmas, dtype=np.float64)
        )
        self.exponent_values = (
            None if exponent_values is None else np.asarray(exponent_values, dtype=np.float64)
        )
        self.reference = reference
        self.base = base
        self.mollifier = mollifier
        self.fn = fn
        if family == "custom":
            # the pair walk takes every range kernel to be odd with A(0) = 0;
            # a custom one is probed for it at t = 0 on 33 points of [-1, 1]
            probe = np.linspace(-1.0, 1.0, 33)
            a = np.broadcast_to(fn(0.0, probe), probe.shape)
            odd = float(np.max(np.abs(a + fn(0.0, -probe))))
            zero = abs(float(a[16]))  # probe[16] is 0.0
            if not (odd <= 1e-12 and zero <= 1e-12):
                raise ConfigurationError(
                    f"a custom range kernel must be odd with A(0) = 0: at t = 0 on [-1, 1], "
                    f"max |A(s) + A(-s)| = {odd:.3e} and |A(0)| = {zero:.3e}, against 1e-12; "
                    "an even window like exp(-s^2/h^2) fails here, s exp(-s^2/h^2) does not"
                )
        self.holder_alpha = float(holder_alpha)
        self.monotone = bool(monotone)
        # (table, reference, per-block PairExponents) of the last pair walk,
        # kept by nldiff.operator
        self.walk_cache = None

    @property
    def needs_pair_reference(self) -> bool:
        if self.family == "spatial_exponent":
            return True
        return self.family == "mollified" and self.base.needs_pair_reference

    def eval(self, t: float, s, pair_ref=None) -> np.ndarray:
        """Vectorized evaluation at value differences ``s``.

        ``pair_ref`` carries the reference-field differences, or their
        :class:`PairExponents`, for the spatial_exponent family and is
        ignored elsewhere.
        """
        return self.terms(t, s, pair_ref)[0]

    @property
    def has_energy(self) -> bool:
        """Whether :meth:`density` is an antiderivative of A in s, so the
        flow descends its energy; the mollified, variable_exponent and
        custom densities are only monitors."""
        return self.family in ("linear", "p_laplacian", "spatial_exponent", "bilateral_gaussian")

    def density(self, t: float, s, pair_ref=None, out=None):
        """The flow's energy density Phi at ``s``; see :meth:`terms`."""
        # A mollified kernel's density is its base's, so the quadrature A
        # is not needed for it.
        kernel = self.base if self.family == "mollified" else self
        return kernel.terms(t, s, pair_ref, True, out)[1]

    def terms(self, t: float, s, pair_ref=None, energy: bool = False, out=None):
        """(A, Phi) at value differences ``s`` from one evaluation, Phi
        only with ``energy`` (else None).

        Phi is the flow's energy density (see :mod:`nldiff.operator`):
        s A / q = |s|^q / q for the power families of exponent q,
        (h^2/2)(1 - g) for the bilateral family, whose A is s g with the
        same window g = exp(-(s/h)^2), the base's density for a mollified
        kernel, and the quadratic s^2/2 for variable_exponent and custom,
        which have no antiderivative in s alone.  ``pair_ref`` is as in
        :meth:`eval`.  ``out``, a pair of C-contiguous float64 arrays
        shaped like ``s`` (the second may be None without ``energy``),
        receives A and Phi in place of new arrays; the pair walk passes
        buffers it reuses from block to block.
        """
        s = np.asarray(s, dtype=np.float64)
        a, phi = (np.empty(s.shape), np.empty(s.shape) if energy else None) if out is None else out
        fam = self.family
        if fam == "bilateral_gaussian":
            g = _gaussian_window(s, self.h, a)
            if energy:
                np.multiply(0.5 * self.h * self.h, np.subtract(1.0, g, out=phi), out=phi)
            return np.multiply(s, g, out=a), phi
        if fam == "mollified":
            if energy:
                self.base.terms(t, s, pair_ref, True, (a, phi))
            return self._mollified(t, s, pair_ref, a), phi
        q = None
        if fam == "linear":
            np.copyto(a, s)
        elif fam == "custom":
            np.copyto(a, self.fn(t, s))
        elif fam == "p_laplacian":
            q = self.p
            _signed_power(s, q - 1.0, a)
        elif fam == "spatial_exponent":
            q = self.pair_exponents(pair_ref).q
            _signed_power(s, q - 1.0, a)
        else:  # variable_exponent
            p = np.interp(np.abs(s), self.exponent_sigmas, self.exponent_values)
            _signed_power(s, p - 1.0, a)
        if energy:
            if q is None:
                np.divide(np.multiply(s, s, out=phi), 2.0, out=phi)
            else:
                np.divide(np.multiply(s, a, out=phi), q, out=phi)
        return a, phi

    def pair_exponents(self, pair_ref) -> PairExponents:
        """The exponents q = table(|r(y) - r(x)|) of the pairs with reference
        differences ``pair_ref`` (a spatial_exponent kernel or one mollified
        from it), or ``pair_ref`` itself when it holds them already."""
        if self.family == "mollified":
            return self.base.pair_exponents(pair_ref)
        if isinstance(pair_ref, PairExponents):
            return pair_ref
        if pair_ref is None:
            raise ConfigurationError("spatial_exponent kernels need the reference differences")
        ref = np.abs(np.asarray(pair_ref, dtype=np.float64))
        return PairExponents(np.interp(ref, self.exponent_sigmas, self.exponent_values))

    def _mollified(self, t, s, pair_ref, out):
        """The base smoothed by midpoint quadrature, then antisymmetrized,
        written to ``out``.

        With V the base at s - nodes/n, one row per node and one column per
        value, the smoothed base is w . V at s and w . V(-s) at -s, and
        A = w . (V(s) - V(-s)) / 2 is odd with A(0) = 0 exactly in floating
        point.  The nodes are mirror images bit for bit and the weights
        even, so for a base that is odd bit for bit V(-s) is minus V(s)
        with its rows reversed, and the base is evaluated once per
        (s, node).  Row k folds onto row K-1-k, and the weighted folded rows and the middle row
        are summed in a fixed halving tree, with no BLAS, so a value's A
        does not depend on the other values of its call.  Values go in
        blocks of ``_MOLLIFY_BLOCK`` base evaluations.
        """
        m = self.mollifier
        half, rows = m.nodes.size // 2, (m.nodes.size + 1) // 2
        weights = m.weights[:rows, None]
        shift = (m.nodes / m.n)[:, None]
        flat = s.reshape(-1)
        q = None
        if self.needs_pair_reference:
            q = np.broadcast_to(self.pair_exponents(pair_ref).q, s.shape).reshape(-1)
        res = out.reshape(-1)
        step = max(1, _MOLLIFY_BLOCK // m.nodes.size)
        for lo in range(0, flat.size, step):
            cols = slice(lo, lo + step)
            pe = None if q is None else PairExponents(q[None, cols])
            v = self.base.eval(t, flat[None, cols] - shift, pe)
            v[:half] += v[::-1][:half]
            x = v[:rows]
            x *= weights
            n = rows
            while n > 1:
                top = n // 2
                x[:top] += x[n - top:n]
                n -= top
            res[cols] = x[0]
        return out


def _gaussian_window(s: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """exp(-(s/h)^2), computed in ``out``.  In place because every temporary
    the size of a walk block is a heap allocation that glibc may hand back
    and fault in again per block.  Minor page faults of a 128^2 denoise
    run: 98k with the plain expressions; 7k to 32k, with the heap layout,
    with this window in one new array per call; 5.7k in the pair walk's
    reused buffers."""
    z = np.divide(s, h, out=out)
    z *= z
    return np.exp(np.negative(z, out=z), out=z)


def _signed_power(s: np.ndarray, exponent, out: np.ndarray) -> np.ndarray:
    """sign(s) |s|^exponent, elementwise, for a scalar or array exponent,
    computed in ``out``.

    A scalar exponent e >= 1 is evaluated as s |s|^(e-1), without the sign
    pass and its temporary.  |s|^(e-1) is exact for e - 1 of 0 or 1, so
    p = 2 and p = 3 of the p_laplacian family give sign(s) |s|^e bit for
    bit but for the sign of a zero (below); numpy's ``**=`` takes its sqrt
    path for e - 1 = 0.5, so p = 2.5 is within 1 ulp of it; any other e
    rounds twice and is within 2 ulp.  Adding +0.0 turns the -0.0 of
    s = -0.0, or of a product that underflows, into +0.0.  An exponent
    below 1, or an array of them, keeps sign(s) |s|^e; the operator,
    unlike np.power, takes numpy's sqrt and square paths for a scalar
    exponent of 0.5 or 2.

    At s = 0 this is 0 for every e >= 0.  No kernel reaches s = 0 with a
    negative exponent: spatial_exponent tables stay above 1, and a
    variable exponent has p(0) - 1 >= 1 at s = 0, dropping below 0 only
    where |s| > 0.
    """
    mag = np.abs(s, out=out)
    if np.ndim(exponent) == 0 and exponent >= 1.0:
        mag **= exponent - 1.0
        np.multiply(s, mag, out=mag)
        mag += 0.0
        return mag
    mag **= exponent
    return np.multiply(np.sign(s), mag, out=mag)


def linear_kernel() -> RangeKernel:
    return RangeKernel("linear", holder_alpha=1.0, monotone=True)


def p_laplacian_kernel(p: float) -> RangeKernel:
    if not 1.0 < p < math.inf:
        raise ConfigurationError(f"p_laplacian exponent must be finite and exceed 1, got {p}")
    return RangeKernel("p_laplacian", p=float(p), holder_alpha=min(1.0, p - 1.0), monotone=True)


def _p_energy_kernel(p: float) -> RangeKernel:
    """The p_laplacian kernel of the p-energy, for any p >= 1; the energy
    of p = 1, the total variation, has no admissible kernel."""
    if not 1.0 <= p < math.inf:
        raise ConfigurationError(f"energy exponent must be finite and >= 1, got {p}")
    return RangeKernel("p_laplacian", p=float(p))


def _validated_exponent_table(sigmas, values):
    sig = np.asarray(sigmas, dtype=np.float64)
    val = np.asarray(values, dtype=np.float64)
    if sig.ndim != 1 or sig.shape != val.shape or sig.size < 2:
        raise ConfigurationError("exponent table needs matching 1-d arrays of length >= 2")
    if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(val))):
        raise ConfigurationError("exponent table entries must be finite")
    if sig[0] != 0.0 or np.any(np.diff(sig) <= 0.0):
        raise ConfigurationError("exponent abscissae must start at 0 and increase strictly")
    if np.any(np.diff(val) > 0.0):
        raise ConfigurationError("exponent function must be non-increasing")
    return sig, val


def variable_exponent_kernel(sigmas, values) -> RangeKernel:
    """Kernel |s|^(p(|s|)-2) s with a tabulated exponent function.

    The table is interpolated linearly and held constant past its last
    abscissa.  Admissibility requires p(0) > 2, or p(0) = 2 with the table
    strictly decreasing on its first segment; either keeps the derivative
    of A bounded near s = 0 even though the exponent may fall below one
    farther out.
    """
    sig, val = _validated_exponent_table(sigmas, values)
    p0 = val[0]
    if not (p0 > 2.0 or (p0 == 2.0 and val[1] < val[0])):
        raise ConfigurationError(
            "variable exponent needs p(0) > 2, or p(0) = 2 strictly decreasing at 0"
        )
    return RangeKernel(
        "variable_exponent",
        exponent_sigmas=sig,
        exponent_values=val,
        holder_alpha=1.0,
        monotone=False,
    )


def spatial_exponent_kernel(sigmas, values, reference: Field) -> RangeKernel:
    """Kernel |s|^(q-2) s with q set per node pair from a reference field.

    The exponent is the table evaluated at |r(y) - r(x)| where r is the
    reference field (typically the initial state), so each pair sees a
    fixed exponent and the kernel stays monotone in s as long as the table
    stays above one.
    """
    sig, val = _validated_exponent_table(sigmas, values)
    if not np.min(val) > 1.0:
        raise ConfigurationError("spatial exponent table must stay strictly above 1")
    return RangeKernel(
        "spatial_exponent",
        exponent_sigmas=sig,
        exponent_values=val,
        reference=reference,
        holder_alpha=min(1.0, float(np.min(val)) - 1.0),
        monotone=True,
    )


def bilateral_width(h: float) -> float:
    """The width h of a bilateral window, checked: positive, with h^2/2 a
    normal finite float, so that the energy scale h^2/2 is neither 0 nor
    infinite."""
    if not h > 0.0:
        raise ConfigurationError(f"bilateral width must be positive, got {h}")
    if not np.finfo(np.float64).tiny <= 0.5 * h * h < math.inf:
        raise ConfigurationError(f"bilateral width {h!r} is out of range: h^2/2 is not a normal float")
    return float(h)


def bilateral_kernel(h: float) -> RangeKernel:
    return RangeKernel("bilateral_gaussian", h=bilateral_width(h), holder_alpha=1.0, monotone=False)


def custom_kernel(fn) -> RangeKernel:
    """A range kernel A(t, s) = fn(t, s), declared neither monotone nor
    better than Lipschitz (Holder exponent 1).  A must be odd in s with
    A(0) = 0 at every t; only t = 0 is checked, on 33 points of [-1, 1],
    and a kernel that fails there raises :class:`ConfigurationError`."""
    return RangeKernel("custom", fn=fn)


def mollify_range_kernel(base: RangeKernel, n: int, quad_count: int = 129) -> RangeKernel:
    """Smooth a range kernel with the level-n mollifier.

    The returned kernel evaluates the convolution of the base with the
    unit-mass bump of support 1/n by midpoint quadrature on ``quad_count``
    panels, then antisymmetrizes, which keeps A(0) = 0 and oddness exact in
    floating point for a base that is odd bit for bit, as every built-in
    family is.  Monotonicity and the Holder constant survive
    mollification, so both declarations are inherited from the base.
    """
    if int(n) != n or n < 1:
        raise ConfigurationError(f"mollification level must be a positive integer, got {n}")
    # no finer than bump_mass's own quadrature; checked before any allocation
    if not 64 <= quad_count <= _BUMP_PANELS:
        raise ConfigurationError(
            f"mollifier quadrature needs 64 to {_BUMP_PANELS} panels, got {quad_count}"
        )
    if base.family == "mollified":
        raise ConfigurationError("refusing to mollify an already mollified kernel")
    nodes, weights = _mollifier_quadrature(int(quad_count))
    spec = MollifierSpec(n=int(n), quad_count=int(quad_count), nodes=nodes, weights=weights)
    return RangeKernel(
        "mollified",
        base=base,
        mollifier=spec,
        reference=base.reference,
        holder_alpha=base.holder_alpha,
        monotone=base.monotone,
    )


def eval_range_kernel(spec: RangeKernel, t: float, x: int, y: int, s: float) -> float:
    """Scalar evaluation at a node pair, resolving the pair reference."""
    pair_ref = None
    if spec.needs_pair_reference:
        if spec.reference is None:
            raise ConfigurationError("spatial_exponent kernel is missing its reference field")
        pair_ref = np.float64(spec.reference.values[y] - spec.reference.values[x])
    return float(spec.eval(t, np.asarray(float(s)), pair_ref))


# ---------------------------------------------------------------------------
# reactions


class Reaction:
    """Reaction term f(t, x, s); every built-in is autonomous and local.

    ``c_growth`` bounds |f| <= c_growth (1 + |s|) on the working range,
    [-2, 2] unless a table sets it, ``l_lipschitz`` bounds the slope there,
    and ``non_increasing`` declares monotone decay in s.  All three are
    derived from the family parameters.
    """

    def __init__(
        self,
        family: str,
        *,
        rate: float = 0.0,
        offset: float = 0.0,
        slope: float = 0.0,
        capacity: float = 1.0,
        table=None,
        working_range: tuple = (-2.0, 2.0),
    ):
        if family not in REACTION_FAMILIES:
            raise ConfigurationError(f"unknown reaction family {family!r}")
        self.family = family
        self.rate = float(rate)
        self.offset = float(offset)
        self.slope = float(slope)
        self.capacity = float(capacity)
        self.table = None
        if table is not None:
            ts = np.asarray(table[0], dtype=np.float64)
            tf = np.asarray(table[1], dtype=np.float64)
            if ts.ndim != 1 or ts.shape != tf.shape or ts.size < 2 or np.any(np.diff(ts) <= 0):
                raise ConfigurationError("reaction table needs strictly increasing abscissae")
            self.table = (ts, tf)
        lo, hi = working_range
        if not lo < hi:
            raise ConfigurationError("reaction working range is empty")
        self.working_range = (float(lo), float(hi))
        c, lip, mono = self._derive_constants()
        self.c_growth, self.l_lipschitz, self.non_increasing = float(c), float(lip), bool(mono)

    def _derive_constants(self):
        if self.family == "zero":
            return 0.0, 0.0, True
        if self.family == "linear_decay":
            return self.rate, self.rate, True
        if self.family == "affine":
            return max(self.offset, abs(self.slope)), abs(self.slope), self.slope <= 0.0
        grid = np.linspace(self.working_range[0], self.working_range[1], 4097)
        vals = self.eval(0.0, None, grid)
        c = float(np.max(np.abs(vals) / (1.0 + np.abs(grid))))
        slopes = np.diff(vals) / np.diff(grid)
        return c, float(np.max(np.abs(slopes))), bool(np.all(slopes <= 0.0))

    @property
    def is_zero(self) -> bool:
        return self.family == "zero"

    def eval(self, t: float, x, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        if self.family == "zero":
            return np.zeros_like(s)
        if self.family == "linear_decay":
            return -self.rate * s
        if self.family == "affine":
            return self.offset + self.slope * s
        if self.family == "logistic":
            return self.rate * s * (1.0 - s / self.capacity)
        return np.interp(s, self.table[0], self.table[1])


def zero_reaction() -> Reaction:
    return Reaction("zero")


def linear_decay_reaction(rate: float) -> Reaction:
    if not 0.0 <= rate < math.inf:
        raise ConfigurationError(f"decay rate must be finite and non-negative, got {rate}")
    return Reaction("linear_decay", rate=rate)


def affine_reaction(offset: float, slope: float) -> Reaction:
    if not 0.0 <= offset < math.inf:
        raise ConfigurationError(f"affine reaction offset must be finite and non-negative, got {offset}")
    if not math.isfinite(slope):
        raise ConfigurationError(f"affine reaction slope must be finite, got {slope}")
    return Reaction("affine", offset=offset, slope=slope)


def logistic_reaction(growth: float, capacity: float) -> Reaction:
    if not 0.0 <= growth < math.inf:
        raise ConfigurationError(f"logistic growth rate must be finite and non-negative, got {growth}")
    if not capacity > 0.0:
        raise ConfigurationError(f"logistic capacity must be positive, got {capacity}")
    return Reaction("logistic", rate=growth, capacity=capacity)


def custom_table_reaction(s_values, f_values) -> Reaction:
    """Linear interpolation in a table, whose abscissae span the working range."""
    ts = np.asarray(s_values, dtype=np.float64)
    # Reaction refuses a malformed table before it reads the working range
    working_range = (float(ts[0]), float(ts[-1])) if ts.ndim == 1 and ts.size else None
    return Reaction("custom_table", table=(s_values, f_values), working_range=working_range)


# ---------------------------------------------------------------------------
# sampled constants

# Draws per constant sampler, and per range-kernel check of
# validate_assumptions.
_SAMPLES = 4096
_VALIDATE_SAMPLES = 256
# The growth and slope samplers skip |s| below _EXCLUDE: for p_laplacian
# kernels with p < 2 the ratio diverges at the origin, so the value they
# return is a statement about the sampled window only, and such kernels
# should run with the manual or certificate mu modes.
_EXCLUDE = 1e-8


def _sample_points(radius: float, rng: np.random.Generator):
    lin = rng.uniform(-radius, radius, size=_SAMPLES // 2)
    mags = np.exp(rng.uniform(np.log(_EXCLUDE), np.log(radius), size=_SAMPLES - _SAMPLES // 2))
    signs = rng.choice([-1.0, 1.0], size=mags.shape)
    pts = np.concatenate([lin, signs * mags])
    return pts[np.abs(pts) >= _EXCLUDE]


def _eval_for_constants(kernel: RangeKernel, rng: np.random.Generator, radius: float, *batches):
    """Evaluate aligned sample batches, sharing one reference draw across them.

    A node pair carries a single reference value, so the two points of a
    difference-quotient pair must see the same reference; drawing fresh
    references per batch would charge the slope samplers for reference
    variation that never happens inside a step.
    """
    if kernel.needs_pair_reference:
        pair_ref = rng.uniform(-radius, radius, size=batches[0].shape)
    else:
        pair_ref = None
    out = [kernel.eval(0.0, s, pair_ref) for s in batches]
    return out[0] if len(out) == 1 else out


def sample_growth_constant(kernel: RangeKernel, radius: float, rng: np.random.Generator) -> float:
    """Largest sampled |A(s)| / |s| on [-radius, radius], over 4096 draws
    with |s| >= 1e-8."""
    pts = _sample_points(radius, rng)
    vals = _eval_for_constants(kernel, rng, radius, pts)
    return float(np.max(np.abs(vals) / np.abs(pts)))


def sample_lipschitz_constant(kernel: RangeKernel, radius: float, rng: np.random.Generator) -> float:
    """Largest sampled difference quotient |A(s1)-A(s2)| / |s1-s2|.

    Mixes 4096 tight pairs (spread 1e-6), so that local slopes show up,
    with 4096 wide random pairs on [-radius, radius]; pairs with a point
    inside |s| < 1e-8 are dropped, as in :func:`sample_growth_constant`.
    """
    base = _sample_points(radius, rng)
    tight = base + 1e-6 * rng.uniform(0.5, 1.5, size=base.shape)
    wide = _sample_points(radius, rng)
    s1 = np.concatenate([base, base])
    s2 = np.concatenate([tight, wide])
    keep = (np.abs(s1) >= _EXCLUDE) & (np.abs(s2) >= _EXCLUDE) & (s1 != s2)
    s1, s2 = s1[keep], s2[keep]
    if kernel.needs_pair_reference:
        # each pair draws its own reference, so the two copies of base differ
        v1, v2 = _eval_for_constants(kernel, rng, radius, s1, s2)
    else:
        v = kernel.eval(0.0, base)
        v1, v2 = np.concatenate([v, v])[keep], kernel.eval(0.0, s2)
    return float(np.max(np.abs(v1 - v2) / np.abs(s1 - s2)))


def sample_holder_constant(
    kernel: RangeKernel, alpha: float, radius: float, rng: np.random.Generator
) -> float:
    """Largest sampled |A(s1)-A(s2)| / |s1-s2|^alpha on [-radius, radius],
    over 4096 random pairs and 1024 mirror pairs (s, -s)."""
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"Holder exponent must lie in (0, 1], got {alpha}")
    s1 = rng.uniform(-radius, radius, size=_SAMPLES)
    s2 = rng.uniform(-radius, radius, size=_SAMPLES)
    mirror = rng.uniform(-radius, radius, size=_SAMPLES // 4)
    s1 = np.concatenate([s1, mirror])
    s2 = np.concatenate([s2, -mirror])
    keep = s1 != s2
    s1, s2 = s1[keep], s2[keep]
    v1, v2 = _eval_for_constants(kernel, rng, radius, s1, s2)
    return float(np.max(np.abs(v1 - v2) / np.abs(s1 - s2) ** alpha))


# ---------------------------------------------------------------------------
# assumption validation


@dataclass(frozen=True)
class Check:
    """One verified inequality: measured value against its threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        line = f"[{mark}] {self.name}: measured {self.measured:.6e} vs threshold {self.threshold:.6e}"
        return line + (f" ({self.note})" if self.note else "")


@dataclass
class RunReport:
    """Named checks with their measured values and thresholds, plus the
    constants and series behind them; written by :func:`validate_assumptions`
    and by the studies in :mod:`nldiff.analysis`."""

    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, measured: float, threshold: float, note: str = ""):
        self.checks.append(Check(name, bool(passed), float(measured), float(threshold), note))

    def to_text(self) -> str:
        lines = [str(c) for c in self.checks]
        for k in sorted(self.constants):
            lines.append(f"constant {k} = {self.constants[k]!r}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["check,name,pass,measured,threshold"]
        for c in self.checks:
            rows.append(
                f"check,{c.name},{1 if c.passed else 0},{c.measured:.17g},{c.threshold:.17g}"
            )
        return "\n".join(rows) + "\n"


def validate_assumptions(
    table: SpatialKernelTable,
    kernel: RangeKernel,
    reaction: Reaction,
    u0: Field,
    *,
    seed: int = 42,
) -> RunReport:
    """Check the structural hypotheses the well-posedness theory needs.

    Everything is reported; nothing raises.  The checks cover the spatial
    kernel (non-negative weights, unit discrete mass; evenness bit for bit
    is enforced when the table is built), the range kernel (A(0) = 0,
    oddness, the sign condition A(s) s >= 0, symmetry in the node pair,
    and monotonicity when declared), the reaction (f(t, x, 0) >= 0 and the
    declared growth bound), and non-negativity of the initial state.  Each
    goes into the returned :class:`RunReport` with its measured value and
    threshold.  The range kernel is sampled at 256 random points and
    0 and the ends of its window, with a dedicated generator seeded by
    ``seed`` so reports are reproducible.
    """
    rng = np.random.default_rng(seed)
    rep = RunReport()

    # spatial kernel
    neg = np.flatnonzero(table.weights < 0.0)
    rep.add("spatial kernel non-negativity", neg.size == 0, neg.size, 0.0,
            "" if neg.size == 0 else f"negative weights at table rows {neg[:8].tolist()}")
    mass = table.discrete_mass()
    rep.add("spatial kernel unit mass", abs(mass - 1.0) <= 1e-10, abs(mass - 1.0), 1e-10,
            f"discrete mass {mass!r}")

    # range kernel, sampled on a window scaled to the data
    radius = 2.0 * max(1.0, float(np.max(np.abs(u0.values))))
    s = np.concatenate([rng.uniform(-radius, radius, size=_VALIDATE_SAMPLES), [0.0, radius, -radius]])
    pair_ref = None
    if kernel.needs_pair_reference:
        idx = rng.integers(0, u0.grid.node_count, size=(s.size, 2))
        pair_ref = kernel.reference.values[idx[:, 1]] - kernel.reference.values[idx[:, 0]]
    a_pos = kernel.eval(0.0, s, pair_ref)
    a_neg = kernel.eval(0.0, -s, pair_ref)

    zero_val = float(np.abs(kernel.eval(0.0, np.zeros(1), np.zeros(1) if kernel.needs_pair_reference else None))[0])
    rep.add("range kernel vanishes at 0", zero_val <= 1e-12, zero_val, 1e-12, f"|A(0)| = {zero_val:.3e}")

    odd_defect = float(np.max(np.abs(a_pos + a_neg)))
    odd_thr = 1e-10 * max(1.0, float(np.max(np.abs(a_pos))))
    rep.add("range kernel oddness", odd_defect <= odd_thr, odd_defect, odd_thr,
            f"max |A(s) + A(-s)| = {odd_defect:.3e}")

    sign_defect = float(np.min(a_pos * s))
    rep.add("range kernel sign condition", sign_defect >= -1e-12, sign_defect, -1e-12,
            f"min A(s) s = {sign_defect:.3e}")

    if kernel.needs_pair_reference:
        swapped = kernel.eval(0.0, s, -np.asarray(pair_ref))
        pair_defect = float(np.max(np.abs(a_pos - swapped)))
    else:
        pair_defect = 0.0
    rep.add("range kernel pair symmetry", pair_defect <= 1e-12, pair_defect, 1e-12,
            f"max |A(x,y,s) - A(y,x,s)| = {pair_defect:.3e}")

    if kernel.monotone:
        sorted_s = np.sort(s)
        vals = kernel.eval(0.0, sorted_s, np.zeros_like(sorted_s) if kernel.needs_pair_reference else None)
        defect = float(np.min(np.diff(vals)))
        rep.add("range kernel monotonicity", defect >= -1e-12, defect, -1e-12,
                f"min sampled increment {defect:.3e}")

    # reaction
    f0 = reaction.eval(0.0, None, np.zeros(1))[0]
    rep.add("reaction non-negative at 0", f0 >= 0.0, f0, 0.0, f"f(0) = {f0!r}")
    lo, hi = reaction.working_range
    sg = np.linspace(lo, hi, 1025)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(reaction.eval(0.0, None, sg)) - reaction.c_growth * (1.0 + np.abs(sg))
    # where |f| and the bound both overflow, NaN: not certified, so +inf;
    # where only the bound does, -inf: the most negative float
    excess = float(np.max(np.nan_to_num(gap, nan=np.inf, posinf=np.inf)))
    growth_thr = 1e-12 * max(1.0, reaction.c_growth)
    rep.add("reaction growth bound", excess <= growth_thr, excess, growth_thr,
            f"max |f| - C(1+|s|) = {excess:.3e} on [{lo}, {hi}]")

    # initial state
    min_idx = int(np.argmin(u0.values))
    min_val = float(u0.values[min_idx])
    rep.add("initial state non-negativity", min_val >= 0.0, min_val, 0.0,
            f"min {min_val!r} at node {min_idx}")
    return rep
