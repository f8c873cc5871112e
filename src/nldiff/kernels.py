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

import functools
import math
from collections import Counter
from collections.abc import Sized
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, KernelValidationError, _real, _reals, _whole
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
    """A spatial kernel sampled on integer node offsets.

    ``offsets`` has shape (K, dim) and ``weights`` shape (K,).  Entries are
    sorted lexicographically by offset, which fixes the evaluation order of
    every loop that walks the table and so keeps runs reproducible.
    ``normalization`` records the constant the raw samples were divided by
    to reach a unit discrete integral.  ``zero_weight`` is the weight of
    d = 0, which couples a node with itself and so carries no flux of an
    odd kernel; the one-step filter still counts it.  The table holds no
    walk: :class:`nldiff.operator._Walk` cuts its offsets into blocks.  A
    table that is not even, offsets and weights bit for bit, raises
    :class:`KernelValidationError`.
    """

    grid: Grid
    radius: float
    offsets: np.ndarray
    weights: np.ndarray
    normalization: float
    zero_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets = _int64_offsets(self.offsets)
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
        object.__setattr__(self, "zero_weight", sum(weights[~offsets.any(axis=1)].tolist(), 0.0))

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


def _pair_counts(grid: Grid, offsets: np.ndarray) -> list:
    """Per offset d, the number of nodes x of the grid with x + d on it:
    the ordered pairs the offset couples."""
    return [math.prod(max(0, c - abs(a)) for c, a in zip(grid.counts, d)) for d in offsets.tolist()]


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
    with np.errstate(over="ignore"):  # inf on wide grids: beyond every radius a table keeps
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
        radius = _real(radius, "kernel radius", lambda r: 0.0 < r < math.inf, "be positive and finite")
        r = min(radius, _FLAT_RADIUS)
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
        cand = _int64_offsets(table[0])
        raw = _reals(table[1], "kernel table weights")
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
    with np.errstate(over="ignore"):
        normalization = grid.node_volume * float(np.sum(raw))
    if not 0.0 < normalization < math.inf:
        raise ConfigurationError(f"spatial kernel discrete mass {normalization} is not positive and finite")
    return SpatialKernelTable(
        grid=grid,
        radius=float(radius),
        offsets=cand,
        weights=raw / normalization,
        normalization=normalization,
    )


OFFSET_LIMIT = 2**63 - 1  # int64 holds the negation of every offset up to this


def _int64_offsets(offsets) -> np.ndarray:
    """``offsets`` as a 2-D int64 array; rows not as long as the first and
    offsets not whole in +-OFFSET_LIMIT (-2^63 negates to itself in int64)
    raise :class:`KernelValidationError` naming them; an int array is checked whole."""
    try:
        arr = np.atleast_2d(np.asarray(offsets))
    except ValueError:  # rows of different lengths, or not all sequences
        size = [len(r) if isinstance(r, Sized) else None for r in offsets]
        bad = [r if n is None else tuple(r) for r, n in zip(offsets, size) if n != size[0]]
        raise KernelValidationError(f"kernel table offset rows must all be as long as the first; "
                                    f"offending offsets {bad}", offenders=bad) from None
    if arr.dtype.kind == "i" and not np.any(arr < -OFFSET_LIMIT):
        return arr.astype(np.int64, copy=False)
    rows = arr.tolist()
    whole = [[_offset(c) for c in r] for r in rows]
    bad = [tuple(r) for r, w in zip(rows, whole) if None in w]
    if bad:
        raise KernelValidationError(f"kernel table offsets must be whole numbers in [-(2^63 - 1), 2^63 - 1]; "
                                    f"offending offsets {bad}", offenders=bad)
    return np.array(whole, dtype=np.int64)


def _offset(c):
    """``c`` as an int, or None unless it is a whole number in +-OFFSET_LIMIT."""
    try:
        c = _whole(c, "offset")
    except ConfigurationError:
        return None
    return c if abs(c) <= OFFSET_LIMIT else None


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


@functools.cache
def bump_mass() -> float:
    """Integral of the unnormalized bump over (-1, 1).

    Midpoint rule with a fixed fine panel count; the integrand is smooth and
    flat to all orders at the endpoints, so this converges far past float64
    resolution.
    """
    mid, h = _bump_quadrature(_BUMP_PANELS)
    return h * float(np.sum(bump_profile(mid)))


def mollifier_moment(alpha: float) -> float:
    """Integral of the unit-mass bump times |s|^alpha over (-1, 1)."""
    return _moment(float(alpha))  # so that 1 and 1.0 share one cache entry


@functools.cache
def _moment(alpha: float) -> float:
    mid, h = _bump_quadrature(_BUMP_PANELS)
    return h * float(np.sum(bump_profile(mid) * np.abs(mid) ** alpha)) / bump_mass()


def mollifier_density(n: int, s) -> np.ndarray:
    """The unit-mass mollifier at level n: n * bump(n s) / bump mass."""
    return n * bump_profile(np.asarray(s) * n) / bump_mass()


# Base evaluations per block of a mollified evaluation (nodes x values):
# 153 values at 257 nodes, 304 at 129.  A call allocates the block's two
# buffers, 630 kB, once; glibc maps them anew until a free raises its mmap
# threshold (`study cauchy`: about 90 page faults more than buffers kept
# for a whole walk, and no time told from noise).  Median us per call on a
# 2-core x86 machine, numpy 2.4, one CPU, p = 1.5 at level 32, by the values of
# the call (259 in validation, 306 per walk apply of
# configs/mollifier_cauchy.cfg, 1,275 on a mollified heat_1d, about 4k and
# 8k in the Lipschitz sampler) and the block width W:
#
#   nodes   W     259    306   1275   4096   8192   apply with energy
#   257     63    227    257   1034   3259   6544   269
#   257    128    200    236    916   2890   5806   251
#   257    153    199    217    906   2851   5800   232
#   257    256    199    238    913   2845   5746   252
#   257    306    213    225    963   2963   5990   242
#   129    153    108    119    504   1583   3167   131
#   129    304    102    118    442   1432   2835   130
#
# From 128 to 256 values all but the apply are within 3%; the apply favours
# 153, which cuts its 306 values into full blocks (a narrower last block
# reads the shifts and scales with a row stride).
_MOLLIFY_BLOCK = 153 * 257


@dataclass(frozen=True)
class MollifierSpec:
    """Quadrature data for one mollification level.

    ``nodes`` are midpoints on (-1, 1) in the rescaled variable, mirror
    images bit for bit, and ``weights`` are bump samples normalized to sum
    exactly to one, so smoothing an affine kernel reproduces it to
    round-off.  The rest is built here, read-only, for the mollified
    evaluation, as wide as one of its blocks of values
    (``_MOLLIFY_BLOCK``): ``shifts``, nodes/n, and ``scales``, the weights
    of the first (K + 1) // 2 nodes, each repeated along a row.  Their rows
    go in the evaluation's node order: the first half of the nodes and the
    middle one, then the mirrors of the first half, the last node first.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    shifts: np.ndarray = field(init=False, repr=False, compare=False)
    scales: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.nodes.size
        rows = (k + 1) // 2
        width = max(1, _MOLLIFY_BLOCK // k)
        order = np.concatenate([np.arange(rows), np.arange(k - 1, rows - 1, -1)])
        shifts = np.repeat((self.nodes[order] / self.n)[:, None], width, axis=1)
        scales = np.repeat(self.weights[:rows, None], width, axis=1)
        shifts.setflags(write=False)
        scales.setflags(write=False)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "scales", scales)


def _mollifier_quadrature(quad_count: int):
    # The midpoints, built from the right half so that they are mirror
    # images bit for bit; the mollified evaluation relies on it.
    h = 2.0 / quad_count
    half = 1.0 - h * (np.arange(quad_count // 2) + 0.5)
    nodes = np.concatenate([-half, np.zeros(quad_count % 2), half[::-1]])
    w = bump_profile(nodes)
    return nodes, w / np.sum(w)


# ---------------------------------------------------------------------------
# range kernels


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
        if family == "mollified":  # mollification keeps the reference and both declarations
            reference, holder_alpha, monotone = base.reference, base.holder_alpha, base.monotone
        if family == "spatial_exponent" and not isinstance(reference, Field):
            raise ConfigurationError(f"a spatial_exponent kernel needs a reference Field, "
                                     f"got {type(reference).__name__}")
        self.family = family
        self.p = p
        self.h = h
        self.exponent_sigmas, self.exponent_values = exponent_sigmas, exponent_values
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

    @property
    def needs_pair_reference(self) -> bool:
        if self.family == "spatial_exponent":
            return True
        return self.family == "mollified" and self.base.needs_pair_reference

    def eval(self, t: float, s, pair_ref=None) -> np.ndarray:
        """Vectorized evaluation at value differences ``s``; ``pair_ref`` holds
        the pairs' reference differences where :attr:`needs_pair_reference`."""
        q = self.pair_exponents(pair_ref) if self.needs_pair_reference else None
        return self.terms(t, s, q)[0]

    @property
    def has_energy(self) -> bool:
        """Whether the density Phi of :meth:`terms` is an antiderivative of
        A in s, so the flow descends its energy; the mollified,
        variable_exponent and custom densities are only monitors."""
        return self.family in ("linear", "p_laplacian", "spatial_exponent", "bilateral_gaussian")

    @property
    def flux_exponent(self) -> float | None:
        """The one scalar q with Phi = s A / q: 2 for the linear family, p
        for p_laplacian, else None.  Where there is one, the pair walk sums
        the density s A from its weighted flux and never calls
        :meth:`terms` for it (see :mod:`nldiff.operator`)."""
        fam = self.family
        return 2.0 if fam == "linear" else self.p if fam == "p_laplacian" else None

    def energy_sum(self, total: float) -> float:
        """sum(w Phi) from ``total``, a sum of w D (:meth:`terms`): over the
        :attr:`flux_exponent` q, times h^2/2 for bilateral, the base's for mollified."""
        if self.family == "mollified":
            return self.base.energy_sum(total)
        if self.family == "bilateral_gaussian":
            return 0.5 * self.h * self.h * total
        q = self.flux_exponent
        return total if q is None else total / q

    def terms(self, t: float, s, q=None, energy: bool = False, out=None):
        """(A, D) at value differences ``s`` from one evaluation, D only
        with ``energy`` (else None).

        D is the energy density Phi less the scale :meth:`energy_sum` puts
        on its sums: s A, with Phi = s A / q, where there is a
        :attr:`flux_exponent` q (|s|^p for p_laplacian, s^2 for linear);
        1 - g, with Phi = (h^2/2)(1 - g), for the bilateral family, whose A
        is s g with the same window g = exp(-(s/h)^2); the base's for a
        mollified kernel; else Phi itself: |s|^q / q with the per-pair q of
        spatial_exponent, and the quadratic s^2/2 for variable_exponent and
        custom, which have no closed-form antiderivative.  D is +0.0 where
        s is.  ``q``, the pairs' :meth:`pair_exponents`, is read where
        :attr:`needs_pair_reference`.  ``out``, a pair of C-contiguous float64
        arrays shaped like ``s`` (the second may be None without ``energy``),
        receives A and D in place of new arrays; the pair walk passes buffers
        it reuses from block to block.
        """
        s = np.asarray(s, dtype=np.float64)
        a, phi = (np.empty(s.shape), np.empty(s.shape) if energy else None) if out is None else out
        fam = self.family
        if fam == "bilateral_gaussian":
            g = _gaussian_window(s, self.h, a)
            if energy:
                np.subtract(1.0, g, out=phi)
            return np.multiply(s, g, out=a), phi
        if fam == "mollified":
            if energy:
                self.base.terms(t, s, q, True, (a, phi))
            return self._mollified(t, s, q, a), phi
        if fam != "spatial_exponent":
            q = self.flux_exponent
        elif q is None:
            raise ConfigurationError("spatial_exponent kernels need the pair exponents")
        if fam == "linear":
            np.copyto(a, s)
        elif fam == "custom":
            np.copyto(a, self.fn(t, s))
        elif fam in ("p_laplacian", "spatial_exponent"):
            _signed_power(s, q - 1.0, a)
        else:  # variable_exponent
            p = np.interp(np.abs(s), self.exponent_sigmas, self.exponent_values)
            _signed_power(s, p - 1.0, a)
        if energy:
            if q is None:
                np.divide(np.multiply(s, s, out=phi), 2.0, out=phi)
            else:
                np.multiply(s, a, out=phi)
                if fam == "spatial_exponent":  # q per pair: no scale for energy_sum
                    phi /= q
        return a, phi

    def pair_exponents(self, pair_ref) -> np.ndarray:
        """The exponents q = table(|r(y) - r(x)|) of the pairs with reference
        differences ``pair_ref`` (a spatial_exponent kernel or one mollified
        from it)."""
        if self.family == "mollified":
            return self.base.pair_exponents(pair_ref)
        if pair_ref is None:
            raise ConfigurationError("spatial_exponent kernels need the reference differences")
        ref = np.abs(np.asarray(pair_ref, dtype=np.float64))
        return np.interp(ref, self.exponent_sigmas, self.exponent_values)

    def _mollified(self, t, s, q, out):
        """The base smoothed by midpoint quadrature, then antisymmetrized,
        written to ``out``.

        With V the base at s - nodes/n, one row per node and one column per
        value, the smoothed base is w . V at s and w . V(-s) at -s, and
        A = w . (V(s) - V(-s)) / 2 is odd with A(0) = 0 exactly in floating
        point.  The nodes are mirror images bit for bit and the weights
        even, so for a base that is odd bit for bit V(-s) is minus V(s)
        with its rows reversed, and the base is evaluated once per
        (s, node).  The rows go in the spec's order, the first half and the
        middle node, then the mirrors of the first half, so row k folds
        onto row K-1-k as one contiguous range onto another; the weighted
        folded rows and the middle row are summed in a fixed halving tree,
        with no BLAS, so a value's A does not depend on the other values of
        its call.  Values go in blocks as wide as the spec's shifts, the
        last one narrower.  A block subtracts the shifts into the first of
        two buffers and evaluates the base from there into the second,
        where it is folded, weighted and summed; the call allocates the
        two once and every block reuses them.
        """
        m = self.mollifier
        k, step = m.shifts.shape
        half, rows = k // 2, (k + 1) // 2
        flat, res = s.reshape(-1), out.reshape(-1)
        if q is not None:
            q = np.broadcast_to(q, s.shape).reshape(-1)
        work = np.empty((2, k * min(step, flat.size)))
        for lo in range(0, flat.size, step):
            cols = slice(lo, lo + step)
            width = min(step, flat.size - lo)
            d, v = (buf[: k * width].reshape(k, width) for buf in work)
            np.subtract(flat[None, cols], m.shifts[:, :width], out=d)
            self.base.terms(t, d, None if q is None else q[None, cols], out=(v, None))
            x = v[:rows]
            x[:half] += v[rows:]
            x *= m.scales[:, :width]
            n = rows
            while n > 1:
                top = n // 2
                x[:top] += x[n - top:n]
                n -= top
            res[cols] = x[0]
        return out


_TINY = float(np.finfo(np.float64).tiny)


def _gaussian_window(s: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """exp(-(s/h)^2) in ``out``, as exp((s c) s) with c = -1/h/h: two
    products and the exp, no division.  Above h = 2^511 c is subnormal and
    would carry up to 4 eps of relative error into the exponent, so there
    the exponent is ((s (-1/h)) s) (1/h), a third product with normal
    factors.  In place because a temporary the size of a walk block is a
    heap allocation glibc may hand back and fault in again per block (a
    128^2 denoise run: 98k minor page faults with the plain expressions,
    5.7k in the pair walk's reused buffers)."""
    c = -1.0 / h / h
    if -c >= _TINY:
        z = np.multiply(s, c, out=out)
        z *= s
    else:
        z = np.multiply(s, -1.0 / h, out=out)
        z *= s
        z *= 1.0 / h
    return np.exp(z, out=z)


def _signed_power(s: np.ndarray, exponent, out: np.ndarray) -> np.ndarray:
    """sign(s) |s|^exponent, elementwise, for a scalar or array exponent,
    computed in ``out``.

    A scalar exponent e >= 1 is evaluated as s |s|^(e-1), without the sign
    pass and its temporary.  |s|^(e-1) is exact for e - 1 of 0 or 1, so
    p = 2 and p = 3 of the p_laplacian family give sign(s) |s|^e bit for
    bit but for the sign of a zero (below); numpy's ``**=`` takes its sqrt
    path for e - 1 = 0.5, so p = 2.5 is within 1 ulp of it; any other e
    rounds twice and is within 2 ulp.  Adding +0.0 turns the -0.0 of
    s = -0.0, or of a product that underflows, into +0.0.  A scalar
    exponent 0 < e < 1 copies the sign of s onto |s|^e and adds +0.0,
    which is sign(s) |s|^e bit for bit (+-0, subnormals, +-inf and NaN
    included) without sign(s)'s temporary.  e = 0, a negative e and an
    array of exponents keep sign(s) |s|^e: at e = 0 the copied sign would
    give +-1 at s = +-0, where sign(s) gives +0.0.  The operator, unlike
    np.power, takes numpy's sqrt and square paths for a scalar exponent
    of 0.5 or 2.

    At s = 0 this is 0 for every e >= 0.  No kernel reaches s = 0 with a
    negative exponent: spatial_exponent tables stay above 1, and a
    variable exponent has p(0) - 1 >= 1 at s = 0, dropping below 0 only
    where |s| > 0.
    """
    mag = np.abs(s, out=out)
    scalar = np.isscalar(exponent)
    if scalar and exponent >= 1.0:
        mag **= exponent - 1.0
        np.multiply(s, mag, out=mag)
        mag += 0.0
        return mag
    mag **= exponent
    if scalar and exponent > 0.0:
        np.copysign(mag, s, out=mag)
        mag += 0.0
        return mag
    return np.multiply(np.sign(s), mag, out=mag)


def linear_kernel() -> RangeKernel:
    return RangeKernel("linear", holder_alpha=1.0, monotone=True)


def p_laplacian_kernel(p: float) -> RangeKernel:
    p = _real(p, "p_laplacian exponent", lambda p: 1.0 < p < math.inf, "be finite and exceed 1")
    return RangeKernel("p_laplacian", p=p, holder_alpha=min(1.0, p - 1.0), monotone=True)


def _p_energy_kernel(p: float) -> RangeKernel:
    """The p_laplacian kernel of the p-energy, for any p >= 1; the energy
    of p = 1, the total variation, has no admissible kernel."""
    p = _real(p, "energy exponent", lambda p: 1.0 <= p < math.inf, "be finite and >= 1")
    return RangeKernel("p_laplacian", p=p)


def _validated_exponent_table(sigmas, values):
    sig, val = _reals(sigmas, "exponent table abscissae"), _reals(values, "exponent table values")
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
    """The width h of a bilateral window, checked: positive, with the energy
    scale h^2/2 a normal finite float, neither 0 nor infinite."""
    h = _real(h, "bilateral width", lambda h: h > 0.0, "be positive")
    if not _TINY <= 0.5 * h * h < math.inf:
        raise ConfigurationError(f"bilateral width {h!r} is out of range: h^2/2 is not a normal float")
    return h


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
    mollification, so both declarations are inherited from the base.  A
    level or panel count that is not a whole number raises
    :class:`ConfigurationError` naming it.
    """
    n = _whole(n, "mollification level", 1)
    # no finer than bump_mass's own quadrature; checked before any allocation
    quad_count = _whole(quad_count, "mollifier quadrature panel count")
    if not 64 <= quad_count <= _BUMP_PANELS:
        raise ConfigurationError(
            f"mollifier quadrature needs 64 to {_BUMP_PANELS} panels, got {quad_count}"
        )
    if base.family == "mollified":
        raise ConfigurationError("refusing to mollify an already mollified kernel")
    nodes, weights = _mollifier_quadrature(quad_count)
    spec = MollifierSpec(n=n, nodes=nodes, weights=weights)
    return RangeKernel("mollified", base=base, mollifier=spec)


def eval_range_kernel(spec: RangeKernel, t: float, x: int, y: int, s: float) -> float:
    """Scalar evaluation at a node pair, resolving the pair reference."""
    pair_ref = None
    if spec.needs_pair_reference:
        pair_ref = spec.reference.values[y] - spec.reference.values[x]
    return float(spec.eval(t, np.asarray(float(s)), pair_ref))


# ---------------------------------------------------------------------------
# reactions


class Reaction:
    """Reaction term f(t, x, s); every built-in is autonomous and local.

    ``c_growth`` bounds |f| <= c_growth (1 + |s|) on ``working_range``,
    derived: a table's span (its abscissae strictly increasing, no NaN),
    else [-2, 2].  ``l_lipschitz`` bounds the slope there, ``non_increasing``
    declares monotone decay in s; all three come from the family parameters.
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
    ):
        if family not in REACTION_FAMILIES:
            raise ConfigurationError(f"unknown reaction family {family!r}")
        self.family = family
        self.rate = float(rate)
        self.offset = float(offset)
        self.slope = float(slope)
        self.capacity = float(capacity)
        self.table, self.working_range = None, (-2.0, 2.0)
        if table is not None:
            ts, tf = _reals(table[0], "reaction table abscissae"), _reals(table[1], "reaction table values")
            if ts.ndim != 1 or ts.shape != tf.shape or ts.size < 2 or not np.all(ts[1:] > ts[:-1]):
                raise ConfigurationError("reaction table needs strictly increasing abscissae")
            self.table, self.working_range = (ts, tf), (float(ts[0]), float(ts[-1]))
        c, lip, mono = self._derive_constants()
        self.c_growth, self.l_lipschitz, self.non_increasing = float(c), float(lip), bool(mono)

    def _derive_constants(self):
        if self.family == "zero":
            return 0.0, 0.0, True
        if self.family == "linear_decay":
            return self.rate, self.rate, True
        if self.family == "affine":
            return max(self.offset, abs(self.slope)), abs(self.slope), self.slope <= 0.0
        with np.errstate(all="ignore"):  # beyond float64 the constants are inf or nan: refused below
            grid = np.linspace(self.working_range[0], self.working_range[1], 4097)
            vals = self.eval(0.0, None, grid)
            c = float(np.max(np.abs(vals) / (1.0 + np.abs(grid))))
            slopes = np.diff(vals) / np.diff(grid)
            lip = float(np.max(np.abs(slopes)))
        if not (math.isfinite(c) and math.isfinite(lip)):
            raise ConfigurationError(f"{self.family} reaction has no finite growth and Lipschitz constants "
                                     f"on {self.working_range}: got {c} and {lip}")
        return c, lip, bool(np.all(slopes <= 0.0))

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


_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "be finite and non-negative")


def linear_decay_reaction(rate: float) -> Reaction:
    return Reaction("linear_decay", rate=_real(rate, "decay rate", *_NON_NEGATIVE))


def affine_reaction(offset: float, slope: float) -> Reaction:
    offset = _real(offset, "affine reaction offset", *_NON_NEGATIVE)
    slope = _real(slope, "affine reaction slope", math.isfinite, "be finite")
    return Reaction("affine", offset=offset, slope=slope)


def logistic_reaction(growth: float, capacity: float) -> Reaction:
    growth = _real(growth, "logistic growth rate", *_NON_NEGATIVE)
    capacity = _real(capacity, "logistic capacity", lambda c: c > 0.0, "be positive")
    return Reaction("logistic", rate=growth, capacity=capacity)


def custom_table_reaction(s_values, f_values) -> Reaction:
    """Linear interpolation in a table, whose abscissae span the working range."""
    return Reaction("custom_table", table=(s_values, f_values))


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
    alpha = _real(alpha, "Holder exponent", lambda a: 0.0 < a <= 1.0, "lie in (0, 1]")
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

    Everything is reported; only a ``seed`` that is not a whole number
    >= 0 raises (:class:`ConfigurationError`).  The checks cover the spatial
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
    rng = np.random.default_rng(_whole(seed, "seed", 0))
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

    with np.errstate(over="ignore"):  # an overflow keeps its sign, so the verdict stands
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
