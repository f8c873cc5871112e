"""The nonlocal diffusion operator and its energies.

For a state u the operator at node x is

    (L u)(x) = node_volume * sum_d  w(d) A(t, x, x+d, u(x+d) - u(x))

with the sum over the kernel table's offsets d, clipped at the boundary:
pairs that leave the grid are simply dropped, which is the discrete form
of integrating over the domain only and gives the flow its no-flux
character.

The spatial kernel is even, w(-d) = w(d), and every range kernel is odd
in s and symmetric in the node pair (a ``custom`` one is refused at
construction unless it is odd with A(0) = 0 at t = 0), so the pair
(x, x + d) and its mirror (x + d, x) exchange the same flux w(d) A(s) with
opposite signs.  The one pair walk, :meth:`_Walk.pairs`, therefore visits each
unordered pair once: it runs over the table's lexicographically positive
offsets d > 0, in table order, leaving out those with no pair on the
grid, and forms s = u(x+d) - u(x) with one vectorized pass per block.

The walk cuts those offsets into blocks when it is built
(:func:`_walk_blocks`), each a tuple (w, dst, src, wrap) that only the
walk decodes.  An offset of at least ``_GATHER_BELOW`` pairs is a slice
block: w its weight, and ``slice(0, n)`` and ``slice(D, D + n)`` the flat
ranges of x and x + d in the C-ordered node array, D the flat distance of
d and n = N - D.  A flat range is contiguous, so a block costs one 1-D
pass where a 2-D slice cost one pass per grid row.  Consecutive shorter
offsets are packed into gather blocks of about ``_GATHER_CHUNK`` pairs: w
a float64 weight per pair, dst and src the ``np.intp`` flat node indices
of every pair, offset after offset.  Short slices cost per-offset numpy
dispatch rather than arithmetic, which gathering removes; on long ones
the gather costs more.  On a 2-D grid the range of an offset
d = (di, dj) with dj != 0 also holds wrapped pairs, x and x + D on either
side of a row end, which are no pair of the grid; ``wrap`` holds their
positions, |dj| per row, as the prefix inside the range of one sorted
array that the offsets of that dj share, and is None where no pair wraps
(gather blocks, 1-D grids, dj = 0).  A block's pair positions
(:func:`_positions`) count a slice block's whole range.  The walk sets s to
+0.0 at the wrapped pairs, so no kernel sees the difference of two
unrelated nodes, and drops every weighted value there
(:func:`_drop_wrapped`) but the energy density, which is +0.0 at s = +0.0
for every family, so each wrapped pair adds exactly +0.0 to every
scatter and sum.  The walk writes s into a scratch buffer and hands out
two more for the block's results; the three are allocated once per walk
and sized to its longest block, since a fresh temporary per block is a
heap allocation the allocator may return to the system and fault in
again on the next block.  The operator evaluates A(s) once, with
:meth:`~nldiff.kernels.RangeKernel.terms`, forms w A in place and
scatters it to both ends of the pair, with ``out[dst] += w A`` on ranges
and ``np.bincount`` on indices, which repeat inside a gather block
(:func:`_scatter`).  The zero offset couples a node with itself at
s = 0, where A vanishes, so it carries no flux.  The operator, the
pairing identity, the energies and the one-step filter all loop over
this walk, so a run is a direct O(nodes * offsets) sum in a fixed order
and bit-reproducible.  The spatial_exponent family's per-pair exponents
depend only on the fixed reference field, so they are interpolated once
per walk, from a walk over the reference field.

A :class:`_Walk` holds what a walk reuses: its blocks, the pair
exponents, buffers, output, and for a walk of at least two blocks and
``_SPLIT_PAIRS`` pair positions a split of the blocks in two halves at
half the positions.  Where the half falls inside a gather block, the
walk cuts that block in two, as views of its arrays, so the halves
differ by at most one position; inside a slice block it cuts at the
nearest block boundary, which on long slices is close to the half
already.  The blocks, with that one cut, are built with the walk, before
any helper forks, and every walk goes over them.  :meth:`_Walk.apply`
sums each half into its own output and energy, then adds the second to
the first (the pairing's right side and the filter walk the blocks in
order).  The cut and the order do not depend on the CPU count, so no bit
does: a solve that may use two CPUs forks a helper process
(:class:`~nldiff.errors._Helper`) before its first step to walk the
second half of each step on a shared copy of u, and otherwise both
halves run in process.

Summing A pairwise against a test field yields the discrete counterpart of
integration by parts,

    integral(phi * L u) = -1/2 * node_volume^2 *
        sum_x sum_d w(d) A(t, x, x+d, u(x+d)-u(x)) (phi(x+d) - phi(x)),

which is what :func:`dissipation_pairing` returns both sides of.

The flow energy is the raw double sum over ordered pairs

    E = node_volume^2 * sum_x sum_d w(d) Phi(t, x, x+d, u(x+d) - u(x)),

with Phi the energy density of :meth:`~nldiff.kernels.RangeKernel.terms`:
the even antiderivative of A with Phi(0) = 0 where it has a closed form,
the quadratic s^2/2 otherwise.  The walk visits each unordered pair once
and counts it twice.  With the discrete inner product of weight
node_volume, the descent direction of E is its coordinate gradient
divided by 2 * node_volume, and under that convention the p-energy,
Phi = |s|^p / p, descends exactly along the operator with
A = |s|^(p-2) s, and the bilateral energy,
Phi = (h^2/2)(1 - exp(-s^2/h^2)), along the operator with
A = s exp(-s^2/h^2).  One call of ``terms`` per block returns A and
the density D, Phi less a scale, the bilateral pair (D = 1 - g) from one
Gaussian window g, so a time step gets its state's energy from the walk
that applies the operator.  Where D = s A (the linear family and
p_laplacian, :attr:`~nldiff.kernels.RangeKernel.flux_exponent`), the walk
asks ``terms`` for A alone and sums w A s from the weighted flux w A it
scatters anyway.  :meth:`~nldiff.kernels.RangeKernel.energy_sum` scales
sums, never a pair's D: that total by 1/q once, the others' per block
(h^2/2 for bilateral), so the block sums add up as when D held the scale.
That is the one energy sum: :func:`flow_energy` is the same walk at
t = 0, its operator discarded.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError, _cpus, _Helper
from .grid import Field, Grid, _on_grid
from .kernels import (
    RangeKernel,
    SpatialKernelTable,
    _gaussian_window,
    _p_energy_kernel,
    _pair_counts,
    bilateral_width,
)


def _take(a, idx):
    """The values of the flat node array ``a`` a block selects: a range,
    or node indices."""
    return a[idx] if isinstance(idx, slice) else a.take(idx)


def _scatter(op, out, idx, v):
    """``out[idx] = op(out[idx], v)`` in place, on the flat node array
    ``out``, with op np.add or np.subtract; on node indices, which repeat,
    through np.bincount."""
    if isinstance(idx, slice):
        view = out[idx]
    else:
        view, v = out, np.bincount(idx, v, out.size)
    op(view, v, out=view)


def _drop_wrapped(v, wrap):
    """v, in place, with +0.0 at the wrapped pairs of its block: the one
    place they are dropped, so each adds exactly +0.0 to a scatter or a
    sum."""
    if wrap is not None:
        v[wrap] = 0.0
    return v


def _weigh(w, v, wrap, out=None):
    """w v over a block, in ``out`` (by default v), wrapped pairs
    dropped."""
    return _drop_wrapped(np.multiply(w, v, out=v if out is None else out), wrap)


def _weighted_sum(w, v, wrap) -> float:
    """sum(w * v) over a block's pairs, w its weight or its per-pair
    weights, wrapped pairs dropped; the scratch array v is overwritten."""
    if np.ndim(w):
        return float(_weigh(w, v, wrap).sum())
    return w * float(_drop_wrapped(v, wrap).sum())


# Offsets with fewer pairs than _GATHER_BELOW are gathered, in blocks of about
# _GATHER_CHUNK pairs, which bounds the index memory and the temporaries of
# one block.  Measured on a 2-core x86 machine, numpy 2.4, one application
# of a p = 2.5 operator with its energy:
# - over 16 offsets of n pairs each, sliced vs gathered: n = 512: 0.32 vs
#   0.17 ms, 1024: 0.42 vs 0.34 ms, 1536: 0.48 vs 0.50 ms, 4096: 0.86 vs
#   1.39 ms.  A slice block of a 2-D grid is a contiguous 1-D range too,
#   longer than its pairs by the wrapped ones (see the module docstring).
# - on an all-gathered 24^2 Gaussian-0.12 table, chunks of 2048, 8192 and
#   65536 pairs: 1.52, 1.14 and 3.14 ms.
# The node indices are np.intp, which take() and bincount() use as they are;
# int32 indices are converted on every call.  One p = 2.5 apply with its
# energy on the 24^2 Gaussian-0.12 table, one CPU, 40 interleaved rounds:
# median 0.79 ms with int32 indices, 0.70 ms with intp, for 4 more bytes
# per index (0.6 MB on that table).
_GATHER_BELOW = 1024
_GATHER_CHUNK = 8192


def _walk_blocks(table: SpatialKernelTable) -> tuple:
    """The table's positive offsets that overlap the grid, in table order,
    cut into slice blocks and gather blocks (see the module docstring)."""
    grid = table.grid
    node = np.arange(grid.node_count, dtype=np.intp).reshape(grid.counts)
    blocks, group, held, wraps = [], [], 0, {}
    for w, offset, size in zip(table.weights.tolist(), map(tuple, table.offsets.tolist()),
                               _pair_counts(grid, table.offsets)):
        if offset <= (0,) * grid.dim or not size:
            continue
        if group and (size >= _GATHER_BELOW or held >= _GATHER_CHUNK):
            blocks.append(_gather_block(node, group))
            group, held = [], 0
        if size >= _GATHER_BELOW:
            blocks.append(_slice_block(node, w, offset, wraps))
        else:
            group.append((w, offset, size))
            held += size
    if group:
        blocks.append(_gather_block(node, group))
    return tuple(blocks)


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
    """The gather block of consecutive offsets, each (w, offset, pair
    count): per pair, its weight and the flat node indices of x and x + d."""
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


# A walk of at least _SPLIT_PAIRS pair positions, in two blocks or more, is
# split in two halves, which a solve on two CPUs walks in two processes.
# Measured on a 2-core x86 machine, numpy 2.4, one p = 2.5 application with
# its energy on 2-D Gaussian tables, one process vs two, per walk size:
# 11k positions 0.21 vs 0.15 ms, 20k 0.37 vs 0.32, 48k 0.84 vs 0.57, 76k
# 1.25 vs 0.83, 240k 4.1 vs 2.4 ms.  Forking and reaping the helper takes
# 3-4 ms, which the split repays within about 30 steps from 32k positions.
# The halves are even, to the position, where the half falls inside a
# gather block (_split).  On the 24^2 patch table (10 gather blocks, 75,888
# positions) the nearest block boundary gave 33,712 + 42,176 positions,
# and over the 513 steps of its solve the main process waited 34-150 ms
# for the helper (9 solves, 2 CPUs); the even cut, 37,944 each, waited
# 14-75 ms.  A cut at 53% of the positions, the larger share in the main
# process, waited 19-72 ms with no shorter solve, so the cut stays at the
# half.
_SPLIT_PAIRS = 32768


def _positions(block) -> int:
    """A block's pair positions, a slice block's whole range included."""
    return block[1].stop if isinstance(block[1], slice) else block[1].size


def _split(blocks: tuple) -> tuple:
    """The blocks of a walk and the index of its second half's first block,
    len(blocks) for a walk in one half.  A walk of at least _SPLIT_PAIRS
    positions in two blocks or more is cut at half its positions: inside
    the gather block that holds the half, which becomes two blocks, views
    of its arrays, else at the block boundary nearest the half, which on
    long slice blocks is close to it already."""
    n = len(blocks)
    ends = np.cumsum([_positions(b) for b in blocks])
    if n < 2 or ends[-1] < _SPLIT_PAIRS:
        return blocks, n
    half = int(ends[-1]) // 2
    k = int(np.searchsorted(ends, half, side="right"))  # the block that holds the half
    w, dst, src, _ = blocks[k]
    cut = half - (int(ends[k]) - _positions(blocks[k]))
    if cut and not isinstance(dst, slice):
        parts = (w[:cut], dst[:cut], src[:cut], None), (w[cut:], dst[cut:], src[cut:], None)
        return blocks[:k] + parts + blocks[k + 1 :], k + 1
    return blocks, 1 + int(np.argmin(np.abs(ends[:-1] - 0.5 * ends[-1])))


class _Walk:
    """The pair walk of one table for one kernel (None for the filter) and
    what it reuses (see the module docstring); as a context manager, also
    its helper process.  :func:`~nldiff.stepper.solve` builds one per run,
    the other entry points one per call."""

    def __init__(self, table: SpatialKernelTable, kernel: RangeKernel | None = None):
        self.table, self.kernel = table, kernel
        self.q = None if kernel is None else kernel.flux_exponent
        self.blocks, cut = _split(_walk_blocks(table))
        self.buf = np.empty((3, max(map(_positions, self.blocks), default=0)))
        n = len(self.blocks)
        self.halves = (range(cut), range(cut, n)) if cut < n else (range(n),)
        self.exps = None
        if kernel is not None and kernel.needs_pair_reference:
            ref = kernel.reference
            _on_grid(table.grid, **{"the kernel's reference field": ref})
            # fixed by the reference field, so interpolated once per walk
            self.exps = tuple(kernel.pair_exponents(r) for _, r, _, _ in self.pairs(ref.values))
        nodes = table.grid.node_count
        # the output, and the second half's until a helper shares it
        self.out, self.second = np.empty(nodes), np.empty(nodes if cut < n else 0)
        self.shared_u = self.helper = None

    def pairs(self, u, blocks=None):
        """The walk over the flat node array u, the one decoder of its
        ``blocks`` (see the module docstring): per block, all or those of
        the range ``blocks``, yield
        ((w, dst, src, wrap), s, pe, scratch), with s = u(x+d) - u(x) over
        the block's pairs and 0.0 at its wrapped ones, so no kernel sees two
        nodes that are not a pair, pe the block's pair exponents (or None)
        and scratch two arrays shaped like s for the caller to overwrite.
        s and scratch are views of the walk's buffers, valid until the next
        block."""
        buf, walk_blocks = self.buf, self.blocks
        for k in range(len(walk_blocks)) if blocks is None else blocks:
            _, dst, src, wrap = block = walk_blocks[k]
            if isinstance(dst, slice):
                s, a, b = buf[:, : dst.stop]
                _drop_wrapped(np.subtract(u[src], u[dst], out=s), wrap)
            else:
                s, a, b = buf[:, : src.size]
                # the indices are in range; "clip" writes to out without a copy
                u.take(src, out=s, mode="clip")
                np.subtract(s, u.take(dst, out=a, mode="clip"), out=s)
            yield block, s, None if self.exps is None else self.exps[k], (a, b)

    def _half(self, blocks, out, u, t, energy):
        """Over the pairs of ``blocks``: the operator's sum, less the node
        volume, into ``out``, and the energy's sum, returned (0.0 without
        ``energy``), times the flux exponent q where the kernel has one."""
        kernel, acc = self.kernel, 0.0
        phi_energy = energy and self.q is None
        out.fill(0.0)
        for (w, dst, src, wrap), s, pe, scratch in self.pairs(u, blocks):
            a, phi = kernel.terms(t, s, pe, phi_energy, scratch)
            wa = _weigh(w, a, wrap)
            _scatter(np.add, out, dst, wa)
            _scatter(np.subtract, out, src, wa)
            if phi_energy:
                acc += kernel.energy_sum(_weighted_sum(w, phi, None))  # D is +0.0 where s is
            elif energy:
                # the density is s A, so the block's sum is sum(w A s), formed in
                # the scratch array terms left free and summed pairwise
                acc += float(np.multiply(wa, s, out=scratch[1]).sum())
        return acc

    def apply(self, u, t, energy=False):
        """The operator on the flat node array u, in the walk's output
        array, which the next call overwrites, and with ``energy`` the flow
        energy of u from the same walk (else None)."""
        first, *second = self.halves
        if self.helper:
            self.shared_u[:] = u
            self.helper.send(t, energy)
        acc = self._half(first, self.out, u, t, energy)
        if second:
            acc += self.helper.reply() if self.helper else self._half(second[0], self.second, u, t, energy)
            self.out += self.second
        nv = self.table.grid.node_volume
        if energy and self.q is not None:
            acc = self.kernel.energy_sum(acc)  # sum(w A s) / q, once per walk
        # the walk visits each unordered pair once; the energy sums ordered pairs
        e = 2.0 * nv**2 * acc if energy else None
        return np.multiply(self.out, nv, out=self.out), e

    def __enter__(self):
        """Fork the helper of a split walk, when this process may use two CPUs."""
        if len(self.halves) == 2 and _cpus() >= 2:
            import mmap  # only a helper needs it

            # u and the second half's output, in pages the helper shares
            shared = np.frombuffer(mmap.mmap(-1, 16 * self.out.size), dtype=np.float64)
            self.shared_u, self.second = shared.reshape(2, -1)
            # per (t, energy) request, the second half on and into the shared arrays
            second_half = functools.partial(self._half, self.halves[1], self.second, self.shared_u)
            self.helper = _Helper(second_half, "the pair walk")
        return self

    def __exit__(self, *exc):
        """End the helper, if one runs, and reap it."""
        if self.helper is not None:
            self.helper.close()


def apply_nonlocal(
    grid: Grid, table: SpatialKernelTable, kernel: RangeKernel, t: float, u: Field
) -> Field:
    """Evaluate the nonlocal operator on a field."""
    _on_grid(grid, table=table, u=u)
    return Field(grid, _Walk(table, kernel).apply(u.values, t)[0])


def dissipation_pairing(
    grid: Grid, table: SpatialKernelTable, kernel: RangeKernel, t: float, u: Field, phi: Field
) -> tuple:
    """Both sides of the discrete integration-by-parts identity.

    Returns (lhs, rhs) where lhs pairs phi against the operator through the
    quadrature sum and rhs is the minus-half double sum over offsets.  The
    two agree to round-off for any even table; with phi a non-decreasing
    function of u the rhs is visibly non-positive term by term, which is
    the dissipativity estimate.
    """
    _on_grid(grid, table=table, u=u, phi=phi)
    pp = phi.values
    walk = _Walk(table, kernel)
    lhs = grid.node_volume * float(np.sum(pp * walk.apply(u.values, t)[0]))
    acc = 0.0
    for (w, dst, src, wrap), s, pe, (a, _) in walk.pairs(u.values):
        a = kernel.terms(t, s, pe, out=(a, None))[0]
        acc += _weighted_sum(w, a * (_take(pp, src) - _take(pp, dst)), wrap)
    # the mirror pair's term A(-s) (phi(x) - phi(x+d)) equals the pair's, so
    # the minus-half sum over ordered pairs is minus the walk's sum
    rhs = -(grid.node_volume**2) * acc
    return lhs, rhs


def energy_p(grid: Grid, table: SpatialKernelTable, u: Field, p: float) -> float:
    """The p-energy (1/p) nv^2 sum_x sum_d w(d) |u(x+d) - u(x)|^p, the flow
    energy of the p-Laplacian kernel."""
    return flow_energy(grid, table, _p_energy_kernel(float(p)), u)


def flow_energy(grid: Grid, table: SpatialKernelTable, kernel: RangeKernel, u: Field) -> float:
    """The Lyapunov energy matching a kernel family, where one exists.

    This is the double sum of the energy density over all weighted pairs
    (see the module docstring), whose descent direction is exactly the
    operator.  For the families without a closed-form antiderivative
    (variable_exponent, custom) it is the quadratic energy, and for a
    mollified kernel its base's energy; each is a monitoring quantity
    rather than a certified descent functional (``has_energy`` is False).
    It is the energy of a solver step's own walk (:meth:`_Walk.apply`) at
    t = 0, so a step computes the same number, bit for bit.
    """
    _on_grid(grid, table=table, u=u)
    return _Walk(table, kernel).apply(u.values, 0.0, True)[1]


def one_step_filter(grid: Grid, table: SpatialKernelTable, u: Field, h: float) -> Field:
    """One pass of the classical normalized adaptive filter.

    Weighs each neighbor, the node itself included when the table holds
    the zero offset, by the even window g = exp(-(s/h)^2) of the value
    difference s and renormalizes per node; h is checked as a bilateral
    kernel's width is (:func:`~nldiff.kernels.bilateral_width`).  The
    window is the bilateral kernel's, bit for bit, computed in the pair
    walk's scratch buffers, which then hold w g and w g u per pair.  This
    is the filter whose odd correction drives the evolution; it does not
    conserve mass.  A table without the zero offset can leave a node with
    no weight at all, when every neighbor's window underflows or leaves
    the grid; that raises :class:`ConfigurationError`.
    """
    _on_grid(grid, table=table, u=u)
    h = bilateral_width(h)
    uu = u.values
    num = table.zero_weight * uu
    den = np.full_like(uu, table.zero_weight)
    for (w, dst, src, wrap), s, _, (wg, wgu) in _Walk(table).pairs(uu):
        _weigh(w, _gaussian_window(s, h, wg), wrap)
        _scatter(np.add, den, dst, wg)
        _scatter(np.add, den, src, wg)
        _scatter(np.add, num, dst, _weigh(wg, _take(uu, src), wrap, wgu))
        _scatter(np.add, num, src, _weigh(wg, _take(uu, dst), wrap, wgu))
    empty = int(np.count_nonzero(den == 0.0))
    if empty:
        raise ConfigurationError(
            f"the filter weights vanish at {empty} node(s): the table has no zero offset and "
            f"no neighbor window survives at h = {h!r}; widen h or add the zero offset"
        )
    return Field(grid, num / den)
