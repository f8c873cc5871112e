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
offsets, cut into blocks (see :class:`~nldiff.kernels.SpatialKernelTable`),
and forms s = u(x+d) - u(x) with one vectorized pass per block.  Every
block is a tuple (w, dst, src, wrap), and the walk is the only code that
decodes one: a slice block is one long offset, its nodes x and x + d two
flat ranges of the C-ordered node array and w one number; a gather block
packs many short offsets, its nodes selected by flat indices and w one
weight per pair.  A flat range is contiguous, so a block costs one 1-D
pass where a 2-D slice cost one pass per grid row.  On a 2-D grid the
range of an offset with a column part also holds wrapped pairs, x and
x + D on either side of a row end, which are no pair of the grid; their
positions are the block's ``wrap``.  The walk sets s to 0 there, so no
kernel sees the difference of two unrelated nodes, and every weighted
value is dropped there (:func:`_drop_wrapped`), so each wrapped pair adds
exactly +0.0 to every scatter and sum.  The walk writes s into a scratch
buffer and hands out two more for the block's results; the three are
allocated once per walk and sized to the table's longest block, since a
fresh temporary per block is a heap allocation the allocator may return
to the system and fault in again on the next block.  The operator
evaluates A(s) once, with :meth:`~nldiff.kernels.RangeKernel.terms`, forms
w A in place and scatters it to both ends of the pair, with
``out[dst] += w A`` on ranges and ``np.bincount`` on indices, which repeat
inside a gather block (:func:`_scatter`).  The zero offset couples a node
with itself at s = 0, where A vanishes, so it carries no flux.  The
operator, the pairing identity, the energies and the one-step filter all
loop over this walk, so a run is a direct O(nodes * offsets) sum in a
fixed order and bit-reproducible.  The spatial_exponent family's per-pair
exponents depend only on the fixed reference field, so they are
interpolated once per walk, from a walk over the reference field.

A :class:`_Walk` holds what a walk reuses: the pair exponents, buffers,
output, and for a table of at least two blocks and ``_SPLIT_PAIRS`` pair
positions a split of the blocks in two halves at the block boundary
nearest half the positions.  The operator and the energy sum each half
into its own output and energy, then add the second to the first (the
pairing's right side and the filter walk the blocks in order).  The order
is the table's, so no bit depends on the CPU count: a solve that may use
two CPUs forks a helper process (:class:`~nldiff.errors._Helper`) before
its first step to walk the second half of each step on a shared copy of
u, and otherwise both halves run in process.

Summing A pairwise against a test field yields the discrete counterpart of
integration by parts,

    integral(phi * L u) = -1/2 * node_volume^2 *
        sum_x sum_d w(d) A(t, x, x+d, u(x+d)-u(x)) (phi(x+d) - phi(x)),

which is what :func:`dissipation_pairing` returns both sides of.

The flow energy is the raw double sum over ordered pairs

    E = node_volume^2 * sum_x sum_d w(d) Phi(t, x, x+d, u(x+d) - u(x)),

with Phi the energy density of :meth:`~nldiff.kernels.RangeKernel.terms`:
the even antiderivative of A with Phi(0) = 0 where one exists in s alone,
the quadratic s^2/2 otherwise.  The walk visits each unordered pair once
and counts it twice.  With the discrete inner product of weight
node_volume, the descent direction of E is its coordinate gradient
divided by 2 * node_volume, and under that convention the p-energy,
Phi = |s|^p / p, descends exactly along the operator with
A = |s|^(p-2) s, and the bilateral energy,
Phi = (h^2/2)(1 - exp(-s^2/h^2)), along the operator with
A = s exp(-s^2/h^2).  One call of ``terms`` per block returns A and
Phi from the same intermediates, the bilateral pair from one Gaussian
window, so a time step gets the energy of its state from the walk that
applies the operator, and :func:`flow_energy` and
:func:`dissipation_pairing` walk the same blocks with the same buffers.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError, GridMismatchError, _cpus, _Helper
from .grid import Field, Grid
from .kernels import (
    RangeKernel,
    SpatialKernelTable,
    _gaussian_window,
    _p_energy_kernel,
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


# A walk of at least _SPLIT_PAIRS pair positions, in two blocks or more, is
# split in two halves, which a solve on two CPUs walks in two processes.
# Measured on a 2-core x86 machine, numpy 2.4, one p = 2.5 application with
# its energy on 2-D Gaussian tables, one process vs two, per walk size:
# 11k positions 0.21 vs 0.15 ms, 20k 0.37 vs 0.32, 48k 0.84 vs 0.57, 76k
# 1.25 vs 0.83, 240k 4.1 vs 2.4 ms.  Forking and reaping the helper takes
# 3-4 ms, which the split repays within about 30 steps from 32k positions.
_SPLIT_PAIRS = 32768


class _Walk:
    """The pair walk of one table for one kernel (None for the filter) and
    what it reuses (see the module docstring); as a context manager, also
    its helper process.  :func:`~nldiff.stepper.solve` builds one per run,
    the other entry points one per call."""

    def __init__(self, table: SpatialKernelTable, kernel: RangeKernel | None = None):
        self.table, self.kernel = table, kernel
        self.buf = np.empty((3, table.largest_block))
        self.exps = None
        if kernel is not None and kernel.needs_pair_reference:
            ref = kernel.reference
            if ref is None:
                raise ConfigurationError("spatial_exponent kernel is missing its reference field")
            if ref.grid != table.grid:
                raise GridMismatchError("kernel reference field lives on a different grid")
            # fixed by the reference field, so interpolated once per walk
            self.exps = tuple(kernel.pair_exponents(r) for _, r, _, _ in self.pairs(ref.values))
        n = len(table.blocks)
        ends = np.cumsum([b[1].stop if isinstance(b[1], slice) else b[1].size for b in table.blocks])
        cut = n
        if n >= 2 and ends[-1] >= _SPLIT_PAIRS:
            cut = 1 + int(np.argmin(np.abs(ends[:-1] - 0.5 * ends[-1])))
        self.halves = (range(cut), range(cut, n)) if cut < n else (range(n),)
        nodes = table.grid.node_count
        # the output, and the second half's until a helper shares it
        self.out, self.second = np.empty(nodes), np.empty(nodes if cut < n else 0)
        self.shared_u = self.helper = None

    def pairs(self, u, blocks=None):
        """The walk over the flat node array u, the one decoder of the
        table's blocks (see :class:`~nldiff.kernels.SpatialKernelTable`):
        per block, all or those of the range ``blocks``, yield
        ((w, dst, src, wrap), s, pe, scratch), with s = u(x+d) - u(x) over
        the block's pairs and 0.0 at its wrapped ones, so no kernel sees two
        nodes that are not a pair, pe the block's pair exponents (or None)
        and scratch two arrays shaped like s for the caller to overwrite.
        s and scratch are views of the walk's buffers, valid until the next
        block."""
        buf, table_blocks = self.buf, self.table.blocks
        for k in range(len(table_blocks)) if blocks is None else blocks:
            _, dst, src, wrap = block = table_blocks[k]
            if isinstance(dst, slice):
                s, a, b = buf[:, : dst.stop]
                _drop_wrapped(np.subtract(u[src], u[dst], out=s), wrap)
            else:
                s, a, b = buf[:, : src.size]
                # the indices are in range; "clip" writes to out without a copy
                np.take(u, src, out=s, mode="clip")
                np.subtract(s, np.take(u, dst, out=a, mode="clip"), out=s)
            yield block, s, None if self.exps is None else self.exps[k], (a, b)

    def _half(self, blocks, out, u, t, energy):
        """Over the pairs of ``blocks``: the operator's sum, less the node
        volume, into ``out``, and the energy's sum, returned (0.0 without
        ``energy``); with ``out`` None, the energy's sum from the density."""
        kernel, acc = self.kernel, 0.0
        if out is not None:
            out.fill(0.0)
        for (w, dst, src, wrap), s, pe, scratch in self.pairs(u, blocks):
            if out is None:
                phi = kernel.density(t, s, pe, scratch)
            else:
                a, phi = kernel.terms(t, s, pe, energy, scratch)
                wa = _weigh(w, a, wrap)
                _scatter(np.add, out, dst, wa)
                _scatter(np.subtract, out, src, wa)
            if energy:
                acc += _weighted_sum(w, phi, wrap)
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
        # the walk visits each unordered pair once; the energy sums ordered pairs
        e = 2.0 * nv**2 * acc if energy else None
        return np.multiply(self.out, nv, out=self.out), e

    def energy(self, u) -> float:
        """The flow energy of u at t = 0, from the density alone, summed
        half by half as :meth:`apply` sums it."""
        acc = sum(self._half(half, None, u, 0.0, True) for half in self.halves)
        return 2.0 * self.table.grid.node_volume**2 * acc

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
    grid: Grid,
    table: SpatialKernelTable,
    kernel: RangeKernel,
    t: float,
    u: Field,
) -> Field:
    """Evaluate the nonlocal operator on a field."""
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("state field does not live on the operator grid")
    return Field(grid, _Walk(table, kernel).apply(u.values, t)[0])


def _check_table(grid: Grid, table: SpatialKernelTable):
    if table.grid != grid:
        raise GridMismatchError("kernel table was built for a different grid")


def dissipation_pairing(
    grid: Grid,
    table: SpatialKernelTable,
    kernel: RangeKernel,
    t: float,
    u: Field,
    phi: Field,
) -> tuple:
    """Both sides of the discrete integration-by-parts identity.

    Returns (lhs, rhs) where lhs pairs phi against the operator through the
    quadrature sum and rhs is the minus-half double sum over offsets.  The
    two agree to round-off for any even table; with phi a non-decreasing
    function of u the rhs is visibly non-positive term by term, which is
    the dissipativity estimate.
    """
    _check_table(grid, table)
    if u.grid != grid or phi.grid != grid:
        raise GridMismatchError("fields do not live on the operator grid")
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
    operator.  For the families without a closed antiderivative in s alone
    (variable_exponent, custom) it is the quadratic energy, a monitoring
    quantity rather than a certified descent functional.  A solver step
    computes the same number, bit for bit, in the walk that applies the
    operator.
    """
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the energy grid")
    return _Walk(table, kernel).energy(u.values)


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
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the filter grid")
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
