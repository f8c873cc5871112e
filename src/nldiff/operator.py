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
opposite signs.  The one pair walk, :func:`_pairs`, therefore visits each
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
interpolated once per (table, reference), from a walk over the reference
field (:func:`_walk_exponents`).

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

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import Field, Grid
from .kernels import (
    RangeKernel,
    SpatialKernelTable,
    _gaussian_window,
    _p_energy_kernel,
    bilateral_width,
)


def _walk_exponents(table: SpatialKernelTable, kernel: RangeKernel):
    """Per block of the table's walk, the
    :class:`~nldiff.kernels.PairExponents` of its pairs for a kernel that
    reads a pair reference, else None.  They are fixed by the reference
    field, so they are computed once per (table, reference) and kept on the
    kernel."""
    if not kernel.needs_pair_reference:
        return None
    ref = kernel.reference
    if ref is None:
        raise ConfigurationError("spatial_exponent kernel is missing its reference field")
    if ref.grid != table.grid:
        raise GridMismatchError("kernel reference field lives on a different grid")
    cached = kernel.walk_cache
    if cached is None or cached[0] is not table or cached[1] is not ref:
        exps = tuple(kernel.pair_exponents(r) for _, r, _, _ in _pairs(ref.values, table))
        cached = kernel.walk_cache = (table, ref, exps)
    return cached[2]


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


def _pairs(u, table, kernel=None):
    """The pair walk over the flat node array u, the one decoder of the
    table's blocks: per block, yield ((w, dst, src, wrap), s, pe, scratch)
    with s = u(x+d) - u(x) over the block's pairs, pe the block's pair
    exponents for the kernel (None without, see :func:`_walk_exponents`),
    and scratch two arrays shaped like s that the caller may overwrite.  A slice block's dst and
    src are flat ranges of the C-ordered node array and w is one number;
    s is 0.0 at its wrapped pairs, so no kernel sees the difference of two
    nodes that are not a pair.  A gather block's dst and src are flat node
    indices, w one weight per pair and wrap None.  s and scratch are views
    of three buffers the walk allocates once, sized to the table's largest
    block, so they hold only until the next block."""
    exps = None if kernel is None else _walk_exponents(table, kernel)
    buf = np.empty((3, table.largest_block))
    for k, block in enumerate(table.blocks):
        _, dst, src, wrap = block
        if isinstance(dst, slice):
            s, a, b = buf[:, : dst.stop]
            _drop_wrapped(np.subtract(u[src], u[dst], out=s), wrap)
        else:
            s, a, b = buf[:, : src.size]
            # the indices are in range; "clip" writes to out without a copy
            np.take(u, src, out=s, mode="clip")
            np.subtract(s, np.take(u, dst, out=a, mode="clip"), out=s)
        yield block, s, None if exps is None else exps[k], (a, b)


def _apply(u, table, kernel, t, energy=False):
    """The operator on the flat node array u, and with ``energy`` the flow
    energy of u from the same walk (else None)."""
    out = np.zeros(u.shape)
    acc = 0.0
    for (w, dst, src, wrap), s, pe, scratch in _pairs(u, table, kernel):
        a, phi = kernel.terms(t, s, pe, energy, scratch)
        wa = _weigh(w, a, wrap)
        _scatter(np.add, out, dst, wa)
        _scatter(np.subtract, out, src, wa)
        if energy:
            acc += _weighted_sum(w, phi, wrap)
    # the walk visits each unordered pair once; the energy sums ordered pairs
    e = 2.0 * table.grid.node_volume**2 * acc if energy else None
    return np.multiply(out, table.grid.node_volume, out=out), e


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
    return Field(grid, _apply(u.values, table, kernel, t)[0])


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
    lhs = grid.node_volume * float(np.sum(pp * _apply(u.values, table, kernel, t)[0]))
    acc = 0.0
    for (w, dst, src, wrap), s, pe, (a, _) in _pairs(u.values, table, kernel):
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
    acc = 0.0
    for (w, _, _, wrap), s, pe, scratch in _pairs(u.values, table, kernel):
        acc += _weighted_sum(w, kernel.density(0.0, s, pe, scratch), wrap)
    return 2.0 * grid.node_volume**2 * acc


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
    for (w, dst, src, wrap), s, _, (wg, wgu) in _pairs(uu, table):
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
