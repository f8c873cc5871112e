"""The nonlocal diffusion operator and its energies.

For a state u the operator at node x is

    (L u)(x) = node_volume * sum_d  w(d) A(t, x, x+d, u(x+d) - u(x))

with the sum over the kernel table's offsets d, clipped at the boundary:
pairs that leave the grid are simply dropped, which is the discrete form
of integrating over the domain only and gives the flow its no-flux
character.

The spatial kernel is even, w(-d) = w(d), and every range family but
``custom`` is odd in s and symmetric in the node pair, so the pair
(x, x + d) and its mirror (x + d, x) exchange the same flux w(d) A(s) with
opposite signs.  The one pair walk, :func:`_pairs`, therefore visits each
unordered pair once: it runs over the table's lexicographically positive
offsets, cut into blocks (see :class:`~nldiff.kernels.SpatialKernelTable`),
and forms s = u(x+d) - u(x) with one vectorized pass per block.  A slice
block is one long offset, its nodes selected by slices and its weight one
number; a gather block packs many short offsets, its nodes selected by flat
indices and its weight repeated per pair.  The operator evaluates A(s) once
and scatters it to both ends of the pair, with ``out[dst] += w A`` on
slices and ``np.bincount`` on indices, which repeat inside a gather block
(:func:`_scatter`).  A custom kernel is odd only if its author made it so;
it is evaluated again at -s for the mirror, and at the zero offset, which
keeps the sum over ordered pairs it is defined by.  The operator, the
pairing identity, the energies and the one-step filter all loop over this
walk, so a run is a direct O(nodes * offsets) sum in a fixed order and
bit-reproducible.  The spatial_exponent family's per-pair exponents depend
only on the fixed reference field, so they are interpolated once per
(table, reference) (:func:`_walk_exponents`).

Summing A pairwise against a test field yields the discrete counterpart of
integration by parts,

    integral(phi * L u) = -1/2 * node_volume^2 *
        sum_x sum_d w(d) A(t, x, x+d, u(x+d)-u(x)) (phi(x+d) - phi(x)),

which is what :func:`dissipation_pairing` returns both sides of.

The energies here are raw double sums over ordered pairs,

    E = node_volume^2 * sum_x sum_d w(d) Phi(u(x+d) - u(x)),

with Phi the even antiderivative of A, Phi(0) = 0; the walk visits each
unordered pair once and counts it twice.  Their relation to the operator
uses the discrete inner product sum with weight node_volume and the fact
that the double sum counts every unordered pair twice, so the descent
direction of an energy is its coordinate gradient divided by
2 * node_volume.  Under that convention the p-energy, Phi = |s|^p / p,
descends exactly along the operator with A = |s|^(p-2) s, and h^2/2 times
the bilateral energy, Phi = 1 - exp(-s^2/h^2), descends along the
operator with A = s exp(-s^2/h^2).  Phi is computed from s and the A(s)
the walk already holds (:func:`_density`): s A / q for the power families
of exponent q, one minus the Gaussian factor A / s for the bilateral
family.  A time step therefore gets the energy of its state from the walk
that applies the operator, with no second kernel evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import Field, Grid
from .kernels import RangeKernel, SpatialKernelTable


@dataclass(frozen=True)
class OperatorEval:
    """One operator application: the resulting field, the time it was
    evaluated at, and how many ordered node pairs it sums over."""

    result: Field
    t: float
    flops_estimate: int


@dataclass(frozen=True)
class EnergyValue:
    kind: str
    value: float
    parameter: float


def _walk_exponents(table: SpatialKernelTable, kernel: RangeKernel):
    """Per block of the table's walk, the
    :class:`~nldiff.kernels.PairExponents` of its pairs for a kernel that
    reads a pair reference, else None.  They are fixed by the reference
    field, so they are computed once per (table, reference) and kept on the
    kernel."""
    if not kernel.needs_pair_reference:
        return None
    ref = kernel.reference if kernel.family != "mollified" else kernel.base.reference
    if ref is None:
        raise ConfigurationError("spatial_exponent kernel is missing its reference field")
    if ref.grid != table.grid:
        raise GridMismatchError("kernel reference field lives on a different grid")
    cached = kernel.walk_cache
    if cached is None or cached[0] is not table or cached[1] is not ref:
        rr = ref.reshaped()
        exps = tuple(
            kernel.pair_exponents(_take(rr, src) - _take(rr, dst)) for _, _, dst, src in table.blocks
        )
        cached = kernel.walk_cache = (table, ref, exps)
    return cached[2]


def _take(a, idx):
    """The values of the node array ``a`` a block selects: slices of the
    array, or flat node indices."""
    return a[idx] if isinstance(idx, tuple) else a.take(idx)


def _scatter(op, out, idx, v):
    """``out[idx] = op(out[idx], v)`` in place, with op np.add or
    np.subtract; on flat node indices, which repeat, through np.bincount."""
    if isinstance(idx, tuple):
        view = out[idx]
    else:
        view, v = out.reshape(-1), np.bincount(idx, v, out.size)
    op(view, v, out=view)


def _weighted_sum(w, v) -> float:
    """sum(w * v) over a block, w its weight or its per-pair weights."""
    return w * float(v.sum()) if np.ndim(w) == 0 else float((w * v).sum())


def _pairs(uu, table, kernel=None):
    """The pair walk: per block of the table, yield (w, dst, src, s, pe)
    with s = u(x+d) - u(x) over the block's pairs, w the weight of a slice
    block or the per-pair weights of a gather block, and pe the block's
    pair exponents for the kernel (None without, see
    :func:`_walk_exponents`)."""
    exps = None if kernel is None else _walk_exponents(table, kernel)
    for k, (w, lengths, dst, src) in enumerate(table.blocks):
        if lengths is not None:
            w = np.repeat(w, lengths)
        yield w, dst, src, _take(uu, src) - _take(uu, dst), None if exps is None else exps[k]


def _density(kernel: RangeKernel, t, s, pe, a=None):
    """Energy density of the pairs with differences s, up to the factor
    :func:`_energy_scale`; reuses A(s) when the caller holds it.

    Families without a closed antiderivative in s alone
    (variable_exponent, custom) get the quadratic density s^2/2, the same
    as linear; mollified kernels take their base's density.
    """
    fam = kernel.family
    if fam == "mollified":
        return _density(kernel.base, t, s, pe)
    if fam not in ("p_laplacian", "spatial_exponent", "bilateral_gaussian"):
        return s * s / 2.0
    if a is None:
        a = kernel.eval(t, s, pe)
    if fam == "bilateral_gaussian":
        # A = s g with the Gaussian factor g = exp(-(s/h)^2), which is 1 at s = 0
        return 1.0 - np.divide(a, s, out=np.ones_like(s), where=s != 0.0)
    q = kernel.p if fam == "p_laplacian" else kernel.pair_exponents(pe).q
    return s * a / q


def _energy_scale(kernel: RangeKernel) -> float:
    if kernel.family == "mollified":
        return _energy_scale(kernel.base)
    return 0.5 * kernel.h**2 if kernel.family == "bilateral_gaussian" else 1.0


def _apply(uu, table, kernel, t, energy=False):
    """The operator on the node array uu, and with ``energy`` the flow
    energy of uu from the same walk (else None)."""
    out = np.zeros_like(uu)
    acc = 0.0
    # Every family but custom is odd by construction, bit for bit; a custom
    # kernel is evaluated at -s for the mirror pair and at the zero offset.
    odd = kernel.family != "custom"
    for w, dst, src, s, pe in _pairs(uu, table, kernel):
        a = kernel.eval(t, s, pe)
        wa = w * a
        _scatter(np.add, out, dst, wa)
        if odd:
            _scatter(np.subtract, out, src, wa)
        else:
            _scatter(np.add, out, src, w * kernel.eval(t, -s, pe))
        if energy:
            acc += _weighted_sum(w, _density(kernel, t, s, pe, a))
    if not odd and table.zero_weight:
        out += table.zero_weight * kernel.eval(t, np.zeros_like(uu), None)
    # the walk visits each unordered pair once; the energy sums ordered pairs
    e = _energy_scale(kernel) * (2.0 * table.grid.node_volume**2 * acc) if energy else None
    return out * table.grid.node_volume, e


def _energy_sum(uu, table, kernel) -> float:
    acc = 0.0
    for w, _, _, s, pe in _pairs(uu, table, kernel):
        acc += _weighted_sum(w, _density(kernel, 0.0, s, pe))
    return 2.0 * table.grid.node_volume**2 * acc


def apply_nonlocal(
    grid: Grid,
    table: SpatialKernelTable,
    kernel: RangeKernel,
    t: float,
    u: Field,
) -> OperatorEval:
    """Evaluate the nonlocal operator on a field."""
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("state field does not live on the operator grid")
    raw = _apply(u.reshaped(), table, kernel, t)[0]
    return OperatorEval(result=Field(grid, raw.ravel()), t=float(t), flops_estimate=table.pair_count)


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
    uu = u.reshaped()
    pp = phi.reshaped()
    lhs = grid.node_volume * float(np.sum(pp * _apply(uu, table, kernel, t)[0]))
    odd = kernel.family != "custom"
    acc = 0.0
    for w, dst, src, s, pe in _pairs(uu, table, kernel):
        a = kernel.eval(t, s, pe)
        # the pair's A minus its mirror's, which for an odd kernel is 2 A
        a = a + a if odd else a - kernel.eval(t, -s, pe)
        acc += _weighted_sum(w, a * (_take(pp, src) - _take(pp, dst)))
    rhs = -0.5 * grid.node_volume**2 * acc
    return lhs, rhs


def energy_p(grid: Grid, table: SpatialKernelTable, u: Field, p: float) -> EnergyValue:
    """The p-energy (1/p) nv^2 sum_x sum_d w(d) |u(x+d) - u(x)|^p."""
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the energy grid")
    p = float(p)
    if not p >= 1.0:
        raise ConfigurationError(f"energy exponent must be >= 1, got {p}")
    value = _energy_sum(u.reshaped(), table, RangeKernel("p_laplacian", p=p))
    return EnergyValue(kind="p", value=value, parameter=p)


def energy_bilateral(grid: Grid, table: SpatialKernelTable, u: Field, h: float) -> EnergyValue:
    """The saturating energy nv^2 sum sum w(d) (1 - exp(-(du/h)^2))."""
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the energy grid")
    if not h > 0.0:
        raise ConfigurationError(f"bilateral width must be positive, got {h}")
    value = _energy_sum(u.reshaped(), table, RangeKernel("bilateral_gaussian", h=float(h)))
    return EnergyValue(kind="bilateral", value=value, parameter=float(h))


def flow_energy(grid: Grid, table: SpatialKernelTable, kernel: RangeKernel, u: Field) -> float:
    """The Lyapunov energy matching a kernel family, where one exists.

    This is the double sum of the antiderivative of A over all weighted
    pairs, whose descent direction under the gradient convention in the
    module docstring is exactly the operator.  Families without a closed
    antiderivative in s alone (variable_exponent, custom) fall back to the
    quadratic energy, which is then a monitoring quantity rather than a
    certified descent functional.  A solver step computes the same number,
    bit for bit, in the walk that applies the operator.
    """
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the energy grid")
    return _energy_scale(kernel) * _energy_sum(u.reshaped(), table, kernel)


def one_step_filter(grid: Grid, table: SpatialKernelTable, u: Field, h: float) -> Field:
    """One pass of the classical normalized adaptive filter.

    Weighs each neighbor, the node itself included when the table holds
    the zero offset, by the even window exp(-(s/h)^2) of the value
    difference s and renormalizes per node.  This is the filter whose odd
    correction drives the evolution; it does not conserve mass.  A table
    without the zero offset can leave a node with no weight at all, when
    every neighbor's window underflows or leaves the grid; that raises
    :class:`ConfigurationError`.
    """
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the filter grid")
    if not h > 0.0:
        raise ConfigurationError(f"filter width must be positive, got {h}")
    uu = u.reshaped()
    num = table.zero_weight * uu
    den = np.full_like(uu, table.zero_weight)
    inv_h2 = 1.0 / (h * h)
    for w, dst, src, s, _ in _pairs(uu, table):
        weight = w * np.exp(-(s * s) * inv_h2)
        _scatter(np.add, num, dst, weight * _take(uu, src))
        _scatter(np.add, den, dst, weight)
        _scatter(np.add, num, src, weight * _take(uu, dst))
        _scatter(np.add, den, src, weight)
    empty = int(np.count_nonzero(den == 0.0))
    if empty:
        raise ConfigurationError(
            f"the filter weights vanish at {empty} node(s): the table has no zero offset and "
            f"no neighbor window survives at h = {h!r}; widen h or add the zero offset"
        )
    return Field(grid, (num / den).ravel())
