"""The nonlocal diffusion operator and its energies.

For a state u the operator at node x is

    (L u)(x) = node_volume * sum_d  w(d) A(t, x, x+d, u(x+d) - u(x))

with the sum over the kernel table's offsets d, clipped at the boundary:
pairs that leave the grid are simply dropped, which is the discrete form
of integrating over the domain only and gives the flow its no-flux
character.  The kernel table owns the walk: it fixes the offset order and
holds, per offset, the weight and the clipped slices of the nodes x and
x + d (see :class:`~nldiff.kernels.SpatialKernelTable`).  The operator,
the pairing identity, the energies and the one-step filter all loop over
those triples with one vectorized pass per offset, so a run is a direct
O(nodes * offsets) sum and bit-reproducible.

Summing A pairwise against a test field yields the discrete counterpart of
integration by parts,

    integral(phi * L u) = -1/2 * node_volume^2 *
        sum_x sum_d w(d) A(t, x, x+d, u(x+d)-u(x)) (phi(x+d) - phi(x)),

which is what :func:`dissipation_pairing` returns both sides of.

The energies here are raw double sums.  Their relation to the operator
uses the discrete inner product sum with weight node_volume and the fact
that the double sum counts every unordered pair twice, so the descent
direction of an energy is its coordinate gradient divided by
2 * node_volume.  Under that convention the p-energy descends exactly
along the operator with A = |s|^(p-2) s, and h^2/2 times the bilateral
energy descends along the operator with A = s exp(-s^2/h^2); the factor
h^2/2 is fixed by the antiderivative of s exp(-s^2/h^2).
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
    evaluated at, and how many kernel evaluations it took."""

    result: Field
    t: float
    flops_estimate: int


@dataclass(frozen=True)
class EnergyValue:
    kind: str
    value: float
    parameter: float


def _reference_array(grid: Grid, kernel: RangeKernel):
    if not kernel.needs_pair_reference:
        return None
    ref = kernel.reference if kernel.family != "mollified" else kernel.base.reference
    if ref is None:
        raise ConfigurationError("spatial_exponent kernel is missing its reference field")
    if ref.grid != grid:
        raise GridMismatchError("kernel reference field lives on a different grid")
    return ref.values.reshape(grid.counts)


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
    raw = _apply(u.reshaped(), _reference_array(grid, kernel), table, kernel, t)
    return OperatorEval(result=Field(grid, raw.ravel()), t=float(t), flops_estimate=table.pair_count)


def _apply(uu, ref, table, kernel, t):
    out = np.zeros_like(uu)
    for w, dst, src in table.pairs:
        pr = ref[src] - ref[dst] if ref is not None else None
        out[dst] += w * kernel.eval(t, uu[src] - uu[dst], pr)
    return out * table.grid.node_volume


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
    ref = _reference_array(grid, kernel)
    lhs = grid.node_volume * float(np.sum(pp * _apply(uu, ref, table, kernel, t)))
    acc = 0.0
    for w, dst, src in table.pairs:
        pr = ref[src] - ref[dst] if ref is not None else None
        acc += w * float(np.sum(kernel.eval(t, uu[src] - uu[dst], pr) * (pp[src] - pp[dst])))
    rhs = -0.5 * grid.node_volume**2 * acc
    return lhs, rhs


def _pair_sum(table: SpatialKernelTable, u: Field, term) -> float:
    uu = u.reshaped()
    acc = 0.0
    for w, dst, src in table.pairs:
        acc += w * float(np.sum(term(uu[src] - uu[dst], dst, src)))
    return acc


def energy_p(grid: Grid, table: SpatialKernelTable, u: Field, p: float) -> EnergyValue:
    """The p-energy (1/p) nv^2 sum_x sum_d w(d) |u(x+d) - u(x)|^p."""
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the energy grid")
    p = float(p)
    if not p >= 1.0:
        raise ConfigurationError(f"energy exponent must be >= 1, got {p}")
    acc = _pair_sum(table, u, lambda s, dst, src: np.abs(s) ** p)
    return EnergyValue(kind="p", value=grid.node_volume**2 * acc / p, parameter=p)


def energy_bilateral(grid: Grid, table: SpatialKernelTable, u: Field, h: float) -> EnergyValue:
    """The saturating energy nv^2 sum sum w(d) (1 - exp(-(du/h)^2))."""
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the energy grid")
    if not h > 0.0:
        raise ConfigurationError(f"bilateral width must be positive, got {h}")
    acc = _pair_sum(table, u, lambda s, dst, src: 1.0 - np.exp(-((s / h) ** 2)))
    return EnergyValue(kind="bilateral", value=grid.node_volume**2 * acc, parameter=float(h))


def flow_energy(grid: Grid, table: SpatialKernelTable, kernel: RangeKernel, u: Field) -> float:
    """The Lyapunov energy matching a kernel family, where one exists.

    This is the double sum of the antiderivative of A over all weighted
    pairs, whose descent direction under the gradient convention in the
    module docstring is exactly the operator.  Families without a closed
    antiderivative in s alone (variable_exponent, custom) fall back to the
    quadratic energy, which is then a monitoring quantity rather than a
    certified descent functional.
    """
    fam = kernel.family
    if fam == "mollified":
        return flow_energy(grid, table, kernel.base, u)
    if fam in ("linear",):
        return energy_p(grid, table, u, 2.0).value
    if fam == "p_laplacian":
        return energy_p(grid, table, u, kernel.p).value
    if fam == "bilateral_gaussian":
        return 0.5 * kernel.h**2 * energy_bilateral(grid, table, u, kernel.h).value
    if fam == "spatial_exponent":
        ref = _reference_array(grid, kernel)
        sig, val = kernel.exponent_sigmas, kernel.exponent_values

        def term(s, dst, src):
            q = np.interp(np.abs(ref[src] - ref[dst]), sig, val)
            return np.abs(s) ** q / q

        acc = _pair_sum(table, u, term)
        return grid.node_volume**2 * acc
    return energy_p(grid, table, u, 2.0).value


def one_step_filter(grid: Grid, table: SpatialKernelTable, u: Field, h: float) -> Field:
    """One pass of the classical normalized adaptive filter.

    Weighs each neighbor by the even window exp(-(s/h)^2) of the value
    difference s and renormalizes per node.  The zero offset is in every
    table, so the denominator never vanishes.  This is the filter whose
    odd correction drives the evolution; it does not conserve mass.
    """
    _check_table(grid, table)
    if u.grid != grid:
        raise GridMismatchError("field does not live on the filter grid")
    uu = u.reshaped()
    num = np.zeros_like(uu)
    den = np.zeros_like(uu)
    inv_h2 = 1.0 / (h * h)
    for w, dst, src in table.pairs:
        s = uu[src] - uu[dst]
        weight = w * np.exp(-(s * s) * inv_h2)
        num[dst] += weight * uu[src]
        den[dst] += weight
    return Field(grid, (num / den).ravel())
