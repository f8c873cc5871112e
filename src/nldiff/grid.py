"""Uniform cell-centered grids and scalar fields on them.

A grid covers a box in one or two dimensions with axis-aligned cells of
equal size.  Nodes sit at cell centers, so the first node along an axis is
half a spacing inside the lower extent.  Nodes are ordered row-major: the
first axis is the slow one.  Quadrature is the plain midpoint rule, which
on this layout is just ``node_volume`` times a sum.

Fields are flat float64 arrays tied to their grid.  Constructing a field
validates length and finiteness, so any operation that hands back a
``Field`` has produced finite values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigParseError, ConfigurationError, GridMismatchError, _real, _reals, _whole

FIELD_FILE_MAGIC = "# nldiff-field v1"


@dataclass(frozen=True)
class Grid:
    """Geometry of a uniform cell-centered grid.

    Attributes
    ----------
    dim : int
        1 or 2.
    extents : tuple of (float, float)
        Per-axis interval (lo, hi), lo < hi, with normal float spacings.
    counts : tuple of int
        Nodes per axis, each at least 2.
    spacing : tuple of float
        Cell size per axis, (hi - lo) / count.
    node_volume : float
        Product of the spacings; the quadrature weight of one node.
    total_measure : float
        Volume of the whole box.
    """

    dim: int
    extents: tuple
    counts: tuple
    spacing: tuple = dataclass_field(init=False)
    node_volume: float = dataclass_field(init=False)
    total_measure: float = dataclass_field(init=False)

    def __post_init__(self):
        dim = _whole(self.dim, "grid dimension")
        if dim not in (1, 2):
            raise ConfigurationError(f"grid dimension must be 1 or 2, got {dim}")
        if len(self.extents) != dim or len(self.counts) != dim:
            raise ConfigurationError(
                f"expected {dim} extents and counts, got {len(self.extents)} and {len(self.counts)}"
            )
        counts = tuple(_whole(c, "axis count", 2) for c in self.counts)
        if (nodes := math.prod(counts)) > np.iinfo(np.intp).max:
            raise ConfigurationError(f"grid of {nodes} nodes exceeds the array index range")
        extents = tuple((_real(lo, "grid extent"), _real(hi, "grid extent")) for lo, hi in self.extents)
        spacing = tuple((hi - lo) / c for (lo, hi), c in zip(extents, counts))
        node_volume = math.prod(spacing)
        for (lo, hi), h in zip(extents, spacing):
            # so also lo < hi, both finite, and hi - lo finite
            if not all(sys.float_info.min <= v < math.inf for v in (h, node_volume)):
                raise ConfigurationError(f"degenerate extent ({lo}, {hi}): spacing {h} and node volume "
                                         f"{node_volume} must be finite normal positive floats")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "node_volume", node_volume)
        object.__setattr__(self, "total_measure", math.prod(hi - lo for lo, hi in extents))

    @property
    def node_count(self) -> int:
        return math.prod(self.counts)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        lo, _ = self.extents[axis]
        h = self.spacing[axis]
        return lo + h * (np.arange(self.counts[axis]) + 0.5)

    def node_coordinates(self) -> np.ndarray:
        """All node positions, shape (node_count, dim), in storage order."""
        axes = [self.axis_coordinates(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self, multi) -> int:
        """Row-major flat index of a per-axis index tuple."""
        idx = 0
        for k, i in enumerate(multi):
            if not 0 <= i < self.counts[k]:
                raise ConfigurationError(f"index {i} outside axis {k}")
            idx = idx * self.counts[k] + i if k else i
        return idx


def build_grid(dim, extents, counts) -> Grid:
    """Construct a validated :class:`Grid`.

    Parameters
    ----------
    dim : int
        1 or 2.
    extents : sequence of (lo, hi) pairs
        One interval per axis.
    counts : sequence of int
        Nodes per axis.
    """
    return Grid(dim=dim, extents=tuple(tuple(e) for e in extents), counts=tuple(counts))


@dataclass(frozen=True)
class Field:
    """A scalar field sampled at the nodes of a grid.

    Values are stored as a flat float64 array in the grid's row-major node
    order.  Construction checks the length and rejects non-finite entries.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _reals(self.values, "field values")
        if values.ndim != 1 or values.shape[0] != self.grid.node_count:
            raise GridMismatchError(
                f"field has {values.size} values, grid has {self.grid.node_count} nodes"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ConfigurationError(f"field value at node {bad} is not finite")
        object.__setattr__(self, "values", values)

    def reshaped(self) -> np.ndarray:
        """The values as an array shaped like the grid."""
        return self.values.reshape(self.grid.counts)


def _on_grid(grid: Grid, **arguments):
    """Refuse arguments, by name, that do not live on ``grid``: fields,
    kernel tables, trajectories, anything with a ``grid``.  The first
    offender raises :class:`GridMismatchError` naming it and the grid."""
    for name, value in arguments.items():
        if value.grid != grid:
            raise GridMismatchError(f"{name} does not live on the {grid.dim}-D grid of counts {grid.counts} "
                                    f"on {grid.extents}")


def integrate(grid: Grid, f: Field) -> float:
    """Midpoint-rule integral of a field over the grid's box."""
    _on_grid(grid, f=f)
    return grid.node_volume * float(np.sum(f.values))


def lp_norm(grid: Grid, f: Field, p) -> float:
    """Discrete L^p norm, p >= 1 or infinity.

    The finite-p norm is the quadrature of |f|^p raised to 1/p; infinity
    gives the plain max of |f|.
    """
    _on_grid(grid, f=f)
    p = _norm_exponent(p)
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    return float((grid.node_volume * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def _norm_exponent(p) -> float:
    """``p`` as a float, refused unless it is at least 1 (infinity included)."""
    return _real(p, "norm exponent", lambda p: p >= 1.0, "be >= 1 or infinity")


def read_text(path) -> str:
    """The contents of a UTF-8 text file.

    A file that cannot be opened or is not valid UTF-8 raises
    :class:`ConfigParseError` naming the path (and, for a bad byte, its
    line).  Every text input of the package goes through here.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigParseError(f"not UTF-8 text: {exc}", line=line, path=str(path)) from exc


def write_text(path, text: str) -> None:
    """Write a UTF-8 text file with '\n' line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def series_csv(columns: dict) -> str:
    """CSV text with one column per key, every value at 17 significant
    digits (lossless for float64; integers print without a decimal point)."""
    names = list(columns)
    rows = [",".join(names)]
    for i in range(len(columns[names[0]])):
        rows.append(",".join(_fmt(columns[k][i]) for k in names))
    return "\n".join(rows) + "\n"


def save_field(f: Field, path) -> None:
    """Write a field to CSV with enough metadata to rebuild its grid.

    Layout: a magic comment line, then dim / extents / counts comment
    lines, then one value per line at 17 significant digits (lossless for
    float64).
    """
    g = f.grid
    lines = [FIELD_FILE_MAGIC]
    lines.append(f"# dim {g.dim}")
    lines.append("# extents " + " ".join(_fmt(v) for pair in g.extents for v in pair))
    lines.append("# counts " + " ".join(str(c) for c in g.counts))
    lines.extend(_fmt(v) for v in f.values)
    write_text(path, "\n".join(lines) + "\n")


def load_field(path) -> Field:
    """Read a field written by :func:`save_field`.

    After the header, blank lines and '#' comment lines are skipped.  A
    malformed header, a value that is not a finite number, or a value
    count other than the grid's node count raises :class:`ConfigParseError`
    naming the file and, for a value, its line.
    """
    path = str(path)
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != FIELD_FILE_MAGIC:
        raise ConfigParseError(f"missing '{FIELD_FILE_MAGIC}' header", line=1, path=path)
    header = {}
    body_start = 1
    for ln in lines[1:4]:
        if not ln.startswith("# "):
            break
        key, _, rest = ln[2:].partition(" ")
        header[key] = rest.split()
        body_start += 1
    try:
        dim = int(header["dim"][0])
        flat_ext = [float(v) for v in header["extents"]]
        counts = [int(v) for v in header["counts"]]
        if len(flat_ext) != 2 * dim:
            raise ValueError(f"expected {2 * dim} extent entries")
        grid = build_grid(dim, [(flat_ext[2 * k], flat_ext[2 * k + 1]) for k in range(dim)], counts)
    except (KeyError, IndexError, ValueError, ConfigurationError) as exc:
        raise ConfigParseError(f"malformed field header: {exc}", path=path) from exc
    values = []
    for i, ln in enumerate(lines[body_start:], start=body_start + 1):
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        try:
            values.append(float(ln))
        except ValueError as exc:
            raise ConfigParseError(f"bad value {ln!r}", line=i, path=path) from exc
        if not math.isfinite(values[-1]):
            raise ConfigParseError(f"value {ln.strip()} is not finite", line=i, path=path)
    if len(values) != grid.node_count:
        raise ConfigParseError(
            f"field has {len(values)} values, grid has {grid.node_count} nodes", path=path
        )
    return Field(grid, np.asarray(values))
