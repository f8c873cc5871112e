"""Run configuration files: strict parsing, defaults, round-tripping.

The format is flat ``key = value`` lines with dotted section prefixes,

    grid.dim = 1
    grid.extents = 0, 1
    grid.counts = 64
    range.family = p_laplacian
    range.p = 3
    solver.T = 0.5
    solver.steps = 1024

Blank lines and '#' comments are ignored.  Parsing is strict: unknown
keys, duplicate keys, malformed values, and missing required keys are all
errors that name the offending line.  Every optional key has a default
that is materialized into the parsed configuration, and serializing a
configuration writes every key back out, so parse(serialize(c)) == c.
The keys, their defaults, their order and how each value is parsed all
come from the fields of the section dataclasses below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigParseError, ConfigurationError, _whole
from .grid import Field, build_grid, load_field, read_text
from .kernels import (
    OFFSET_LIMIT,
    REACTION_FAMILIES,
    affine_reaction,
    bilateral_kernel,
    custom_table_reaction,
    linear_decay_reaction,
    linear_kernel,
    logistic_reaction,
    make_spatial_kernel,
    mollify_range_kernel,
    p_laplacian_kernel,
    spatial_exponent_kernel,
    variable_exponent_kernel,
    zero_reaction,
)
from .pgm import image_to_field, load_pgm
from .stepper import MU_MODES, Problem, SolverConfig


@dataclass(frozen=True)
class GridSection:
    dim: int = 1
    extents: tuple = (0.0, 1.0)
    counts: tuple = (64,)


@dataclass(frozen=True)
class KernelSection:
    family: str = "gaussian"
    radius: float = 0.1
    table_path: str = ""


@dataclass(frozen=True)
class RangeSection:
    family: str = "linear"
    p: float = 2.0
    h: float = 0.1
    exponent_sigmas: tuple = (0.0, 1.0)
    exponent_values: tuple = (2.0, 2.0)
    mollify_n: int = 0
    mollify_quad: int = 129

    def __post_init__(self):
        # 0 means no mollification; a level is checked where it is built
        if self.mollify_n < 0:
            raise ConfigurationError(
                f"range.mollify_n must be 0 (off) or a positive level, got {self.mollify_n}"
            )


@dataclass(frozen=True)
class ReactionSection:
    family: str = "zero"
    rate: float = 0.0
    offset: float = 0.0
    slope: float = 0.0
    capacity: float = 1.0
    table_path: str = ""


@dataclass(frozen=True)
class InitialSection:
    kind: str = "constant"
    value: float = 0.0
    low: float = 0.0
    high: float = 1.0
    path: str = ""


@dataclass(frozen=True)
class StudySection:
    levels: tuple = (4, 8, 16, 32)
    refine_steps: tuple = (512, 1024, 2048, 4096)
    norm: float = 2.0
    perturb_scale: float = 0.05


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    grid: GridSection = GridSection()
    kernel: KernelSection = KernelSection()
    range: RangeSection = RangeSection()
    reaction: ReactionSection = ReactionSection()
    initial: InitialSection = InitialSection()
    solver: SolverConfig = SolverConfig(T=1.0, steps=256)
    study: StudySection = StudySection()
    output: OutputSection = OutputSection()

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole(self.seed, "seed", 0))


def _parse_float(text: str) -> float:
    v = float(text)
    if math.isnan(v):
        raise ValueError("nan is not a valid value")
    return v


def _parse_weight(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v >= 0.0):
        raise ValueError(f"weight must be finite and non-negative, got {text}")
    return v


def _parse_offset(text: str) -> int:
    v = int(text)
    if abs(v) > OFFSET_LIMIT:
        raise ValueError(f"offset must lie in [-(2^63 - 1), 2^63 - 1], got {text}")
    return v


def _parse_norm(text: str) -> float:
    v = math.inf if text.strip() in ("inf", "infinity") else _parse_float(text)
    if not v >= 1.0:
        raise ValueError(f"norm exponent must be >= 1 or infinity, got {text}")
    return v


def _choice(*options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text

    return parse


def _items(cfg: RunConfig):
    """(key, value) for every key of a configuration, in file order."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            for g in fields(value):
                yield f"{f.name}.{g.name}", getattr(value, g.name)
        else:
            yield f.name, value


def _parser_for(default):
    if isinstance(default, tuple):
        item = _parse_float if isinstance(default[0], float) else int
        return lambda text: tuple(item(p.strip()) for p in text.split(","))
    return {int: int, float: _parse_float, str: str}[type(default)]


# Every key and its default come from the section dataclasses; a value is
# parsed by the type of its default unless it is listed here.
_DEFAULTS = dict(_items(RunConfig()))
_PARSERS = {key: _parser_for(default) for key, default in _DEFAULTS.items()}
_PARSERS.update(
    {
        "kernel.family": _choice("gaussian", "box", "custom_table"),
        "range.family": _choice(
            "linear", "p_laplacian", "variable_exponent", "spatial_exponent", "bilateral_gaussian"
        ),
        "reaction.family": _choice(*REACTION_FAMILIES),
        "initial.kind": _choice("constant", "random", "step", "field_csv", "pgm"),
        "solver.mu_mode": _choice(*MU_MODES),
        "study.norm": _parse_norm,
    }
)
_REQUIRED = ("grid.dim", "grid.extents", "grid.counts", "range.family", "solver.T", "solver.steps")


def parse_config_text(text: str, path: str = "<string>") -> RunConfig:
    """Parse configuration text; see :func:`parse_config` for the format."""
    values = {}
    seen_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", line=lineno, path=path)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigParseError(f"unknown key {key!r}", line=lineno, path=path)
        if key in values:
            raise ConfigParseError(
                f"duplicate key {key!r} (first set on line {seen_lines[key]})",
                line=lineno,
                path=path,
            )
        try:
            values[key] = _PARSERS[key](val)
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"bad value for {key}: {exc}", line=lineno, path=path) from exc
        seen_lines[key] = lineno
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigParseError(f"missing required keys: {', '.join(missing)}", path=path)
    return _assemble({**_DEFAULTS, **values}, path)


def parse_config(path) -> RunConfig:
    """Parse a configuration file into a fully defaulted :class:`RunConfig`."""
    return parse_config_text(read_text(path), path=str(path))


def _assemble(v: dict, path: str) -> RunConfig:
    dim = v["grid.dim"]
    flat_ext = v["grid.extents"]
    if dim not in (1, 2):
        raise ConfigParseError(f"grid.dim must be 1 or 2, got {dim}", path=path)
    if len(flat_ext) != 2 * dim:
        raise ConfigParseError(
            f"grid.extents needs {2 * dim} numbers for dim {dim}, got {len(flat_ext)}",
            path=path,
        )
    if len(v["grid.counts"]) != dim:
        raise ConfigParseError(
            f"grid.counts needs {dim} entries, got {len(v['grid.counts'])}", path=path
        )
    sections = {}
    try:
        for f in fields(RunConfig):
            if is_dataclass(f.default):
                cls = type(f.default)
                sections[f.name] = cls(**{g.name: v[f"{f.name}.{g.name}"] for g in fields(cls)})
        return RunConfig(seed=v["seed"], **sections)
    except ConfigurationError as exc:
        raise ConfigParseError(str(exc), path=path) from exc


def _fmt_value(val) -> str:
    if isinstance(val, tuple):
        return ", ".join(_fmt_value(x) for x in val)
    return str(val)


def serialize_config(cfg: RunConfig) -> str:
    """Write a configuration back to text, every key materialized."""
    return "".join(f"{key} = {_fmt_value(value)}\n" for key, value in _items(cfg))


def _read_table(path, columns, what: str) -> list:
    """The rows of a comma-separated table file, one parser per column.

    Blank lines and '#' comments are skipped.  A row of the wrong width,
    a value its parser rejects, a row whose key (every field but the last)
    an earlier row has, or a file without data rows raises
    :class:`ConfigParseError` naming the file and the line.
    """
    rows, first = [], {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ConfigParseError(
                f"{what} row needs {len(columns)} fields, got {len(parts)}", line=lineno, path=str(path)
            )
        try:
            rows.append([parse(p.strip()) for parse, p in zip(columns, parts)])
        except ValueError as exc:
            raise ConfigParseError(f"bad {what} row: {exc}", line=lineno, path=str(path)) from exc
        key = tuple(rows[-1][:-1])
        if first.setdefault(key, lineno) != lineno:
            raise ConfigParseError(
                f"{what} lists {key} twice, first on line {first[key]}", line=lineno, path=str(path)
            )
    if not rows:
        raise ConfigParseError(f"{what} has no data rows", path=str(path))
    return rows


def build_initial_state(cfg: RunConfig, grid) -> Field:
    sec = cfg.initial
    n = grid.node_count
    if sec.kind == "constant":
        return Field(grid, np.full(n, sec.value))
    if sec.kind in ("random", "step"):
        for key, value in (("low", sec.low), ("high", sec.high)):
            if not math.isfinite(value):
                raise ConfigurationError(f"initial.{key} must be finite, got {value}")
    if sec.kind == "random":
        if not math.isfinite(sec.high - sec.low):
            raise ConfigurationError(f"initial.high - initial.low must be finite, got {sec.high - sec.low}")
        rng = np.random.default_rng(cfg.seed)
        return Field(grid, rng.uniform(sec.low, sec.high, size=n))
    if sec.kind == "step":
        coords = grid.node_coordinates()[:, 0]
        lo, hi = grid.extents[0]
        return Field(grid, np.where(coords < 0.5 * (lo + hi), sec.low, sec.high))
    if sec.kind == "field_csv":
        f = load_field(sec.path)
        if f.grid != grid:
            raise ConfigurationError(
                f"initial field in {sec.path} lives on a different grid than the config"
            )
        return f
    # pgm
    image = load_pgm(sec.path)
    igrid, f = image_to_field(image)
    if igrid != grid:
        raise ConfigurationError(
            f"image {sec.path} implies grid counts {igrid.counts} and extents "
            f"{igrid.extents}; the config grid disagrees"
        )
    return f


def build_problem(cfg: RunConfig) -> Problem:
    """Materialize a :class:`RunConfig` into a runnable :class:`Problem`."""
    dim = cfg.grid.dim
    extents = [
        (cfg.grid.extents[2 * k], cfg.grid.extents[2 * k + 1]) for k in range(dim)
    ]
    grid = build_grid(dim, extents, cfg.grid.counts)

    ks = cfg.kernel
    table_data = None
    if ks.family == "custom_table":
        rows = _read_table(ks.table_path, [_parse_offset] * dim + [_parse_weight], "kernel table")
        table_data = ([r[:-1] for r in rows], [r[-1] for r in rows])
    table = make_spatial_kernel(grid, ks.family, ks.radius, table=table_data)

    u0 = build_initial_state(cfg, grid)

    rs = cfg.range
    if rs.family == "linear":
        kernel = linear_kernel()
    elif rs.family == "p_laplacian":
        kernel = p_laplacian_kernel(rs.p)
    elif rs.family == "variable_exponent":
        kernel = variable_exponent_kernel(rs.exponent_sigmas, rs.exponent_values)
    elif rs.family == "spatial_exponent":
        kernel = spatial_exponent_kernel(rs.exponent_sigmas, rs.exponent_values, u0)
    else:
        kernel = bilateral_kernel(rs.h)
    if rs.mollify_n >= 1:
        kernel = mollify_range_kernel(kernel, rs.mollify_n, rs.mollify_quad)

    fs = cfg.reaction
    if fs.family == "zero":
        reaction = zero_reaction()
    elif fs.family == "linear_decay":
        reaction = linear_decay_reaction(fs.rate)
    elif fs.family == "affine":
        reaction = affine_reaction(fs.offset, fs.slope)
    elif fs.family == "logistic":
        reaction = logistic_reaction(fs.rate, fs.capacity)
    else:
        rows = _read_table(fs.table_path, [_parse_float, _parse_float], "reaction table")
        reaction = custom_table_reaction(*zip(*rows))

    return Problem(
        grid=grid,
        table=table,
        kernel=kernel,
        reaction=reaction,
        u0=u0,
        config=cfg.solver,
        seed=cfg.seed,
    )
