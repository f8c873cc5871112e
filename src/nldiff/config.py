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
The keys, their defaults, their order and how each value is read and
checked all come from the fields of the section dataclasses below, and a
:class:`RunConfig` built in code is checked by the same rule per key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigParseError, ConfigurationError, _real, _whole
from .grid import Field, _norm_exponent, build_grid, load_field, read_text
from .kernels import (
    _NON_NEGATIVE,
    OFFSET_LIMIT,
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
        values = {key: _RULES[key](value, key) for key, value in _items(self)}
        for name, value in {"seed": values["seed"], **_sections(values)}.items():
            object.__setattr__(self, name, value)
        dim, extents, counts = self.grid.dim, self.grid.extents, self.grid.counts
        if dim not in (1, 2):
            raise ConfigurationError(f"grid.dim must be 1 or 2, got {dim}")
        if len(extents) != 2 * dim:
            raise ConfigurationError(f"grid.extents needs {2 * dim} numbers for dim {dim}, "
                                     f"got {len(extents)}")
        if len(counts) != dim:
            raise ConfigurationError(f"grid.counts needs {dim} entries, got {len(counts)}")


def _items(cfg):
    """(key, value) for every key of a configuration (or the class's defaults), in file order."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            for g in fields(value):
                yield f"{f.name}.{g.name}", getattr(value, g.name)
        else:
            yield f.name, value


def _sections(values: dict) -> dict:
    """Each section of a configuration, built from the values of its keys."""
    return {f.name: type(f.default)(**{g.name: values[f"{f.name}.{g.name}"] for g in fields(f.default)})
            for f in fields(RunConfig) if is_dataclass(f.default)}


def _parse_offset(text: str) -> int:
    v = int(text)
    if abs(v) > OFFSET_LIMIT:
        raise ValueError(f"offset must lie in [-(2^63 - 1), 2^63 - 1], got {text}")
    return v


def _choice(*options):
    def check(value, key):
        if value not in options:
            raise ConfigurationError(f"{key} must be one of {', '.join(options)}, got {value!r}")
        return value

    return check


def _text(value, key) -> str:
    """A text key's value, a str or a path, as a str the file format carries back."""
    text = os.fspath(value) if isinstance(value, os.PathLike) else value
    if not isinstance(text, str):
        raise ConfigurationError(f"{key} must be text or a path, got {value!r}")
    if text != text.strip() or len(text.splitlines()) > 1:
        raise ConfigurationError(f"{key} must have no leading or trailing whitespace and no line break, "
                                 f"got {text!r}")
    return text


def _rule(default):
    """A key's check by its default's type: :func:`_whole`, :func:`_real`, :func:`_text`, per item."""
    if not isinstance(default, tuple):
        return {int: _whole, float: _real, str: _text}[type(default)]
    item = _rule(default[0])

    def each(value, key):
        if not (isinstance(value, (tuple, list)) and value):
            raise ConfigurationError(f"{key} must be a non-empty tuple, got {value!r}")
        return tuple(item(v, key) for v in value)

    return each


def _parser(key, default):
    """A key's text to its checked value; a refusal is a ValueError, reported with the line."""
    many = isinstance(default, tuple)
    read = type(default[0] if many else default)

    def parse(text):
        try:
            return _RULES[key](tuple(read(p.strip()) for p in text.split(",")) if many else read(text), key)
        except ConfigurationError as exc:
            raise ValueError(exc) from None

    return parse


# range.family and reaction.family: what each name builds, from its section (and u0)
_RANGE_KERNELS = {
    "linear": lambda rs, u0: linear_kernel(),
    "p_laplacian": lambda rs, u0: p_laplacian_kernel(rs.p),
    "variable_exponent": lambda rs, u0: variable_exponent_kernel(rs.exponent_sigmas, rs.exponent_values),
    "spatial_exponent": lambda rs, u0: spatial_exponent_kernel(rs.exponent_sigmas, rs.exponent_values, u0),
    "bilateral_gaussian": lambda rs, u0: bilateral_kernel(rs.h),
}
_REACTIONS = {
    "zero": lambda fs: zero_reaction(),
    "linear_decay": lambda fs: linear_decay_reaction(fs.rate),
    "affine": lambda fs: affine_reaction(fs.offset, fs.slope),
    "logistic": lambda fs: logistic_reaction(fs.rate, fs.capacity),
    "custom_table": lambda fs: custom_table_reaction(*zip(*_read_table(
        fs.table_path, [lambda text: _real(float(text), "value")] * 2, "reaction table"))),
}
# Every key and its default come from the sections; its rule, unless listed here, from the default's type.
_DEFAULTS = dict(_items(RunConfig))
_RULES = {key: _rule(default) for key, default in _DEFAULTS.items()}
_RULES.update(
    {
        "seed": lambda value, key: _whole(value, key, 0),
        "range.mollify_n": lambda value, key: _whole(value, key, 0, "0 (off) or a positive level"),
        "kernel.family": _choice("gaussian", "box", "custom_table"),
        "range.family": _choice(*_RANGE_KERNELS),
        "reaction.family": _choice(*_REACTIONS),
        "initial.kind": _choice("constant", "random", "step", "field_csv", "pgm"),
        "solver.mu_mode": _choice(*MU_MODES),
        "study.norm": lambda value, key: _norm_exponent(value),
    }
)
_PARSERS = {key: _parser(key, default) for key, default in _DEFAULTS.items()}
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
    values = {**_DEFAULTS, **values}
    try:
        return RunConfig(seed=values["seed"], **_sections(values))
    except ConfigurationError as exc:
        raise ConfigParseError(str(exc), path=path) from exc


def parse_config(path) -> RunConfig:
    """Parse a configuration file into a fully defaulted :class:`RunConfig`."""
    return parse_config_text(read_text(path), path=str(path))


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
        except (ValueError, ConfigurationError) as exc:
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
        for key in ("low", "high"):
            _real(getattr(sec, key), f"initial.{key}", math.isfinite, "be finite")
    if sec.kind == "random":
        _real(sec.high - sec.low, "initial.high - initial.low", math.isfinite, "be finite")
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
        weight = [lambda text: _real(float(text), "weight", *_NON_NEGATIVE)]
        rows = _read_table(ks.table_path, [_parse_offset] * dim + weight, "kernel table")
        table_data = ([r[:-1] for r in rows], [r[-1] for r in rows])
    table = make_spatial_kernel(grid, ks.family, ks.radius, table=table_data)

    u0 = build_initial_state(cfg, grid)

    rs = cfg.range
    kernel = _RANGE_KERNELS[rs.family](rs, u0)
    if rs.mollify_n >= 1:
        kernel = mollify_range_kernel(kernel, rs.mollify_n, rs.mollify_quad)

    return Problem(
        grid=grid,
        table=table,
        kernel=kernel,
        reaction=_REACTIONS[cfg.reaction.family](cfg.reaction),
        u0=u0,
        config=cfg.solver,
        seed=cfg.seed,
    )
