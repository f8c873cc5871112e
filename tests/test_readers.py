"""Fuzz tests of every input reader.

Each reader either loads its input, and the loaded data builds what the
commands build from it, or it raises an :class:`NldiffError`; a file the
operating system cannot open may raise :class:`OSError`.  No other
exception, and no warning, may escape.  Most examples are well formed but
for a few fields, so that the loaders get past their first check.  The
inputs are small, so that no example allocates much or runs long: a grid
of at most 64 nodes, a PGM header that may claim a huge raster but
carries at most a few dozen samples.

Every count, level, offset and seed the library takes is fuzzed the same
way: a whole number is accepted and stored as an int, and anything else
is refused with an :class:`NldiffError`.  So is every real argument with
a range: a real number is accepted and stored as a float, or refused.  A
:class:`RunConfig` built in code is checked by the rules of the file.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nldiff import (
    ConfigurationError,
    Field,
    NldiffError,
    Problem,
    RangeKernel,
    Reaction,
    SolverConfig,
    affine_reaction,
    bilateral_kernel,
    build_grid,
    build_problem,
    custom_kernel,
    custom_table_reaction,
    energy_p,
    image_to_field,
    linear_decay_reaction,
    linear_kernel,
    load_field,
    load_pgm,
    logistic_reaction,
    lp_norm,
    make_spatial_kernel,
    mollifier_cauchy_study,
    mollify_range_kernel,
    p_laplacian_kernel,
    parse_config_text,
    sample_holder_constant,
    solve,
    spatial_exponent_kernel,
    time_refinement_study,
    validate_assumptions,
    variable_exponent_kernel,
    zero_reaction,
)
from nldiff import config, kernels
from nldiff.config import (
    _PARSERS,
    GridSection,
    InitialSection,
    KernelSection,
    OutputSection,
    RangeSection,
    ReactionSection,
    RunConfig,
    StudySection,
    serialize_config,
)
from nldiff.kernels import REACTION_FAMILIES, bilateral_width

EXAMPLES = settings(max_examples=200, deadline=None)

# values that probe the edges of the number parsers, and a few valid ones
NUMBERS = ["nan", "-nan", "inf", "-inf", "infinity", "1e308", "-1e308", "1e309", "1e-320",
           "-1e-320", "0", "-0.0", "-1", "1", "2", "3", "0.5", "0.1", "1.5", "2.5",
           "9223372036854775807", "-9223372036854775808", "99999999999999999999", "0x10", "1_0"]
WORDS = ["", "é", "µ1", "１", "0, 1", "0, 1, 0, 1", "0, 1, 0, 0.5", "1, 2", "1, 2, 3",
         "0, 1e308", "-1e308, 1e308", "0, 1e-300", "0, 1e-320", "0, 1e308, 0, 1",
         "gaussian", "box", "custom_table", "linear", "p_laplacian", "variable_exponent",
         "spatial_exponent", "bilateral_gaussian", "zero", "linear_decay", "affine", "logistic",
         "constant", "random", "step", "field_csv", "pgm", "auto_growth", "auto_linf", "manual"]
# text without decimal digits, which cannot spell a large grid
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
TOKENS = st.one_of(st.sampled_from(NUMBERS + WORDS), NO_DIGITS)
# grid.counts values, none of them a grid larger than 64 nodes
COUNTS_TOKENS = ["16", "64", "4, 4", "8, 8", "2", "1", "0", "-1", "2.5", "inf", "", "é"]
COUNTS = st.sampled_from(COUNTS_TOKENS)


def parses(key, token):
    try:
        _PARSERS[key](token)
    except (ValueError, TypeError):
        return False
    return key != "grid.counts" or token in COUNTS_TOKENS


# for each key, the tokens its parser accepts, extreme ones included
PARSED = {key: [t for t in NUMBERS + WORDS if parses(key, t)] or [""] for key in _PARSERS}


def pick(draw, valid, hostile):
    """``valid`` three times in four, else a draw of ``hostile``."""
    return valid if draw(st.integers(0, 3)) else draw(hostile)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for the files of every example of a test module."""
    return tmp_path_factory.mktemp("readers")


def reads(load, *args):
    """``load(*args)``, or None for the refusals the readers may raise."""
    try:
        return load(*args)
    except (NldiffError, OSError):
        return None


# every key at its default, on a 16-node grid; file paths are empty
BASE = serialize_config(RunConfig()).replace("grid.counts = 64", "grid.counts = 16")


@st.composite
def config_texts(draw):
    lines = BASE.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        key = lines[i].partition(" = ")[0]
        hostile = COUNTS if key == "grid.counts" else TOKENS
        lines[i] = f"{key} = {pick(draw, draw(st.sampled_from(PARSED[key])), hostile)}"
    noise = [f"seed = {draw(TOKENS)}",  # a duplicate key
             f"{draw(st.sampled_from(['grid', 'grïd.dim', 'solver.t', '']))} = 1",  # unknown keys
             draw(NO_DIGITS),
             "# commentaire à la ligne"]
    lines += [line for line in noise if not draw(st.integers(0, 7))]
    return "\n".join(draw(st.permutations(lines)))


@given(config_texts())
@example(BASE.replace("grid.extents = 0.0, 1.0", "grid.extents = 0, 1e200"))  # |d|^2 overflows
@example(BASE.replace("reaction.family = zero", "reaction.family = logistic")
         .replace("reaction.capacity = 1.0", "reaction.capacity = 1e-320"))  # s / capacity overflows
@EXAMPLES
def test_config_text_loads_or_is_refused(text):
    cfg = reads(parse_config_text, text, "fuzz.cfg")
    if cfg is not None:
        assert parse_config_text(serialize_config(cfg)) == cfg
        problem = reads(build_problem, cfg)
        assert problem is None or problem.u0.values.size == problem.grid.node_count <= 64


def negated(token):
    return token[1:] if token.startswith("-") else "-" + token


OFFSETS = st.sampled_from(["0", "1", "2", "3", "15", "16", "9223372036854775807",
                           "9223372036854775808", "99999999999999999999", "1.5", "nan", "x"])


@st.composite
def kernel_rows(draw):
    """Rows d, w and, mostly, the mirror row -d, w of an even table."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        d, w = draw(OFFSETS), pick(draw, "0.5", st.sampled_from(NUMBERS))
        rows.append(f"{d}, {w}")
        if draw(st.integers(0, 3)):
            rows.append(f"{negated(d)}, {w}")
    if not draw(st.integers(0, 3)):
        rows.append(draw(st.sampled_from(["0", "1, 2, 3", "x, 1", "# c", ""])))
    return draw(st.permutations(rows))


@st.composite
def reaction_rows(draw):
    """Rows s, f, the abscissae mostly in increasing order."""
    s = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=5, unique=True))
    if draw(st.integers(0, 3)):
        s.sort(key=lambda v: float(v) if v not in ("0x10", "1_0") else 0.0)
    return [f"{x}, {draw(st.sampled_from(NUMBERS))}" for x in s]


@given(st.one_of(kernel_rows().map(lambda rows: ("kernel", "gaussian", rows)),
                 reaction_rows().map(lambda rows: ("reaction", "zero", rows))))
@example(("kernel", "gaussian", ["1, 1e308", "-1, 1e308"]))  # the mass overflows
@example(("reaction", "zero", ["-inf, inf", "inf, inf"]))
@example(("reaction", "zero", ["inf, 1", "1e308, 1", "-1e308, 1"]))  # abscissa steps overflow
@EXAMPLES
def test_kernel_and_reaction_table_rows_load_or_are_refused(scratch, table):
    section, default, rows = table
    path = scratch / "table.csv"
    path.write_text("\n".join(rows), encoding="utf-8")
    text = BASE.replace(f"{section}.family = {default}\n", f"{section}.family = custom_table\n")
    text = text.replace(f"{section}.table_path = \n", f"{section}.table_path = {path}\n")
    problem = reads(build_problem, parse_config_text(text, "fuzz.cfg"))
    if problem is not None:
        assert np.all(np.isfinite(problem.table.weights)) and np.all(problem.table.weights >= 0.0)
        assert math.isfinite(problem.reaction.c_growth) and math.isfinite(problem.reaction.l_lipschitz)


SIZES = ["0", "-1", "255", "256", "65535", "65536", "99999999999", "99999999999999999999",
         "1e3", "x", "\xff"]


@st.composite
def pgm_bytes(draw):
    """A header of, mostly, valid fields and a raster of about the length
    it asks for, else random bytes."""
    magic = pick(draw, draw(st.sampled_from([b"P2", b"P5"])), st.sampled_from([b"P6", b"P", b"P55"]))
    fields = [pick(draw, draw(st.sampled_from(["1", "2", "3"])), st.sampled_from(SIZES)) for _ in "wh"]
    fields.append(pick(draw, draw(st.sampled_from(["255", "1", "65535"])), st.sampled_from(SIZES)))
    fields = [f.encode("latin-1") for f in fields[: pick(draw, 3, st.integers(0, 2))]]
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b" # note\n"]))
    count = math.prod(int(f) for f in fields[:2]) if all(f.isdigit() for f in fields[:2]) else 4
    count = max(0, min(count, 40) + pick(draw, 0, st.integers(-2, 2)))
    if magic == b"P2":
        sample = st.sampled_from(["0", "1", "2", "255"] + SIZES)
        raster = " ".join(draw(sample) for _ in range(count)).encode("latin-1")
    else:
        raster = draw(st.binary(min_size=2 * count, max_size=2 * count))
    raster = pick(draw, raster, st.binary(max_size=24))
    return sep.join([magic, *fields]) + draw(st.sampled_from([b"\n", b" ", b""])) + raster


@given(pgm_bytes())
@EXAMPLES
def test_pgm_bytes_load_or_are_refused(scratch, data):
    path = scratch / "image.pgm"
    path.write_bytes(data)
    image = reads(load_pgm, path)
    mapped = None if image is None else reads(image_to_field, image)
    if mapped is not None:
        grid, field = mapped
        assert field.values.size == image.width * image.height == grid.node_count
        assert 0.0 <= field.values.min() <= field.values.max() <= 1.0


BAD_HEADERS = {
    "dim": ["0", "3", "nan", "", "1 2"],
    "extents": ["1 0", "0 1e-320", "-1e308 1e308", "0 inf", "0", "x y", "0 1 0 1 0 1"],
    "counts": ["1", "99999999999", "1099511627776 1099511627776", "4294967296 4294967296",
               "-4", "2.5"],
}


@st.composite
def field_texts(draw):
    """Mostly the three header lines in order, each value valid or not, and
    about as many values as a valid header asks for."""
    dim = draw(st.sampled_from([1, 2]))
    valid = {"dim": str(dim), "extents": "0 1" if dim == 1 else "0 1 0 0.5",
             "counts": "4" if dim == 1 else "2 3"}
    lines = [pick(draw, "# nldiff-field v1", st.sampled_from(["# nldiff-field v2", "", "#"]))]
    lines += [f"# {key} {pick(draw, valid[key], st.sampled_from(bad))}"
              for key, bad in BAD_HEADERS.items()]
    lines[1:] = pick(draw, lines[1:], st.permutations(lines[1:]))
    if draw(st.integers(0, 3)):
        value = st.floats(-1e308, 1e308).map(repr)
    else:
        value = st.one_of(st.sampled_from(["1e-320", "-0.0", "# c", ""] + NUMBERS), NO_DIGITS)
    count = 4 if dim == 1 else 6
    lines += draw(st.lists(value, min_size=count - 1, max_size=count + 1))
    return "\n".join(lines), pick(draw, "utf-8", st.just("latin-1"))


@given(field_texts())
@example(("# nldiff-field v1\n# dim 2\n# extents 0 1 0 1\n# counts 4294967296 4294967296\n",
          "utf-8"))  # 2^64 nodes, which an int64 product wraps to 0
@EXAMPLES
def test_field_csv_text_loads_or_is_refused(scratch, text_encoding):
    text, encoding = text_encoding
    path = scratch / "field.csv"
    path.write_bytes(text.encode(encoding, errors="replace"))
    field = reads(load_field, path)
    if field is not None:
        assert field.values.size == math.prod(field.grid.counts)
        assert np.all(np.isfinite(field.values))


# ---------------------------------------------------------------------------
# whole-number arguments of the library

# the probes every entry point sees, then integers and floats near them
WHOLE_PROBES = [math.inf, -math.inf, math.nan, 2.5, "4", -1, 4.0]
WHOLE_VALUES = st.one_of(st.sampled_from(WHOLE_PROBES), st.integers(-3, 40), st.floats(-40.0, 40.0))


@pytest.fixture(scope="module")
def tiny():
    """A conformant problem of 4 nodes and 4 steps."""
    grid = build_grid(1, [(0.0, 1.0)], [4])
    table = make_spatial_kernel(grid, "gaussian", 0.5)
    u0 = Field(grid, [0.2, 0.4, 0.6, 0.8])
    config = SolverConfig(T=0.1, steps=4, mu_mode="manual")
    return Problem(grid, table, linear_kernel(), zero_reaction(), u0, config)


def _solve_seed(p, seed):
    solve(p.grid, p.table, p.kernel, p.reaction, p.u0, p.config, seed=seed)


def _validate_seed(p, seed):
    validate_assumptions(p.table, p.kernel, p.reaction, p.u0, seed=seed)


# per entry point, its call on one value and what it stored of it (None
# where it stores nothing); a refusal raises an NldiffError
WHOLE_ENTRIES = {
    "grid_counts": lambda p, v: build_grid(1, [(0.0, 1.0)], [v]).counts[0],
    "grid_dim": lambda p, v: build_grid(v, [(0.0, 1.0)], [4]).dim,
    "solver_steps": lambda p, v: SolverConfig(T=1.0, steps=v).steps,
    "solver_record_every": lambda p, v: SolverConfig(T=1.0, steps=4, record_every=v).record_every,
    "run_config_seed": lambda p, v: RunConfig(seed=v).seed,
    "solve_seed": _solve_seed,
    "validate_seed": _validate_seed,
    "refine_step_count": lambda p, v: time_refinement_study(p, [v, 16, 32]).constants["step_counts"][0],
    "cauchy_level": lambda p, v: mollifier_cauchy_study(p, [v, 16, 32]).report.constants["levels"][0],
    "table_offset": lambda p, v: make_spatial_kernel(
        p.grid, "custom_table", table=([[v], [-4]], [1.0, 1.0])).offsets[-1, 0],
}


def _with_probes(test):
    for value in WHOLE_PROBES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("entry", WHOLE_ENTRIES)
@settings(max_examples=25, deadline=None)
@_with_probes
@given(value=WHOLE_VALUES)
def test_whole_number_arguments_are_stored_as_ints_or_refused(tiny, entry, value):
    try:
        stored = WHOLE_ENTRIES[entry](tiny, value)
    except NldiffError:
        return
    # accepted: a whole number, stored as an int (the table's as int64)
    assert isinstance(value, (int, float)) and value == int(value)
    assert stored is None or (type(stored) in (int, np.int64) and stored == value)


# ---------------------------------------------------------------------------
# real arguments of the library, and the keys of a configuration built in code

REAL_PROBES = [math.inf, -math.inf, math.nan, "0.5", None, np.float32(0.5), 0.5, 2.5, 0]
REAL_VALUES = st.one_of(st.sampled_from(REAL_PROBES), st.floats())

def _lp_norm_p(p, value):
    lp_norm(p.grid, p.u0, value)


def _energy_p(p, value):
    energy_p(p.grid, p.table, p.u0, value)


def _holder_alpha(p, value):
    sample_holder_constant(p.kernel, value, 1.0, np.random.default_rng(0))


# per entry point, its call on one value and what it stored of it (None
# where it stores nothing); a refusal raises an NldiffError
REAL_ENTRIES = {
    "grid_extent": lambda p, v: build_grid(1, [(0.0, v)], [4]).extents[0][1],
    "lp_norm_p": _lp_norm_p,
    "kernel_radius": lambda p, v: make_spatial_kernel(p.grid, "gaussian", v).radius,
    "p_laplacian_p": lambda p, v: p_laplacian_kernel(v).p,
    "energy_p": _energy_p,
    "bilateral_width": lambda p, v: bilateral_width(v),
    "decay_rate": lambda p, v: linear_decay_reaction(v).rate,
    "affine_offset": lambda p, v: affine_reaction(v, 0.0).offset,
    "affine_slope": lambda p, v: affine_reaction(0.0, v).slope,
    "logistic_rate": lambda p, v: logistic_reaction(v, 1.0).rate,
    "logistic_capacity": lambda p, v: logistic_reaction(1.0, v).capacity,
    "holder_alpha": _holder_alpha,
    "solver_T": lambda p, v: SolverConfig(T=v, steps=4).T,
    "solver_mu": lambda p, v: SolverConfig(T=1.0, steps=4, mu=v).mu,
    "solver_mu_margin": lambda p, v: SolverConfig(T=1.0, steps=4, mu_margin=v).mu_margin,
}


def _with_real_probes(test):
    for value in REAL_PROBES:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("entry", REAL_ENTRIES)
@settings(max_examples=25, deadline=None)
@_with_real_probes
@given(value=REAL_VALUES)
def test_real_arguments_are_stored_as_floats_or_refused(tiny, entry, value):
    try:
        stored = REAL_ENTRIES[entry](tiny, value)
    except NldiffError:
        return
    # accepted: a real number other than NaN, stored as a float
    assert isinstance(value, (int, float, np.floating)) and value == value
    assert stored is None or (type(stored) is float and stored == value)


def test_configs_built_in_code_round_trip_and_refuse_unknown_names():
    cfg = RunConfig(
        seed=np.int64(7),
        grid=GridSection(dim=1.0, extents=(0, np.float64(2.0)), counts=(16.0,)),
        kernel=KernelSection(radius=np.float64(0.25)),
        range=RangeSection(family="p_laplacian", p=3, mollify_n=2.0, mollify_quad=129.0),
        reaction=ReactionSection(family="logistic", rate=np.float64(0.5), capacity=2),
        initial=InitialSection(low=0, high=np.float32(0.5)),
        solver=SolverConfig(T=1, steps=4.0, mu=np.float64(0.0)),
        study=StudySection(levels=(4.0, 8, 16.0), norm=np.float64(math.inf), perturb_scale=1),
    )
    assert parse_config_text(serialize_config(cfg)) == cfg
    assert cfg.grid.counts == (16,) and cfg.study.levels == (4, 8, 16) and cfg.range.mollify_n == 2
    assert type(cfg.range.p) is float and type(cfg.grid.extents[0]) is float
    # an unknown name is refused when the RunConfig is built, as in a file
    sections = {"kernel": KernelSection(family="gauss"), "range": RangeSection(family="lienar"),
                "reaction": ReactionSection(family="logistc"), "initial": InitialSection(kind="rand")}
    for name, section in sections.items():
        with pytest.raises(ConfigurationError, match=rf"{name}\.(family|kind) must be one of"):
            RunConfig(**{name: section})
    with pytest.raises(ConfigurationError, match="unknown mu mode"):
        RunConfig(solver=SolverConfig(T=1.0, steps=4, mu_mode="auto"))


def test_text_keys_of_a_config_built_in_code_round_trip_or_are_refused():
    cfg = RunConfig(initial=InitialSection(path=pathlib.Path("u.csv")))
    assert cfg.initial.path == "u.csv" and type(cfg.initial.path) is str
    assert parse_config_text(serialize_config(cfg)) == cfg
    # text the format cannot carry back, and a value that is no text
    for value in (" out", "out ", "a\nb", "a\rb", "a\u2028b", 3, None, b"out"):
        with pytest.raises(ConfigurationError, match="output.dir must"):
            RunConfig(output=OutputSection(dir=value))


def test_reaction_names_are_the_keys_of_the_table_that_builds_them():
    assert tuple(config._REACTIONS) == REACTION_FAMILIES
    with pytest.raises(ConfigurationError, match="reaction.family must be one of zero, linear_decay, affine, "
                                                 "logistic, custom_table, got 'logistc'"):
        RunConfig(reaction=ReactionSection(family="logistc"))


def test_range_names_are_the_keys_of_the_table_that_builds_them():
    # every family but the two whose parameters are no config keys: a base kernel, a callable
    buildable = tuple(f for f in kernels._RANGE_FAMILIES if f not in ("mollified", "custom"))
    assert tuple(config._RANGE_KERNELS) == buildable
    with pytest.raises(ConfigurationError, match="range.family must be one of linear, p_laplacian, variable_exponent, "
                                                 "spatial_exponent, bilateral_gaussian, got 'lienar'"):
        RunConfig(range=RangeSection(family="lienar"))


_SIGMAS, _VALUES = (0.0, 0.5), (2.5, 1.8)
_TABLE = ((-1.0, 0.0, 0.5, 1.0, 2.0), (0.2, 0.1, 0.3, 0.0, -0.4))


def _odd(t, s):
    return np.asarray(s) * (1.0 + t)


def _range_ways(u0):
    """Per range family: its factory's kernel, the constructor's parameters
    and the range keys of a config, or None where no config builds it."""
    table = {"exponent_sigmas": _SIGMAS, "exponent_values": _VALUES}
    return {
        "linear": (linear_kernel(), {}, {}),
        "p_laplacian": (p_laplacian_kernel(1.5), {"p": 1.5}, {"p": 1.5}),
        "variable_exponent": (variable_exponent_kernel(*table.values()), table, table),
        "spatial_exponent": (spatial_exponent_kernel(*table.values(), u0), {**table, "reference": u0}, table),
        "bilateral_gaussian": (bilateral_kernel(0.3), {"h": 0.3}, {"h": 0.3}),
        "mollified": (mollify_range_kernel(p_laplacian_kernel(1.5), 4, 64),
                      {"base": p_laplacian_kernel(1.5), "n": 4, "quad_count": 64}, None),
        "custom": (custom_kernel(_odd), {"fn": _odd}, None),
    }


def _reaction_ways(table_path):
    return {
        "zero": (zero_reaction(), {}, {}),
        "linear_decay": (linear_decay_reaction(0.5), {"rate": 0.5}, {"rate": 0.5}),
        "affine": (affine_reaction(0.1, -0.5), {"offset": 0.1, "slope": -0.5}, {"offset": 0.1, "slope": -0.5}),
        "logistic": (logistic_reaction(0.4, 2.0), {"rate": 0.4, "capacity": 2.0}, {"rate": 0.4, "capacity": 2.0}),
        "custom_table": (custom_table_reaction(*_TABLE), {"table": _TABLE}, {"table_path": str(table_path)}),
    }


def _built(**sections):
    return build_problem(RunConfig(grid=GridSection(dim=1, extents=(0.0, 1.0), counts=(16,)),
                                   initial=InitialSection(kind="random"), solver=SolverConfig(T=0.1, steps=4),
                                   **sections))


def test_every_way_of_building_a_family_agrees(tmp_path):
    u0 = _built().u0
    rng = np.random.default_rng(31)
    s = rng.uniform(-3.0, 3.0, 257)
    q, pair_ref = rng.uniform(1.5, 3.0, s.shape), rng.uniform(-1.0, 1.0, s.shape)
    ways = _range_ways(u0)
    assert tuple(ways) == tuple(kernels._RANGE_FAMILIES)
    for family, (by_factory, params, keys) in ways.items():
        built = [by_factory, RangeKernel(family, **params)]
        if keys is not None:
            built.append(_built(range=RangeSection(family=family, **keys)).kernel)
        seen = set()
        for k in built:
            pq = q if k.needs_pair_reference else None
            a, d = k.terms(0.3, s, pq, True)
            seen.add((k.family, k.holder_alpha, k.monotone, k.has_energy, k.flux_exponent, k.needs_pair_reference,
                      a.tobytes(), d.tobytes(), k.eval(0.3, s, pair_ref if pq is not None else None).tobytes()))
        assert len(seen) == 1, family
    path = tmp_path / "reaction.csv"
    path.write_text("".join(f"{a}, {b}\n" for a, b in zip(*_TABLE)))
    ways = _reaction_ways(path)
    assert tuple(ways) == REACTION_FAMILIES
    for family, (by_factory, params, keys) in ways.items():
        by_config = _built(reaction=ReactionSection(family=family, **keys)).reaction
        built = [by_factory, Reaction(family, **params), by_config]
        seen = {(r.family, r.c_growth, r.l_lipschitz, r.non_increasing, r.working_range,
                 r.eval(0.0, None, s).tobytes()) for r in built}
        assert len(seen) == 1, family


def test_array_arguments_that_are_not_real_numbers_are_refused_by_name():
    g = build_grid(1, [(0.0, 1.0)], [16])
    cases = {
        "field values": lambda: Field(g, ["a"] * 16),
        "field values must be real": lambda: Field(g, [[0.0]] * 15 + [[0.0, 1.0]]),
        "exponent table abscissae": lambda: variable_exponent_kernel(["x", 1], [3, 2]),
        "exponent table values": lambda: variable_exponent_kernel([0, 1], [3, "y"]),
        "reaction table abscissae": lambda: custom_table_reaction(["a", "b"], [1.0, 0.0]),
        "reaction table values": lambda: custom_table_reaction([0.0, 1.0], [None, {}]),
        "kernel table weights": lambda: make_spatial_kernel(g, "custom_table", table=([[-1], [1]], ["w", "w"])),
    }
    for name, call in cases.items():
        with pytest.raises(ConfigurationError, match=name):
            call()
