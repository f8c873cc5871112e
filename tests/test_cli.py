"""Configuration files, PGM round trips, and the command-line surface.

End-to-end runs go through ``main(argv)`` in process, checking exit
codes, the files a command leaves behind, and byte-level reproducibility
of a repeated run.
"""

import importlib.util
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nldiff.analysis
import nldiff.cli
from nldiff import (
    ConfigParseError,
    ConfigurationError,
    Field,
    PgmFormatError,
    RunConfig,
    build_grid,
    build_initial_state,
    build_problem,
    field_to_image,
    image_to_field,
    load_pgm,
    make_spatial_kernel,
    parse_config,
    parse_config_text,
    save_field,
    save_pgm,
    serialize_config,
)
from nldiff.cli import main
from nldiff.pgm import ImageField

MINIMAL = """
grid.dim = 1
grid.extents = 0, 1
grid.counts = 16
range.family = linear
solver.T = 0.1
solver.steps = 8
"""


# ---------------------------------------------------------------------------
# configuration parsing


def test_minimal_config_materializes_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.seed == 42
    assert cfg.kernel.family == "gaussian"
    assert cfg.kernel.radius == 0.1
    assert cfg.solver.mu_mode == "auto_growth"
    assert cfg.initial.kind == "constant"
    assert cfg.study.levels == (4, 8, 16, 32)
    assert cfg.output.dir == "out"


def test_unknown_key_names_the_line():
    text = MINIMAL + "solver.dt = 0.01\n"
    with pytest.raises(ConfigParseError) as exc:
        parse_config_text(text, path="run.cfg")
    msg = str(exc.value)
    assert "unknown key" in msg and "solver.dt" in msg
    assert "run.cfg" in msg and "line 8" in msg


def test_duplicate_key_points_at_first_use():
    text = MINIMAL + "solver.T = 0.2\n"
    with pytest.raises(ConfigParseError, match="first set on line 6"):
        parse_config_text(text)


def test_bad_values_are_rejected_in_place():
    with pytest.raises(ConfigParseError, match="bad value for solver.steps"):
        parse_config_text(MINIMAL.replace("steps = 8", "steps = many"))
    with pytest.raises(ConfigParseError, match="must be one of"):
        parse_config_text(MINIMAL.replace("family = linear", "family = quadratic"))
    with pytest.raises(ConfigParseError, match="nan"):
        parse_config_text(MINIMAL + "solver.mu = nan\n")
    with pytest.raises(ConfigParseError, match="expected 'key = value'"):
        parse_config_text(MINIMAL + "solver.steps\n")


def test_missing_required_keys_are_listed():
    with pytest.raises(ConfigParseError, match="missing required keys"):
        parse_config_text("grid.dim = 1\n")


def test_grid_shape_cross_checks():
    with pytest.raises(ConfigParseError, match="grid.dim must be 1 or 2"):
        parse_config_text(MINIMAL.replace("grid.dim = 1", "grid.dim = 3"))
    with pytest.raises(ConfigParseError, match="needs 4 numbers"):
        parse_config_text(
            MINIMAL.replace("grid.dim = 1", "grid.dim = 2").replace(
                "grid.counts = 16", "grid.counts = 4, 4"
            )
        )


def test_serialize_round_trips_and_covers_every_key():
    text = MINIMAL + "\n".join(
        [
            "range.p = 3.0",
            "solver.mu_mode = manual",
            "study.norm = inf",
            "initial.kind = random",
            "initial.low = 0.25",
            "seed = 7",
        ]
    )
    cfg = parse_config_text(text)
    assert cfg.study.norm == math.inf
    out = serialize_config(cfg)
    assert parse_config_text(out) == cfg
    for key in ("kernel.radius", "range.mollify_quad", "reaction.capacity", "study.norm"):
        assert f"\n{key} = " in "\n" + out


def test_parse_config_reads_files_and_reports_io_errors(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(MINIMAL, encoding="utf-8")
    assert parse_config(p) == parse_config_text(MINIMAL)
    with pytest.raises(ConfigParseError, match="cannot read file"):
        parse_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# initial states and problem assembly


def test_initial_state_kinds(tmp_path):
    cfg = parse_config_text(MINIMAL)
    g = build_grid(1, [(0.0, 1.0)], [16])
    const = build_initial_state(cfg, g)
    np.testing.assert_array_equal(const.values, 0.0)

    cfg_step = parse_config_text(
        MINIMAL + "initial.kind = step\ninitial.low = 0.1\ninitial.high = 0.9\n"
    )
    step = build_initial_state(cfg_step, g).values
    np.testing.assert_array_equal(step[:8], 0.1)
    np.testing.assert_array_equal(step[8:], 0.9)

    cfg_rand = parse_config_text(MINIMAL + "initial.kind = random\nseed = 3\n")
    r1 = build_initial_state(cfg_rand, g).values
    r2 = build_initial_state(cfg_rand, g).values
    np.testing.assert_array_equal(r1, r2)
    assert not np.array_equal(r1, build_initial_state(parse_config_text(
        MINIMAL + "initial.kind = random\nseed = 4\n"), g).values)


def test_initial_field_csv_checks_the_grid(tmp_path):
    path = tmp_path / "u0.csv"
    other = build_grid(1, [(0.0, 1.0)], [12])
    save_field(Field(other, np.linspace(0.0, 1.0, 12)), path)
    cfg = parse_config_text(MINIMAL + f"initial.kind = field_csv\ninitial.path = {path}\n")
    with pytest.raises(ConfigurationError, match="different grid"):
        build_problem(cfg)


def test_build_problem_wires_the_mollifier():
    cfg = parse_config_text(
        "grid.dim = 1\ngrid.extents = 0, 1\ngrid.counts = 16\n"
        "range.family = p_laplacian\nrange.p = 1.5\nrange.mollify_n = 2\n"
        "solver.T = 0.1\nsolver.steps = 8\n"
    )
    prob = build_problem(cfg)
    assert prob.kernel.family == "mollified"
    assert prob.kernel.base.p == 1.5
    assert prob.grid.node_count == 16


def test_custom_tables_and_fields_load_through_a_config(tmp_path):
    # UTF-8 comments are allowed in every input file
    ktab = tmp_path / "kernel.csv"
    ktab.write_text("# offset, weight (σ = 1)\n-1, 0.5\n0, 0\n\n1, 0.5\n", encoding="utf-8")
    rtab = tmp_path / "reaction.csv"
    rtab.write_text("# s, f(s)\n0, 0\n1, -0.5\n2, -2\n", encoding="utf-8")
    g = build_grid(1, [(0.0, 1.0)], [16])
    u0 = tmp_path / "u0.csv"
    save_field(Field(g, np.linspace(0.1, 0.9, 16)), u0)
    with open(u0, "a", encoding="utf-8") as fh:
        fh.write("# σ-smoothed start\n")
    cfg = parse_config_text(
        MINIMAL
        + f"kernel.family = custom_table\nkernel.table_path = {ktab}\n"
        + f"reaction.family = custom_table\nreaction.table_path = {rtab}\n"
        + f"initial.kind = field_csv\ninitial.path = {u0}\n"
    )
    prob = build_problem(cfg)
    expect = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [0.5, 0.0, 0.5]))
    np.testing.assert_array_equal(prob.table.offsets, expect.offsets)
    np.testing.assert_array_equal(prob.table.weights, expect.weights)
    assert prob.reaction.working_range == (0.0, 2.0)
    np.testing.assert_array_equal(prob.reaction.eval(0.0, None, [0.5, 1.5]), [-0.25, -1.25])
    np.testing.assert_array_equal(prob.u0.values, np.linspace(0.1, 0.9, 16))


def test_negative_seed_is_rejected():
    with pytest.raises(ConfigParseError, match="seed must be a non-negative integer"):
        parse_config_text(MINIMAL + "seed = -1\n", path="run.cfg")


# ---------------------------------------------------------------------------
# PGM


def write_p2(path, rows, maxval=255):
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    path.write_text(f"P2\n# a comment\n{len(rows[0])} {len(rows)}\n{maxval}\n{body}\n")


def test_p2_parsing_scales_and_skips_comments(tmp_path):
    p = tmp_path / "img.pgm"
    write_p2(p, [[0, 128, 255], [64, 32, 16]])
    img = load_pgm(p)
    assert (img.width, img.height) == (3, 2)
    assert img.values[0, 0] == 0.0
    assert img.values[0, 1] == pytest.approx(128 / 255)
    assert img.values[1, 0] == pytest.approx(64 / 255)


def test_sixteen_bit_p2(tmp_path):
    p = tmp_path / "deep.pgm"
    write_p2(p, [[0, 65535], [32768, 1]], maxval=65535)
    img = load_pgm(p)
    assert img.values[0, 1] == 1.0
    assert img.values[1, 0] == pytest.approx(32768 / 65535)


def test_p5_save_load_is_byte_stable(tmp_path):
    rng = np.random.default_rng(9)
    img = ImageField(width=5, height=4, values=rng.uniform(0.0, 1.0, (4, 5)))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_pgm(img, a)
    save_pgm(load_pgm(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_pgm_format_errors(tmp_path):
    bad_magic = tmp_path / "m.pgm"
    bad_magic.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
    with pytest.raises(PgmFormatError, match="unsupported magic"):
        load_pgm(bad_magic)
    trunc = tmp_path / "t.pgm"
    trunc.write_bytes(b"P5\n4 4\n")
    with pytest.raises(PgmFormatError, match="truncated header"):
        load_pgm(trunc)
    short = tmp_path / "s.pgm"
    short.write_bytes(b"P5\n4 4\n255\nabc")
    with pytest.raises(PgmFormatError, match="raster shorter"):
        load_pgm(short)
    zero = tmp_path / "z.pgm"
    zero.write_bytes(b"P2\n1 1\n0\n0")
    with pytest.raises(PgmFormatError, match="maxval"):
        load_pgm(zero)
    over = tmp_path / "o.pgm"
    over.write_text("P2\n1 1\n10\n42\n")
    with pytest.raises(PgmFormatError, match="outside"):
        load_pgm(over)


def test_image_field_round_trip_and_orientation(tmp_path):
    p = tmp_path / "img.pgm"
    write_p2(p, [[0, 128, 255], [64, 32, 16]])
    img = load_pgm(p)
    grid, f = image_to_field(img)
    assert tuple(grid.counts) == (3, 2)
    assert grid.extents[1][1] == pytest.approx(2 / 3)
    # node (x=1, y=0) is column 1 of the top row
    assert f.values[grid.flat_index((1, 0))] == img.values[0, 1]
    back = field_to_image(f)
    np.testing.assert_array_equal(back.values, img.values)


def test_field_to_image_clamps_overshoot():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [2, 2])
    img = field_to_image(Field(g, [-0.5, 0.2, 0.8, 1.7]))
    assert img.values.min() == 0.0 and img.values.max() == 1.0


# ---------------------------------------------------------------------------
# the command line, in process


def write_cfg(tmp_path, extra=""):
    p = tmp_path / "run.cfg"
    p.write_text(MINIMAL + extra, encoding="utf-8")
    return str(p)


def test_solve_writes_the_run_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.kind = random\ninitial.low = 0.1\n"
                              "initial.high = 0.9\nsolver.record_every = 4\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "solved 8 steps" in stdout
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "diagnostics.csv",
        "field_000000.csv",
        "field_000004.csv",
        "field_000008.csv",
        "run_config.txt",
    ]
    # the stored config reproduces the run exactly
    assert parse_config(out / "run_config.txt") == parse_config(cfg)


def test_solve_is_byte_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, "initial.kind = random\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


def test_seed_override_changes_a_random_run(tmp_path):
    cfg = write_cfg(tmp_path, "initial.kind = random\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
    assert (a / "field_000000.csv").read_bytes() != (b / "field_000000.csv").read_bytes()


def test_verify_passes_on_a_conformant_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.kind = random\ninitial.low = 0.2\n"
                              "initial.high = 0.8\nsolver.mu_mode = manual\n")
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "[FAIL]" not in report
    assert (out / "report.csv").read_text(encoding="ascii").startswith(
        "check,name,pass,measured,threshold")


def test_nonconformant_data_exits_2_with_details(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.value = -0.5\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "initial state non-negativity" in captured.err
    assert "measured -5.000000e-01 vs threshold 0.000000e+00" in captured.err


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "solver.dt = 1\n", encoding="utf-8")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["solve", "--config", str(tmp_path / "ghost.cfg"),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "table, extra, detail",
    [
        ("1, 0.5\n0.5\n-1, 0.5\n", "kernel.family = custom_table\nkernel.table_path = {}\n",
         "line 2: kernel table row needs 2 fields, got 1"),
        ("1, 0.5\n0, 0.25x\n-1, 0.5\n", "kernel.family = custom_table\nkernel.table_path = {}\n",
         "line 2: bad kernel table row"),
        ("# s, f\n", "reaction.family = custom_table\nreaction.table_path = {}\n",
         "reaction table has no data rows"),
        ("0, 0\n1, nan\n", "reaction.family = custom_table\nreaction.table_path = {}\n",
         "line 2: bad reaction table row"),
        ("# caf\xe9\n0, 0\n1, -1\n", "reaction.family = custom_table\nreaction.table_path = {}\n",
         "line 1: not UTF-8 text"),
        ("# nldiff-field v1\n# dim 1\n# extents 0 1\n# counts 16\n" + "0.5\n" * 15 + "\xb5\n",
         "initial.kind = field_csv\ninitial.path = {}\n", "line 20: not UTF-8 text"),
        ("1, -0.5\n0, 0\n-1, -0.5\n", "kernel.family = custom_table\nkernel.table_path = {}\n",
         "line 1: bad kernel table row: weight must be finite and non-negative, got -0.5"),
        ("1, 0.5\n0, 1\n-1, 0.5\n1, 0.5\n",
         "kernel.family = custom_table\nkernel.table_path = {}\n",
         "line 4: kernel table lists (1,) twice, first on line 1"),
        ("0, 0\n0.5, 1\n0.5, 2\n", "reaction.family = custom_table\nreaction.table_path = {}\n",
         "line 3: reaction table lists (0.5,) twice, first on line 2"),
        ("# nldiff-field v1\n# dim 1\n# extents 0 1\n# counts 16\n" + "0.5\n" * 2 + "nan\n"
         + "0.5\n" * 13, "initial.kind = field_csv\ninitial.path = {}\n", "line 7: value nan is not finite"),
        ("# nldiff-field v1\n# dim 1\n# extents 0 1\n# counts 16\n" + "0.5\n" * 13,
         "initial.kind = field_csv\ninitial.path = {}\n", "field has 13 values, grid has 16 nodes"),
    ],
    ids=["kernel_row_width", "kernel_bad_weight", "reaction_comment_only",
         "reaction_nan", "reaction_latin1", "field_latin1", "kernel_negative_weight",
         "kernel_duplicate_offset", "reaction_duplicate_abscissa", "field_nan", "field_short"],
)
def test_bad_input_files_exit_2(tmp_path, capsys, table, extra, detail):
    path = tmp_path / "table.csv"
    path.write_bytes(table.encode("latin-1"))
    cfg = write_cfg(tmp_path, extra.format(path))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and detail in err and "Traceback" not in err
    assert "np.int64" not in err


@pytest.mark.parametrize(
    "text, detail",
    [
        ((MINIMAL + "# caf\xe9\n").encode("latin-1"), "line 8: not UTF-8 text"),
        ((MINIMAL + "seed = -1\n").encode("utf-8"), "seed must be a non-negative integer"),
        ((MINIMAL.replace("solver.T = 0.1", "solver.T = inf") + "solver.mu_mode = manual\n")
         .encode("utf-8"), "final time must be finite and positive"),
        ((MINIMAL + "solver.scheme = semi_implicit_w\n").encode("utf-8"),
         "line 8: unknown key 'solver.scheme'"),
        ((MINIMAL + "range.mollify_n = -3\n").encode("utf-8"),
         "range.mollify_n must be 0 (off) or a positive level, got -3"),
        ((MINIMAL + "initial.kind = random\ninitial.low = -1e308\ninitial.high = 1e308\n")
         .encode("utf-8"), "initial.high - initial.low must be finite, got inf"),
    ],
    ids=["config_latin1", "config_negative_seed", "config_infinite_T",
         "config_removed_scheme_key", "config_negative_mollify_n", "config_overflowing_random_range"],
)
def test_bad_configs_exit_2(tmp_path, capsys, text, detail):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and detail in err and "Traceback" not in err


@pytest.mark.parametrize("extents, detail", [("-1e308, 1e308", "spacing inf"),
                                             ("0, 1e-320", "spacing 6.23e-322")],
                         ids=["overflowing_span", "subnormal_spacing"])
def test_grid_spacing_that_is_not_a_normal_float_exits_2(tmp_path, capsys, extents, detail):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.replace("grid.extents = 0, 1", f"grid.extents = {extents}"),
                   encoding="utf-8")
    # under the default filters, which would print a numpy warning before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: degenerate extent") and detail in err
    assert "RuntimeWarning" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra, detail",
    [
        (["solve"], "range.mollify_n = 4\nrange.mollify_quad = 100000000\n",
         "mollifier quadrature needs 64 to 65536 panels, got 100000000"),
        (["study", "cauchy"], "range.mollify_quad = 65537\n",
         "mollifier quadrature needs 64 to 65536 panels, got 65537"),
        (["solve"], "range.p = inf\n", "p_laplacian exponent must be finite and exceed 1, got inf"),
        (["solve"], "range.exponent_values = inf, 3\n", "exponent table entries must be finite"),
        (["solve"], "range.h = 0\n", "bilateral width must be positive, got 0.0"),
        (["solve"], "kernel.radius = 0\n", "kernel radius must be positive and finite, got 0.0"),
        (["solve"], "kernel.family = custom_table\nkernel.table_path = {table}\n",
         "kernel table is not even under offset negation"),
    ],
    ids=["huge_mollify_quad", "huge_cauchy_quad", "infinite_p", "infinite_exponent",
         "zero_bilateral_width", "zero_kernel_radius", "uneven_kernel_table"],
)
def test_refused_kernel_parameters_exit_2(tmp_path, capsys, command, extra, detail):
    family = ("variable_exponent" if "exponent_values" in extra
              else "bilateral_gaussian" if "range.h" in extra else "p_laplacian")
    table = tmp_path / "table.csv"
    table.write_text("1, 0.5\n0, 1\n-1, 0.25\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL.replace("range.family = linear", f"range.family = {family}")
                   + extra.format(table=table), encoding="utf-8")
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and detail in err and "Traceback" not in err


@pytest.mark.parametrize(
    "extra, detail",
    [
        ("reaction.family = linear_decay\nreaction.rate = inf\n",
         "decay rate must be finite and non-negative, got inf"),
        ("reaction.family = logistic\nreaction.rate = inf\n",
         "logistic growth rate must be finite and non-negative, got inf"),
        ("reaction.family = affine\nreaction.offset = inf\n",
         "affine reaction offset must be finite and non-negative, got inf"),
        ("reaction.family = affine\nreaction.slope = -inf\n",
         "affine reaction slope must be finite, got -inf"),
        ("reaction.family = affine\nreaction.slope = inf\n",
         "affine reaction slope must be finite, got inf"),
    ],
    ids=["infinite_decay_rate", "infinite_logistic_rate", "infinite_affine_offset",
         "negative_infinite_affine_slope", "infinite_affine_slope"],
)
def test_refused_reaction_parameters_exit_2(tmp_path, capsys, extra, detail):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + extra, encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {detail}") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["random", "step"])
@pytest.mark.parametrize("key, value", [("high", "inf"), ("low", "-inf")])
def test_non_finite_initial_range_exits_2(tmp_path, capsys, kind, key, value):
    # numpy's uniform used to end an infinite random range in an OverflowError
    cfg = write_cfg(tmp_path, f"initial.kind = {kind}\ninitial.{key} = {value}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: initial.{key} must be finite, got {float(value)}\n"


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.kind = random\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -1" in err and "Traceback" not in err


def test_refused_seed_flag_names_the_flag_not_the_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed: seed must be a non-negative integer, got -1\n"


def test_non_ascii_output_dir_round_trips_the_config(tmp_path):
    cfg = write_cfg(tmp_path, f"output.dir = {tmp_path / 'out_σ'}\n")
    assert main(["solve", "--config", cfg]) == 0
    assert parse_config(tmp_path / "out_σ" / "run_config.txt") == parse_config(cfg)


def test_blowup_exits_3_with_step_info(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.value = 0.5\nreaction.family = linear_decay\n"
                              "reaction.rate = 1e80\nsolver.mu_mode = manual\n")
    with np.errstate(over="ignore"), pytest.warns(UserWarning):
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "step" in capsys.readouterr().err


def test_damped_transform_overflow_exits_3(tmp_path, capsys):
    # w stays finite while u = e^{mu t} w overflows
    cfg = tmp_path / "grow.cfg"
    cfg.write_text("grid.dim = 1\ngrid.extents = 0, 1\ngrid.counts = 8\n"
                   "kernel.family = box\nkernel.radius = 0.2\nrange.family = linear\n"
                   "reaction.family = affine\nreaction.slope = 1500\ninitial.value = 0.5\n"
                   "solver.T = 1\nsolver.steps = 64\nsolver.mu_mode = manual\n"
                   "solver.mu = 690\n", encoding="utf-8")
    with np.errstate(over="ignore"), pytest.warns(UserWarning):
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "step 62" in capsys.readouterr().err


def noisy_image(tmp_path):
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 256, size=(6, 8))
    p = tmp_path / "noisy.pgm"
    write_p2(p, rows.tolist())
    return str(p)


def test_denoise_flow_descends_energy(tmp_path, capsys):
    img = noisy_image(tmp_path)
    out = tmp_path / "d"
    assert main(["denoise", "--image", img, "--out", str(out),
                 "--radius", "0.4", "--h", "0.5", "--T", "0.02", "--steps", "8"]) == 0
    assert (out / "denoised.pgm").exists()
    series = (out / "energy_series.csv").read_text(encoding="ascii").splitlines()
    assert series[0] == "step,t,energy"
    energy = [float(r.split(",")[2]) for r in series[1:]]
    assert len(energy) == 9
    assert all(b <= a + 1e-12 for a, b in zip(energy, energy[1:]))
    # the flow conserves the mean; quantization to 8 bits moves it a little
    before = load_pgm(img).values.mean()
    after = load_pgm(out / "denoised.pgm").values.mean()
    assert after == pytest.approx(before, abs=2 / 255)


def test_denoise_one_step_smooths(tmp_path):
    img = noisy_image(tmp_path)
    out = tmp_path / "s"
    assert main(["denoise", "--image", img, "--out", str(out), "--one-step",
                 "--radius", "0.4", "--h", "0.5"]) == 0
    before = load_pgm(img).values
    after = load_pgm(out / "denoised.pgm").values
    assert after.std() < 0.6 * before.std()
    series = (out / "energy_series.csv").read_text(encoding="ascii").splitlines()
    assert len(series) == 3  # header, before, after


@pytest.mark.parametrize(
    "args, detail",
    [
        (["--h", "1e-200"], "h^2/2 is not a normal float"),
        (["--one-step", "--h", "1e-200"], "h^2/2 is not a normal float"),
        (["--radius", "inf"], "kernel radius must be positive and finite, got inf"),
        (["--one-step", "--radius", "nan"], "kernel radius must be positive and finite, got nan"),
    ],
    ids=["flow_h_underflow", "one_step_h_underflow", "infinite_radius", "nan_radius"],
)
def test_bad_denoise_arguments_exit_2(tmp_path, capsys, args, detail):
    img = noisy_image(tmp_path)
    assert main(["denoise", "--image", img, "--out", str(tmp_path / "d"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and detail in err and "Traceback" not in err


def test_huge_radius_runs_as_radius_1e150(tmp_path):
    img = noisy_image(tmp_path)
    for radius in ("1e150", "1e300"):
        assert main(["denoise", "--image", img, "--out", str(tmp_path / radius), "--one-step",
                     "--radius", radius]) == 0
        cfg = write_cfg(tmp_path, f"kernel.family = gaussian\nkernel.radius = {radius}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / radius / "solve")]) == 0
    for name in ("denoised.pgm", "energy_series.csv", "solve/diagnostics.csv"):
        assert (tmp_path / "1e300" / name).read_bytes() == (tmp_path / "1e150" / name).read_bytes()


def test_study_contraction_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.kind = random\ninitial.low = 0.2\n"
                              "initial.high = 0.8\nsolver.mu_mode = manual\n")
    out = tmp_path / "c"
    assert main(["study", "contraction", "--config", cfg, "--out", str(out)]) == 0
    assert "[PASS] contraction" in capsys.readouterr().out
    lines = (out / "contraction.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "t,ratio"
    assert len(lines) == 10  # header plus both endpoints of 8 steps
    assert (out / "contraction_report.csv").exists()


def test_study_norm_below_one_is_refused_before_any_solve(tmp_path, capsys, monkeypatch):
    for text in ("0.5", "-inf", "0"):
        with pytest.raises(ConfigParseError, match="line 8: bad value for study.norm: norm exponent"):
            parse_config_text(MINIMAL + f"study.norm = {text}\n", path="run.cfg")
    for text, norm in (("1", 1.0), ("inf", math.inf), ("infinity", math.inf), ("3.5", 3.5)):
        assert parse_config_text(MINIMAL + f"study.norm = {text}\n").study.norm == norm

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the norm was checked")

    monkeypatch.setattr(nldiff.analysis, "solve_problem", no_solve)
    monkeypatch.setattr(nldiff.cli, "solve_problem", no_solve)
    cfg = write_cfg(tmp_path, "study.norm = 0.5\n")
    assert main(["study", "contraction", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}, line 8: bad value for study.norm: "
                          "norm exponent must be >= 1 or infinity, got 0.5")


def test_study_refine_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "initial.kind = step\ninitial.low = 0.2\n"
                              "initial.high = 0.8\nsolver.mu_mode = manual\n"
                              "study.refine_steps = 8, 16, 32, 64, 128\n")
    out = tmp_path / "r"
    assert main(["study", "refine", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] first-order convergence" in text
    lines = (out / "refine.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "tau,error"
    assert len(lines) == 5  # consecutive differencing: one fewer than levels


CAUCHY_P = ("grid.dim = 1\ngrid.extents = 0, 1\ngrid.counts = 12\n"
            "range.family = p_laplacian\nrange.p = 1.5\n"
            "initial.kind = random\ninitial.low = 0.2\ninitial.high = 0.8\n"
            "solver.T = 0.1\nsolver.steps = 16\nsolver.mu_mode = manual\n"
            "study.levels = 2, 4, 8, 16\n")


def test_study_cauchy_command(tmp_path, capsys):
    cfg = tmp_path / "cauchy.cfg"
    cfg.write_text(CAUCHY_P, encoding="utf-8")
    out = tmp_path / "q"
    assert main(["study", "cauchy", "--config", str(cfg), "--out", str(out)]) == 0
    assert "fitted level-decay exponent" in capsys.readouterr().out
    lines = (out / "cauchy.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "level_i,level_j,l1_distance"
    assert len(lines) == 1 + 6  # upper triangle of a 4x4 matrix


CAUCHY_DECAY = ("grid.dim = 1\ngrid.extents = 0, 1\ngrid.counts = 12\nrange.family = linear\n"
                "reaction.family = linear_decay\ninitial.value = 0.5\nsolver.T = 0.1\n"
                "solver.steps = 8\nsolver.mu_mode = manual\nstudy.levels = 2, 4, 8\n")


def test_study_cauchy_blowup_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cauchy.cfg"
    cfg.write_text(CAUCHY_DECAY + "reaction.rate = 1e80\n", encoding="utf-8")
    with np.errstate(over="ignore"), pytest.warns(UserWarning, match="positivity bound"):
        assert main(["study", "cauchy", "--config", str(cfg), "--out", str(tmp_path / "q")]) == 3
    assert "error: state left the finite range at step" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_study_cauchy_output_is_that_of_one_cpu(tmp_path, capsys, monkeypatch):
    # every level warns with the same text from the same line, which the
    # default filter shows once, on one CPU and on forked helpers alike
    cfg = tmp_path / "cauchy.cfg"
    cfg.write_text(CAUCHY_DECAY + "reaction.rate = 100\n", encoding="utf-8")
    seen = {}
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / f"q{cpus}"
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")
            rc = main(["study", "cauchy", "--config", str(cfg), "--out", str(out)])
        seen[cpus] = (rc, capsys.readouterr(), {f.name: f.read_bytes() for f in out.iterdir()},
                      [warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                       for w in shown])
    assert len(seen[1][3]) == 1 and "positivity bound" in seen[1][3][0]
    assert seen[1] == seen[4]


def test_importing_the_cli_starts_no_process_machinery(tmp_path):
    # neither the import nor a study on two CPUs, which forks its helpers
    # directly, loads multiprocessing
    cfg = tmp_path / "cauchy.cfg"
    cfg.write_text(CAUCHY_P, encoding="utf-8")
    argv = ["study", "cauchy", "--config", str(cfg), "--out", str(tmp_path / "q")]
    code = ("import os, sys, nldiff.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if 'multiprocessing' in m)\n"
            "before = loaded()\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"print(nldiff.cli.main({argv!r}), before, loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == "0 [] []"


def test_benchmark_tracer_finds_every_hook(tmp_path, monkeypatch):
    # perfbench wraps the public functions it names and reads solve's
    # config positionally; a renamed function or reordered signature would
    # silently leave its layer unmeasured
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclass
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(nldiff)
    argv = ["solve", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "x")]
    assert tracer.run(nldiff.cli.main, argv) == 0
    assert tracer.missing == []
    assert [s.attrs["steps"] for s in tracer.spans if s.name == "stepper.solve"] == [8]


def test_export_list_resolves_every_name_once():
    names = nldiff.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(nldiff, n)] == []
