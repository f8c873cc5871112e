"""Smoke runs of tools/walk_timing.py on the smallest config and on a
small image."""

import importlib.util
import os
import re

import numpy as np
import pytest

from nldiff import save_pgm
from nldiff.pgm import ImageField

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_SPEC = importlib.util.spec_from_file_location("walk_timing", os.path.join(_ROOT, "tools", "walk_timing.py"))
walk_timing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(walk_timing)


def test_walk_timing_reports_blocks_halves_applies_and_solves(capsys):
    config = os.path.join(_ROOT, "configs", "heat_1d.cfg")
    assert walk_timing.main([config, "--repeats", "3", "--solves", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "64 nodes, 51 offsets, kernel linear" in lines[0]
    # heat_1d's 25 positive offsets of at most 63 pairs: one gather block, one half
    assert lines[1].split() == ["1", "gather", "blocks,", "positions", "min", "1275,", "median",
                                "1275,", "max", "1275"]
    assert lines[2].strip() == "halves: 1275 positions"
    timed = ["table build, make_spatial_kernel", "walk build, operator._Walk", "apply with energy, in process"]
    for what, line in zip(timed, lines[3:6]):
        assert re.fullmatch(rf"{what}: median \d+\.\d{{3}} ms of 3", line)
    solve = r"solve {}: (\S+) ms = halves here (\S+) \+ wait 0\.0 \+ rest (\S+) ms"
    for k, line in enumerate(lines[6:], 1):
        wall, here, rest = map(float, re.fullmatch(solve.format(k), line).groups())
        assert 0.0 < here < wall and abs(here + rest - wall) < 0.2
    assert len(lines) == 8


def test_walk_timing_runs_the_denoise_flow_of_an_image(tmp_path, capsys):
    image = tmp_path / "noisy.pgm"
    pixels = np.random.default_rng(2).uniform(0.0, 1.0, (12, 16))
    save_pgm(ImageField(16, 12, pixels), image)
    assert walk_timing.main(["--image", str(image), "--repeats", "3", "--solves", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one node per pixel; the CLI's radius 0.03 on a pixel pitch of 1/16
    # keeps the offsets within one pixel: 3 x 3 of them
    assert f"{image}: 192 nodes, 9 offsets, kernel bilateral_gaussian" in lines[0]
    timed = ["table build, make_spatial_kernel", "walk build, operator._Walk", "apply with energy, in process"]
    starts = [i for i, line in enumerate(lines) if line.startswith(timed[0])]
    assert len(starts) == 1
    for what, line in zip(timed, lines[starts[0]:]):
        assert re.fullmatch(rf"{what}: median \d+\.\d{{3}} ms of 3", line)
    assert re.fullmatch(r"solve 1: \S+ ms = halves here \S+ \+ wait 0\.0 \+ rest \S+ ms", lines[-1])
    assert len(lines) == starts[0] + 4


def test_walk_timing_takes_a_config_or_an_image_not_both(capsys):
    config = os.path.join(_ROOT, "configs", "heat_1d.cfg")
    for argv in ([], [config, "--image", "noisy.pgm"]):
        with pytest.raises(SystemExit) as exc:
            walk_timing.main(argv)
        assert exc.value.code == 2
    assert "--image" in capsys.readouterr().err
