"""A smoke run of tools/walk_timing.py on the smallest config."""

import importlib.util
import os
import re

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
