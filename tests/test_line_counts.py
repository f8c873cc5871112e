"""tools/line_counts.py: every line of a module counted once, by kind."""

import importlib.util
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_PATH = os.path.join(_ROOT, "tools", "line_counts.py")
_SPEC = importlib.util.spec_from_file_location("line_counts", _PATH)
line_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_counts)

SOURCE = '''"""A module docstring
of two lines."""

import os  # a comment on a code line

# a comment line
def f():
    """A function docstring."""
    x = """a string
that is code"""
    return os.sep + x
'''


def test_each_line_has_one_kind_in_order_of_precedence():
    assert line_counts.count(SOURCE) == {"code": 5, "docstring": 3, "comment": 1, "blank": 2}


def test_the_kinds_of_each_module_of_the_package_sum_to_its_wc_l():
    src = os.path.join(_ROOT, "src", "nldiff")
    out = subprocess.run([sys.executable, _PATH, src], capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["module", *line_counts.KINDS, "total"]
    modules = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert [row.split()[0] for row in rows] == [*modules, "total"]
    for row in rows:
        name, *counts = row.split()
        *kinds, total = (int(c.replace(",", "")) for c in counts)
        if name != "total":
            with open(os.path.join(src, name), "rb") as fh:
                assert total == fh.read().count(b"\n"), name
        assert sum(kinds) == total, name


def test_two_directories_print_the_difference_per_module_and_both_totals(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    (old / "a.py").write_text("x = 1\n\n# a comment\n")
    (old / "gone.py").write_text('"""Only a docstring."""\n')
    (new / "a.py").write_text("x = 1\ny = 2\n")
    (new / "b.py").write_text(SOURCE)
    out = subprocess.run([sys.executable, _PATH, str(old), str(new)], capture_output=True, text=True,
                         check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["module", *line_counts.KINDS, "total"]
    assert [row.split() for row in rows] == [
        ["a.py", "+1", "+0", "-1", "-1", "-1"],
        ["b.py", "+5", "+3", "+1", "+2", "+11"],
        ["gone.py", "+0", "-1", "+0", "+0", "-1"],
        ["old", "total", "1", "1", "1", "1", "4"],
        ["new", "total", "7", "3", "1", "2", "13"],
    ]
