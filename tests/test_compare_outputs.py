"""The file comparison of tools/compare_outputs.py, on synthetic files.

No git and no nldiff command runs here: only the verdicts on two versions
of a file, and the per-command lines built from them.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_outputs.py")
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
compare = compare_outputs.compare

CSV = b"step,t,energy\n0,0,0.25\n1,0.5,0.125\n"


def test_identical_files():
    assert compare(CSV, CSV) == "identical"


def test_moved_numeric_cells_give_the_largest_relative_difference():
    moved = CSV.replace(b"0.125", b"0.1250000001").replace(b"0.25\n", b"0.26\n")
    assert compare(CSV, moved) == "max relative difference 0.0385, 2 numeric cells moved"


def test_changed_shapes():
    assert compare(CSV, CSV + b"2,1,0\n") == "shape differs: 3 rows, now 4"
    assert compare(CSV, CSV.replace(b"1,0.5,", b"1,0.5,7,")) == "shape differs: row 3 has 3 cells, now 4"


def test_non_numeric_and_formatting_changes():
    assert compare(CSV, CSV.replace(b"energy", b"Energy")) == "1 non-numeric cells differ"
    assert compare(CSV, CSV.replace(b"0,0.25", b"0.0,0.25")) == "numerically identical, formatting differs"
    text = b"[PASS] mass: measured 1e-12 vs threshold 1e-10\n"
    assert compare(text, text.replace(b"PASS", b"FAIL").replace(b"1e-12", b"2e-12")) == (
        "max relative difference 0.5, 1 numeric cells moved; 1 non-numeric cells differ")


def test_binary_files_compare_byte_by_byte():
    image = b"P5\n2 1\n255\n\x80\xff"
    assert compare(image, image) == "identical"
    assert compare(image, image[:-1] + b"\xfe") == "max relative difference 0.00392, 1 numeric cells moved"
    assert compare(image, image + b"\x00") == "shape differs: row 1 has 13 cells, now 14"


@pytest.mark.parametrize("infinite", [b"inf", b"nan"])
def test_non_finite_cells(infinite):
    a = b"x," + infinite + b"\n"
    assert compare(a, a.replace(b"x", b"y")) == "1 non-numeric cells differ"
    # a cell that turns non-finite moves by an infinite relative difference
    assert compare(b"x,1\n", a) == "max relative difference inf, 1 numeric cells moved"


def test_one_line_per_output_and_masked_streams(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for out, energy in ((parent, b"0.25"), (change, b"0.5")):
        (out / "sub").mkdir(parents=True)
        (out / "energy.csv").write_bytes(b"energy\n" + energy + b"\n")
        (out / "sub" / "same.txt").write_bytes(b"same\n")
    (parent / "gone.csv").write_bytes(b"1\n")
    stdout = compare_outputs.mask(f"wrote 3 files to {change}\n", str(change), "/src")
    warning = compare_outputs.mask("/src/nldiff/stepper.py:272: UserWarning", str(change), "/src")
    assert (stdout, warning) == ("wrote 3 files to <out>\n", "<tree>/nldiff/stepper.py:<line>: UserWarning")
    same = compare_outputs.report("cmd", (0, stdout, ""), (2, stdout, "error\n"), (str(parent), str(change)))
    assert not same
    assert capsys.readouterr().out.splitlines() == [
        "cmd/exit: 0, now 2",
        "cmd/stdout: identical",
        "cmd/stderr: differs",
        "    --- parent",
        "    +++ change",
        "    @@ -0,0 +1 @@",
        "    +error",
        "cmd/energy.csv: max relative difference 0.5, 1 numeric cells moved",
        "cmd/gone.csv: only in the parent",
        "cmd/sub/same.txt: identical",
    ]
