"""Compare every output of a fixed nldiff command set between a parent
revision and this source tree.

    python tools/compare_outputs.py <rev>

The parent is extracted with ``git archive <rev> | tar -x`` into a
temporary directory, so the repository's metadata is left untouched.  Both
trees run the same commands, each with its own ``src/`` first on
PYTHONPATH and its own ``configs/``:

* the five commands on ``configs/`` (solve, verify, and the contraction,
  cauchy and refine studies);
* ``solve`` on eleven variants of ``configs/heat_1d.cfg``: under
  ``auto_growth``, with the p = 1.5 kernel mollified at level 8 on 257
  panels, with the ``spatial_exponent`` and the ``variable_exponent``
  kernel of one exponent table, with the ``bilateral_gaussian`` kernel,
  with the ``affine`` and the ``custom_table`` reaction, with the ``box``
  and the ``custom_table`` spatial kernel, and two runs the solver
  refuses, one with a negative initial state and one under ``auto_linf``
  with a zero initial state; the two tables are files written next to
  the variants;
* ``denoise`` (the flow and ``--one-step``) on the perfbench images of
  seeds 0 and 1, generated once by this tree's ``perfbench/workloads.py``.

One line per output file says "identical", or the largest relative
difference over the numeric cells that moved and how many moved, or how
the shape or the non-numeric cells differ.  Cells are the comma- or
whitespace-separated fields of a text file's lines, and the bytes of a
binary file.  Exit codes, stdout and stderr are compared after the output
directories and the line numbers of ``file.py:N`` locations are masked.
The script exits 0 when everything is identical and 1 otherwise.  Uses
only the standard library; the commands need numpy.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG_COMMANDS = [
    ("solve_heat_1d", ["solve", "--config", "configs/heat_1d.cfg"]),
    ("verify_logistic_patch_2d", ["verify", "--config", "configs/logistic_patch_2d.cfg"]),
    ("study_contraction", ["study", "contraction", "--config", "configs/contraction_study.cfg"]),
    ("study_cauchy", ["study", "cauchy", "--config", "configs/mollifier_cauchy.cfg"]),
    ("study_refine_heat_1d", ["study", "refine", "--config", "configs/heat_1d.cfg"]),
]
IMAGE_SEEDS = (0, 1)
_EXPONENT_TABLE = {"range.exponent_sigmas": "0, 0.5", "range.exponent_values": "2.5, 1.8"}
# Variants of configs/heat_1d.cfg, each solved: file stem -> {key: value}.
HEAT_VARIANTS = {
    "nonconformant": {"initial.low": "-0.2"},
    "auto_growth": {"solver.mu_mode": "auto_growth"},
    "zero_auto_linf": {"solver.mu_mode": "auto_linf", "initial.kind": "constant", "initial.value": "0"},
    "mollified": {"range.family": "p_laplacian", "range.p": "1.5", "range.mollify_n": "8",
                  "range.mollify_quad": "257"},
    "spatial_exponent": {"range.family": "spatial_exponent", **_EXPONENT_TABLE},
    "variable_exponent": {"range.family": "variable_exponent", **_EXPONENT_TABLE},
    "bilateral_gaussian": {"range.family": "bilateral_gaussian", "range.h": "0.3"},
    "affine": {"reaction.family": "affine", "reaction.offset": "0.1", "reaction.slope": "-0.5"},
    "reaction_table": {"reaction.family": "custom_table", "reaction.table_path": "{inputs}/reaction.csv"},
    "box": {"kernel.family": "box", "kernel.radius": "0.1"},
    "kernel_table": {"kernel.family": "custom_table", "kernel.table_path": "{inputs}/kernel.csv"},
}
# The table files the variants read, by name: a reaction s, f and a 1-d kernel d, w per row.
TABLES = {
    "reaction.csv": "-1, 0.2\n0, 0.1\n0.5, 0.3\n1, 0\n2, -0.4\n",
    "kernel.csv": "-3, 0.25\n-1, 1\n0, 2\n1, 1\n3, 0.25\n",
}

_IMAGES = """
import sys
sys.path.insert(0, "perfbench")
import workloads
for seed in map(int, sys.argv[2:]):
    with open(f"{sys.argv[1]}/seed{seed}.pgm", "wb") as fh:
        fh.write(workloads.noisy_pgm(seed))
"""


def commands(inputs: str) -> list:
    """(name, nldiff arguments) of every command, inputs under ``inputs``."""
    runs = list(CONFIG_COMMANDS)
    for stem in HEAT_VARIANTS:
        runs.append((f"solve_{stem}", ["solve", "--config", os.path.join(inputs, f"{stem}.cfg")]))
    for seed in IMAGE_SEEDS:
        image = os.path.join(inputs, f"seed{seed}.pgm")
        runs.append((f"denoise_seed{seed}", ["denoise", "--image", image]))
        runs.append((f"denoise_one_step_seed{seed}", ["denoise", "--image", image, "--one-step"]))
    return runs


def write_inputs(inputs: str) -> None:
    """The perfbench images, the table files and the variants of
    ``configs/heat_1d.cfg``; a key a variant sets replaces its line, or is
    appended, with ``{inputs}`` in its value replaced by ``inputs``."""
    os.makedirs(inputs)
    for name, rows in TABLES.items():
        with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
            fh.write(rows)
    subprocess.run([sys.executable, "-c", _IMAGES, inputs, *map(str, IMAGE_SEEDS)],
                   cwd=ROOT, check=True)
    with open(os.path.join(ROOT, "configs", "heat_1d.cfg"), encoding="utf-8") as fh:
        base = fh.read()
    for stem, changes in HEAT_VARIANTS.items():
        text = base
        for key, value in changes.items():
            value = value.replace("{inputs}", inputs)
            text, found = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", text)
            text += "" if found else f"{key} = {value}\n"
        with open(os.path.join(inputs, f"{stem}.cfg"), "w", encoding="utf-8") as fh:
            fh.write(text)


def extract(rev: str, dest: str) -> None:
    """``git archive <rev> | tar -x -C dest``."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run(tree: str, argv: list, out: str) -> tuple:
    """(exit code, stdout, stderr) of one command in one tree, masked."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-m", "nldiff.cli", *argv, "--out", out],
                          cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode, mask(done.stdout, out, tree), mask(done.stderr, out, tree)


def mask(text: str, out: str, tree: str) -> str:
    text = text.replace(out, "<out>").replace(tree, "<tree>")
    return re.sub(r"(\.py):\d+", r"\1:<line>", text)


def cells(data: bytes) -> list:
    """The rows of cells of a file: fields of a text file's lines, split at
    commas and whitespace, or one row of a binary file's byte values."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return [[str(b) for b in data]]
    return [re.split(r"[,\s]+", line.strip()) for line in text.splitlines()]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(a: bytes, b: bytes) -> str:
    """The verdict on two versions of one file; ``a`` is the parent's."""
    if a == b:
        return "identical"
    ra, rb = cells(a), cells(b)
    if len(ra) != len(rb):
        return f"shape differs: {len(ra)} rows, now {len(rb)}"
    for i, (x, y) in enumerate(zip(ra, rb)):
        if len(x) != len(y):
            return f"shape differs: row {i + 1} has {len(x)} cells, now {len(y)}"
    worst, moved, text = 0.0, 0, 0
    for x, y in ((x, y) for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b) if x != y):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            text += 1
        elif fx != fy and not (math.isnan(fx) and math.isnan(fy)):
            moved += 1
            finite = math.isfinite(fx) and math.isfinite(fy)
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)) if finite else math.inf)
    verdicts = []
    if moved:
        verdicts.append(f"max relative difference {worst:.3g}, {moved} numeric cells moved")
    if text:
        verdicts.append(f"{text} non-numeric cells differ")
    return "; ".join(verdicts) or "numerically identical, formatting differs"


def files(out: str) -> set:
    return {os.path.relpath(os.path.join(d, f), out) for d, _, names in os.walk(out) for f in names}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def report(name: str, parent: tuple, change: tuple, outs: tuple) -> bool:
    """Print one line per output of a command; True when all identical."""
    same = True

    def line(what, verdict):
        nonlocal same
        same = same and verdict == "identical"
        print(f"{name}/{what}: {verdict}")

    line("exit", "identical" if parent[0] == change[0] else f"{parent[0]}, now {change[0]}")
    for stream, a, b in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        line(stream, "identical" if a == b else "differs")
        if a != b:
            for diff in difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change", lineterm=""):
                print(f"    {diff}")
    have_a, have_b = files(outs[0]), files(outs[1])
    for rel in sorted(have_a | have_b):
        if rel not in have_b:
            line(rel, "only in the parent")
        elif rel not in have_a:
            line(rel, "only in the change")
        else:
            line(rel, compare(_read(os.path.join(outs[0], rel)), _read(os.path.join(outs[1], rel))))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision, anything git archive accepts")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="nldiff-compare-") as tmp:
        parent_tree = os.path.join(tmp, "parent")
        extract(args.rev, parent_tree)
        inputs = os.path.join(tmp, "inputs")
        write_inputs(inputs)
        same = True
        for name, argv_ in commands(inputs):
            outs = (os.path.join(tmp, "out", "parent", name), os.path.join(tmp, "out", "change", name))
            parent = run(parent_tree, argv_, outs[0])
            change = run(ROOT, argv_, outs[1])
            same = report(name, parent, change, outs) and same
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
