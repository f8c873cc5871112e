"""Where the time of one config's, or one image's, pair walk goes.

    python tools/walk_timing.py configs/logistic_patch_2d.cfg [--repeats 300] [--solves 3]
    python tools/walk_timing.py --image noisy.pgm [--repeats 300] [--solves 3]

Run from the root of a source tree; ``src/`` is put first on the import
path.  With ``--image`` the run is the flow of ``nldiff denoise`` on that
PGM with the CLI's default arguments, built by the CLI's own
``denoise_problem``.  Prints three sections:

* the walk's blocks, by kind (slice or gather) with their count and
  smallest, median and largest pair positions, and the positions of each
  half of the walk;
* the median times, over ``--repeats`` calls each, of building the
  kernel table (``make_spatial_kernel``), of building its walk
  (``operator._Walk(table, kernel)``, which cuts the table into blocks),
  and of one in-process apply with the energy, the call a solver step
  makes;
* the whole solve, ``--solves`` times, its wall time split into
  the halves of the walk this process ran (both on one CPU, the first
  when a helper process walks the second), the wait for the helper (0
  when none runs), and the rest.  The split comes from wrapping
  ``_Walk._half`` and ``_Helper.reply`` from outside; the helper's own
  half is not timed here.

Only the standard library and numpy; nothing in ``src/`` is changed for it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from nldiff import build_problem, make_spatial_kernel, parse_config, solve_problem  # noqa: E402
from nldiff import cli, errors, operator  # noqa: E402


def block_rows(walk) -> list:
    """(kind, count, smallest, median, largest positions) per block kind of
    the walk's blocks, in the order the kinds first appear."""
    sizes = {}
    for block in walk.blocks:
        kind = "slice" if isinstance(block[1], slice) else "gather"
        sizes.setdefault(kind, []).append(operator._positions(block))
    return [(k, len(v), min(v), int(statistics.median(v)), max(v)) for k, v in sizes.items()]


def half_positions(walk) -> list:
    return [sum(operator._positions(walk.blocks[k]) for k in half) for half in walk.halves]


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def timed_solve(problem) -> tuple:
    """(wall, halves walked in this process, wait for the helper) of one
    solve, in seconds."""
    spent = {"half": 0.0, "wait": 0.0}

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0
        return wrapper

    half, reply = operator._Walk._half, errors._Helper.reply
    operator._Walk._half = timed(half, "half")
    errors._Helper.reply = timed(reply, "wait")
    try:
        t0 = time.perf_counter()
        solve_problem(problem)
        wall = time.perf_counter() - t0
    finally:
        operator._Walk._half, errors._Helper.reply = half, reply
    return wall, spent["half"], spent["wait"]


def config_problem(path: str) -> tuple:
    """The problem of a config file, and a call that builds its table."""
    config = parse_config(path)
    problem = build_problem(config)
    ks, table = config.kernel, problem.table
    rows = (table.offsets, table.weights) if ks.family == "custom_table" else None
    return problem, lambda: make_spatial_kernel(problem.grid, ks.family, ks.radius, table=rows)


def image_problem(path: str) -> tuple:
    """The flow ``nldiff denoise`` runs on a PGM with its default arguments,
    and a call that builds its table."""
    args = cli._build_parser().parse_args(["denoise", "--image", path, "--out", ""])
    problem = cli.denoise_problem(args)
    return problem, lambda: make_spatial_kernel(problem.grid, "gaussian", args.radius)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?", help="a run configuration file")
    source.add_argument("--image", help="a PGM image, run as nldiff denoise runs it")
    ap.add_argument("--repeats", type=int, default=300, help="applies timed (default 300)")
    ap.add_argument("--solves", type=int, default=3, help="solves timed (default 3)")
    args = ap.parse_args(argv)

    if args.image is None:
        problem, build_table = config_problem(args.config)
    else:
        problem, build_table = image_problem(args.image)
    table, kernel = problem.table, problem.kernel
    walk = operator._Walk(table, kernel)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    print(f"{args.config or args.image}: {problem.grid.node_count} nodes, {problem.table.size} offsets, "
          f"kernel {problem.kernel.family}, {cpus} CPU(s)")
    for kind, count, lo, mid, hi in block_rows(walk):
        print(f"  {count:4d} {kind} blocks, positions min {lo}, median {mid}, max {hi}")
    print(f"  halves: {' + '.join(map(str, half_positions(walk)))} positions")

    calls = [
        ("table build, make_spatial_kernel", build_table),
        ("walk build, operator._Walk", lambda: operator._Walk(table, kernel)),
        ("apply with energy, in process", lambda: walk.apply(problem.u0.values, 0.0, True)),
    ]
    for what, call in calls:
        print(f"{what}: median {median_ms(call, args.repeats):.3f} ms of {args.repeats}")

    for k in range(args.solves):
        wall, half, wait = timed_solve(problem)
        print(f"solve {k + 1}: {1e3 * wall:.1f} ms = halves here {1e3 * half:.1f} + "
              f"wait {1e3 * wait:.1f} + rest {1e3 * (wall - half - wait):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
