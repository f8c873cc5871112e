"""Workload definitions: seeded inputs, the command each one runs, the
problem size in node pairs, and how its outputs are read and checked.

Every input is generated from the workload seed into a run directory, so
the program under test receives only files.  Config workloads copy a file
from ``configs/`` and substitute its ``seed`` line; the denoise workload
writes a noisy piecewise-constant 128x128 PGM.

Reference outputs were made at the commit that introduced the benchmark
for input seeds ``0 .. REFERENCE_SEEDS - 1``; a benchmark seed selects the
input seed ``seed % REFERENCE_SEEDS`` so that every run can be compared
against a stored reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass

import numpy as np

REFERENCE_SEEDS = 16
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Flags of `nldiff denoise` left at their defaults; the pair count needs them.
DENOISE_RADIUS = 0.03
DENOISE_STEPS = 32
DENOISE_H = 0.1
DENOISE_SIZE = 128
PIXELS_FILE = "denoised.pgm"

# A value counts as matching its reference when |a - b| <= rtol * max(|b|, FLOOR).
# FLOOR keeps round-off-level quantities (a triangle-inequality excess of
# 1e-18, say) from turning into large relative differences.
FLOOR = 1e-9
# Pixels are 8-bit: a state change far below one grey level can still move
# a value across a rounding boundary, so a few one-level flips are allowed.
PIXEL_MAX_LEVELS = 1
PIXEL_MAX_FLIPS = 16


@dataclass(frozen=True)
class Inputs:
    """Files generated for one run and the digest the reference records."""

    seed: int
    paths: dict
    sha256: str


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None
    # Tolerance against the reference, relative; see FLOOR.
    rtol: float

    def generate(self, run_dir: str, seed: int) -> Inputs:
        """Write this workload's inputs for ``seed`` under ``run_dir``."""
        os.makedirs(run_dir, exist_ok=True)
        if self.config is not None:
            with open(os.path.join("configs", self.config), encoding="utf-8") as fh:
                text = fh.read()
            text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
            if n != 1:
                raise RuntimeError(f"configs/{self.config} has no single seed line")
            data = text.encode("utf-8")
            path = os.path.join(run_dir, f"{self.name}-{seed}.cfg")
            key = "config"
        else:
            data = noisy_pgm(seed)
            path = os.path.join(run_dir, f"{self.name}-{seed}.pgm")
            key = "image"
        with open(path, "wb") as fh:
            fh.write(data)
        return Inputs(seed=seed, paths={key: path}, sha256=hashlib.sha256(data).hexdigest())

    def argv(self, inputs: Inputs, out_dir: str) -> list:
        """Arguments of the `nldiff` command for these inputs."""
        if self.name == "patch2d_verify":
            return ["verify", "--config", inputs.paths["config"], "--out", out_dir]
        if self.name == "cauchy_mollified":
            return ["study", "cauchy", "--config", inputs.paths["config"], "--out", out_dir]
        return ["denoise", "--image", inputs.paths["image"], "--out", out_dir]

    def setup_args(self, inputs: Inputs) -> list:
        """Arguments of setup_probe.py: what getting a problem ready means here."""
        if self.config is not None:
            return ["config", inputs.paths["config"]]
        return ["image", inputs.paths["image"], repr(DENOISE_RADIUS)]

    def problem(self, inputs: Inputs) -> dict:
        """The grid, offset table, operator kernel and initial state the
        command works on, and how many operator calls it makes."""
        import nldiff

        if self.config is None:
            grid, u0 = nldiff.image_to_field(nldiff.load_pgm(inputs.paths["image"]))
            table = nldiff.make_spatial_kernel(grid, "gaussian", DENOISE_RADIUS)
            return {"grid": grid, "table": table, "u0": u0,
                    "kernel": nldiff.bilateral_kernel(DENOISE_H), "calls": DENOISE_STEPS + 1}
        cfg = nldiff.parse_config(inputs.paths["config"])
        p = nldiff.build_problem(cfg)
        kernel, solves = p.kernel, 1
        if self.name == "cauchy_mollified":
            # The finest level, with the quadrature `study cauchy` uses.
            kernel = nldiff.mollify_range_kernel(p.kernel, cfg.study.levels[-1],
                                                 max(257, cfg.range.mollify_quad))
            solves = len(cfg.study.levels)
        return {"grid": p.grid, "table": p.table, "u0": p.u0, "kernel": kernel,
                "calls": solves * (cfg.solver.steps + 1)}

    def problem_size(self, inputs: Inputs) -> tuple:
        """(node pairs per operator call, operator calls per command).

        Computed from the grid and the offset table, not from program
        counters, so an implementation that evaluates fewer pairs per call
        still counts the problem's pairs.
        """
        p = self.problem(inputs)
        return pairs_per_apply(p["grid"].counts, p["table"].offsets), p["calls"]

    def probe(self, inputs: Inputs) -> dict:
        """Isolated calls on the command's initial state: one operator
        application, one energy evaluation, and the peak bytes allocated
        during one application (tracemalloc)."""
        import tracemalloc

        import nldiff

        p = self.problem(inputs)
        args = (p["grid"], p["table"], p["kernel"])

        def apply():
            nldiff.apply_nonlocal(*args, 0.0, p["u0"])

        def alloc_peak_mb():
            tracemalloc.start()
            try:
                apply()
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        return {"apply": apply, "energy": lambda: nldiff.flow_energy(*args, p["u0"]),
                "alloc_peak_mb": alloc_peak_mb}

    def collect(self, out_dir: str) -> tuple:
        """Read a finished command's outputs.

        Returns (values, pixels, failed_checks): named float vectors to
        compare with the reference, the denoised image or None, and the
        names of report checks that did not pass.
        """
        values, failed = {}, []
        if self.name == "patch2d_verify":
            failed += _report(os.path.join(out_dir, "report.csv"), values)
            return values, None, failed
        if self.name == "cauchy_mollified":
            failed += _report(os.path.join(out_dir, "cauchy_report.csv"), values)
            with open(os.path.join(out_dir, "cauchy.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            values["cauchy.l1_distance"] = [float(r["l1_distance"]) for r in rows]
            return values, None, failed
        with open(os.path.join(out_dir, "energy_series.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != DENOISE_STEPS + 1:
            failed.append(f"energy_series.csv has {len(rows)} rows, expected {DENOISE_STEPS + 1}")
        values["energy_series.energy"] = [float(r["energy"]) for r in rows]
        pixels = read_pgm(os.path.join(out_dir, PIXELS_FILE))
        return values, pixels, failed


def _report(path: str, values: dict) -> list:
    failed = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            values[f"report.{row['name']}"] = [float(row["measured"])]
            if row["pass"] != "1":
                failed.append(f"FAIL {row['name']}")
    if not values:
        failed.append(f"{os.path.basename(path)} lists no checks")
    return failed


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("patch2d_verify", "logistic_patch_2d.cfg", 1e-10),
        # Leaves room for a tabulated mollified kernel of stated accuracy.
        Workload("cauchy_mollified", "mollifier_cauchy.cfg", 1e-6),
        Workload("denoise_128", None, 1e-10),
    )
}


def pairs_per_apply(counts, offsets) -> int:
    """Node pairs one operator call visits: sum over offsets of the overlap."""
    offsets = np.abs(np.asarray(offsets, dtype=np.int64))
    overlap = np.ones(offsets.shape[0], dtype=np.int64)
    for axis, c in enumerate(counts):
        overlap *= np.maximum(0, int(c) - offsets[:, axis])
    return int(overlap.sum())


def noisy_pgm(seed: int) -> bytes:
    """A seeded noisy piecewise-constant 8-bit P5 image."""
    rng = np.random.default_rng(seed)
    n = DENOISE_SIZE
    img = np.full((n, n), rng.uniform(0.2, 0.4))
    yy, xx = np.mgrid[0:n, 0:n]
    for _ in range(5):
        y0, x0 = rng.integers(0, n - 16, size=2)
        h, w = rng.integers(12, n // 2, size=2)
        img[y0:y0 + h, x0:x0 + w] = rng.uniform(0.1, 0.9)
    for _ in range(3):
        cy, cx = rng.uniform(0, n, size=2)
        r = rng.uniform(8, n / 4)
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = rng.uniform(0.1, 0.9)
    noisy = np.clip(img + rng.normal(0.0, 0.08, size=img.shape), 0.0, 1.0)
    q = np.floor(noisy * 255.0 + 0.5).astype(np.uint8)
    return f"P5\n{n} {n}\n255\n".encode("ascii") + q.tobytes()


def read_pgm(path: str) -> np.ndarray:
    """Pixels of an 8-bit P5 file as written by ``nldiff.save_pgm``."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval, raster = data.split(maxsplit=4)
    if magic != b"P5" or int(maxval) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 image")
    count = int(width) * int(height)
    if len(raster) != count:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {count}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(int(height), int(width))


def reference_path(workload: Workload) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload.name}.json")


def load_reference(workload: Workload, seed: int) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["seeds"][str(seed)]


@dataclass(frozen=True)
class Comparison:
    """Outcome of checking one command's outputs."""

    ok: bool
    max_rel_diff: float
    pixel_flips: int
    problems: tuple


def compare(workload: Workload, inputs: Inputs, ref: dict, values: dict, pixels,
            failed_checks: list) -> Comparison:
    """Check outputs against the reference made for the same inputs."""
    problems = list(failed_checks)
    if ref["inputs_sha256"] != inputs.sha256:
        problems.append("inputs differ from the ones the reference was made from")
    worst = 0.0
    if set(values) != set(ref["values"]):
        problems.append(f"output names {sorted(values)} differ from reference "
                        f"{sorted(ref['values'])}")
    for name in sorted(set(values) & set(ref["values"])):
        got = np.asarray(values[name], dtype=np.float64)
        want = np.asarray(ref["values"][name], dtype=np.float64)
        if got.shape != want.shape:
            problems.append(f"{name}: {got.size} values, reference has {want.size}")
            continue
        if not np.all(np.isfinite(got)):
            problems.append(f"{name}: non-finite output")
            continue
        rel = np.abs(got - want) / np.maximum(np.abs(want), FLOOR)
        name_worst = float(rel.max()) if rel.size else 0.0
        worst = max(worst, name_worst)
        if name_worst > workload.rtol:
            problems.append(f"{name}: relative difference {name_worst:.3e} > {workload.rtol:.0e}")
    flips = 0
    if "pixels" in ref:
        want = read_pgm(os.path.join(REFERENCE_DIR, ref["pixels"])).astype(np.int64)
        if pixels is None or pixels.shape != want.shape:
            problems.append("denoised image missing or of the wrong shape")
        else:
            delta = np.abs(pixels.astype(np.int64) - want)
            flips = int(np.count_nonzero(delta))
            if delta.max() > PIXEL_MAX_LEVELS or flips > PIXEL_MAX_FLIPS:
                problems.append(f"{flips} pixels differ, by up to {int(delta.max())} levels")
    return Comparison(ok=not problems, max_rel_diff=worst, pixel_flips=flips,
                      problems=tuple(problems))
