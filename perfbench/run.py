"""nldiff benchmark: end-to-end runs of the `nldiff` command, or one traced run.

    python3 perfbench/run.py --workload patch2d_verify --seed 1 --seconds 40 --trace 0

Run from the root of a source tree.  Inputs are generated from the seed
into ``.perfbench_runs/`` and removed afterwards.  Every command runs as
``python3 -m nldiff.cli`` in a fresh process with ``src`` first on the
import path and BLAS pinned to one thread.

``--trace 0`` spends ``--seconds`` on a few fresh-interpreter set-up probes
and then on back-to-back runs of the workload's command, checking each
one's outputs against the stored reference, and reports medians.

``--trace 1`` runs the command once untraced, then twice in this process
with spans around the calls into each nldiff module (the second time on
the next input seed), and times isolated operator and energy calls on the
workload's initial state.  Counts must repeat exactly across the two traced
executions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child: threaded BLAS inside
# the mollifier quadrature makes CPU time exceed wall time and widens the
# run-to-run spread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, time_calls  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402

PROCESS_START = time.perf_counter()
SETUP_PROBES = 7
COMMAND_TIMEOUT_S = 150.0
# No command may still be running this long after the benchmark started.
RUN_DEADLINE_S = 170.0
# Named layer spans must cover at least this share of a traced command.
MIN_COVERAGE = 0.9
# Minimal float64 traffic of one pair in a pair sum: the values at both
# ends are read and the accumulator at the destination is read and written.
BYTES_PER_PAIR = 4 * 8
# Counts that must repeat exactly between the two traced executions, which
# run on different input seeds.
EXACT_COUNTS = ("operator.pairs_per_apply", "operator.calls", "kernels.range_eval_values_unsampled",
                "operator.energy_calls", "kernels.table_offsets")


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv: list, out_dir: str, env: dict, timeout: float) -> dict:
    """Run ``nldiff`` in a fresh process; wall time from spawn to exit and
    resource use of that process from wait4."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nldiff.cli", *argv],
                                stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def check_outputs(workload, inputs, out_dir: str, rc: int) -> workloads.Comparison:
    """Exit status, report verdicts and the reference comparison of one command."""
    if rc != 0:
        with open(os.path.join(out_dir, "stderr.txt"), errors="replace") as fh:
            tail = fh.read()[-400:]
        return workloads.Comparison(False, float("nan"), 0, (f"exit code {rc}: {tail}",))
    try:
        values, pixels, failed = workload.collect(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return workloads.Comparison(False, float("nan"), 0, (f"unreadable outputs: {exc}",))
    ref = workloads.load_reference(workload, inputs.seed)
    return workloads.compare(workload, inputs, ref, values, pixels, failed)


def setup_probe(workload, inputs, env: dict, src: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *workload.setup_args(inputs)],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(result["nldiff_file"]).startswith(src + os.sep):
        raise RuntimeError(f"nldiff imported from {result['nldiff_file']}, not from {src}")
    return result["setup_s"]


def machine_info(numpy) -> str:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    pins = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return (f"machine: nproc={nproc} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas.get('name', '?')} {blas.get('version', '?')} "
            f"blas_threads=1 ({pins})")


def describe(comp: workloads.Comparison) -> str:
    if not comp.ok:
        return "FAILED: " + "; ".join(comp.problems)
    if comp.max_rel_diff == 0.0 and comp.pixel_flips == 0:
        return "ok, bit-identical to reference"
    return (f"ok, max relative difference {comp.max_rel_diff:.3e}, "
            f"{comp.pixel_flips} pixels off by one level")


def timed(workload, inputs, seconds: float, scratch: str, env: dict, src: str) -> tuple:
    pairs, calls = workload.problem_size(inputs)
    print(f"problem: {pairs} pairs per operator call x {calls} calls = {pairs * calls} pairs")
    start = time.perf_counter()
    setups = [setup_probe(workload, inputs, env, src) for _ in range(SETUP_PROBES)]
    runs, worst, flips = [], 0.0, 0
    while True:
        out_dir = os.path.join(scratch, f"out{len(runs)}")
        left = RUN_DEADLINE_S - (time.perf_counter() - PROCESS_START)
        res = run_command(workload.argv(inputs, out_dir), out_dir, env,
                          min(COMMAND_TIMEOUT_S, max(left, 1.0)))
        comp = check_outputs(workload, inputs, out_dir, res["rc"])
        shutil.rmtree(out_dir, ignore_errors=True)
        res["ok"] = comp.ok
        runs.append(res)
        if comp.ok:
            worst = max(worst, comp.max_rel_diff)
            flips = max(flips, comp.pixel_flips)
        print(f"command {len(runs)}: wall {res['wall_s']:.4f} s, cpu {res['cpu_s']:.4f} s, "
              f"peak rss {res['peak_rss_mb']:.1f} MB, {describe(comp)}")
        longest = max(r["wall_s"] for r in runs)
        if time.perf_counter() - start + longest > seconds:
            break
    wall = statistics.median(r["wall_s"] for r in runs)
    failed = sum(1 for r in runs if not r["ok"])
    metrics = {
        "wall_s": (wall, "s"),
        "pairs_per_s": (pairs * calls / wall, "pairs/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"setup probes: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"fail_frac {failed / len(runs):.4g} share ({failed} of {len(runs)} commands)")
    print(f"max relative difference to reference: {worst:.3e}, pixels off by one level: {flips}"
          + (" (bit-identical)" if worst == 0.0 and flips == 0 and not failed else ""))
    return metrics, len(runs), failed


def traced(workload, inputs, scratch: str, env: dict, nldiff, import_s: float) -> tuple:
    import nldiff.cli

    base = run_command(workload.argv(inputs, os.path.join(scratch, "untraced")),
                       os.path.join(scratch, "untraced"), env, COMMAND_TIMEOUT_S)
    comp = check_outputs(workload, inputs, os.path.join(scratch, "untraced"), base["rc"])
    print(f"untraced command: wall {base['wall_s']:.4f} s, {describe(comp)}")
    attempted, failed = 1, int(not comp.ok)
    problems = []

    other = workload.generate(scratch, (inputs.seed + 1) % REFERENCE_SEEDS)
    executions = []
    for k, inp in enumerate((inputs, other)):
        out_dir = os.path.join(scratch, f"traced{k}")
        os.makedirs(out_dir, exist_ok=True)
        tracer = Tracer(nldiff)
        error = ""
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = tracer.run(nldiff.cli.main, workload.argv(inp, out_dir))
            except Exception as exc:  # a traced command that raises is a failed run
                rc, error = -1, repr(exc)
        with open(os.path.join(out_dir, "stderr.txt"), "w") as fh:
            fh.write(error)
        comp = check_outputs(workload, inp, out_dir, rc)
        attempted += 1
        failed += int(not comp.ok)
        m = layer_metrics(tracer.spans)
        pairs, calls = workload.problem_size(inp)
        m["operator.pairs_per_apply"] = pairs
        m["operator.calls"] = calls
        executions.append(m)
        print(f"traced command on input seed {inp.seed}: wall {m['cli.traced_wall_s']:.4f} s, "
              f"{len(tracer.spans)} spans, {describe(comp)}")
        if tracer.missing:
            problems.append(f"not found in nldiff, so not traced: {', '.join(tracer.missing)}")
        if m["self_sum_error_s"] > 1e-6 + 1e-9 * m["cli.traced_wall_s"]:
            problems.append(f"span self times miss the traced wall by {m['self_sum_error_s']:.3e} s")
        if m["coverage"] < MIN_COVERAGE:
            problems.append(f"named spans cover {m['coverage']:.3f} of the traced wall, "
                            f"below {MIN_COVERAGE}")

    first, second = executions
    for name in EXACT_COUNTS:
        if first[name] != second[name]:
            problems.append(f"count {name} changed between executions: "
                            f"{first[name]} then {second[name]}")

    # Times are the mean of the two executions; counts are equal by the check above.
    m = {k: (v + second[k]) / 2.0 if isinstance(v, float) else v for k, v in first.items()}
    probe = workload.probe(inputs)
    apply_s = time_calls(probe["apply"])
    m["operator.apply_s"] = apply_s
    m["operator.mpairs_per_s"] = m["operator.pairs_per_apply"] / apply_s / 1e6
    m["operator.bytes_per_apply"] = BYTES_PER_PAIR * m["operator.pairs_per_apply"]
    m["operator.alloc_peak_mb"] = probe["alloc_peak_mb"]()
    m["operator.energy_s"] = time_calls(probe["energy"])
    m["cli.cpu_s"] = base["cpu_s"]
    m["cli.wall_s"] = base["wall_s"]
    m["cli.trace_overhead_s"] = m["cli.traced_wall_s"] + import_s - base["wall_s"]
    m["cli.coverage"] = m.pop("coverage")

    for name in sorted(m):
        if name == "self_sum_error_s":
            continue
        print(f"layer {name} = {m[name]:.6g} {unit_of(name)}" + unmeasured(name, m))
    print(f"tracing overhead: traced wall {m['cli.traced_wall_s']:.4f} s + nldiff import "
          f"{import_s:.4f} s - untraced wall {base['wall_s']:.4f} s "
          f"= {m['cli.trace_overhead_s']:.4f} s")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    metrics = {name: (value, unit_of(name)) for name, value in m.items()}
    return metrics, attempted, failed, problems


# Layers that only some workloads' commands enter.
OPTIONAL_LAYERS = ("config.parse_s", "config.build_problem_s", "kernels.mollify_s",
                   "analysis.verify_s", "analysis.study_self_s", "pgm.load_s", "pgm.save_s")


def unmeasured(name: str, m: dict) -> str:
    if name in OPTIONAL_LAYERS and m[name] == 0.0:
        return "  (unmeasured: this workload's command does not call the layer)"
    return ""


def unit_of(name: str) -> str:
    if name.endswith("mpairs_per_s"):
        return "Mpairs/s"
    if name.endswith("_mb"):
        return "MB"
    if "ns_per_value" in name:
        return "ns"
    if name.endswith("bytes_per_apply"):
        return "B"
    if name.endswith(("_share", "coverage")):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def declared_metrics(trace: int) -> list:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(src, "nldiff", "cli.py")):
        fail_setup(f"no nldiff sources under {src}; run from the root of a source tree")
    if workload.config and not os.path.isfile(os.path.join(root, "configs", workload.config)):
        fail_setup(f"configs/{workload.config} is missing")
    if not os.path.isfile(workloads.reference_path(workload)):
        fail_setup(f"reference outputs {workloads.reference_path(workload)} are missing")
    declared = declared_metrics(args.trace)

    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import nldiff
    import_s = time.perf_counter() - t0
    import numpy

    if not os.path.abspath(nldiff.__file__).startswith(src + os.sep):
        fail_setup(f"nldiff imported from {nldiff.__file__}, not from {src}")

    print(machine_info(numpy))
    input_seed = args.seed % REFERENCE_SEEDS
    print(f"workload {workload.name}, seed {args.seed} (input seed {input_seed}), "
          f"{'traced run' if args.trace else f'{args.seconds:g} s of timed runs'}")
    scratch = os.path.join(root, ".perfbench_runs", f"{workload.name}-{args.seed}-{os.getpid()}")
    env = child_env(src)
    problems = []
    try:
        inputs = workload.generate(scratch, input_seed)
        if args.trace:
            metrics, attempted, failed, problems = traced(
                workload, inputs, scratch, env, nldiff, import_s)
        else:
            metrics, attempted, failed = timed(workload, inputs, args.seconds, scratch, env, src)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(scratch))

    result = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        result[entry["name"]] = {"value": float(value), "unit": unit}
        if not args.trace:
            print(f"{entry['name']} {value:.6g} {unit}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
