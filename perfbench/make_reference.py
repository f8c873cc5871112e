"""Record the reference outputs the benchmark compares every run against.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a source tree at the commit whose outputs are the
reference.  For each input seed 0 .. REFERENCE_SEEDS - 1 it generates the
workload's inputs, runs its command once, requires exit 0 and passing
report checks, and writes perfbench/reference/<workload>.json.  Re-record
only when a workload's inputs change on purpose, never to make a changed
program pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
from workloads import REFERENCE_SEEDS, WORKLOADS


def record(workload, scratch: str, env: dict) -> dict:
    seeds = {}
    for seed in range(REFERENCE_SEEDS):
        inputs = workload.generate(scratch, seed)
        out_dir = os.path.join(scratch, f"out{seed}")
        res = run.run_command(workload.argv(inputs, out_dir), out_dir, env, run.COMMAND_TIMEOUT_S)
        if res["rc"] != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit code {res['rc']}")
        values, pixels, failed = workload.collect(out_dir)
        if failed:
            raise SystemExit(f"{workload.name} seed {seed}: {failed}")
        entry = {"inputs_sha256": inputs.sha256, "values": values}
        if pixels is not None:
            entry["pixels"] = f"{workload.name}-{seed}.pgm"
            shutil.copyfile(os.path.join(out_dir, workloads.PIXELS_FILE),
                            os.path.join(workloads.REFERENCE_DIR, entry["pixels"]))
        seeds[str(seed)] = entry
        print(f"{workload.name} seed {seed}: {res['wall_s']:.2f} s", flush=True)
    return {"reference_seeds": REFERENCE_SEEDS, "seeds": seeds}


def main(names) -> None:
    src = os.path.join(os.getcwd(), "src")
    env = run.child_env(src)
    scratch = os.path.join(os.getcwd(), ".perfbench_runs", f"reference-{os.getpid()}")
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            data = record(WORKLOADS[name], scratch, env)
            with open(workloads.reference_path(WORKLOADS[name]), "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
