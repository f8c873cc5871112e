"""Time, in a fresh interpreter, importing nldiff and readying a problem.

    python3 perfbench/setup_probe.py config <file.cfg>
    python3 perfbench/setup_probe.py image <file.pgm> <radius>

``config`` is parse_config + build_problem; ``image`` is load_pgm +
image_to_field + make_spatial_kernel, which is what `nldiff denoise` does
before it solves.  Prints one JSON line with the elapsed seconds and the
file nldiff was imported from.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import nldiff  # noqa: E402


def main(argv) -> None:
    kind, path = argv[0], argv[1]
    if kind == "config":
        nldiff.build_problem(nldiff.parse_config(path))
    else:
        grid, _ = nldiff.image_to_field(nldiff.load_pgm(path))
        nldiff.make_spatial_kernel(grid, "gaussian", float(argv[2]))
    elapsed = time.perf_counter() - _T0
    print(json.dumps({"setup_s": elapsed, "nldiff_file": nldiff.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
