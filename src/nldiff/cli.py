"""Command-line entry point.

Subcommands
-----------
solve
    Run the configured evolution and export the trajectory.
verify
    Run it and check the a priori estimates; nonzero exit on failure.
denoise
    Treat a PGM image as initial data for the signal-adaptive flow, or
    apply the classical one-pass normalized filter with ``--one-step``.
study contraction | cauchy | refine
    The three convergence and stability experiments.

Exit codes: 0 success, 1 a check failed, 2 configuration or input error,
3 numerical blow-up.  All outputs are deterministic for a fixed config
and seed, so reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import contraction_study, mollifier_cauchy_study, time_refinement_study, verify_invariants
from .config import build_problem, parse_config, serialize_config
from .errors import (
    AssumptionViolationError,
    ConfigParseError,
    ConfigurationError,
    KernelValidationError,
    NldiffError,
    NumericalBlowupError,
)
from .grid import Field, series_csv, write_text
from .kernels import bilateral_kernel, make_spatial_kernel, zero_reaction
from .operator import flow_energy, one_step_filter
from .pgm import field_to_image, image_to_field, load_pgm, save_pgm
from .stepper import Problem, SolverConfig, export_trajectory, solve_problem


def _load(args):
    cfg = parse_config(args.config)
    if args.seed is None:
        return cfg
    try:
        return replace(cfg, seed=args.seed)
    except ConfigurationError as exc:
        # the refused value came from the flag, not from the config file
        raise NldiffError(f"--seed: {exc}") from exc


def _out_dir(args, cfg) -> str:
    out = args.out if args.out else cfg.output.dir
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    traj = solve_problem(build_problem(cfg))
    paths = export_trajectory(traj, out)
    write_text(os.path.join(out, "run_config.txt"), serialize_config(cfg))
    final = traj.final_state.values
    print(f"solved {cfg.solver.steps} steps to t = {cfg.solver.T}")
    print(f"final range [{final.min():.6g}, {final.max():.6g}], "
          f"mass {traj.grid.node_volume * final.sum():.12g}")
    print(f"wrote {len(paths) + 1} files to {out}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    traj = solve_problem(build_problem(cfg))
    report = verify_invariants(traj)
    print(report.to_text())
    write_text(os.path.join(out, "report.txt"), report.to_text() + "\n")
    write_text(os.path.join(out, "report.csv"), report.to_csv())
    return 0 if report.all_passed else 1


def _cmd_denoise(args) -> int:
    image = load_pgm(args.image)
    grid, u0 = image_to_field(image)
    out = args.out
    os.makedirs(out, exist_ok=True)
    table = make_spatial_kernel(grid, "gaussian", args.radius)

    if args.one_step:
        final = one_step_filter(grid, table, u0, args.h)
        kernel = bilateral_kernel(args.h)
        e0 = flow_energy(grid, table, kernel, u0)
        e1 = flow_energy(grid, table, kernel, final)
        write_text(
            os.path.join(out, "energy_series.csv"),
            series_csv({"step": [0, 1], "t": [0.0, 0.0], "energy": [e0, e1]}),
        )
    else:
        config = SolverConfig(
            T=args.T,
            steps=args.steps,
            mu_mode="manual",
            mu=0.0,
            record_every=max(1, args.steps),
        )
        problem = Problem(
            grid=grid,
            table=table,
            kernel=bilateral_kernel(args.h),
            reaction=zero_reaction(),
            u0=u0,
            config=config,
        )
        traj = solve_problem(problem)
        d = traj.per_step
        write_text(
            os.path.join(out, "energy_series.csv"),
            series_csv({"step": d["step"], "t": d["t"], "energy": d["energy"]}),
        )
        final = traj.final_state

    lo, hi = float(final.values.min()), float(final.values.max())
    print(f"value range before quantization: [{lo:.6g}, {hi:.6g}]"
          + ("" if 0.0 <= lo and hi <= 1.0 else " (will be clamped to [0, 1])"))
    save_pgm(field_to_image(final), os.path.join(out, "denoised.pgm"))
    print(f"wrote {os.path.join(out, 'denoised.pgm')}")
    return 0


def _cmd_study_contraction(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    problem = build_problem(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    scale = cfg.study.perturb_scale * max(1.0, float(np.max(np.abs(problem.u0.values))))
    bump = rng.uniform(0.0, 1.0, size=problem.grid.node_count)
    u0_b = Field(problem.grid, problem.u0.values + scale * bump)
    report = contraction_study(problem, problem.u0, u0_b, cfg.study.norm)
    print(report.to_text())
    write_text(os.path.join(out, "contraction.csv"),
               series_csv({"t": report.series["t"], "ratio": report.series["ratio"]}))
    write_text(os.path.join(out, "contraction_report.csv"), report.to_csv())
    return 0 if report.all_passed else 1


def _cmd_study_cauchy(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    base_cfg = replace(cfg, range=replace(cfg.range, mollify_n=0))
    problem = build_problem(base_cfg)
    result = mollifier_cauchy_study(problem, cfg.study.levels, cfg.range.mollify_quad)
    print(result.report.to_text())
    print(f"fitted level-decay exponent: {result.fitted_exponent:.4f}")
    i, j = np.triu_indices(len(result.levels), 1)
    write_text(os.path.join(out, "cauchy.csv"), series_csv(
        {"level_i": result.levels[i], "level_j": result.levels[j],
         "l1_distance": result.pairwise_l1[i, j]}))
    write_text(os.path.join(out, "cauchy_report.csv"), result.report.to_csv())
    return 0 if result.report.all_passed else 1


def _cmd_study_refine(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    problem = build_problem(cfg)
    report = time_refinement_study(problem, cfg.study.refine_steps)
    print(report.to_text())
    write_text(os.path.join(out, "refine.csv"),
               series_csv({"tau": report.series["tau"], "error": report.series["error"]}))
    write_text(os.path.join(out, "refine_report.csv"), report.to_csv())
    return 0 if report.all_passed else 1


def _add_common(sub):
    sub.add_argument("--config", required=True, help="run configuration file")
    sub.add_argument("--out", default="", help="output directory (default: output.dir from the config)")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nldiff",
        description="Nonlocal diffusion with signal-adaptive range kernels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="run the evolution and export the trajectory")
    _add_common(p)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("verify", help="run and check the a priori estimates")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("denoise", help="smooth a PGM image")
    p.add_argument("--image", required=True, help="input image, PGM (P2 or P5)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--one-step", action="store_true",
                   help="apply the classical normalized filter once instead of the flow")
    p.add_argument("--radius", type=float, default=0.03, help="spatial window radius (image width = 1)")
    p.add_argument("--h", type=float, default=0.1, help="value-difference scale of the window")
    p.add_argument("--T", type=float, default=0.05, help="flow end time")
    p.add_argument("--steps", type=int, default=32, help="flow step count")
    p.set_defaults(handler=_cmd_denoise)

    p = subs.add_parser("study", help="convergence and stability experiments")
    studies = p.add_subparsers(dest="study", required=True)
    for name, handler in (
        ("contraction", _cmd_study_contraction),
        ("cauchy", _cmd_study_cauchy),
        ("refine", _cmd_study_refine),
    ):
        q = studies.add_parser(name)
        _add_common(q)
        q.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except AssumptionViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            for check in exc.report.failed():
                print(f"  {check}", file=sys.stderr)
        return 2
    except NumericalBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NldiffError, OSError) as exc:
        # a refused value names the config it came from, unless the error
        # names its own file already
        named = isinstance(exc, (ConfigurationError, KernelValidationError))
        if named and not isinstance(exc, ConfigParseError) and getattr(args, "config", None):
            exc = f"{args.config}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
