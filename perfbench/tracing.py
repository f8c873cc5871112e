"""Spans around the calls into nldiff's modules, recorded from outside.

The tracer replaces public functions in every ``nldiff`` module namespace
that holds them, which is where the program looks them up, and wraps
``RangeKernel.eval`` on the class.  Each call records a span: name, start,
end, parent and a few attributes (range family and value count, solver
steps, table offsets).  Spans stay in memory until the run ends.

A function that calls itself through its own wrapper (``flow_energy`` on a
mollified kernel delegates to its base) is one call of its layer, so a span
is not opened inside a span of the same name; range evaluations are the
exception, since a mollified evaluation calling its base family is work of
two families.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Span name for each traced public function of the nldiff package.
TRACED_FUNCTIONS = {
    "parse_config": "config.parse",
    "build_problem": "config.build_problem",
    "make_spatial_kernel": "kernels.table_build",
    "validate_assumptions": "kernels.validate",
    "sample_growth_constant": "kernels.constants",
    "sample_lipschitz_constant": "kernels.constants",
    "mollify_range_kernel": "kernels.mollify",
    "flow_energy": "operator.energy",
    "solve_problem": "stepper.solve_problem",
    "solve": "stepper.solve",
    "verify_invariants": "analysis.verify",
    "mollifier_cauchy_study": "analysis.study",
    "load_pgm": "pgm.load",
    "save_pgm": "pgm.save",
}
RANGE_EVAL = "kernels.range_eval"
ROOT = "cli"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers, collects spans, and removes the wrappers again."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def _open(self, name, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, attrs or {}))
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            _describe(tracer.spans[idx], fn.__name__, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(self.package.__name__ + "."))]
        for public, name in TRACED_FUNCTIONS.items():
            fn = getattr(self.package, public, None)
            if fn is None:
                self.missing.append(public)
                continue
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        cls = self.package.RangeKernel
        original = cls.eval
        tracer = self

        def traced_eval(kernel, t, s, pair_ref=None):
            idx = tracer._open(RANGE_EVAL, {"family": kernel.family, "values": int(np.size(s))})
            try:
                return original(kernel, t, s, pair_ref)
            finally:
                tracer._close(idx)

        self._patched.append((cls, "eval", original))
        cls.eval = traced_eval

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def run(self, fn, *args):
        """Call ``fn(*args)`` inside the root span with the wrappers installed."""
        self.install()
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.uninstall()


def _describe(span: Span, fname: str, args, kwargs, result) -> None:
    if fname == "solve":
        config = kwargs.get("config", args[5] if len(args) > 5 else None)
        span.attrs["steps"] = int(config.steps)
    elif fname == "make_spatial_kernel":
        span.attrs["offsets"] = int(result.size)


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def inside(spans: list, idx: int, name: str) -> bool:
    """Whether span ``idx`` has an ancestor called ``name``."""
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list) -> dict:
    """Per-layer times and counts from one traced command.

    Times ending in ``_s`` are inclusive span durations summed over calls,
    except ``range_eval_s``, ``traversal_self_s``, ``study_self_s`` and
    ``untraced_s``, which are self times.
    """
    own = self_times(spans)

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    m = {
        "config.parse_s": total("config.parse"),
        "config.build_problem_s": total("config.build_problem"),
        "kernels.table_build_s": total("kernels.table_build"),
        "kernels.table_offsets": max((s.attrs["offsets"] for s in spans
                                      if s.name == "kernels.table_build"), default=0),
        "kernels.validate_s": total("kernels.validate"),
        "kernels.validate_calls": calls("kernels.validate"),
        "kernels.constants_s": total("kernels.constants"),
        "kernels.constants_calls": calls("kernels.constants"),
        "kernels.mollify_s": total("kernels.mollify"),
        "operator.energy_calls": calls("operator.energy"),
        "stepper.solve_s": total("stepper.solve"),
        "stepper.solve_calls": calls("stepper.solve"),
        "stepper.steps": sum(s.attrs.get("steps", 0) for s in spans if s.name == "stepper.solve"),
        "analysis.verify_s": total("analysis.verify"),
        "analysis.study_self_s": sum(own[i] for i, s in enumerate(spans)
                                     if s.name == "analysis.study"),
        "pgm.load_s": total("pgm.load"),
        "pgm.save_s": total("pgm.save"),
        "cli.traced_wall_s": total(ROOT),
        "cli.untraced_s": sum(own[i] for i, s in enumerate(spans) if s.name == ROOT),
    }
    evals = [(i, s) for i, s in enumerate(spans) if s.name == RANGE_EVAL]
    families = sorted({s.attrs["family"] for _, s in evals})
    for fam in [None] + families:
        sel = [(i, s) for i, s in evals if fam is None or s.attrs["family"] == fam]
        suffix = "" if fam is None else f".{fam}"
        t = sum(own[i] for i, _ in sel)
        values = sum(s.attrs["values"] for _, s in sel)
        m[f"kernels.range_eval_s{suffix}"] = t
        m[f"kernels.range_eval_calls{suffix}"] = len(sel)
        m[f"kernels.range_eval_values{suffix}"] = values
        m[f"kernels.range_eval_ns_per_value{suffix}"] = 1e9 * t / values if values else 0.0

    # Constant sampling rejects draws near zero, so how many values it
    # evaluates depends on the seed; every other evaluation count does not.
    m["kernels.range_eval_values_unsampled"] = m["kernels.range_eval_values"] - sum(
        s.attrs["values"] for i, s in evals if inside(spans, i, "kernels.constants"))

    solve_idx = [i for i, s in enumerate(spans) if s.name == "stepper.solve"]
    energy_in_solve = sum(s.end - s.start for i, s in enumerate(spans)
                          if s.name == "operator.energy" and inside(spans, i, "stepper.solve"))
    solve_s = m["stepper.solve_s"]
    m["operator.traversal_self_s"] = sum(own[i] for i in solve_idx)
    m["stepper.step_s"] = solve_s / m["stepper.steps"] if m["stepper.steps"] else 0.0
    m["stepper.diag_share"] = energy_in_solve / solve_s if solve_s else 0.0
    m["coverage"] = 1.0 - m["cli.untraced_s"] / m["cli.traced_wall_s"]
    m["self_sum_error_s"] = abs(sum(own) - m["cli.traced_wall_s"])
    return m


def time_calls(fn, min_repeats: int = 5, min_seconds: float = 0.3) -> float:
    """Median seconds of ``fn()`` over at least ``min_repeats`` calls and
    ``min_seconds`` of calls, after one warm-up call."""
    fn()
    times = []
    began = time.perf_counter()
    while len(times) < min_repeats or time.perf_counter() - began < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
