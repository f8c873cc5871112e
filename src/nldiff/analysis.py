"""A-posteriori verification of the estimates the scheme is built on.

Each study runs the solver, measures a quantity the theory bounds, and
writes the comparison into a :class:`RunReport`: a list of named checks
with the measured value and its threshold, plus the constants and series
behind them.  A failing check is recorded, never raised, so a report
always covers the full battery.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, GridMismatchError, _cpus, _Helper
from .grid import Field, lp_norm
from .kernels import RunReport, mollify_range_kernel
from .stepper import (
    Problem,
    Trajectory,
    solve_problem,
    stability_constant_estimate,
)


def verify_invariants(traj: Trajectory) -> RunReport:
    """Run the invariant battery on one trajectory.

    Covers non-negativity, mass conservation for reaction-free runs, the
    sup-norm certificate when mu came from the certificate mode, the
    uniform bound on the transformed unknown when mu came from the growth
    mode, per-step energy descent for gradient-flow kernels, and the
    step-size restriction.  Checks that do not apply to the run's
    configuration are simply absent from the report.
    """
    rep = RunReport()
    c = traj.constants
    d = traj.per_step
    rep.constants.update(c)

    rep.add(
        "state non-negativity",
        float(np.min(d["min"])) >= -1e-10,
        float(np.min(d["min"])),
        -1e-10,
        "min over all steps",
    )

    if traj.reaction.is_zero:
        mass0 = d["mass"][0]
        drift = float(np.max(np.abs(d["mass"] - mass0)))
        scale = abs(mass0)
        mu, tau = c["mu"], c["tau"]
        if mu == 0.0:
            thr = 1e-10 * scale + 1e-14
            note = "reaction-free, undamped: conservation to round-off"
        else:
            # The damped update scales total mass by e^{mu tau}/(1 + mu tau)
            # per step, a quadrature artifact of order (mu tau)^2 / 2 each.
            steps = int(traj.config.steps)
            thr = 2.0 * scale * (math.exp(0.5 * steps * (mu * tau) ** 2) - 1.0) + 1e-14
            note = "reaction-free, damped: drift bounded by the transform artifact"
        rep.add("mass conservation", drift <= thr, drift, thr, note)

    sup = np.maximum(np.abs(d["min"]), np.abs(d["max"]))
    if c["mu_mode"] == "auto_linf":
        bound = math.exp(c["mu"] * traj.config.T) * c["norm_u0"] * (1.0 + 1e-8)
        worst = float(np.max(sup))
        rep.add(
            "sup-norm certificate",
            worst <= bound,
            worst,
            bound,
            "max |u| against e^(mu T) max |u0|",
        )
        rep.series["linf_bound"] = np.exp(c["mu"] * d["t"]) * c["norm_u0"]

    if c["mu_mode"] == "auto_growth" and math.isfinite(c["c_a"]):
        m0 = max(c["norm_u0"], c["c_f"] / c["mu_margin"] if c["c_f"] > 0.0 else c["norm_u0"])
        w_sup = sup * np.exp(-c["mu"] * d["t"])
        worst = float(np.max(w_sup))
        rep.add(
            "transformed sup-norm bound",
            worst <= m0 * (1.0 + 1e-10),
            worst,
            m0 * (1.0 + 1e-10),
            "max |w| against max(|u0|, C_f / margin)",
        )

    if traj.kernel.has_energy and traj.reaction.is_zero and c["mu"] == 0.0:
        increments = np.diff(d["energy"])
        worst = float(np.max(increments)) if increments.size else 0.0
        applicable = c["tau"] <= c["tau_positivity_limit"]
        note = "per-step energy increments"
        if not applicable:
            note += "; step size above the positivity bound, descent not guaranteed"
        rep.add("energy descent", worst <= 1e-10, worst, 1e-10, note)

    rep.add(
        "step-size restriction",
        c["tau"] <= c["tau_positivity_limit"],
        c["tau"],
        c["tau_positivity_limit"],
        "tau against 1 / (kernel mass * L_A + L_f)",
    )

    rep.series["t"] = d["t"].copy()
    rep.series["mass"] = d["mass"].copy()
    rep.series["energy"] = d["energy"].copy()
    rep.series["sup"] = sup
    return rep


def contraction_study(problem: Problem, u0_a: Field, u0_b: Field, p) -> RunReport:
    """Measure the separation of two runs against the theory's envelope.

    With a monotone range kernel and a non-increasing reaction the flow is
    an L^p contraction, so every ratio must stay at 1 up to round-off; with
    a merely Lipschitz reaction the ratios must stay under the envelope
    e^{L_f t}.  Both solves reuse the problem's configuration.
    """
    if u0_a.grid != problem.grid or u0_b.grid != problem.grid:
        raise GridMismatchError("initial states do not live on the problem grid")
    traj_a = solve_problem(replace(problem, u0=u0_a))
    traj_b = solve_problem(replace(problem, u0=u0_b))
    summary = stability_constant_estimate(traj_a, traj_b, p)

    rep = RunReport()
    rep.constants.update(
        {
            "p": summary.p,
            "l_f": problem.reaction.l_lipschitz,
            "kernel_monotone": problem.kernel.monotone,
            "reaction_non_increasing": problem.reaction.non_increasing,
            "fitted_rate": summary.fitted_rate,
        }
    )
    rep.series["t"] = summary.times
    rep.series["ratio"] = summary.ratios

    contractive = problem.kernel.monotone and problem.reaction.non_increasing
    if contractive:
        rep.add(
            "contraction",
            summary.max_ratio <= 1.0 + 1e-8,
            summary.max_ratio,
            1.0 + 1e-8,
            f"max L^{summary.p} separation ratio",
        )
    l_f = problem.reaction.l_lipschitz
    envelope = np.exp(l_f * summary.times) * (1.0 + 1e-6)
    excess = float(np.max(summary.ratios - envelope))
    rep.add(
        "stability envelope",
        excess <= 0.0,
        excess,
        0.0,
        f"max ratio overshoot of e^(L_f t), L_f = {l_f}",
    )
    rep.add(
        "fitted rate within envelope",
        summary.fitted_rate <= l_f + 0.02,
        summary.fitted_rate,
        l_f + 0.02,
        "least-squares exponential rate of the ratios",
    )
    return rep


@dataclass
class CauchyStudyResult:
    """Pairwise distances between runs at increasing mollification levels.

    ``pairwise_l1`` is symmetric with a zero diagonal; entry (i, j) is the
    space-time L^1 distance between the runs at levels i and j, discretized
    as tau * node_volume * sum over steps and nodes.  ``limit_estimate`` is
    the final state at the finest level.  The fitted exponent comes from a
    log-log fit of consecutive-level distances, distances to the coarsest
    level excluded; it needs at least four levels and distances above
    round-off, and is NaN otherwise.
    """

    levels: np.ndarray
    pairwise_l1: np.ndarray
    limit_estimate: Field
    fitted_exponent: float
    report: RunReport


def mollifier_cauchy_study(problem: Problem, levels, quad_count: int = 257) -> CauchyStudyResult:
    """Solve at several mollification levels of ``problem.kernel`` and
    measure mutual distances.

    The spatial kernel, data, and step grid stay fixed, so the distances
    isolate the smoothing level; the theory then predicts a decay like
    (|n - m| / (n m))^alpha in the two levels, and for consecutive doubling
    levels a decay in n of exponent alpha.  Each level is mollified on
    ``quad_count`` panels, and on no fewer than 257.  Requires a monotone
    kernel (the hypothesis behind the underlying uniqueness argument),
    not itself mollified, and at least three strictly increasing levels.

    Level i is solved on forked helper i mod W, W the CPUs the caller may
    use (at most one per level), or in this process when W is 1.  Results,
    warnings and errors are those of a loop over the levels in order; a
    dead helper raises :class:`RuntimeError`, and none outlives the call.
    """
    base = problem.kernel
    if not base.monotone:
        raise ConfigurationError("the mollification Cauchy study needs a monotone range kernel")
    lv = [int(n) for n in levels]
    if len(lv) < 3:
        raise ConfigurationError("need at least three mollification levels")
    if any(b <= a for a, b in zip(lv, lv[1:])) or lv[0] < 1:
        raise ConfigurationError("mollification levels must be strictly increasing and >= 1")

    quad_count = max(257, quad_count)
    config = replace(problem.config, record_every=1)

    def solve_level(n):
        """The recorded states of level n, stacked row by row; the last row
        is the final state."""
        level = replace(problem, kernel=mollify_range_kernel(base, n, quad_count), config=config)
        return np.stack([s.values for s in solve_problem(level).states])

    workers = min(len(lv), _cpus())
    if workers == 1:
        stacked = [solve_level(n) for n in lv]
    else:
        # equal-cost levels, so round robin; the stack closes helpers in reverse fork order
        with contextlib.ExitStack() as stack:
            helpers = []
            for _ in range(workers):
                helpers.append(_Helper(solve_level, "the Cauchy study"))
                stack.callback(helpers[-1].close)
            for i, n in enumerate(lv):
                helpers[i % workers].send(n)
            # in level order: the lowest failing level raises, later ones are not looked at
            stacked = [helpers[i % workers].reply() for i in range(len(lv))]

    grid = problem.grid
    tau = config.T / config.steps
    m = len(lv)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            diff = np.abs(stacked[i][1:] - stacked[j][1:])
            dist[i, j] = dist[j, i] = tau * grid.node_volume * float(np.sum(diff))

    rep = RunReport()
    rep.constants.update(
        {
            "alpha": base.holder_alpha,
            "levels": tuple(lv),
            "quad_count": quad_count,
        }
    )
    rep.series["levels"] = np.asarray(lv, dtype=float)

    # The two-level bound (1/n - 1/m)^alpha grows with m at fixed n, so a
    # row is not monotone toward the diagonal.  What must shrink is the
    # whole tail: sup_{m > n} d(n, m), the quantity that makes the family
    # Cauchy.  Checked with 10% slack against noise in the small distances.
    tails = np.array([max(dist[i, j] for j in range(i + 1, m)) for i in range(m - 1)])
    rep.series["tail_sup"] = tails
    tail_ok = bool(np.all(tails[1:] <= tails[:-1] * 1.1))
    rep.add(
        "tail suprema shrink with the level",
        tail_ok,
        float(np.max(tails[1:] / tails[:-1])) if m > 2 and np.all(tails[:-1] > 0) else 0.0,
        1.1,
        "sup of each row beyond the diagonal, coarse to fine",
    )

    tri_worst = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                tri_worst = max(tri_worst, dist[i, j] - dist[i, k] - dist[k, j])
    rep.add("triangle inequality", tri_worst <= 1e-12, tri_worst, 1e-12)

    consecutive = np.array([dist[i, i + 1] for i in range(m - 1)])
    rep.series["consecutive_distance"] = consecutive
    # A base kernel the smoothing reproduces exactly (affine, say) leaves
    # only round-off between levels; fitting a decay exponent to that noise
    # would report nonsense, so distances must clear a floor scaled to the
    # space-time volume of the data.
    scale = config.T * grid.total_measure * max(1.0, float(np.max(np.abs(problem.u0.values))))
    floor = 1e-14 * scale
    resolvable = bool(np.all(consecutive > floor))
    fitted = math.nan
    if resolvable and m >= 4:
        ns = np.asarray(lv[1:-1], dtype=float)
        ds = consecutive[1:]
        slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
        fitted = float(-slope)
        rep.constants["fitted_exponent"] = fitted
    rep.add(
        "consecutive distances resolvable",
        resolvable,
        float(np.min(consecutive)),
        floor,
        "distances at round-off level would make the decay fit meaningless",
    )

    return CauchyStudyResult(
        levels=np.asarray(lv, dtype=np.int64),
        pairwise_l1=dist,
        limit_estimate=Field(grid, stacked[-1][-1].copy()),
        fitted_exponent=fitted,
        report=rep,
    )


def time_refinement_study(problem: Problem, step_counts, reference: Field | None = None) -> RunReport:
    """First-order convergence of the stepper under step doubling.

    Solves at each step count, keeping everything else fixed, and compares
    final states against ``reference`` (some externally computed field) or,
    when none is given, between consecutive step counts.  Fits the order
    on a log-log plot of error versus step size, excluding the coarsest
    level.  Constant-in-time exact solutions make every error vanish; the
    report then says so instead of fitting.
    """
    counts = [int(n) for n in step_counts]
    if len(counts) < 3:
        raise ConfigurationError("need at least three step counts")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ConfigurationError("step counts must increase strictly")
    if any(b % a for a, b in zip(counts, counts[1:])):
        raise ConfigurationError("each step count must divide the next")

    finals = []
    for n in counts:
        config = replace(problem.config, steps=n, record_every=n)
        finals.append(solve_problem(replace(problem, config=config)).final_state)

    grid = problem.grid
    if reference is not None:
        if reference.grid != grid:
            raise GridMismatchError("reference field lives on a different grid")
        errs = [
            lp_norm(grid, Field(grid, f.values - reference.values), math.inf) for f in finals
        ]
        used = list(range(len(counts)))
    else:
        # Without an external reference, differences to the finest run scale
        # like (tau_n - tau_finest), which bends the log-log fit away from
        # the order.  Consecutive differences scale like tau_n itself.
        errs = [
            lp_norm(grid, Field(grid, a.values - b.values), math.inf)
            for a, b in zip(finals, finals[1:])
        ]
        used = list(range(len(counts) - 1))

    rep = RunReport()
    taus = np.array([problem.config.T / counts[i] for i in used])
    errors = np.asarray(errs)
    rep.series["tau"] = taus
    rep.series["error"] = errors
    rep.constants["step_counts"] = tuple(counts)

    if float(np.max(errors)) <= 1e-12:
        rep.add(
            "errors negligible",
            True,
            float(np.max(errors)),
            1e-12,
            "exact solution is stationary for the scheme; order undefined",
        )
        rep.constants["fitted_order"] = math.nan
        return rep

    dec_ok = bool(np.all(np.diff(errors) < 0.0))
    rep.add(
        "errors decrease under refinement",
        dec_ok,
        float(errors[-1] / errors[0]),
        1.0,
        "finest over coarsest error",
    )
    mask = np.arange(len(errors)) >= 1  # drop the coarsest level from the fit
    if np.count_nonzero(mask) >= 2 and np.all(errors[mask] > 0.0):
        order = float(np.polyfit(np.log(taus[mask]), np.log(errors[mask]), 1)[0])
    else:
        order = math.nan
    rep.constants["fitted_order"] = order
    rep.add(
        "first-order convergence",
        bool(0.8 <= order <= 1.2) if math.isfinite(order) else False,
        order if math.isfinite(order) else -1.0,
        1.0,
        "fitted slope of log error vs log tau, coarsest level excluded",
    )
    return rep
