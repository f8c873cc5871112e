"""Time discretization of the nonlocal reaction-diffusion flow.

The solver integrates the damped substitution u = exp(mu t) w.
One step of size tau from time t_j reads

    w_{j+1} = ( w_j + tau e^{-mu t_j} [ (L u_j) + f(t_j, ., u_j) ] )
              / (1 + tau mu),          u_j = e^{mu t_j} w_j,

so the nonlocal operator L and the reaction are explicit at the left
endpoint while the damping -mu w is implicit, which is what makes the
growth and sup-norm estimates close.  With mu = 0 every transform above
multiplies by exactly 1.0 and the update is, bit for bit, the plain
explicit Euler scheme u_{j+1} = u_j + tau [ (L u_j) + f(t_j, ., u_j) ].

The loop of :func:`solve` is the only step.  The min and max of each u_j
are both its blow-up guard (NaN and inf reach them, so a finite pair
means a finite state) and its min and max diagnostics; w advances only
while j < N.  States are flat node arrays in the grid's C order, the
layout the pair walk reads.

Three ways to pick mu:

* ``auto_growth``   mu = 2 C_A + C_f + margin, with C_A the sampled growth
  constant of the range kernel; suits kernels with a finite slope near 0.
* ``auto_linf``     mu = C_f (1 + K) / K with K = 1.01 max|u0|; this is
  the choice under which the recorded trajectory must satisfy the sup-norm
  certificate max|u(t)| <= e^{mu T} max|u0|.
* ``manual``        mu taken from the config; mu = 0 disables the
  transform, the right choice for contraction and conservation studies.

A step-size restriction tau * (discrete kernel mass) * L_A + tau * L_f <= 1
keeps the explicit part diagonally dominant; under it the update is a
monotone map of the previous state, which is what preserves positivity and
the discrete maximum principle.  The solver computes the bound from
sampled constants, stores it, and warns when the configured tau exceeds
it.  Kernels whose slope blows up at the origin (p_laplacian with p < 2)
get an honest but enormous sampled slope, so runs with them should use a
mollified kernel or accept the warning.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConfigurationError,
    GridMismatchError,
    NumericalBlowupError,
    UndefinedRatioError,
)
from .grid import Field, Grid, lp_norm, save_field, series_csv, write_text
from .kernels import (
    RangeKernel,
    Reaction,
    SpatialKernelTable,
    sample_growth_constant,
    sample_lipschitz_constant,
    validate_assumptions,
)
from .operator import _check_table, _Walk

MU_MODES = ("auto_growth", "auto_linf", "manual")

DIAGNOSTIC_COLUMNS = ("step", "t", "min", "max", "mass", "energy", "op_sup")

# exp overflows float64 just above 709; refuse runs that would hit it
_MAX_MU_T = 700.0


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`solve`.

    ``record_every`` thins the stored states; diagnostics are still taken
    at every step.  The final state is always recorded.
    """

    T: float
    steps: int
    mu_mode: str = "auto_growth"
    mu: float = 0.0
    mu_margin: float = 0.01
    record_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ConfigurationError(f"final time must be finite and positive, got {self.T}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ConfigurationError(f"step count must be a positive integer, got {self.steps}")
        if self.mu_mode not in MU_MODES:
            raise ConfigurationError(f"unknown mu mode {self.mu_mode!r}")
        if not self.mu >= 0.0:
            raise ConfigurationError(f"mu must be non-negative, got {self.mu}")
        if not self.mu_margin > 0.0:
            raise ConfigurationError(f"mu margin must be positive, got {self.mu_margin}")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ConfigurationError("record_every must be a positive integer")


@dataclass(frozen=True)
class Problem:
    """Everything one run needs: geometry, kernels, reaction, data, config."""

    grid: Grid
    table: SpatialKernelTable
    kernel: RangeKernel
    reaction: Reaction
    u0: Field
    config: SolverConfig
    seed: int = 42


def _check_seed(seed):
    """Refuse a seed that numpy's generators would reject."""
    if int(seed) != seed or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")


def select_mu(mode: str, c_a: float = 0.0, c_f: float = 0.0, k: float | None = None,
              margin: float = 0.01, mu: float = 0.0) -> float:
    """Resolve the damping constant for a mu mode.

    auto_growth returns 2 c_a + c_f + margin; auto_linf returns
    c_f (1 + k) / k and requires k > 0; manual passes ``mu`` through.
    """
    if mode == "auto_growth":
        return 2.0 * c_a + c_f + margin
    if mode == "auto_linf":
        if k is None or not k > 0.0:
            raise ConfigurationError(f"auto_linf needs a positive sup-norm bound, got {k}")
        return c_f * (1.0 + k) / k
    if mode == "manual":
        if not mu >= 0.0:
            raise ConfigurationError(f"mu must be non-negative, got {mu}")
        return float(mu)
    raise ConfigurationError(f"unknown mu mode {mode!r}")


@dataclass
class Trajectory:
    """The output of one run.

    ``times`` and ``states`` hold the recorded (thinned) trajectory of the
    original unknown u; ``states[0]`` is the supplied initial state bit for
    bit.  ``per_step`` carries one diagnostic row per step, including both
    endpoints, as arrays keyed by :data:`DIAGNOSTIC_COLUMNS`.
    ``constants`` collects everything the invariant checks need: the
    resolved mu, the sampled or declared growth and Lipschitz constants,
    and the positivity step-size bound.
    """

    grid: Grid
    times: np.ndarray
    states: list
    record_steps: np.ndarray
    per_step: dict
    constants: dict
    config: SolverConfig
    table: SpatialKernelTable
    kernel: RangeKernel
    reaction: Reaction

    @property
    def final_state(self) -> Field:
        return self.states[-1]


def _resolve_constants(kernel, reaction, u0, config, seed):
    rng = np.random.default_rng(seed)
    norm_u0 = float(np.max(np.abs(u0.values)))
    c_f, l_f = reaction.c_growth, reaction.l_lipschitz
    sample_radius = 2.0 * max(1.0, norm_u0)
    c_a = k = math.nan
    if config.mu_mode == "auto_growth":
        c_a = sample_growth_constant(kernel, sample_radius, rng)
    elif config.mu_mode == "auto_linf":
        k = 1.01 * norm_u0
    mu = select_mu(config.mu_mode, c_a=c_a, c_f=c_f, k=k, margin=config.mu_margin, mu=config.mu)
    # Sampled on twice the initial range: conformant runs stay inside it by
    # the discrete maximum principle, which is what this bound protects.
    l_loc = sample_lipschitz_constant(kernel, sample_radius, rng)
    return {
        "mu": mu,
        "mu_mode": config.mu_mode,
        "mu_margin": config.mu_margin,
        "c_a": c_a,
        "c_f": c_f,
        "l_f": l_f,
        "l_a_loc": l_loc,
        "k_linf": k,
        "norm_u0": norm_u0,
    }


def solve(
    grid: Grid,
    table: SpatialKernelTable,
    kernel: RangeKernel,
    reaction: Reaction,
    u0: Field,
    config: SolverConfig,
    *,
    seed: int = 42,
    allow_nonconformant: bool = False,
) -> Trajectory:
    """Integrate the flow from u0 to time T with the damped scheme of the
    module docstring (explicit Euler when mu = 0).

    The problem data is validated against the structural hypotheses first
    by :func:`validate_assumptions`; a failing report raises
    :class:`AssumptionViolationError`, which carries that ``RunReport``,
    unless ``allow_nonconformant`` is set, in which case the run proceeds
    and the trajectory constants keep only the verdict, ``assumptions_ok``.
    A failed "range kernel oddness" check raises even then: the pair walk
    sums the operator of an odd kernel only.  A negative or non-integer
    ``seed`` raises :class:`ConfigurationError`.

    Each level j is one pass of the loop: u_j = e^{mu t_j} w_j, its min and
    max, the operator and energy from one walk, the diagnostics row, the
    record, then w_{j+1} (for j < N only).  A min or max that is not finite
    raises :class:`NumericalBlowupError` carrying the first step whose u is
    not finite and the last finite u, recorded or not.

    One pair walk serves every step, in two halves for a table of at least
    two blocks and ``_SPLIT_PAIRS`` pair positions.  When this process may
    use two CPUs and is no nldiff helper, a multiprocessing worker included,
    a helper process walks the second half and is reaped on return and on
    any raise; no bit changes, and a dead helper raises RuntimeError.
    """
    _check_seed(seed)
    _check_table(grid, table)
    if u0.grid != grid:
        raise GridMismatchError("initial state does not live on the given grid")
    report = validate_assumptions(table, kernel, reaction, u0, seed=seed)
    failed = [c.name for c in report.failed()]
    # the walk sums the operator of an odd kernel only: no override runs another
    odd = "range kernel oddness" not in failed
    if failed and not (allow_nonconformant and odd):
        raise AssumptionViolationError(
            f"problem data violates the structural hypotheses ({', '.join(failed)}); "
            + ("pass allow_nonconformant=True to run regardless" if odd else
               "the pair walk needs an odd range kernel; allow_nonconformant does not override that"),
            report=report,
        )

    constants = _resolve_constants(kernel, reaction, u0, config, seed)
    mu = constants["mu"]
    N = int(config.steps)
    T = float(config.T)
    tau = T / N
    if mu * T > _MAX_MU_T:
        raise ConfigurationError(
            f"mu T = {mu * T:.3g} overflows the damping transform; "
            "use manual mu or a kernel with bounded growth"
        )
    mass_s = table.discrete_mass()
    denom = mass_s * constants["l_a_loc"] + constants["l_f"]
    tau_limit = math.inf if denom <= 0.0 else 1.0 / denom
    constants.update(
        {
            "tau": tau,
            "kernel_mass": mass_s,
            "tau_positivity_limit": tau_limit,
            "assumptions_ok": report.all_passed,
        }
    )
    if tau > tau_limit:
        warnings.warn(
            f"step size {tau:.3g} exceeds the positivity bound {tau_limit:.3g}; "
            "positivity and the maximum principle are not guaranteed",
            stacklevel=2,
        )

    w = u0.values.copy()

    diag = {name: np.empty(N + 1) for name in DIAGNOSTIC_COLUMNS}
    record_steps = [j for j in range(0, N + 1, int(config.record_every))]
    if record_steps[-1] != N:
        record_steps.append(N)
    record_set = set(record_steps)
    times = []
    states = []

    u = w
    with _Walk(table, kernel) as walk:
        for j in range(N + 1):
            t_j = T * (j / N)
            last, u = u, math.exp(mu * t_j) * w
            # NaN and inf reach the min or the max, so these two guard the state
            lo, hi = u.min(), u.max()
            if not -math.inf < lo <= hi < math.inf:
                raise NumericalBlowupError(f"state left the finite range at step {j} (t = {t_j:.6g})",
                                           step=j, t=t_j, last_state=Field(grid, last))
            op, e = walk.apply(u, t_j, True)
            diag["step"][j] = j
            diag["t"][j] = t_j
            diag["min"][j] = lo
            diag["max"][j] = hi
            diag["mass"][j] = grid.node_volume * u.sum()
            diag["energy"][j] = e
            diag["op_sup"][j] = np.max(np.abs(op))
            if j in record_set:
                times.append(t_j)
                states.append(Field(grid, u.copy()))
            if j < N:
                # no name for op + f: it would stay alive through the next step;
                # a zero reaction adds nothing, so it is not evaluated
                dt = tau * math.exp(-mu * t_j)
                w = w + dt * (op if reaction.is_zero else op + reaction.eval(t_j, None, u))
                w /= 1.0 + tau * mu

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        states=states,
        record_steps=np.asarray(record_steps, dtype=np.int64),
        per_step=diag,
        constants=constants,
        config=config,
        table=table,
        kernel=kernel,
        reaction=reaction,
    )


def solve_problem(problem: Problem, *, allow_nonconformant: bool = False) -> Trajectory:
    """Run a :class:`Problem` with :func:`solve`; to vary one piece of it,
    pass ``dataclasses.replace(problem, ...)``."""
    return solve(
        problem.grid,
        problem.table,
        problem.kernel,
        problem.reaction,
        problem.u0,
        problem.config,
        seed=problem.seed,
        allow_nonconformant=allow_nonconformant,
    )


@dataclass(frozen=True)
class StabilitySummary:
    """Normalized separation of two runs at each recorded time."""

    p: float
    times: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    fitted_rate: float


def stability_constant_estimate(traj_a: Trajectory, traj_b: Trajectory, p) -> StabilitySummary:
    """Ratios |u_a(t) - u_b(t)|_p / |u_a(0) - u_b(0)|_p over recorded times.

    Both trajectories must come from the same grid, times, and step count.
    A zero initial separation leaves every ratio undefined and raises
    :class:`UndefinedRatioError`.  The fitted rate is the least-squares
    slope of log ratio against time, the exponential rate to compare with
    a Lipschitz envelope.
    """
    if traj_a.grid != traj_b.grid:
        raise GridMismatchError("trajectories live on different grids")
    if len(traj_a.states) != len(traj_b.states) or not np.array_equal(traj_a.times, traj_b.times):
        raise ConfigurationError("trajectories have different recording schedules")
    grid = traj_a.grid
    d0 = lp_norm(grid, Field(grid, traj_a.states[0].values - traj_b.states[0].values), p)
    if d0 == 0.0:
        raise UndefinedRatioError("initial states coincide; separation ratios are undefined")
    ratios = np.array(
        [
            lp_norm(grid, Field(grid, a.values - b.values), p) / d0
            for a, b in zip(traj_a.states, traj_b.states)
        ]
    )
    pos = ratios > 0.0
    if np.count_nonzero(pos) >= 2:
        t = traj_a.times[pos]
        y = np.log(ratios[pos])
        slope = float(np.polyfit(t, y, 1)[0])
    else:
        slope = -math.inf
    return StabilitySummary(
        p=float(p),
        times=traj_a.times.copy(),
        ratios=ratios,
        max_ratio=float(np.max(ratios)),
        fitted_rate=slope,
    )


def export_trajectory(traj: Trajectory, out_dir) -> list:
    """Write recorded states and per-step diagnostics under a directory.

    Each recorded state goes to ``field_<step>.csv`` in the grid module's
    field format; diagnostics go to ``diagnostics.csv`` with the columns
    step, t, min, max, mass, energy, linf_bound_cert, positivity_ok,
    op_sup, where the certificate column is e^{mu t} max|u0|,
    positivity_ok flags min >= -1e-10 and op_sup is max|L u| of the
    step's state.  Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for step, state in zip(traj.record_steps, traj.states):
        path = os.path.join(out_dir, f"field_{int(step):06d}.csv")
        save_field(state, path)
        written.append(path)
    mu = traj.constants["mu"]
    norm_u0 = traj.constants["norm_u0"]
    d = traj.per_step
    columns = {name: d[name] for name in ("step", "t", "min", "max", "mass", "energy")}
    columns["linf_bound_cert"] = [math.exp(mu * t) * norm_u0 for t in d["t"]]
    columns["positivity_ok"] = d["min"] >= -1e-10
    columns["op_sup"] = d["op_sup"]
    diag_path = os.path.join(out_dir, "diagnostics.csv")
    write_text(diag_path, series_csv(columns))
    written.append(diag_path)
    return written
