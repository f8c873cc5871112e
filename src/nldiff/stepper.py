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
* ``auto_linf``     mu = C_f (1 + K) / K with K = 1.01 max|u0|, refused
  for a zero u0; this is the choice under which the recorded trajectory
  must satisfy the sup-norm certificate max|u(t)| <= e^{mu T} max|u0|.
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
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConfigurationError,
    NumericalBlowupError,
    UndefinedRatioError,
    _real,
    _whole,
)
from .grid import Field, Grid, _on_grid, lp_norm, save_field, series_csv, write_text
from .kernels import (
    RangeKernel,
    Reaction,
    SpatialKernelTable,
    sample_growth_constant,
    sample_lipschitz_constant,
    validate_assumptions,
)
from .operator import _Walk

MU_MODES = ("auto_growth", "auto_linf", "manual")

DIAGNOSTIC_COLUMNS = ("step", "t", "min", "max", "mass", "energy", "op_sup")

# exp overflows float64 just above 709; refuse runs that would hit it
_MAX_MU_T = 700.0

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by this function's
    caller names the first frame outside the nldiff package (the outermost
    frame, if every one is inside), so that callers of every entry point
    see their own line and the once-per-location filter keeps them apart."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for :func:`solve`.

    ``record_every`` thins the stored states; diagnostics are still taken
    at every step.  The final state is always recorded.  Both counts are
    stored as ints; a float with no fraction will do.
    """

    T: float
    steps: int
    mu_mode: str = "auto_growth"
    mu: float = 0.0
    mu_margin: float = 0.01
    record_every: int = 1

    def __post_init__(self):
        T = _real(self.T, "final time", lambda T: 0.0 < T < math.inf, "be finite and positive")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "steps", _whole(self.steps, "step count", 1))
        object.__setattr__(self, "record_every", _whole(self.record_every, "record_every", 1))
        if self.mu_mode not in MU_MODES:
            raise ConfigurationError(f"unknown mu mode {self.mu_mode!r}")
        object.__setattr__(self, "mu", _real(self.mu, "mu", lambda m: m >= 0.0, "be non-negative"))
        margin = _real(self.mu_margin, "mu margin", lambda m: m > 0.0, "be positive")
        object.__setattr__(self, "mu_margin", margin)


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


def _resolve_constants(table, kernel, reaction, u0, config, seed):
    """The constants of a run, mu by its mode's formula in the module
    docstring; raises :class:`ConfigurationError` for auto_linf on a zero
    state and for a mu T the damping transform would overflow."""
    rng = np.random.default_rng(seed)
    norm_u0 = float(np.max(np.abs(u0.values)))
    c_f, l_f = reaction.c_growth, reaction.l_lipschitz
    sample_radius = 2.0 * max(1.0, norm_u0)
    c_a = k = math.nan
    if config.mu_mode == "auto_growth":
        c_a = sample_growth_constant(kernel, sample_radius, rng)
        mu = 2.0 * c_a + c_f + config.mu_margin
    elif config.mu_mode == "auto_linf":
        k = 1.01 * norm_u0
        if not k > 0.0:
            raise ConfigurationError(f"auto_linf needs a positive sup-norm bound, got {k}")
        mu = c_f * (1.0 + k) / k
    else:
        mu = float(config.mu)
    # Sampled on twice the initial range: conformant runs stay inside it by
    # the discrete maximum principle, which is what this bound protects.
    l_loc = sample_lipschitz_constant(kernel, sample_radius, rng)
    T = float(config.T)
    if mu * T > _MAX_MU_T:
        raise ConfigurationError(
            f"mu T = {mu * T:.3g} overflows the damping transform; "
            "use manual mu or a kernel with bounded growth"
        )
    mass_s = table.discrete_mass()
    denom = mass_s * l_loc + l_f
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
        "tau": T / config.steps,
        "kernel_mass": mass_s,
        "tau_positivity_limit": math.inf if denom <= 0.0 else 1.0 / denom,
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
) -> Trajectory:
    """Integrate the flow from u0 to time T with the damped scheme of the
    module docstring (explicit Euler when mu = 0).

    The problem data is validated against the structural hypotheses first
    by :func:`validate_assumptions`; any failed check raises
    :class:`AssumptionViolationError`, which carries that ``RunReport``.
    A ``seed`` that is not a whole number >= 0 raises
    :class:`ConfigurationError`, and a table or u0 on another grid
    :class:`GridMismatchError`.

    Each level j is one pass of the loop: u_j = e^{mu t_j} w_j, its min and
    max, the operator and energy from one walk, the diagnostics row, the
    record, then w_{j+1} (for j < N only).  A min or max that is not finite
    raises :class:`NumericalBlowupError` carrying the first step whose u is
    not finite and the last finite u, recorded or not.

    One pair walk serves every step, in two halves for a walk of at least
    two blocks and ``_SPLIT_PAIRS`` pair positions.  When this process may
    use two CPUs and is no nldiff helper (a ``study cauchy`` level, say),
    a helper process walks the second half and is reaped on return and on
    any raise; no bit changes, and a dead helper raises RuntimeError.
    """
    seed = _whole(seed, "seed", 0)
    _on_grid(grid, table=table, u0=u0)
    report = validate_assumptions(table, kernel, reaction, u0, seed=seed)
    failed = [c.name for c in report.failed()]
    if failed:
        raise AssumptionViolationError(
            f"problem data violates the structural hypotheses ({', '.join(failed)})", report=report)

    constants = _resolve_constants(table, kernel, reaction, u0, config, seed)
    mu, tau, tau_limit = constants["mu"], constants["tau"], constants["tau_positivity_limit"]
    N = config.steps
    T = float(config.T)
    if tau > tau_limit:
        warnings.warn(
            f"step size {tau:.3g} exceeds the positivity bound {tau_limit:.3g}; "
            "positivity and the maximum principle are not guaranteed",
            stacklevel=_outside_stacklevel(),
        )

    w = u0.values.copy()

    diag = {name: np.empty(N + 1) for name in DIAGNOSTIC_COLUMNS}
    record_steps = [j for j in range(0, N + 1, config.record_every)]
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


def solve_problem(problem: Problem) -> Trajectory:
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
    )


@dataclass(frozen=True)
class StabilitySummary:
    """Normalized separation of two runs at each recorded time."""

    p: float
    times: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    fitted_rate: float


def _initial_separation(grid: Grid, a: Field, b: Field, p) -> float:
    """|a - b|_p, the denominator of every separation ratio; a p below 1
    raises :class:`ConfigurationError`, and zero :class:`UndefinedRatioError`."""
    d0 = lp_norm(grid, Field(grid, a.values - b.values), p)
    if d0 == 0.0:
        raise UndefinedRatioError("initial states coincide; separation ratios are undefined")
    return d0


def stability_constant_estimate(traj_a: Trajectory, traj_b: Trajectory, p) -> StabilitySummary:
    """Ratios |u_a(t) - u_b(t)|_p / |u_a(0) - u_b(0)|_p over recorded times.

    Both trajectories must come from the same grid, times, and step count.
    A zero initial separation leaves every ratio undefined and raises
    :class:`UndefinedRatioError`.  The fitted rate is the least-squares
    slope of log ratio against time, the exponential rate to compare with
    a Lipschitz envelope.
    """
    _on_grid(traj_a.grid, traj_b=traj_b)
    if len(traj_a.states) != len(traj_b.states) or not np.array_equal(traj_a.times, traj_b.times):
        raise ConfigurationError("trajectories have different recording schedules")
    grid = traj_a.grid
    d0 = _initial_separation(grid, traj_a.states[0], traj_b.states[0], p)
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
