"""Time stepping: the mu = 0 collapse, bit-exact recurrence oracles, guards.

Two oracles anchor this module.  A scalar transcription of the damped
update formula, written against a two-node problem whose operator has a
closed form, must reproduce the solver bit for bit.  And on a constant
state the operator vanishes exactly, so the run reduces to a scalar
reaction recursion that can be checked both bit for bit and against the
closed-form logistic solution.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from nldiff import (
    AssumptionViolationError,
    ConfigurationError,
    Field,
    GridMismatchError,
    NumericalBlowupError,
    Problem,
    SolverConfig,
    UndefinedRatioError,
    affine_reaction,
    apply_nonlocal,
    build_grid,
    custom_kernel,
    export_trajectory,
    linear_kernel,
    logistic_reaction,
    linear_decay_reaction,
    make_spatial_kernel,
    p_laplacian_kernel,
    select_mu,
    solve,
    solve_problem,
    stability_constant_estimate,
    zero_reaction,
)


def two_node_problem(u0_vals, *, T=0.5, steps=16, mu_mode="manual", mu=0.0, reaction=None):
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 0.0, 1.0]))
    cfg = SolverConfig(T=T, steps=steps, mu_mode=mu_mode, mu=mu)
    return Problem(g, t, linear_kernel(), reaction or zero_reaction(), Field(g, u0_vals), cfg)


# ---------------------------------------------------------------------------
# mu selection and config validation


def test_select_mu_hand_values():
    assert select_mu("auto_growth", c_a=1.0, c_f=0.5, margin=0.01) == 2.51
    assert select_mu("auto_linf", c_f=0.6, k=1.2) == pytest.approx(1.1, rel=1e-15)
    assert select_mu("manual", mu=0.37) == 0.37
    with pytest.raises(ConfigurationError):
        select_mu("auto_linf", c_f=0.6, k=0.0)
    with pytest.raises(ConfigurationError):
        select_mu("auto_linf", c_f=0.6)
    with pytest.raises(ConfigurationError):
        select_mu("no_such_mode")
    with pytest.raises(ConfigurationError):
        select_mu("manual", mu=math.nan)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=0.0, steps=4),
        dict(T=-1.0, steps=4),
        dict(T=1.0, steps=0),
        dict(T=1.0, steps=2.5),
        dict(T=1.0, steps=4, mu_margin=math.nan),
        dict(T=1.0, steps=4, mu_mode="adaptive"),
        dict(T=1.0, steps=4, mu=-0.1),
        dict(T=1.0, steps=4, mu_margin=0.0),
        dict(T=1.0, steps=4, record_every=0),
        dict(T=math.inf, steps=4),
        dict(T=math.nan, steps=4),
        dict(T=1.0, steps=4, mu=math.nan),
    ],
)
def test_solver_config_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# time grid and recording


def test_final_time_is_hit_exactly():
    traj = solve_problem(two_node_problem([0.2, 0.9], T=0.7, steps=7))
    assert traj.times[-1] == 0.7
    assert traj.per_step["t"][0] == 0.0
    assert traj.per_step["step"].size == 8


def test_record_every_thins_but_keeps_endpoint():
    traj = solve_problem(replace(two_node_problem([0.2, 0.9], steps=10), config=SolverConfig(
        T=0.5, steps=10, mu_mode="manual", record_every=4)))
    np.testing.assert_array_equal(traj.record_steps, [0, 4, 8, 10])
    assert len(traj.states) == 4
    assert traj.times[-1] == 0.5
    # diagnostics still cover every step
    assert traj.per_step["mass"].size == 11


def test_initial_state_is_recorded_verbatim():
    u0 = [0.30000000000000004, 0.7]
    traj = solve_problem(two_node_problem(u0))
    np.testing.assert_array_equal(traj.states[0].values, u0)


# ---------------------------------------------------------------------------
# scheme collapse and the damped recurrence


def test_mu_zero_collapses_to_explicit_euler_bit_for_bit():
    g = build_grid(1, [(0.0, 1.0)], [24])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    u0 = Field(g, np.random.default_rng(6).uniform(0.1, 0.9, 24))
    r = logistic_reaction(0.4, 2.0)
    k = p_laplacian_kernel(2.5)
    T, steps = 0.25, 64
    semi = solve(g, t, k, r, u0, SolverConfig(T=T, steps=steps, mu_mode="manual"))
    # forward Euler written out here, independent of the solver's step
    tau = T / steps
    u = u0.values.copy()
    euler = [u]
    for j in range(steps):
        t_j = T * (j / steps)
        u = u + tau * (apply_nonlocal(g, t, k, t_j, Field(g, u)).values
                       + r.eval(t_j, None, u))
        euler.append(u)
    assert len(semi.states) == len(euler)
    for a, b in zip(semi.states, euler):
        np.testing.assert_array_equal(a.values, b)
    np.testing.assert_array_equal(semi.per_step["max"], [b.max() for b in euler])


def damped_recurrence_oracle(u0, T, steps, mu):
    """The two-node update transcribed directly from the scheme definition."""
    state = np.asarray(u0, dtype=np.float64).copy()
    tau = T / steps
    recorded = []
    for j in range(steps):
        t_j = T * (j / steps)
        ept = math.exp(mu * t_j)
        emt = math.exp(-mu * t_j)
        u = ept * state
        op = np.array([0.5 * (u[1] - u[0]), 0.5 * (u[0] - u[1])])
        rhs = op + np.zeros_like(u)
        recorded.append(u)
        state = (state + (tau * emt) * rhs) / (1.0 + tau * mu)
    recorded.append(math.exp(mu * T) * state)
    return recorded


@pytest.mark.parametrize("mu", [0.0, 0.8])
def test_damped_scheme_matches_scalar_recurrence(mu):
    prob = two_node_problem([0.2, 1.0], T=0.5, steps=16, mu=mu)
    traj = solve_problem(prob)
    want = damped_recurrence_oracle([0.2, 1.0], 0.5, 16, mu)
    assert len(traj.states) == len(want)
    for got, exp in zip(traj.states, want):
        np.testing.assert_array_equal(got.values, exp)


# ---------------------------------------------------------------------------
# constant states: pure reaction dynamics


def test_constant_state_follows_scalar_logistic_recursion():
    g = build_grid(1, [(0.0, 1.0)], [16])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    r, cap, T, steps = 0.8, 2.0, 1.0, 1024
    traj = solve(g, t, linear_kernel(), logistic_reaction(r, cap), Field(g, np.full(16, 0.3)),
                 SolverConfig(T=T, steps=steps, mu_mode="manual", record_every=steps))
    x = np.float64(0.3)
    tau = T / steps
    for _ in range(steps):
        x = x + tau * (r * x * (1.0 - x / cap))
    np.testing.assert_array_equal(traj.final_state.values, np.full(16, x))
    # and the closed-form logistic solution is an independent second route
    closed = cap / (1.0 + (cap / 0.3 - 1.0) * math.exp(-r * T))
    assert float(x) == pytest.approx(closed, rel=2e-3)


def test_decay_reaction_constant_state_stays_spatially_flat():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [5, 5])
    t = make_spatial_kernel(g, "gaussian", 0.2)
    traj = solve(g, t, p_laplacian_kernel(3.0), linear_decay_reaction(0.5),
                 Field(g, np.full(25, 0.6)), SolverConfig(T=0.5, steps=128, mu_mode="manual"))
    vals = traj.final_state.values
    assert float(np.ptp(vals)) == 0.0
    assert vals[0] == pytest.approx(0.6 * math.exp(-0.25), rel=2e-3)


# ---------------------------------------------------------------------------
# damping certificates


def test_auto_linf_resolves_the_documented_mu():
    prob = two_node_problem([0.2, 1.0], mu_mode="auto_linf",
                            reaction=linear_decay_reaction(0.3))
    traj = solve_problem(prob)
    k = 1.01 * 1.0
    assert traj.constants["k_linf"] == pytest.approx(k, rel=1e-15)
    assert traj.constants["mu"] == pytest.approx(0.3 * (1.0 + k) / k, rel=1e-15)
    cert = math.exp(traj.constants["mu"] * 0.5) * 1.0
    assert float(np.max(traj.per_step["max"])) <= cert * (1.0 + 1e-8)


def test_auto_growth_uses_sampled_constant():
    prob = two_node_problem([0.2, 1.0], mu_mode="auto_growth",
                            reaction=linear_decay_reaction(0.3))
    traj = solve_problem(prob)
    # linear kernel growth samples to 1 exactly, so mu = 2 + 0.3 + margin
    assert traj.constants["c_a"] == pytest.approx(1.0, abs=1e-12)
    assert traj.constants["mu"] == pytest.approx(2.31, rel=1e-12)


def test_mu_overflow_guard():
    with pytest.raises(ConfigurationError, match="overflow"):
        solve_problem(two_node_problem([0.2, 1.0], T=1.0, mu=800.0))


# ---------------------------------------------------------------------------
# guards and failure payloads


def test_nonconformant_data_is_refused_with_report():
    prob = two_node_problem([-0.2, 1.0])
    with pytest.raises(AssumptionViolationError) as exc:
        solve_problem(prob)
    assert "initial state non-negativity" in str(exc.value)
    assert not exc.value.report.all_passed


def test_nonconformant_override_records_the_failure():
    traj = solve_problem(two_node_problem([-0.2, 1.0]), allow_nonconformant=True)
    assert traj.constants["assumptions_ok"] is False


def box_growth_problem(slope, mu, u0, record_every=1):
    # a constant state keeps the operator at zero, so u grows like the
    # affine reaction alone while the damping transform scales it by e^{mu t}
    g = build_grid(1, [(0.0, 1.0)], [8])
    t = make_spatial_kernel(g, "box", 0.2)
    cfg = SolverConfig(T=1.0, steps=64, mu_mode="manual", mu=mu, record_every=record_every)
    return Problem(g, t, linear_kernel(), affine_reaction(0.0, slope), Field(g, np.full(8, u0)), cfg)


def nan_kernel_problem():
    # the affine growth widens the two-node difference until the kernel,
    # NaN above |s| = 3, beyond the sampled range, turns the operator and
    # then the state into NaN
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 0.0, 1.0]))
    k = custom_kernel(lambda t, s: np.where(np.abs(s) > 3.0, np.nan, s))
    cfg = SolverConfig(T=0.5, steps=16, mu_mode="manual")
    return Problem(g, t, k, affine_reaction(0.0, 40.0), Field(g, [0.2, 0.3]), cfg)


def test_blowup_carries_step_time_and_last_finite_state():
    cases = [
        # the reaction drives the stored state out of range
        (two_node_problem([0.2, 1.0], T=0.1, steps=8, reaction=linear_decay_reaction(1e80)), None),
        # w stays finite while u = e^{mu t} w overflows
        (box_growth_problem(1500.0, 690.0, 0.5), 62),
        # u overflows only at the final step, after the last recorded state
        (box_growth_problem(840.0, 699.0, 1.0, record_every=16), 64),
        # the state turns NaN, not inf
        (nan_kernel_problem(), 6),
    ]
    for prob, want_step in cases:
        cfg = prob.config
        # diagnostics overflow harmlessly on the way out; only the guard matters
        with np.errstate(over="ignore"), pytest.warns(UserWarning, match="positivity bound"):
            with pytest.raises(NumericalBlowupError) as exc:
                solve_problem(prob)
        err = exc.value
        assert 1 <= err.step <= cfg.steps
        if want_step is not None:
            assert err.step == want_step
        assert err.t == pytest.approx(cfg.T * err.step / cfg.steps)
        assert str(err) == f"state left the finite range at step {err.step} (t = {err.t:.6g})"
        # the last finite state is u one step earlier, rebuilt from the
        # damped update written out here
        tau, mu = cfg.T / cfg.steps, cfg.mu
        w = prob.u0.values
        for j in range(err.step - 1):
            t_j = cfg.T * (j / cfg.steps)
            u = math.exp(mu * t_j) * w
            rhs = (apply_nonlocal(prob.grid, prob.table, prob.kernel, t_j, Field(prob.grid, u)).values
                   + prob.reaction.eval(t_j, None, u))
            w = (w + (tau * math.exp(-mu * t_j)) * rhs) / (1.0 + tau * mu)
        t_last = cfg.T * ((err.step - 1) / cfg.steps)
        np.testing.assert_array_equal(err.last_state.values, math.exp(mu * t_last) * w)


def test_tau_restriction_warning_mentions_the_bound():
    g = build_grid(1, [(0.0, 1.0)], [16])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    u0 = Field(g, np.random.default_rng(1).uniform(0.1, 0.9, 16))
    # p < 2 samples an enormous local slope, so any practical tau trips it
    with pytest.warns(UserWarning, match="positivity bound"):
        traj = solve(g, t, p_laplacian_kernel(1.5), zero_reaction(), u0,
                     SolverConfig(T=0.1, steps=4, mu_mode="manual"))
    assert traj.constants["tau"] > traj.constants["tau_positivity_limit"]


def test_initial_state_grid_mismatch():
    prob = two_node_problem([0.2, 1.0])
    other = build_grid(1, [(0.0, 1.0)], [3])
    with pytest.raises(GridMismatchError):
        solve_problem(replace(prob, u0=Field(other, np.zeros(3))))


def test_negative_seed_is_refused_by_the_library():
    # refused with the config path's message, not by numpy's generator
    prob = two_node_problem([0.2, 1.0])
    bad = Problem(prob.grid, prob.table, prob.kernel, prob.reaction, prob.u0, prob.config, seed=-1)
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer, got -1"):
        solve_problem(bad)
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer, got -1"):
        solve(prob.grid, prob.table, prob.kernel, prob.reaction, prob.u0, prob.config, seed=-1)


# ---------------------------------------------------------------------------
# separation ratios


def test_stability_estimate_ratios_and_refusals():
    base = two_node_problem([0.2, 1.0], T=0.5, steps=32)
    a = solve_problem(base)
    b = solve_problem(replace(base, u0=Field(base.grid, [0.35, 0.8])))
    for p in (1, 2, math.inf):
        summ = stability_constant_estimate(a, b, p)
        assert summ.ratios[0] == 1.0
        assert summ.max_ratio <= 1.0 + 1e-12  # monotone kernel, no reaction
        assert summ.fitted_rate <= 0.0
    with pytest.raises(UndefinedRatioError):
        stability_constant_estimate(a, a, 2)
    c = solve_problem(replace(base, config=SolverConfig(T=0.5, steps=16, mu_mode="manual")))
    with pytest.raises(ConfigurationError):
        stability_constant_estimate(a, c, 2)


# ---------------------------------------------------------------------------
# export


def test_export_writes_fields_and_diagnostics(tmp_path):
    prob = two_node_problem([0.2, 1.0], steps=4)
    traj = solve_problem(prob)
    written = export_trajectory(traj, tmp_path)
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "diagnostics.csv",
        "field_000000.csv",
        "field_000001.csv",
        "field_000002.csv",
        "field_000003.csv",
        "field_000004.csv",
    ]
    lines = (tmp_path / "diagnostics.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "step,t,min,max,mass,energy,linf_bound_cert,positivity_ok"
    assert len(lines) == 6
    # mu = 0: the certificate column is flat at max|u0|, positivity holds
    for row in lines[1:]:
        cols = row.split(",")
        assert float(cols[6]) == 1.0
        assert cols[7] == "1"


def test_export_is_byte_stable(tmp_path):
    prob = two_node_problem([0.2, 1.0], steps=4)
    export_trajectory(solve_problem(prob), tmp_path / "a")
    export_trajectory(solve_problem(prob), tmp_path / "b")
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
