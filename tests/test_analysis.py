"""Invariant reports, contraction and Cauchy studies, refinement fits.

The refinement study is checked against a closed form: on the two-node
problem the value difference decays like e^{-t}, so the exact final state
is available without any numerical reference.
"""

import math

import numpy as np
import pytest

from nldiff import (
    ConfigurationError,
    Field,
    GridMismatchError,
    Problem,
    RunReport,
    SolverConfig,
    UndefinedRatioError,
    bilateral_kernel,
    build_grid,
    contraction_study,
    linear_decay_reaction,
    linear_kernel,
    logistic_reaction,
    make_spatial_kernel,
    mollifier_cauchy_study,
    mollify_range_kernel,
    p_laplacian_kernel,
    solve_problem,
    spatial_exponent_kernel,
    time_refinement_study,
    variable_exponent_kernel,
    verify_invariants,
    zero_reaction,
)


def small_problem(u0_vals, *, kernel=None, reaction=None, T=0.25, steps=64,
                  mu_mode="manual", mu=0.0, counts=16):
    g = build_grid(1, [(0.0, 1.0)], [counts])
    t = make_spatial_kernel(g, "gaussian", 0.1)
    cfg = SolverConfig(T=T, steps=steps, mu_mode=mu_mode, mu=mu)
    return Problem(g, t, kernel or linear_kernel(), reaction or zero_reaction(),
                   Field(g, u0_vals), cfg)


def two_node_problem(u0_vals, *, T=0.5, steps=16):
    g = build_grid(1, [(0.0, 1.0)], [2])
    t = make_spatial_kernel(g, "custom_table", table=([[-1], [0], [1]], [1.0, 0.0, 1.0]))
    cfg = SolverConfig(T=T, steps=steps, mu_mode="manual")
    return Problem(g, t, linear_kernel(), zero_reaction(), Field(g, u0_vals), cfg)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_formatting():
    rep = RunReport()
    rep.add("alpha", True, 0.5, 1.0, "why")
    rep.add("beta", False, 2.0, 1.0)
    rep.constants["gamma"] = 3.0
    text = rep.to_text()
    assert "[PASS] alpha: measured 5.000000e-01 vs threshold 1.000000e+00 (why)" in text
    assert "[FAIL] beta" in text
    assert "constant gamma = 3.0" in text
    assert not rep.all_passed
    csv = rep.to_csv()
    assert csv.startswith("check,name,pass,measured,threshold\n")
    assert "check,beta,0,2,1" in csv


# ---------------------------------------------------------------------------
# verify_invariants


def test_invariants_clean_reaction_free_run():
    rng = np.random.default_rng(12)
    traj = solve_problem(small_problem(rng.uniform(0.1, 0.9, 16)))
    rep = verify_invariants(traj)
    names = [c.name for c in rep.checks]
    assert names == [
        "state non-negativity",
        "mass conservation",
        "energy descent",
        "step-size restriction",
    ]
    assert rep.all_passed, rep.to_text()
    for key in ("t", "mass", "energy", "sup"):
        assert key in rep.series


def test_invariants_flag_negative_states():
    traj = solve_problem(small_problem(np.linspace(-0.3, 0.9, 16)),
                         allow_nonconformant=True)
    rep = verify_invariants(traj)
    bad = next(c for c in rep.checks if c.name == "state non-negativity")
    assert not bad.passed
    assert bad.measured < -1e-10
    assert not rep.all_passed


def test_invariants_damped_mass_drift_within_transform_artifact():
    rng = np.random.default_rng(13)
    traj = solve_problem(small_problem(rng.uniform(0.1, 0.9, 16), mu=0.8))
    rep = verify_invariants(traj)
    cons = next(c for c in rep.checks if c.name == "mass conservation")
    assert cons.passed
    assert "transform artifact" in cons.note
    assert cons.measured > 1e-13  # the drift is real, just bounded


def test_invariants_sup_norm_certificate_mode():
    rng = np.random.default_rng(14)
    traj = solve_problem(small_problem(rng.uniform(0.1, 0.9, 16), mu_mode="auto_linf",
                                       reaction=linear_decay_reaction(0.4)))
    rep = verify_invariants(traj)
    names = [c.name for c in rep.checks]
    assert "sup-norm certificate" in names
    assert "linf_bound" in rep.series
    assert rep.all_passed, rep.to_text()


def test_invariants_growth_mode_bounds_transformed_unknown():
    rng = np.random.default_rng(15)
    traj = solve_problem(small_problem(rng.uniform(0.1, 0.9, 16), mu_mode="auto_growth",
                                       reaction=logistic_reaction(0.4, 2.0)))
    rep = verify_invariants(traj)
    cert = next(c for c in rep.checks if c.name == "transformed sup-norm bound")
    assert cert.passed


def test_invariants_energy_check_needs_gradient_flow_setup():
    rng = np.random.default_rng(16)
    with_reaction = solve_problem(
        small_problem(rng.uniform(0.1, 0.9, 16), reaction=logistic_reaction(0.3, 2.0)))
    assert "energy descent" not in [c.name for c in verify_invariants(with_reaction).checks]


@pytest.mark.parametrize(
    "values, warns",
    [((3.0, 2.5), False), ((2.5, 2.0), False), ((1.8, 1.5), True)],
    ids=["3-2.5", "2.5-2", "1.8-1.5"],
)
def test_invariants_energy_descent_for_spatial_exponent(values, warns):
    rng = np.random.default_rng(17)
    g = build_grid(1, [(0.0, 1.0)], [32])
    kernel = spatial_exponent_kernel([0.0, 1.0], values, Field(g, rng.uniform(0.0, 1.0, 32)))
    problem = small_problem(rng.uniform(0.1, 0.9, 32), kernel=kernel, counts=32)
    if warns:  # exponents below 2 have an unbounded slope at 0
        with pytest.warns(UserWarning, match="positivity bound"):
            traj = solve_problem(problem)
    else:
        traj = solve_problem(problem)
    descent = next(c for c in verify_invariants(traj).checks if c.name == "energy descent")
    assert descent.passed and descent.measured < 0.0
    assert kernel.has_energy
    assert not mollify_range_kernel(kernel, 4).has_energy
    assert not variable_exponent_kernel([0.0, 1.0], [3.0, 2.5]).has_energy


# ---------------------------------------------------------------------------
# contraction study


def test_contraction_study_monotone_flow():
    rng = np.random.default_rng(20)
    prob = small_problem(rng.uniform(0.1, 0.9, 16), kernel=p_laplacian_kernel(2.5))
    a = Field(prob.grid, rng.uniform(0.1, 0.9, 16))
    b = Field(prob.grid, rng.uniform(0.1, 0.9, 16))
    rep = contraction_study(prob, a, b, 2)
    names = [c.name for c in rep.checks]
    assert names == ["contraction", "stability envelope", "fitted rate within envelope"]
    assert rep.all_passed, rep.to_text()
    assert rep.constants["kernel_monotone"] is True
    assert rep.series["ratio"][0] == 1.0


def test_contraction_check_absent_without_monotonicity():
    rng = np.random.default_rng(21)
    prob = small_problem(0.1 * rng.uniform(0.0, 1.0, 16), kernel=bilateral_kernel(0.5))
    a = Field(prob.grid, 0.1 * rng.uniform(0.0, 1.0, 16))
    b = Field(prob.grid, 0.1 * rng.uniform(0.0, 1.0, 16))
    rep = contraction_study(prob, a, b, math.inf)
    assert "contraction" not in [c.name for c in rep.checks]
    assert "stability envelope" in [c.name for c in rep.checks]


def test_contraction_with_lipschitz_reaction_respects_envelope():
    rng = np.random.default_rng(22)
    prob = small_problem(rng.uniform(0.1, 0.9, 16), reaction=logistic_reaction(0.5, 2.0))
    a = Field(prob.grid, rng.uniform(0.1, 0.9, 16))
    b = Field(prob.grid, rng.uniform(0.1, 0.9, 16))
    rep = contraction_study(prob, a, b, 1)
    assert "contraction" not in [c.name for c in rep.checks]  # logistic can grow
    env = next(c for c in rep.checks if c.name == "stability envelope")
    assert env.passed, rep.to_text()
    assert rep.constants["l_f"] == prob.reaction.l_lipschitz


def test_contraction_study_refusals():
    prob = two_node_problem([0.2, 1.0])
    other = build_grid(1, [(0.0, 1.0)], [3])
    with pytest.raises(GridMismatchError):
        contraction_study(prob, Field(other, np.zeros(3)), prob.u0, 2)
    with pytest.raises(UndefinedRatioError):
        contraction_study(prob, prob.u0, prob.u0, 2)


# ---------------------------------------------------------------------------
# mollification Cauchy study


def test_cauchy_study_structure_and_decay():
    rng = np.random.default_rng(30)
    prob = small_problem(rng.uniform(0.1, 0.9, 16), T=0.25, steps=32)
    res = mollifier_cauchy_study(prob, p_laplacian_kernel(1.5), [2, 4, 8, 16])
    assert res.pairwise_l1.shape == (4, 4)
    np.testing.assert_array_equal(np.diag(res.pairwise_l1), 0.0)
    np.testing.assert_array_equal(res.pairwise_l1, res.pairwise_l1.T)
    assert res.limit_estimate.grid == prob.grid
    tails = res.report.series["tail_sup"]
    assert np.all(tails[1:] < tails[:-1])
    assert math.isfinite(res.fitted_exponent)
    assert 0.0 < res.fitted_exponent < 1.5
    assert res.report.all_passed, res.report.to_text()


def test_cauchy_study_degenerates_on_an_already_smooth_kernel():
    # smoothing the identity is exact at every level, so all runs coincide
    rng = np.random.default_rng(31)
    prob = small_problem(rng.uniform(0.1, 0.9, 16), T=0.25, steps=32)
    res = mollifier_cauchy_study(prob, linear_kernel(), [2, 4, 8])
    assert float(np.max(res.pairwise_l1)) <= 1e-14
    assert math.isnan(res.fitted_exponent)
    degenerate = next(
        c for c in res.report.checks if c.name == "consecutive distances resolvable")
    assert not degenerate.passed


def test_cauchy_study_refusals():
    prob = small_problem(np.linspace(0.1, 0.9, 16))
    with pytest.raises(ConfigurationError, match="monotone"):
        mollifier_cauchy_study(prob, bilateral_kernel(0.5), [2, 4, 8])
    with pytest.raises(ConfigurationError):
        mollifier_cauchy_study(prob, linear_kernel(), [2, 4])
    with pytest.raises(ConfigurationError):
        mollifier_cauchy_study(prob, linear_kernel(), [4, 2, 8])
    with pytest.raises(ConfigurationError):
        mollifier_cauchy_study(prob, linear_kernel(), [0, 2, 4])


# ---------------------------------------------------------------------------
# time refinement study


def test_refinement_against_closed_form_reference():
    # exact two-node solution: mean preserved, difference decays like e^{-t}
    prob = two_node_problem([0.2, 1.0], T=0.5)
    mean, half = 0.6, 0.4 * math.exp(-0.5) / 1.0
    exact = Field(prob.grid, [mean - 0.5 * 0.8 * math.exp(-0.5),
                              mean + 0.5 * 0.8 * math.exp(-0.5)])
    rep = time_refinement_study(prob, [8, 16, 32, 64, 128], reference=exact)
    assert rep.all_passed, rep.to_text()
    assert rep.constants["fitted_order"] == pytest.approx(1.0, abs=0.1)
    assert rep.series["error"].size == 5


def test_refinement_self_referenced():
    prob = two_node_problem([0.2, 1.0], T=0.5)
    rep = time_refinement_study(prob, [8, 16, 32, 64, 128])
    assert rep.all_passed, rep.to_text()
    assert rep.constants["fitted_order"] == pytest.approx(1.0, abs=0.1)
    # consecutive differencing uses one fewer point than the level list
    assert rep.series["error"].size == 4


def test_refinement_on_a_stationary_state():
    g = build_grid(1, [(0.0, 1.0)], [8])
    t = make_spatial_kernel(g, "gaussian", 0.15)
    prob = Problem(g, t, linear_kernel(), zero_reaction(), Field(g, np.full(8, 0.5)),
                   SolverConfig(T=0.5, steps=8, mu_mode="manual"))
    rep = time_refinement_study(prob, [8, 16, 32])
    assert [c.name for c in rep.checks] == ["errors negligible"]
    assert math.isnan(rep.constants["fitted_order"])


def test_refinement_refusals():
    prob = two_node_problem([0.2, 1.0])
    with pytest.raises(ConfigurationError):
        time_refinement_study(prob, [8, 16])
    with pytest.raises(ConfigurationError):
        time_refinement_study(prob, [16, 8, 32])
    with pytest.raises(ConfigurationError):
        time_refinement_study(prob, [8, 12, 24])
    other = build_grid(1, [(0.0, 1.0)], [3])
    with pytest.raises(GridMismatchError):
        time_refinement_study(prob, [8, 16, 32], reference=Field(other, np.zeros(3)))
