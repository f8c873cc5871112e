"""Invariant reports, contraction and Cauchy studies, refinement fits.

The stepper's first order is checked against a closed form: on the
two-node problem the value difference decays like e^{-t}, so the exact
final state is available without any numerical reference.
"""

import inspect
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import nldiff.analysis
from nldiff.errors import _Helper
from nldiff import (
    AssumptionViolationError,
    ConfigParseError,
    ConfigurationError,
    Field,
    GridMismatchError,
    KernelValidationError,
    NldiffError,
    NumericalBlowupError,
    PgmFormatError,
    Problem,
    RangeKernel,
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
    # conformant data with a step far above the positivity bound overshoots
    # below zero; the solver only warns, and the report must flag it
    prob = small_problem(np.tile([0.1, 0.9], 8), T=5.0, steps=2)
    with pytest.warns(UserWarning, match="positivity bound"):
        traj = solve_problem(prob)
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


def test_contraction_study_refuses_before_solving(monkeypatch):
    # a bad norm exponent or coinciding starts used to surface only after both solves
    prob = two_node_problem([0.2, 1.0])
    solves = []
    real = nldiff.analysis.solve_problem
    monkeypatch.setattr(nldiff.analysis, "solve_problem", lambda p: solves.append(p) or real(p))
    other = build_grid(1, [(0.0, 1.0)], [3])
    with pytest.raises(GridMismatchError, match="u0_a does not live on the 1-D grid of counts"):
        contraction_study(prob, Field(other, np.zeros(3)), prob.u0, 2)
    with pytest.raises(ConfigurationError, match="norm exponent must be >= 1 or infinity, got 0.5"):
        contraction_study(prob, prob.u0, Field(prob.grid, [0.3, 1.0]), 0.5)
    with pytest.raises(UndefinedRatioError):
        contraction_study(prob, prob.u0, Field(prob.grid, [0.2, 1.0]), 2)
    assert solves == []
    contraction_study(prob, prob.u0, Field(prob.grid, [0.3, 1.0]), 2)
    assert len(solves) == 2


# ---------------------------------------------------------------------------
# mollification Cauchy study


def test_cauchy_study_structure_and_decay():
    rng = np.random.default_rng(30)
    prob = small_problem(rng.uniform(0.1, 0.9, 16), kernel=p_laplacian_kernel(1.5), T=0.25,
                         steps=32)
    res = mollifier_cauchy_study(prob, [2, 4, 8, 16])
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
    res = mollifier_cauchy_study(prob, [2, 4, 8])
    assert float(np.max(res.pairwise_l1)) <= 1e-14
    assert math.isnan(res.fitted_exponent)
    degenerate = next(
        c for c in res.report.checks if c.name == "consecutive distances resolvable")
    assert not degenerate.passed


def test_cauchy_study_refusals():
    prob = small_problem(np.linspace(0.1, 0.9, 16))
    bilateral = small_problem(np.linspace(0.1, 0.9, 16), kernel=bilateral_kernel(0.5))
    with pytest.raises(ConfigurationError, match="monotone"):
        mollifier_cauchy_study(bilateral, [2, 4, 8])
    with pytest.raises(ConfigurationError):
        mollifier_cauchy_study(prob, [2, 4])
    with pytest.raises(ConfigurationError):
        mollifier_cauchy_study(prob, [4, 2, 8])
    with pytest.raises(ConfigurationError):
        mollifier_cauchy_study(prob, [0, 2, 4])
    # a level that is not a whole number is named: 16.5 was studied as 16,
    # and inf raised OverflowError
    for levels, named in (([4, 8, 16.5, 32], "got 16.5"), ([4, 8, math.inf], "got inf"),
                          ([4, 8, math.nan], "got nan")):
        with pytest.raises(ConfigurationError, match=f"level must be a whole number, {named}"):
            mollifier_cauchy_study(prob, levels)
    with pytest.raises(ConfigurationError, match="whole number, got 300.5"):
        mollifier_cauchy_study(prob, [2, 4, 8], 300.5)


@pytest.mark.parametrize("quad_count, used", [(129, 257), (513, 513)])
def test_cauchy_study_mollifies_on_257_panels_at_least(quad_count, used):
    prob = small_problem(np.linspace(0.1, 0.9, 16), kernel=p_laplacian_kernel(2.5), steps=8)
    res = mollifier_cauchy_study(prob, [2, 4, 8], quad_count)
    assert res.report.constants["quad_count"] == used


# ---------------------------------------------------------------------------
# the Cauchy study's worker processes


def use_cpus(monkeypatch, count):
    """Make the study see ``count`` CPUs: one runs it in this process,
    more on forked helper processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_cauchy_study_pool_and_in_process_runs_are_bit_identical(monkeypatch):
    rng = np.random.default_rng(30)
    prob = small_problem(rng.uniform(0.1, 0.9, 16), kernel=p_laplacian_kernel(1.5), T=0.25,
                         steps=32)
    forks = []
    init = _Helper.__init__
    monkeypatch.setattr(_Helper, "__init__",
                        lambda helper, fn, what: forks.append(what) or init(helper, fn, what))
    results = {}
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        results[cpus] = mollifier_cauchy_study(prob, [2, 4, 8, 16])
        assert multiprocessing.active_children() == []
    # a helper per level for four CPUs, none for one, and none in a helper
    assert forks == ["the Cauchy study"] * 4
    one, forked = results[1], results[4]
    assert one.pairwise_l1.tobytes() == forked.pairwise_l1.tobytes()
    assert one.limit_estimate.values.tobytes() == forked.limit_estimate.values.tobytes()
    assert one.report.to_text() == forked.report.to_text()
    assert one.report.to_csv() == forked.report.to_csv()
    assert one.report.series.keys() == forked.report.series.keys()
    for key, values in one.report.series.items():
        assert values.tobytes() == forked.report.series[key].tobytes(), key


def test_cauchy_study_raises_the_lowest_failing_level(monkeypatch):
    prob = small_problem(np.linspace(0.1, 0.9, 16), kernel=p_laplacian_kernel(2.5), steps=8)
    solve = nldiff.analysis.solve_problem

    def solve_or_fail(problem):
        n = problem.kernel.mollifier.n
        if n == 2:
            time.sleep(0.2)  # so that level 4 fails first on its helper
        if n in (2, 4):
            raise NumericalBlowupError(f"level {n} failed", step=n, t=0.5 * n,
                                       last_state=Field(problem.grid, np.full(16, float(n))))
        return solve(problem)

    # forked helpers inherit the patched module, and nothing is pickled
    monkeypatch.setattr(nldiff.analysis, "solve_problem", solve_or_fail)
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(NumericalBlowupError) as exc:
            mollifier_cauchy_study(prob, [2, 4, 8, 16])
        assert multiprocessing.active_children() == []
        err = exc.value
        assert (str(err), err.step, err.t) == ("level 2 failed", 2, 1.0)
        np.testing.assert_array_equal(err.last_state.values, 2.0)


def test_cauchy_study_blowup_and_warnings_are_those_of_a_serial_loop(monkeypatch):
    # a custom kernel, which a helper must not need to pickle; the decay
    # rate breaks the positivity bound, and the state overflows
    identity = RangeKernel("custom", fn=lambda t, s: np.asarray(s) * 1.0, monotone=True)
    prob = small_problem(np.full(16, 0.5), kernel=identity, reaction=linear_decay_reaction(1e80),
                         T=0.1, steps=8)
    seen = {}
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        with np.errstate(over="ignore"), pytest.warns(UserWarning, match="positivity bound") as rec:
            with pytest.raises(NumericalBlowupError) as exc:
                mollifier_cauchy_study(prob, [2, 4, 8])
        assert multiprocessing.active_children() == []
        err = exc.value
        # the first level fails, so its warning is the only one
        seen[cpus] = ([(w.category, str(w.message), w.filename, w.lineno) for w in rec],
                      str(err), err.step, err.t, err.last_state.values.tobytes())
    assert len(seen[1][0]) == 1
    assert seen[1] == seen[4]


def test_cauchy_study_raises_when_a_helper_dies():
    # in a subprocess with a timeout: a study waiting for a dead helper would hang
    code = """if True:
        import os
        import numpy as np
        from nldiff import (Field, Problem, RangeKernel, SolverConfig, build_grid,
                            make_spatial_kernel, mollifier_cauchy_study, zero_reaction)
        parent = os.getpid()

        def fn(t, s):
            if t > 0.0 and os.getpid() != parent:
                os._exit(1)
            return np.asarray(s) * 1.0

        g = build_grid(1, [(0.0, 1.0)], [16])
        prob = Problem(g, make_spatial_kernel(g, "gaussian", 0.1),
                       RangeKernel("custom", fn=fn, monotone=True), zero_reaction(),
                       Field(g, np.linspace(0.1, 0.9, 16)), SolverConfig(T=0.1, steps=8))
        os.sched_getaffinity = lambda pid: {0, 1}
        try:
            mollifier_cauchy_study(prob, [2, 4, 8])
        except RuntimeError as exc:
            print(exc)
        try:
            print("left a child:", os.waitpid(-1, os.WNOHANG))
        except ChildProcessError:
            print("no child left")
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.splitlines() == [
        "the helper process of the Cauchy study ended without a reply", "no child left"]


def test_closing_a_helper_ends_a_child_blocked_writing_its_reply():
    helper = _Helper(np.zeros, "a test")
    helper.send(1 << 17)  # a 1 MB reply, more than a pipe holds, which is never read
    closer = threading.Thread(target=helper.close)
    closer.start()
    closer.join(timeout=30)
    blocked = closer.is_alive()
    if blocked:  # end the child, so that the test fails and does not hang
        os.kill(helper.pid, signal.SIGKILL)
        closer.join()
    assert not blocked


def test_cauchy_study_warns_level_by_level(monkeypatch):
    # stable but above the positivity bound: every level warns and finishes
    prob = small_problem(np.full(16, 0.5), reaction=linear_decay_reaction(100.0), T=0.1, steps=8)
    seen = {}
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        with pytest.warns(UserWarning, match="positivity bound") as rec:
            line = inspect.currentframe().f_lineno + 1
            mollifier_cauchy_study(prob, [2, 4, 8])
        seen[cpus] = [(w.category, str(w.message), w.filename, w.lineno) for w in rec]
        # an error filter raises the first one, as it would inside the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="positivity bound"):
                mollifier_cauchy_study(prob, [2, 4, 8])
        assert multiprocessing.active_children() == []
    assert len(seen[1]) == 3
    assert seen[1] == seen[4]
    # each names the study's call in this file, from a helper as in process
    assert {(os.path.basename(f), n) for _, _, f, n in seen[1]} == {(os.path.basename(__file__), line)}


def test_every_error_pickles_with_its_class_message_and_attributes():
    g = build_grid(1, [(0.0, 1.0)], [2])
    report = RunReport()
    report.add("check", False, 2.0, 1.0, "note")
    errors = [
        NldiffError("base"),
        ConfigurationError("bad parameter"),
        ConfigParseError("bad value", line=3, path="a.cfg"),
        GridMismatchError("other grid"),
        KernelValidationError("uneven", offenders=[(1,), (-2,)]),
        AssumptionViolationError("nonconformant", report=report),
        NumericalBlowupError("overflow", step=3, t=0.1, last_state=Field(g, [0.25, 0.5])),
        PgmFormatError("bad header"),
        UndefinedRatioError("equal starts"),
    ]

    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))

    assert {type(e) for e in errors} == subclasses(NldiffError)
    for err in errors:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert (str(back), back.args) == (str(err), err.args)
        assert vars(back).keys() == vars(err).keys()
        for name, value in vars(err).items():
            if isinstance(value, Field):
                assert back.__dict__[name].grid == value.grid
                np.testing.assert_array_equal(back.__dict__[name].values, value.values)
            else:
                assert back.__dict__[name] == value, name
    assert str(errors[2]) == "a.cfg, line 3: bad value"


# ---------------------------------------------------------------------------
# time refinement study


def test_refinement_against_closed_form_reference():
    # exact two-node solution: mean preserved, difference decays like e^{-t};
    # the scheme's error against it must fall like tau
    prob = two_node_problem([0.2, 1.0], T=0.5)
    decay = 0.5 * 0.8 * math.exp(-0.5)
    exact = np.array([0.6 - decay, 0.6 + decay])
    counts = [8, 16, 32, 64, 128]
    errors = []
    for n in counts:
        final = solve_problem(replace(prob, config=replace(prob.config, steps=n))).final_state
        errors.append(float(np.max(np.abs(final.values - exact))))
    slope = np.polyfit(np.log(0.5 / np.array(counts)), np.log(errors), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


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
    # a count below 1 is refused before the divisibility check divides by it
    for counts in ([0, 1, 2], [-2, 4, 8]):
        with pytest.raises(ConfigurationError, match=">= 1"):
            time_refinement_study(prob, counts)
