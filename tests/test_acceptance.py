"""Acceptance battery: the quantitative promises of the package, end to end.

One test per promise, each printing a single pass/fail line with the
measured number against its tolerance.  Tolerances are stated here
literally and are not to be loosened; a failure means the implementation
broke a bound it advertises.  External references are built
independently inside this file (dense matrix exponentials via scipy,
scalar loops, closed forms), never through the code paths under test.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from nldiff import (
    Field,
    Problem,
    SolverConfig,
    affine_reaction,
    bilateral_kernel,
    build_grid,
    custom_table_reaction,
    dissipation_pairing,
    energy_p,
    flow_energy,
    linear_decay_reaction,
    linear_kernel,
    logistic_reaction,
    make_spatial_kernel,
    mollifier_moment,
    mollify_range_kernel,
    p_laplacian_kernel,
    sample_holder_constant,
    mollifier_cauchy_study,
    sample_lipschitz_constant,
    solve,
    solve_problem,
    spatial_exponent_kernel,
    stability_constant_estimate,
    apply_nonlocal,
    variable_exponent_kernel,
    zero_reaction,
)
from nldiff.cli import main


def verdict(tag: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 01: the discrete integration-by-parts identity


def test_a01_pairing_identity():
    t0 = time.monotonic()
    shapes = [([16], 0.1), ([32], 0.1), ([8, 8], 0.15), ([16, 16], 0.1), ([32, 32], 0.06)]
    kernels = [
        linear_kernel(),
        p_laplacian_kernel(1.5),
        p_laplacian_kernel(3.0),
        bilateral_kernel(0.4),
        variable_exponent_kernel([0.0, 1.0], [2.5, 2.0]),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for counts, radius in shapes:
        g = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
        table = make_spatial_kernel(g, "gaussian", radius)
        for k in range(20):
            u = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
            phi = Field(g, rng.uniform(-1.0, 1.0, g.node_count))
            lhs, rhs = dissipation_pairing(g, table, kernels[k % 5], 0.0, u, phi)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.monotonic() - t0
    verdict(
        "01 pairing identity",
        worst <= 1e-12 and elapsed < 10.0,
        f"max relative defect {worst:.3e} <= 1e-12 over 100 pairs, {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 02: exact mass conservation without reaction


def test_a02_mass_conservation():
    t0 = time.monotonic()
    worst = 0.0
    cases = []
    for dim, counts, radius in ((1, [64], 0.08), (2, [16, 16], 0.1)):
        g = build_grid(dim, [(0.0, 1.0)] * dim, counts)
        table = make_spatial_kernel(g, "gaussian", radius)
        rng = np.random.default_rng(201)
        u0 = Field(g, rng.uniform(0.1, 0.9, g.node_count))
        families = [
            ("linear", linear_kernel()),
            ("p_laplacian", p_laplacian_kernel(2.5)),
            ("variable_exponent", variable_exponent_kernel([0.0, 1.0], [2.5, 2.0])),
            ("spatial_exponent", spatial_exponent_kernel([0.0, 0.5], [3.0, 2.2], u0)),
            ("bilateral", bilateral_kernel(0.5)),
        ]
        for name, kernel in families:
            traj = solve(
                g, table, kernel, zero_reaction(), u0,
                SolverConfig(T=1.0, steps=1000, mu_mode="manual", record_every=1000),
            )
            assert traj.constants["tau"] <= traj.constants["tau_positivity_limit"], name
            mass = traj.per_step["mass"]
            drift = float(np.max(np.abs(mass - mass[0]))) / abs(mass[0])
            worst = max(worst, drift)
            cases.append(f"{dim}d/{name}")
    elapsed = time.monotonic() - t0
    verdict(
        "02 mass conservation",
        worst <= 1e-10 and elapsed < 30.0,
        f"max relative drift {worst:.3e} <= 1e-10 over {len(cases)} runs of 1000 steps, "
        f"{elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 03 + 04: positivity and the sup-norm certificate on a randomized battery


def _battery_entry(i: int):
    rng = np.random.default_rng(1000 + i)
    if i % 5 == 4:
        g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [8, 8])
        table = make_spatial_kernel(g, "gaussian", 0.15)
    else:
        n = (24, 32, 48)[i % 3]
        g = build_grid(1, [(0.0, 1.0)], [n])
        table = make_spatial_kernel(g, "gaussian", 0.1)

    choice = i % 4
    if choice == 0:
        kernel = linear_kernel()
    elif choice == 1:
        kernel = p_laplacian_kernel(2.0 + 1.5 * rng.uniform())
    elif choice == 2:
        kernel = bilateral_kernel(0.3 + 0.7 * rng.uniform())
    else:
        kernel = mollify_range_kernel(p_laplacian_kernel(1.5), 4 * (1 + i % 2))

    rchoice = i % 4
    if rchoice == 0:
        reaction = zero_reaction()
    elif rchoice == 1:
        reaction = linear_decay_reaction(0.2 + 0.6 * rng.uniform())
    elif rchoice == 2:
        reaction = logistic_reaction(0.3 + 0.5 * rng.uniform(), 1.0 + rng.uniform())
    else:
        reaction = affine_reaction(0.1 + 0.3 * rng.uniform(), -(0.1 + 0.4 * rng.uniform()))

    if i % 2 == 0:
        u0 = Field(g, rng.uniform(0.05, 0.7, g.node_count))
    else:
        mid = g.node_coordinates()[:, 0] < 0.5
        u0 = Field(g, np.where(mid, 0.1, 0.6))

    # pick tau safely under the positivity restriction the solver will compute
    probe = sample_lipschitz_constant(
        kernel, 2.0 * max(1.0, float(np.max(u0.values))), np.random.default_rng(9999)
    )
    denom = table.discrete_mass() * probe + reaction.l_lipschitz
    T = 0.25
    steps = min(2048, max(64, math.ceil(T * denom * 2.0)))
    cfg = SolverConfig(T=T, steps=steps, mu_mode="auto_linf", record_every=1)
    return Problem(g, table, kernel, reaction, u0, cfg)


@pytest.fixture(scope="module")
def battery():
    runs = []
    for i in range(20):
        prob = _battery_entry(i)
        traj = solve_problem(prob)
        assert traj.constants["tau"] <= traj.constants["tau_positivity_limit"], i
        runs.append(traj)
    return runs


def test_a03_positivity(battery):
    worst = min(float(np.min(t.per_step["min"])) for t in battery)
    verdict(
        "03 positivity",
        worst >= -1e-10,
        f"min state value {worst:.3e} >= -1e-10 across 20 conformant runs",
    )


def test_a04_sup_norm_certificate(battery):
    worst_excess = -math.inf
    for traj in battery:
        c = traj.constants
        k = 1.01 * c["norm_u0"]
        assert c["k_linf"] == pytest.approx(k, rel=1e-15)
        assert c["mu"] == pytest.approx(c["c_f"] * (1.0 + k) / k, rel=1e-15)
        bound = math.exp(c["mu"] * traj.config.T) * c["norm_u0"] * (1.0 + 1e-8)
        sup = float(np.max(np.maximum(np.abs(traj.per_step["min"]), traj.per_step["max"])))
        worst_excess = max(worst_excess, sup - bound)
    verdict(
        "04 sup-norm certificate",
        worst_excess <= 0.0,
        f"max overshoot of e^(mu T) max|u0| (1 + 1e-8) is {worst_excess:.3e} <= 0 over 20 runs",
    )


# ---------------------------------------------------------------------------
# 05: L^p contraction for monotone kernels


def test_a05_contraction():
    t0 = time.monotonic()
    g = build_grid(1, [(0.0, 1.0)], [32])
    table = make_spatial_kernel(g, "gaussian", 0.1)
    rng = np.random.default_rng(501)
    u0_a = Field(g, rng.uniform(0.0, 1.0, 32))
    u0_b = Field(g, rng.uniform(0.0, 1.0, 32))
    kernels = [
        p_laplacian_kernel(1.5),
        p_laplacian_kernel(2.0),
        p_laplacian_kernel(3.0),
        mollify_range_kernel(p_laplacian_kernel(1.5), 4),
    ]
    T = 0.1
    worst = 0.0
    for kernel in kernels:
        # pick the step count from the kernel's own sampled slope so the run
        # sits inside the restriction the contraction estimate assumes
        probe = sample_lipschitz_constant(kernel, 2.0, np.random.default_rng(9999))
        steps = max(256, 2 ** math.ceil(math.log2(T * table.discrete_mass() * probe * 1.2)))
        cfg = SolverConfig(T=T, steps=steps, mu_mode="manual", record_every=1)
        prob = Problem(g, table, kernel, zero_reaction(), u0_a, cfg)
        ta = solve_problem(prob)
        tb = solve_problem(replace(prob, u0=u0_b))
        assert ta.constants["tau"] <= ta.constants["tau_positivity_limit"]
        for p in (1, 2, math.inf):
            worst = max(worst, stability_constant_estimate(ta, tb, p).max_ratio)
    elapsed = time.monotonic() - t0
    verdict(
        "05 contraction",
        worst <= 1.0 + 1e-8 and elapsed < 60.0,
        f"max L^p separation ratio {worst:.12f} <= 1 + 1e-8 "
        f"(4 monotone kernels, p in {{1, 2, inf}}), {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 06: the Lipschitz stability envelope


def test_a06_stability_envelope():
    g = build_grid(1, [(0.0, 1.0)], [32])
    table = make_spatial_kernel(g, "gaussian", 0.1)
    rng = np.random.default_rng(601)
    u0_a = Field(g, rng.uniform(0.1, 0.8, 32))
    u0_b = Field(g, rng.uniform(0.1, 0.8, 32))
    cfg = SolverConfig(T=0.5, steps=512, mu_mode="manual", record_every=1)
    worst = -math.inf
    for slope in (-0.5, 0.5):
        reaction = affine_reaction(0.25, slope)
        assert reaction.l_lipschitz == 0.5
        prob = Problem(g, table, p_laplacian_kernel(2.5), reaction, u0_a, cfg)
        ta = solve_problem(prob)
        tb = solve_problem(replace(prob, u0=u0_b))
        summ = stability_constant_estimate(ta, tb, 2)
        envelope = np.exp(0.5 * summ.times) * (1.0 + 1e-6)
        worst = max(worst, float(np.max(summ.ratios - envelope)))
    verdict(
        "06 stability envelope",
        worst <= 0.0,
        f"max ratio excess over e^(0.5 t (1 + 1e-6)) is {worst:.3e} <= 0, both slope signs",
    )


# ---------------------------------------------------------------------------
# 07: the dense linear flow against a matrix exponential


def test_a07_linear_matrix_exponential_oracle():
    g = build_grid(1, [(0.0, 1.0)], [8])
    table = make_spatial_kernel(g, "gaussian", 0.15)
    rng = np.random.default_rng(701)
    u0 = Field(g, rng.uniform(0.1, 0.9, 8))

    # independent dense assembly of the linear generator
    M = np.zeros((8, 8))
    for x in range(8):
        for row, w in zip(table.offsets, table.weights):
            y = x + int(row[0])
            if 0 <= y < 8:
                M[x, y] += g.node_volume * w
                M[x, x] -= g.node_volume * w
    T = 0.5
    exact = scipy.linalg.expm(T * M) @ u0.values

    errs = []
    counts = (512, 1024, 2048, 4096)
    for n in counts:
        cfg = SolverConfig(T=T, steps=n, mu_mode="manual", record_every=n)
        traj = solve(g, table, linear_kernel(), zero_reaction(), u0, cfg)
        errs.append(float(np.max(np.abs(traj.final_state.values - exact))))
    taus = np.array([T / n for n in counts])
    order = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    verdict(
        "07 linear oracle",
        errs[-1] <= 5e-4 and 0.8 <= order <= 1.2,
        f"L-inf error {errs[-1]:.3e} <= 5e-4 at 4096 steps, fitted order {order:.4f} in [0.8, 1.2]",
    )


# ---------------------------------------------------------------------------
# 08: energies and the operator are gradient-consistent


def test_a08_gradient_consistency():
    g = build_grid(1, [(0.0, 1.0)], [12])
    table = make_spatial_kernel(g, "gaussian", 0.2)
    rng = np.random.default_rng(801)
    delta = 1e-6
    worst = 0.0

    def fd_gradient(energy_fn, vals):
        grad = np.zeros_like(vals)
        for i in range(vals.size):
            up, dn = vals.copy(), vals.copy()
            up[i] += delta
            dn[i] -= delta
            grad[i] = (energy_fn(up) - energy_fn(dn)) / (2.0 * delta)
        return grad

    for p in (1.5, 2.0, 3.0):
        vals = rng.uniform(0.2, 1.0, 12)
        grad = fd_gradient(lambda v: energy_p(g, table, Field(g, v), p), vals)
        op = apply_nonlocal(g, table, p_laplacian_kernel(p), 0.0, Field(g, vals)).values
        diff = np.max(np.abs(grad / (2.0 * g.node_volume) + op))
        worst = max(worst, float(diff / np.max(np.abs(op))))
    for h in (0.1, 1.0):
        vals = h * rng.uniform(0.2, 1.0, 12)  # keep differences in the responsive band
        grad = fd_gradient(
            lambda v: flow_energy(g, table, bilateral_kernel(h), Field(g, v)), vals)
        op = apply_nonlocal(g, table, bilateral_kernel(h), 0.0, Field(g, vals)).values
        diff = np.max(np.abs(grad / (2.0 * g.node_volume) + op))
        worst = max(worst, float(diff / np.max(np.abs(op))))
    verdict(
        "08 gradient consistency",
        worst <= 1e-6,
        f"max relative defect {worst:.3e} <= 1e-6 (p in {{1.5, 2, 3}}, h in {{0.1, 1}})",
    )


# ---------------------------------------------------------------------------
# 09: per-step energy descent


def test_a09_energy_descent():
    worst = -math.inf
    g = build_grid(1, [(0.0, 1.0)], [48])
    table = make_spatial_kernel(g, "gaussian", 0.08)
    rng = np.random.default_rng(901)
    cases = [
        # 1000 steps over a horizon short enough to keep tau admissible for
        # the steep p = 1.5 slope; the smoother kernels get a full unit of time
        (p_laplacian_kernel(1.5), Field(g, rng.uniform(0.1, 0.9, 48)), 0.08),
        (p_laplacian_kernel(2.5), Field(g, rng.uniform(0.1, 0.9, 48)), 1.0),
        (p_laplacian_kernel(3.0), Field(g, rng.uniform(0.1, 0.9, 48)), 1.0),
        (bilateral_kernel(0.5), Field(g, 0.3 * rng.uniform(0.0, 1.0, 48)), 1.0),
    ]
    for kernel, u0, T in cases:
        cfg = SolverConfig(T=T, steps=1000, mu_mode="manual", record_every=1000)
        traj = solve(g, table, kernel, zero_reaction(), u0, cfg)
        assert traj.constants["tau"] <= traj.constants["tau_positivity_limit"]
        worst = max(worst, float(np.max(np.diff(traj.per_step["energy"]))))
    verdict(
        "09 energy descent",
        worst <= 1e-10,
        f"max per-step energy increment {worst:.3e} <= 1e-10 over 1000-step runs",
    )


# ---------------------------------------------------------------------------
# 10: the mollified kernel's distance to its base


def test_a10_mollifier_rate():
    base = p_laplacian_kernel(1.5)
    ch = sample_holder_constant(base, 0.5, 2.0, np.random.default_rng(42))
    moment = mollifier_moment(0.5)
    s = np.linspace(-2.0, 2.0, 8001)
    a = base.eval(0.0, s)
    worst_ratio = 0.0
    zero_defect = 0.0
    mono_defect = 0.0
    for n in (4, 16, 64):
        mol = mollify_range_kernel(base, n, 257)
        zero_defect = max(zero_defect, abs(float(mol.eval(0.0, np.zeros(1))[0])))
        an = mol.eval(0.0, s)
        sup = float(np.max(np.abs(an - a)))
        worst_ratio = max(worst_ratio, sup / (ch * moment * n**-0.5))
        mono_defect = min(mono_defect, float(np.min(np.diff(an))))
    ok = zero_defect <= 1e-10 and worst_ratio <= 1.05 and mono_defect >= -1e-12
    verdict(
        "10 mollifier rate",
        ok,
        f"|A_n(0)| = {zero_defect:.1e} <= 1e-10, sup gap ratio {worst_ratio:.3f} <= 1.05 "
        f"of C_H I_(1/2) n^(-1/2), monotone to {mono_defect:.1e}",
    )


# ---------------------------------------------------------------------------
# 11: the mollification family is Cauchy with the predicted decay


def test_a11_cauchy_family():
    t0 = time.monotonic()
    g = build_grid(1, [(0.0, 1.0)], [32])
    table = make_spatial_kernel(g, "gaussian", 0.1)
    rng = np.random.default_rng(1101)
    # amplitude chosen so pair differences decay through the width band of
    # every level during the run; much larger data never leaves the smooth
    # regime (faster decay), much smaller sits below every band (no decay)
    u0 = Field(g, rng.uniform(0.46, 0.54, 32))
    prob = Problem(g, table, p_laplacian_kernel(1.5), zero_reaction(), u0,
                   SolverConfig(T=0.5, steps=128, mu_mode="manual"))
    res = mollifier_cauchy_study(prob, [4, 8, 16, 32])
    tails = res.report.series["tail_sup"]
    decay_ok = bool(np.all(tails[1:] < tails[:-1]))
    expo_ok = 0.35 <= res.fitted_exponent <= 0.65
    elapsed = time.monotonic() - t0
    verdict(
        "11 cauchy family",
        decay_ok and expo_ok and elapsed < 120.0,
        "tail suprema decrease ["
        + " ".join(f"{v:.2e}" for v in tails)
        + f"], fitted exponent {res.fitted_exponent:.3f} in [0.35, 0.65], {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 12: the saturating kernel collapses to the linear flow for wide windows


def test_a12_bilateral_wide_window_collapse():
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    table = make_spatial_kernel(g, "gaussian", 0.1)
    rng = np.random.default_rng(1201)
    u0 = Field(g, rng.uniform(0.1, 0.9, g.node_count))
    cfg = SolverConfig(T=0.1, steps=256, mu_mode="manual", record_every=256)
    lin = solve(g, table, linear_kernel(), zero_reaction(), u0, cfg)
    wide = solve(g, table, bilateral_kernel(1e5), zero_reaction(), u0, cfg)
    gap = float(np.max(np.abs(lin.final_state.values - wide.final_state.values)))
    verdict(
        "12 wide-window collapse",
        gap <= 1e-8,
        f"L-inf gap to the linear flow {gap:.3e} <= 1e-8 at h = 1e5",
    )


# ---------------------------------------------------------------------------
# 13: byte-level reproducibility of a full run


def test_a13_reproducibility(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 5\n"
        "grid.dim = 1\ngrid.extents = 0, 1\ngrid.counts = 48\n"
        "kernel.radius = 0.08\n"
        "range.family = p_laplacian\nrange.p = 2.5\nrange.mollify_n = 2\n"
        "reaction.family = logistic\nreaction.rate = 0.4\nreaction.capacity = 2.0\n"
        "initial.kind = random\ninitial.low = 0.1\ninitial.high = 0.9\n"
        "solver.T = 0.2\nsolver.steps = 64\nsolver.record_every = 16\n",
        encoding="utf-8",
    )
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    verdict(
        "13 reproducibility",
        identical and len(names) >= 4,
        f"two single-threaded runs byte-identical across {len(names)} output files",
    )
