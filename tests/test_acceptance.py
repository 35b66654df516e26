"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Heavy trajectories are computed once in module-scoped fixtures and shared.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import curve_geometry as cg
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow import verify_suites as vs
from hpflow.symm_lie import chi


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _band_state(seed, grid, n, amplitude=0.4, kmax=4):
    return sf.preset_random_band(grid, n, seed=seed, amplitude=amplitude, kmax=kmax)


# -- shared trajectories -------------------------------------------------------

@pytest.fixture(scope="module")
def soliton_period_run():
    grid = gcalc.PeriodicGrid(256, 40.0)
    a = 1.5
    state = sf.preset_mkdv_soliton(grid, n=1, a=a)
    period = grid.length / (a * a / 4.0)
    dt = 0.8 * grid.dx**3
    steps = int(round(period / dt))
    dt = period / steps
    t0 = time.time()
    s = state
    h0 = [bo.hamiltonian_value(s, 0)]
    h1 = [bo.hamiltonian_value(s, 1)]
    for i in range(steps):
        s = sf.step_rk4(s, lambda q: sf.mkdv_rhs(q), dt, i * dt, project_fraction=2 / 3)
        if (i + 1) % 2000 == 0:
            h0.append(bo.hamiltonian_value(s, 0))
            h1.append(bo.hamiltonian_value(s, 1))
    runtime = time.time() - t0
    return {
        "initial": state,
        "final": s,
        "a": a,
        "h0": np.array(h0),
        "h1": np.array(h1),
        "runtime": runtime,
    }


@pytest.fixture(scope="module")
def coupled_drift_run():
    grid = gcalc.PeriodicGrid(128, 20.0)
    state = _band_state(42, grid, 2, amplitude=0.25, kmax=3)
    dt, steps = 1e-3, 1000
    s = state
    h0 = [bo.hamiltonian_value(s, 0)]
    h1 = [bo.hamiltonian_value(s, 1)]
    max_re = 0.0
    for i in range(steps):
        s = sf.step_rk4(s, lambda q: sf.mkdv_rhs(q), dt, i * dt, project_fraction=2 / 3)
        if (i + 1) % 100 == 0:
            h0.append(bo.hamiltonian_value(s, 0))
            h1.append(bo.hamiltonian_value(s, 1))
            max_re = max(max_re, float(np.max(np.abs(s.u.values[:, 0]))))
    return {"h0": np.array(h0), "h1": np.array(h1), "max_re": max_re}


@pytest.fixture(scope="module")
def kink_run():
    grid = gcalc.PeriodicGrid(256, 40.0)
    a = 1.0
    state = sf.preset_sg_kink(grid, n=1, a=a)
    cfg = sf.SimConfig(
        n=1, grid=grid, dt=5e-3, t_end=0.1, flow="sg", sg_branch="-",
        sg_mode="line", sg_refine=8, cadence=4,
    )
    traj = sf.run_flow(cfg, state)
    exact = sf.sg_kink_profile(grid, a, grid.length / 2, cfg.t_end)
    residual_minus = float(np.max(np.abs(traj.states[-1].u.values[:, 1] - exact)))

    # the opposite branch drives the kink data away from the classical kink
    s_plus = state
    for i in range(4):
        s_plus = sf.sg_step(s_plus, 5e-3, branch="+", refine=8, t=i * 5e-3)
    exact_short = sf.sg_kink_profile(grid, a, grid.length / 2, 4 * 5e-3)
    residual_plus = float(np.max(np.abs(s_plus.u.values[:, 1] - exact_short)))

    _, _, info = sf.sg_solve_h(state, branch="-", refine=8)
    return {
        "traj": traj,
        "residual_minus": residual_minus,
        "residual_plus": residual_plus,
        "constraint_x_dev": info["constraint_max_dev"] / info["constraint_target"],
        "constraint_t": np.asarray(traj.sg_constraint_value),
    }


@pytest.fixture(scope="module")
def mkdv_geometry_traj():
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    return cg.evolve_with_frame(state, "mkdv", 2e-3, 10, transport_refine=8)


@pytest.fixture(scope="module")
def sg_geometry_traj():
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.0)
    return cg.evolve_with_frame(
        state, "sg", 1e-4, 10, branch="-", sg_refine=8, transport_refine=8
    )


# -- criteria -------------------------------------------------------------------

def test_criterion_1_algebra_suite():
    t0 = time.time()
    checks = vs.algebra_suite(seed=0, instances=1000)
    runtime = time.time() - t0
    worst = max(c.residual for c in checks)
    ok = all(c.passed for c in checks) and runtime <= 10.0
    _report(
        "criterion 1 (algebra suite, n=1..3, 1000 instances)",
        ok,
        f"worst residual {worst:.2e} (tolerances <= 1e-12), runtime {runtime:.1f}s <= 10s",
    )


def test_criterion_2_bracket_table_oracle():
    checks = vs.bracket_table_suite(seed=1, instances=500)
    worst = max(c.residual for c in checks)
    _report(
        "criterion 2 (bracket table vs matrix commutator, 500 inputs per form)",
        all(c.passed for c in checks),
        f"worst residual {worst:.2e} <= 1e-12",
    )


def test_criterion_3_operator_identities():
    rng = np.random.default_rng(123)
    grid = gcalc.PeriodicGrid(256, 16.0)
    n = 2
    state = _band_state(7, grid, n)

    w_state = bo.make_covector(grid, state.u.values, state.bu.values)
    exact = bo.apply_H(state, w_state)
    target = bo.state_deriv(state)
    d_exact = max(
        np.max(np.abs(exact.hs.values - target.hs.values)),
        np.max(np.abs(exact.hv.values - target.hv.values)),
    ) / max(1.0, np.max(np.abs(target.hs.values)))

    w = bo.make_covector(grid, *_band_state(8, grid, n).arrays())
    h = bo.make_flow(grid, *_band_state(9, grid, n).arrays())

    def dev(p, q):
        v = np.max(np.abs(p.v.values - q.v.values)) if p.v.values.size else 0.0
        s = np.max(np.abs(p.s.values - q.s.values))
        return max(s, v)

    def scale(p):
        return max(np.max(np.abs(p.s.values)), np.max(np.abs(p.v.values)), 1.0)

    hk = bo.apply_H_via_K(state, w, mean_tolerance=np.inf)
    hd = bo.apply_H(state, w, mean_tolerance=np.inf)
    d_hk = dev(hk, hd) / scale(hd)
    jk = bo.apply_J_via_K(state, h, mean_tolerance=np.inf)
    jd = bo.apply_J(state, h, mean_tolerance=np.inf)
    d_jk = dev(jk, jd) / scale(jd)
    rb = bo.apply_R_blocks(state, h, mean_tolerance=np.inf)
    rc = bo.apply_R(state, h, mean_tolerance=np.inf)
    d_rb = dev(rb, rc) / scale(rc)

    a = bo.make_covector(grid, *_band_state(10, grid, n).arrays())
    b = bo.make_covector(grid, *_band_state(11, grid, n).arrays())
    skew_h = abs(
        bo.pairing(a, bo.apply_H(state, b, mean_tolerance=np.inf))
        + bo.pairing(b, bo.apply_H(state, a, mean_tolerance=np.inf))
    ) / (1 + abs(bo.pairing(a, bo.apply_H(state, b, mean_tolerance=np.inf))))
    fa = bo.make_flow(grid, *_band_state(12, grid, n).arrays())
    fb = bo.make_flow(grid, *_band_state(13, grid, n).arrays())
    skew_j = abs(
        bo.pairing(fa, bo.apply_J(state, fb, mean_tolerance=np.inf))
        + bo.pairing(fb, bo.apply_J(state, fa, mean_tolerance=np.inf))
    ) / (1 + abs(bo.pairing(fa, bo.apply_J(state, fb, mean_tolerance=np.inf))))

    from conftest import random_unit_quat, random_unitary

    aq = random_unit_quat(rng)
    A = random_unitary(rng, n - 1)
    d_equiv = 0.0
    for op, arg in ((bo.apply_H, w), (bo.apply_J, h), (bo.apply_R, h)):
        lhs = bo.equivalence_action_pair(aq, A, op(state, arg, mean_tolerance=np.inf))
        rhs = op(
            bo.equivalence_action_pair(aq, A, state),
            bo.equivalence_action_pair(aq, A, arg),
            mean_tolerance=np.inf,
        )
        d_equiv = max(d_equiv, dev(lhs, rhs) / scale(lhs))

    ok = (
        d_exact <= 1e-10
        and d_hk <= 1e-10
        and d_jk <= 1e-10
        and d_rb <= 1e-9
        and skew_h <= 1e-9
        and skew_j <= 1e-9
        and d_equiv <= 1e-10
    )
    _report(
        "criterion 3 (operator identities at N=256, n=2)",
        ok,
        f"exactness {d_exact:.1e}<=1e-10, H/J via ad-form {max(d_hk, d_jk):.1e}<=1e-10, "
        f"recursion blocks {d_rb:.1e}<=1e-9, skew {max(skew_h, skew_j):.1e}<=1e-9, "
        f"equivariance {d_equiv:.1e}<=1e-10",
    )


def test_criterion_4_hierarchy_consistency():
    grid = gcalc.PeriodicGrid(128, 16.0)
    n = 2
    state = _band_state(21, grid, n)

    h1 = bo.hierarchy_flow(state, 1)
    local = sf.mkdv_rhs(state)
    d_mkdv = max(
        np.max(np.abs(h1.hs.values - local.hs.values)),
        np.max(np.abs(h1.hv.values - local.hv.values)),
    ) / max(np.max(np.abs(local.hs.values)), np.max(np.abs(local.hv.values)))

    scalar_state = _band_state(22, grid, 1, amplitude=0.5)
    u = scalar_state.u.values
    hs = bo.hierarchy_flow(scalar_state, 1).hs.values
    red = 0.25 * gcalc.spectral_deriv(u, grid, 3) + 1.5 * qc.qnormsq(u)[
        :, None
    ] * gcalc.spectral_deriv(u, grid)
    d_red = np.max(np.abs(hs - red)) / np.max(np.abs(red))

    d_dens = 0.0
    for l in (0, 1):
        dens = bo.hamiltonian_density(state, l)
        hpar = bo.h_parallel(state, bo.hierarchy_flow(state, l))
        d_dens = max(d_dens, float(np.max(np.abs(dens.values - hpar.values / (1 + 2 * l)))))

    br = abs(bo.poisson_bracket(state, bo.HierarchyFunctional(0), bo.HierarchyFunctional(1)))
    br_rel = br / (1 + abs(bo.hamiltonian_value(state, 1)))

    small = _band_state(23, gcalc.PeriodicGrid(32, 7.0), n, amplitude=0.4, kmax=3)
    g0 = bo.variational_derivative_fd(bo.HierarchyFunctional(0), small)
    d_w0 = max(
        np.max(np.abs(g0.ws.values - small.u.values)),
        np.max(np.abs(g0.wv.values - small.bu.values)),
    )
    g1 = bo.variational_derivative_fd(bo.HierarchyFunctional(1), small)
    w1_jet = bo.hierarchy_covector(small, 1)
    d_w1 = max(
        np.max(np.abs(g1.ws.values - w1_jet.ws.values)),
        np.max(np.abs(g1.wv.values - w1_jet.wv.values)),
    )

    ok = d_mkdv <= 1e-8 and d_red <= 1e-8 and d_dens <= 1e-9 and br_rel <= 1e-8 and max(d_w0, d_w1) <= 1e-6
    _report(
        "criterion 4 (hierarchy consistency)",
        ok,
        f"level-1 flow vs closed form {d_mkdv:.1e}<=1e-8, scalar reduction {d_red:.1e}<=1e-8, "
        f"density identity {d_dens:.1e}<=1e-9, Poisson commutation {br_rel:.1e}<=1e-8, "
        f"variational covectors {max(d_w0, d_w1):.1e}<=1e-6",
    )


def test_criterion_5_mkdv_dynamics(soliton_period_run, coupled_drift_run):
    run = soliton_period_run
    shape_err = float(
        np.max(np.abs(run["final"].u.values[:, 1] - run["initial"].u.values[:, 1]))
    ) / run["a"]
    h0, h1 = run["h0"], run["h1"]
    drift_sol = max(
        np.max(np.abs(h0 - h0[0])) / abs(h0[0]), np.max(np.abs(h1 - h1[0])) / abs(h1[0])
    )
    c = coupled_drift_run
    drift_coupled = max(
        np.max(np.abs(c["h0"] - c["h0"][0])) / abs(c["h0"][0]),
        np.max(np.abs(c["h1"] - c["h1"][0])) / abs(c["h1"][0]),
    )
    ok = (
        shape_err <= 1e-4
        and drift_sol <= 1e-6
        and drift_coupled <= 1e-6
        and run["runtime"] <= 120.0
        and c["max_re"] <= 1e-10
    )
    _report(
        "criterion 5 (mKdV dynamics)",
        ok,
        f"soliton shape error over one period {shape_err:.2e}<=1e-4, conserved drift "
        f"{max(drift_sol, drift_coupled):.2e}<=1e-6, runtime {run['runtime']:.0f}s<=120s",
    )


def test_criterion_6_sg_dynamics(kink_run):
    vals = kink_run["constraint_t"]
    t_drift = float(np.max(np.abs(vals - chi(1) ** 2)) / chi(1) ** 2)
    ok = (
        kink_run["constraint_x_dev"] <= 1e-8
        and t_drift <= 1e-7
        and kink_run["residual_minus"] <= 1e-6
        and kink_run["residual_plus"] > 1e-4
    )
    _report(
        "criterion 6 (SG dynamics; matching branch: '-')",
        ok,
        f"constraint in x {kink_run['constraint_x_dev']:.1e}<=1e-8, in t {t_drift:.1e}<=1e-7, "
        f"kink residual {kink_run['residual_minus']:.1e}<=1e-6 on branch '-' "
        f"(branch '+' deviates by {kink_run['residual_plus']:.1e})",
    )


def test_criterion_7_geometry(mkdv_geometry_traj, sg_geometry_traj):
    grid = gcalc.PeriodicGrid(128, 16.0)
    worst_unit, worst_speed, worst_inv = 0.0, 0.0, 0.0
    for n in (1, 2):
        state = _band_state(31 + n, grid, n, amplitude=0.4, kmax=3)
        measured = cg.geometric_invariants_from_curve(state, refine=8)
        worst_unit = max(worst_unit, measured["frame"].unitarity_defect())
        worst_speed = max(worst_speed, float(np.max(np.abs(measured["speed"] - 1.0))))
        formulas = cg.geometric_invariants(state)
        for key in ("g_NN", "g_NNx", "g_NxNx"):
            target = gcalc.spectral_refine(formulas[key].values, grid, 8)
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(measured[key] - target))) / max(1.0, np.max(np.abs(target))),
            )
    mk = cg.verify_mkdv_map(mkdv_geometry_traj, idx=5)
    wv = cg.verify_wave_map(sg_geometry_traj, idx=5)
    worst_unit = max(worst_unit, mk["unitarity"], wv["unitarity"])
    ok = (
        worst_unit <= 1e-9
        and worst_speed <= 1e-8
        and worst_inv <= 1e-5
        and mk["residual"] <= 1e-4
        and wv["residual"] <= 1e-5
    )
    _report(
        "criterion 7 (geometry)",
        ok,
        f"unitarity {worst_unit:.1e}<=1e-9, |gamma_x|-1 {worst_speed:.1e}<=1e-8, "
        f"invariants {worst_inv:.1e}<=1e-5, mKdV map {mk['residual']:.1e}<=1e-4, "
        f"wave map {wv['residual']:.1e}<=1e-5",
    )


def test_criterion_8_negative_control():
    grid = gcalc.PeriodicGrid(64, 10.0)
    generic = sf.preset_random_band(grid, n=2, seed=7, amplitude=0.4)
    state = bo.make_state(grid, np.zeros((64, 4)), generic.bu.values)
    dudt = float(np.max(np.abs(sf.mkdv_rhs(state).hs.values)))
    _report(
        "criterion 8 (no non-commutative vector reduction)",
        dudt >= 1e-3,
        f"with u = 0 and generic quaternionic bu, max|du/dt| = {dudt:.3e} >= 1e-3",
    )
