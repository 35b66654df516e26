import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow.errors import BlowUpError, ConfigError, DomainError, ShootingError
from hpflow.symm_lie import chi

from conftest import random_unit_quat, random_unitary
from test_biham_ops import pair_diff, pair_max, random_state


def test_simconfig_validation():
    grid = gcalc.PeriodicGrid(64, 10.0)
    with pytest.raises(ConfigError):
        sf.SimConfig(n=1, grid=grid, dt=1.0, t_end=1.0, flow="mkdv")  # CFL
    with pytest.raises(ConfigError):
        sf.SimConfig(n=1, grid=grid, dt=-0.1, t_end=1.0)
    with pytest.raises(ConfigError):
        sf.SimConfig(n=1, grid=grid, dt=1e-4, t_end=1.0, flow="bogus")
    cfg = sf.SimConfig(n=1, grid=grid, dt=1e-4, t_end=0.0)
    assert cfg.cfl_constant == sf.DEFAULT_CFL_CONSTANT


def test_mkdv_rhs_matches_recursion(rng):
    grid = gcalc.PeriodicGrid(96, 12.0)
    state = random_state(rng, grid, 2, amplitude=0.4)
    local = sf.mkdv_rhs(state)
    via_r = bo.hierarchy_flow(state, 1)
    assert pair_diff(local, via_r) <= 1e-8 * max(1.0, pair_max(local))


def test_mkdv_rhs_zero_state():
    grid = gcalc.PeriodicGrid(32, 5.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 1, 4)))
    out = sf.mkdv_rhs(state)
    assert pair_max(out) == 0.0


def test_mkdv_scalar_reduction(rng):
    grid = gcalc.PeriodicGrid(96, 12.0)
    state = random_state(rng, grid, 1, amplitude=0.5)
    u = state.u.values
    out = sf.mkdv_rhs(state)
    u3 = gcalc.spectral_deriv(u, grid, 3)
    ux = gcalc.spectral_deriv(u, grid)
    expected = 0.25 * u3 + 1.5 * qc.qnormsq(u)[:, None] * ux
    assert np.max(np.abs(out.hs.values - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_mkdv_galilean_term(rng):
    grid = gcalc.PeriodicGrid(64, 9.0)
    state = random_state(rng, grid, 2, amplitude=0.3)
    removed = sf.mkdv_rhs(state, galilean_removed=True)
    kept = sf.mkdv_rhs(state, galilean_removed=False)
    c = 1.0 / chi(2)
    dx = bo.state_deriv(state)
    assert np.max(np.abs(kept.hs.values - removed.hs.values - c * dx.hs.values)) <= 1e-13
    assert np.max(np.abs(kept.hv.values - removed.hv.values - c * dx.hv.values)) <= 1e-13


def _reference_mkdv_rhs(state, galilean_removed=True):
    """Six-transform right side: one spectral_deriv call per field and order."""
    grid = state.grid
    u, bu = state.arrays()
    ux = gcalc.spectral_deriv(u, grid)
    u2 = gcalc.spectral_deriv(u, grid, 2)
    u3 = gcalc.spectral_deriv(u, grid, 3)
    bux = gcalc.spectral_deriv(bu, grid)
    bu2 = gcalc.spectral_deriv(bu, grid, 2)
    bu3 = gcalc.spectral_deriv(bu, grid, 3)
    unormsq = qc.qnormsq(u)
    businormsq = qc.vec_normsq(bu)
    cvec = qc.comm_C_vec(bu, bux)
    out_s = (
        0.25 * u3
        + 1.5 * unormsq[:, None] * ux
        + 0.75 * (qc.qmul(u, cvec) - qc.qmul(cvec, u))
        + 0.75 * qc.comm_C_vec(bu, bu2)
    )
    fac1 = qc.from_real(businormsq + unormsq) + ux
    a_u_ux = -2.0 * np.sum(u[:, 1:] * ux[:, 1:], axis=-1)
    fac2 = 2.0 * businormsq[:, None] * u - qc.from_real(a_u_ux) - cvec + u2
    if bu.shape[1]:
        out_v = bu3 + 1.5 * qc.qmul(fac1[:, None, :], bux) + 0.75 * qc.qmul(
            fac2[:, None, :], bu
        )
    else:
        out_v = bu3
    if not galilean_removed:
        c = 1.0 / chi(state.n)
        out_s = out_s + c * ux
        out_v = out_v + c * bux
    return bo.make_flow(grid, out_s, out_v)


def _reference_step_rk4(state, rhs, dt, project_fraction):
    """RK4 that validates each stage twice and dealiases u and bu separately."""
    grid = state.grid

    def project(s):
        u, bu = s.arrays()
        u = u.copy()
        u[:, 0] = 0.0
        if project_fraction is not None:
            u = gcalc.dealias_values(u, grid, project_fraction)
            bu = gcalc.dealias_values(bu, grid, project_fraction)
            u[:, 0] = 0.0
        return bo.make_state(grid, u, bu)

    def shifted(k, c):
        return project(
            bo.make_state(
                grid, state.u.values + c * k.hs.values, state.bu.values + c * k.hv.values
            )
        )

    k1 = rhs(state)
    k2 = rhs(shifted(k1, dt / 2))
    k3 = rhs(shifted(k2, dt / 2))
    k4 = rhs(shifted(k3, dt))
    du = (dt / 6.0) * (k1.hs.values + 2 * k2.hs.values + 2 * k3.hs.values + k4.hs.values)
    dbu = (dt / 6.0) * (k1.hv.values + 2 * k2.hv.values + 2 * k3.hv.values + k4.hv.values)
    return project(bo.make_state(grid, state.u.values + du, state.bu.values + dbu))


def assert_pairs_identical(a, b):
    for x, y in zip(a.arrays(), b.arrays()):
        assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("N", [128, 127])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("galilean_removed", [True, False])
def test_mkdv_rhs_matches_six_transform_reference(N, n, galilean_removed):
    grid = gcalc.PeriodicGrid(N, 20.0)
    state = sf.preset_random_band(grid, n, seed=n, amplitude=0.4)
    assert_pairs_identical(
        sf.mkdv_rhs(state, galilean_removed), _reference_mkdv_rhs(state, galilean_removed)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fraction", [2 / 3, None])
def test_step_rk4_matches_two_projection_reference(n, fraction):
    grid = gcalc.PeriodicGrid(128, 20.0)
    dt = 5e-4
    fused = ref = sf.preset_random_band(grid, n, seed=10 + n, amplitude=0.4)
    for i in range(5):
        fused = sf.step_rk4(fused, sf.mkdv_rhs, dt, i * dt, project_fraction=fraction)
        ref = _reference_step_rk4(ref, _reference_mkdv_rhs, dt, fraction)
    assert_pairs_identical(fused, ref)


def test_step_rk4_dt_zero_identity(rng):
    grid = gcalc.PeriodicGrid(64, 9.0)
    state = random_state(rng, grid, 1, amplitude=0.3)
    out = sf.step_rk4(state, lambda s: sf.mkdv_rhs(s), 0.0)
    assert np.max(np.abs(out.u.values - state.u.values)) <= 1e-15


def test_step_rk4_advection(rng):
    # u_t = u_x advects by one period and returns the initial state
    grid = gcalc.PeriodicGrid(64, 8.0)
    state = random_state(rng, grid, 1, amplitude=0.5, kmax=3)
    dt = 0.02
    steps = int(round(grid.length / dt))
    s = state
    for i in range(steps):
        s = sf.step_rk4(s, bo.state_deriv, dt, i * dt)
    err = np.max(np.abs(s.u.values - state.u.values))
    assert err <= 1e-5


def test_step_rk4_order(rng):
    # halving dt shrinks the time-stepping error by about 2^4 on the scalar
    # soliton; a fine-dt run on the same grid removes the spatial component
    grid = gcalc.PeriodicGrid(128, 30.0)
    a = 1.8
    state = sf.preset_mkdv_soliton(grid, n=1, a=a)
    t_end = 0.3

    def solve(dt):
        s = state
        for i in range(int(round(t_end / dt))):
            s = sf.step_rk4(s, lambda q: sf.mkdv_rhs(q), dt, i * dt)
        return s.u.values[:, 1]

    ref = solve(1.5e-3 / 16)
    e1 = np.max(np.abs(solve(1.5e-3) - ref))
    e2 = np.max(np.abs(solve(7.5e-4) - ref))
    assert 10.0 <= e1 / e2 <= 24.0


def test_rk4_blowup_detection():
    grid = gcalc.PeriodicGrid(32, 5.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 1, 4)))

    def bad_rhs(s):
        out = np.full((32, 4), np.nan)
        return bo.make_flow(grid, out, np.zeros((32, 1, 4)))

    with pytest.raises(BlowUpError) as exc:
        sf.step_rk4(state, bad_rhs, 0.5, t=1.5)
    assert exc.value.time == pytest.approx(2.0)


def test_soliton_solves_real_mkdv():
    # the sech profile satisfies u0_t = (u0_xxx + 6 u0^2 u0_x)/4 analytically;
    # check the semi-discrete residual is spectrally small
    grid = gcalc.PeriodicGrid(512, 40.0)
    a = 1.5
    prof = sf.mkdv_soliton_profile(grid, a, grid.length / 2)
    u3 = gcalc.spectral_deriv(prof, grid, 3)
    ux = gcalc.spectral_deriv(prof, grid)
    rhs = 0.25 * (u3 + 6.0 * prof**2 * ux)
    # d/dt at t=0 of a sech(a(x - x0 + a^2 t/4)) is (a^3/4) d sech/d arg
    darg = -np.tanh(a * (grid.x - grid.length / 2)) * prof
    lhs = (a * a / 4.0) * a * darg
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_negative_control_no_vector_reduction(rng):
    # u = 0 with generic quaternionic bu forces d/dt u != 0
    grid = gcalc.PeriodicGrid(64, 10.0)
    state = sf.preset_random_band(grid, n=2, seed=7, amplitude=0.4)
    state = bo.make_state(grid, np.zeros((64, 4)), state.bu.values)
    out = sf.mkdv_rhs(state)
    assert np.max(np.abs(out.hs.values)) >= 1e-3


def test_scalar_reduction_consistency(rng):
    # bu = 0 initially stays zero under the coupled flow
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = sf.preset_mkdv_soliton(grid, n=3, a=1.0)
    s = state
    for i in range(20):
        s = sf.step_rk4(s, lambda q: sf.mkdv_rhs(q), 5e-4, project_fraction=2 / 3)
    assert np.max(np.abs(s.bu.values)) == 0.0
    assert np.max(np.abs(s.u.values[:, 0])) <= 1e-12


def test_mkdv_equivariance(rng):
    grid = gcalc.PeriodicGrid(48, 9.0)
    state = random_state(rng, grid, 2, amplitude=0.3, kmax=3)
    a = random_unit_quat(rng)
    A = random_unitary(rng, 1)

    def evolve(s, steps=5, dt=4e-4):
        for i in range(steps):
            s = sf.step_rk4(s, lambda q: sf.mkdv_rhs(q), dt, project_fraction=None)
        return s

    acted_then_evolved = evolve(bo.equivalence_action_pair(a, A, state))
    evolved_then_acted = bo.equivalence_action_pair(a, A, evolve(state))
    assert (
        np.max(np.abs(acted_then_evolved.u.values - evolved_then_acted.u.values))
        <= 1e-8
    )
    assert (
        np.max(np.abs(acted_then_evolved.bu.values - evolved_then_acted.bu.values))
        <= 1e-8
    )


# -- sine-Gordon ----------------------------------------------------------------

def test_sg_system_matrix_is_form_skew(rng):
    # the coefficient matrix lies in the orthogonal algebra of the constraint form
    for n in (1, 2):
        grid = gcalc.PeriodicGrid(32, 8.0)
        state = random_state(rng, grid, n, amplitude=0.6)
        M = sf.sg_system_matrix(state.u.values, state.bu.values)
        m = n - 1
        B = np.diag(np.concatenate([[1.0], 0.25 * np.ones(3), np.ones(4 * m)]))
        defect = np.swapaxes(M, -1, -2) @ B + B @ M
        assert np.max(np.abs(defect)) <= 1e-13


def test_sg_zero_state_constant_h():
    grid = gcalc.PeriodicGrid(32, 8.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 0, 4)))
    h, h_par, info = sf.sg_solve_h(state, branch="-")
    assert np.max(np.abs(h.hs.values)) == 0.0
    np.testing.assert_allclose(h_par.values, -chi(1), atol=1e-12)


def test_sg_constraint_preserved(rng):
    grid = gcalc.PeriodicGrid(64, 16.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.0)
    h, h_par, info = sf.sg_solve_h(state, branch="-", refine=4)
    # structure preservation: constant along x to near roundoff
    assert info["constraint_max_dev"] <= 1e-8 * info["constraint_target"]
    # pointwise value is chi^2
    np.testing.assert_allclose(info["constraint"], chi(1) ** 2, rtol=1e-10)


def test_sg_solver_accuracy_order(rng):
    grid = gcalc.PeriodicGrid(64, 16.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.2)
    ref, _, _ = sf.sg_solve_h(state, branch="-", refine=32)

    def err(refine):
        h, _, _ = sf.sg_solve_h(state, branch="-", refine=refine)
        return np.max(np.abs(h.hs.values - ref.hs.values))

    e2, e4 = err(2), err(4)
    assert e2 / e4 > 10.0  # fourth-order Magnus


def test_sg_richardson_check(rng):
    grid = gcalc.PeriodicGrid(64, 16.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.0)
    _, _, info = sf.sg_solve_h(state, branch="-", refine=8, richardson_check=True)
    assert info["richardson_error"] <= 1e-6 * chi(1)


def test_sg_kink_matches_classical_sine_gordon():
    # branch "-" reproduces psi_xt = 4 sin psi for the kink; branch "+" does not
    grid = gcalc.PeriodicGrid(256, 40.0)
    a = 1.0
    state = sf.preset_sg_kink(grid, n=1, a=a)
    dt, t_end = 5e-3, 0.1
    s = state
    t = 0.0
    for i in range(int(round(t_end / dt))):
        s = sf.sg_step(s, dt, branch="-", refine=8, t=t)
        t += dt
    exact = sf.sg_kink_profile(grid, a, grid.length / 2, t_end)
    resid = np.max(np.abs(s.u.values[:, 1] - exact))
    assert resid <= 1e-6

    s_plus = state
    for i in range(4):
        s_plus = sf.sg_step(s_plus, dt, branch="+", refine=8)
    exact_short = sf.sg_kink_profile(grid, a, grid.length / 2, 4 * dt)
    assert np.max(np.abs(s_plus.u.values[:, 1] - exact_short)) > 1e-4


def test_sg_zero_state_stays_zero():
    grid = gcalc.PeriodicGrid(32, 8.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 0, 4)))
    out = sf.sg_step(state, 0.01, branch="-")
    assert np.max(np.abs(out.u.values)) == 0.0


def test_sg_periodic_mode_zero_state_and_failure(rng):
    grid = gcalc.PeriodicGrid(32, 8.0)
    zero = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 0, 4)))
    h, h_par, info = sf.sg_solve_h(zero, branch="-", mode="periodic")
    np.testing.assert_allclose(info["constraint"], chi(1) ** 2, rtol=1e-10)
    # generic data admits no periodic -1 flow; the failure is loud
    state = random_state(rng, grid, 1, amplitude=0.5)
    with pytest.raises(ShootingError):
        sf.sg_solve_h(state, branch="-", mode="periodic")


def test_sg_branch_validation(rng):
    grid = gcalc.PeriodicGrid(32, 8.0)
    state = random_state(rng, grid, 1, amplitude=0.1)
    with pytest.raises(DomainError):
        sf.sg_solve_h(state, branch="x")


def test_prefix_products(rng):
    for K in (1, 2, 5, 8, 13):
        T = rng.standard_normal((K, 3, 3))
        P = sf.prefix_products(T)
        assert P.shape == (K + 1, 3, 3)
        np.testing.assert_allclose(P[0], np.eye(3), atol=1e-15)
        acc = np.eye(3)
        for i in range(K):
            acc = T[i] @ acc
            np.testing.assert_allclose(P[i + 1], acc, atol=1e-10)


def test_run_flow_and_conservation(rng):
    grid = gcalc.PeriodicGrid(64, 20.0)
    cfg = sf.SimConfig(
        n=2, grid=grid, dt=2e-3, t_end=0.05, flow="mkdv", cadence=5,
        cfl_constant=0.2,
    )
    state = sf.preset_random_band(grid, n=2, seed=3, amplitude=0.25)
    traj = sf.run_flow(cfg, state)
    assert len(traj.times) >= 2
    rep = sf.conserved_report(traj)
    assert rep.h0_drift <= 1e-8
    assert rep.h1_drift <= 1e-7
    assert rep.max_re_u <= 1e-12


def test_conserved_report_zero_state():
    grid = gcalc.PeriodicGrid(32, 5.0)
    zero = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 1, 4)))
    traj = sf.Trajectory()
    traj.append(0.0, zero)
    traj.append(1.0, zero)
    rep = sf.conserved_report(traj)
    assert np.all(rep.h0 == 0.0) and np.all(rep.h1 == 0.0)
    assert rep.h0_drift == 0.0


def test_hierarchy_flow_stepping(rng):
    # the l = 1 hierarchy flow integrates like the local mKdV flow
    grid = gcalc.PeriodicGrid(48, 15.0)
    state = sf.preset_random_band(grid, n=1, seed=5, amplitude=0.2, kmax=2)
    cfg = sf.SimConfig(
        n=1, grid=grid, dt=2e-3, t_end=0.01, flow="hierarchy", hierarchy_level=1,
        cfl_constant=0.2, project_fraction=None,
    )
    traj = sf.run_flow(cfg, state)
    direct = state
    for i in range(5):
        direct = sf.step_rk4(direct, lambda s: sf.mkdv_rhs(s), 2e-3)
    assert np.max(np.abs(traj.states[-1].u.values - direct.u.values)) <= 1e-9
