import tracemalloc

import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import curve_geometry as cg
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow import symm_lie as sl
from hpflow.errors import DimensionMismatchError, DomainError
from hpflow.symm_lie import chi

from conftest import random_unit_quat
from test_biham_ops import random_state
from test_soliton_flows import _whole_array_transfers, cells_per_block


def zero_state(grid, n=1):
    return bo.make_state(
        grid, np.zeros((grid.num_points, 4)), np.zeros((grid.num_points, n - 1, 4))
    )


def test_transport_zero_covariants_is_geodesic_circle():
    grid = gcalc.PeriodicGrid(64, 2 * np.pi * np.sqrt(chi(1)))
    state = zero_state(grid, 1)
    frame = cg.transport_frame(state, refine=4)
    assert frame.unitarity_defect() <= 1e-12
    gamma = cg.reconstruct_curve(frame)
    # gamma = (cos(x/sqrt(chi)), -sin(x/sqrt(chi))) in the first two slots
    theta = frame.grid.x / np.sqrt(chi(1))
    np.testing.assert_allclose(gamma[:, 0, 0], np.cos(theta), atol=1e-9)
    np.testing.assert_allclose(gamma[:, 1, 0], -np.sin(theta), atol=1e-9)
    # the domain length is one full period, so the curve closes
    np.testing.assert_allclose(
        qc.qmat_from_complex(frame.monodromy)[..., 0] , np.eye(2), atol=1e-9
    )


def test_transport_unitarity_random_state(rng):
    grid = gcalc.PeriodicGrid(64, 12.0)
    for n in (1, 2):
        state = random_state(rng, grid, n, amplitude=0.5)
        frame = cg.transport_frame(state, refine=4)
        assert frame.unitarity_defect() <= 1e-9
        gamma = cg.reconstruct_curve(frame)
        np.testing.assert_allclose(np.sqrt(qc.qnormsq(gamma).sum(axis=-1)), 1.0, atol=1e-9)


def test_transport_order_of_accuracy(rng):
    grid = gcalc.PeriodicGrid(32, 10.0)
    state = random_state(rng, grid, 1, amplitude=0.6, kmax=2)
    ref = cg.transport_frame(state, refine=32)
    e = {}
    for refine in (2, 4):
        f = cg.transport_frame(state, refine=refine)
        stride_ref = 32 // refine
        e[refine] = np.max(np.abs(f.psi - ref.psi[::stride_ref]))
    assert e[2] / e[4] > 10.0


def test_nonstretching_tangent_speed(rng):
    grid = gcalc.PeriodicGrid(128, 16.0)
    for n in (1, 2):
        state = random_state(rng, grid, n, amplitude=0.4, kmax=3)
        speed = cg.tangent_speed(cg.transport_frame(state, refine=8))
        assert np.max(np.abs(speed - 1.0)) <= 1e-8


def test_invariant_formulas_vs_curve(rng):
    grid = gcalc.PeriodicGrid(128, 16.0)
    for n in (1, 2):
        state = random_state(rng, grid, n, amplitude=0.4, kmax=3)
        errors = cg.reconstruction_errors(state)[0]
        assert errors["invariant_max_deviation"] <= 1e-5


def test_invariants_zero_state():
    grid = gcalc.PeriodicGrid(32, 8.0)
    out = cg.geometric_invariants(zero_state(grid, 2))
    for key in ("g_NN", "g_NNx", "g_NxNx"):
        assert np.max(np.abs(out[key].values)) == 0.0


def test_invariant_differential_identity(rng):
    # g(N, nabla_x N) = (1/2) D_x g(N, N)
    grid = gcalc.PeriodicGrid(96, 14.0)
    state = random_state(rng, grid, 2, amplitude=0.4)
    inv = cg.geometric_invariants(state)
    lhs = inv["g_NNx"].values
    rhs = 0.5 * gcalc.spectral_deriv(inv["g_NN"].values, grid)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))


def test_gauge_covariance_of_transport(rng):
    # transporting the acted state from a conjugated initial frame matches
    # acting on the transported frame
    grid = gcalc.PeriodicGrid(64, 12.0)
    n = 2
    state = random_state(rng, grid, n, amplitude=0.4)
    a = random_unit_quat(rng)
    from conftest import random_unitary

    A = random_unitary(rng, n - 1)
    acted = bo.equivalence_action_pair(a, A, state)

    h = np.zeros((n + 1, n + 1, 4))
    h[0, 0] = qc.qconj(a)
    h[1, 1] = qc.qconj(a)
    h[2:, 2:] = A
    hc = qc.qmat_to_complex(h)

    psi1 = hc @ cg.transport_frame(acted, refine=4).psi
    f2 = cg.transport_frame(state, refine=4)
    np.testing.assert_allclose(psi1, f2.psi @ hc, atol=1e-9)


def test_invariants_gauge_independent(rng):
    grid = gcalc.PeriodicGrid(64, 12.0)
    n = 2
    state = random_state(rng, grid, n, amplitude=0.4)
    a = random_unit_quat(rng)
    from conftest import random_unitary

    A = random_unitary(rng, n - 1)
    acted = bo.equivalence_action_pair(a, A, state)
    inv1 = cg.geometric_invariants(state)
    inv2 = cg.geometric_invariants(acted)
    for key in inv1:
        assert np.max(np.abs(inv1[key].values - inv2[key].values)) <= 1e-10


def _push_from_frame(frame, comps):
    """Ambient vectors psi (0, -conj s, -conj v)^t of packed frame components."""
    K = len(comps)
    col = np.zeros((K, frame.n + 1, 4))
    col[:, 1:] = -qc.qconj(comps.reshape(K, frame.n, 4))
    return qc.qmatmul(qc.qmat_from_complex(frame.psi), col[..., None, :])[..., 0, :]


def test_pull_push_roundtrip(rng):
    grid = gcalc.PeriodicGrid(48, 9.0)
    state = random_state(rng, grid, 2, amplitude=0.4)
    frame = cg.grid_frame(state, refine=4)
    comps = sf._pack(
        rng.standard_normal((48, 4)), rng.standard_normal((48, 1, 4))
    )
    amb = _push_from_frame(frame, comps)
    back, vert = cg.pull_to_frame(frame, amb)
    np.testing.assert_allclose(back[:, :4], comps[:, :4], atol=1e-10)
    np.testing.assert_allclose(back[:, 4:], comps[:, 4:], atol=1e-10)
    np.testing.assert_allclose(vert, 0.0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_column_matches_whole_frame_conversion(rng, n):
    state = random_state(rng, gcalc.PeriodicGrid(32, 7.0), n, amplitude=0.5, kmax=3)
    for frame in (cg.grid_frame(state, refine=2), cg.transport_frame(state, refine=2)):
        psi_q = qc.qmat_from_complex(frame.psi)
        assert np.array_equal(cg.reconstruct_curve(frame), psi_q[:, :, 0])
        assert np.array_equal(cg._frame_column(frame, 1), psi_q[:, :, 1])
        # psi's second column times -1/sqrt(chi) is e_x pushed to the ambient space
        pushed = _push_from_frame(frame, cg.frame_tangent(len(frame.psi), n))
        assert np.array_equal(-(1.0 / np.sqrt(chi(n))) * cg._frame_column(frame, 1), pushed)


def test_wave_map_tangent_matches_pushed_e_x():
    # verify_wave_map's gamma_x, bit for bit against e_x pushed through the frame
    state = sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n=1, a=1.0)
    traj = cg.evolve_with_frame(state, cg.grid_frame(state, 4), "sg", 1e-4, 4, sg_refine=8)
    idx = 2
    frames, g0 = traj.frames, cg.reconstruct_curve(traj.frames[idx])
    tangent = [_push_from_frame(f, cg.frame_tangent(128, 1)) for f in frames]
    dT = (tangent[idx + 1] - tangent[idx - 1]) / (traj.times[idx + 1] - traj.times[idx - 1])
    nabla_t_T = cg.project_horizontal(dT, g0)
    residual = np.max(np.sqrt(chi(1) * qc.vec_dot(nabla_t_T, nabla_t_T)))
    assert cg.verify_wave_map(traj, idx)["residual"] == float(residual)


def test_flow_operator_eigenvalues(rng):
    # -ad_x^2(e_x) acts with eigenvalues 0, 4/chi, 1/chi on the packed blocks
    K = 8
    n = 3
    c = chi(n)
    e_comps = cg.frame_tangent(K, n)
    probe = sf._pack(
        np.concatenate(
            [np.zeros((K, 1)), np.ones((K, 3))], axis=1
        ),
        np.ones((K, n - 1, 4)),
    )
    out = -1.0 * cg.ad_x_squared(e_comps, probe)
    np.testing.assert_allclose(qc.qim(out[:, :4]), (4.0 / c) * qc.qim(probe[:, :4]), atol=1e-12)
    np.testing.assert_allclose(out[:, 4:], (1.0 / c) * probe[:, 4:], atol=1e-12)
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
    # parallel probe is annihilated
    par_probe = sf._pack(qc.from_real(np.ones(K)), np.zeros((K, n - 1, 4)))
    out_par = cg.ad_x_squared(e_comps, par_probe)
    np.testing.assert_allclose(out_par[:, :4], 0.0, atol=1e-12)
    # inverse map composes to the identity on the perp part
    back = cg.flow_operator_inverse(n) * out
    np.testing.assert_allclose(back[:, :4], qc.qim(probe[:, :4]), atol=1e-12)
    np.testing.assert_allclose(back[:, 4:], probe[:, 4:], atol=1e-12)


def test_covariant_deriv_matches_pulled_curvature(rng):
    # pulling the ambient tangent and differentiating in the frame reproduces
    # the principal normal components (2u, -bu)/sqrt(chi)
    grid = gcalc.PeriodicGrid(128, 16.0)
    n = 2
    state = random_state(rng, grid, n, amplitude=0.4, kmax=3)
    frame = cg.grid_frame(state, refine=8)
    T_amb = cg.project_horizontal(cg.curve_tangent(frame), cg.reconstruct_curve(frame))
    T, vert = cg.pull_to_frame(frame, T_amb)
    assert np.max(np.abs(vert)) <= 1e-8
    rc = np.sqrt(chi(n))
    np.testing.assert_allclose(
        T[:, :4], qc.from_real(np.full(grid.num_points, 1 / rc)), atol=1e-7
    )
    N = cg.covariant_deriv_x(state, T)
    expected_s = 2.0 * state.u.values / rc
    expected_v = -state.bu.values / rc
    assert np.max(np.abs(N[:, :4] - expected_s)) <= 1e-6
    assert np.max(np.abs(N[:, 4:] - expected_v.reshape(grid.num_points, -1))) <= 1e-6


def test_mkdv_map_zero_state():
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    traj = cg.evolve_with_frame(state, cg.grid_frame(state, 4), "mkdv", 1e-3, 4)
    out = cg.verify_mkdv_map(traj, idx=2)
    assert out["residual"] <= 1e-10
    assert out["gamma_t_norm"] <= 1e-12


def test_evolve_with_frame_rejects_a_frame_of_another_state():
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    for other in (zero_state(gcalc.PeriodicGrid(64, 30.0), 1), zero_state(grid, 2)):
        with pytest.raises(DimensionMismatchError):
            cg.evolve_with_frame(state, cg.grid_frame(other, 2), "mkdv", 1e-3, 1)


@pytest.mark.parametrize("kind", ["hierarchy", "nope"])
def test_a_kind_without_a_frame_co_evolution_is_a_domain_error(kind):
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    frame = cg.grid_frame(state, 2)
    for run in (
        lambda: cg.evolve_with_frame(state, frame, kind, 1e-3, 1),
        lambda: cg.map_residuals(state, frame, kind, 1e-3),
    ):
        with pytest.raises(DomainError, match="has no frame co-evolution") as info:
            run()
        assert "unknown" not in str(info.value)
        assert all(repr(k) in str(info.value) for k in cg.MAP_CHECKS)


@pytest.mark.parametrize("kind", list(sf.FLOWS))
def test_every_flow_kind_steps_by_step_rk4_once_per_step_and_its_map_check_never(
    kind, monkeypatch
):
    # the benchmark's per-step counts are made inside step_rk4: run_flow calls
    # it once per step for every kind, and the frame co-evolution not at all
    grid = gcalc.PeriodicGrid(64, 40.0)
    cfg = sf.SimConfig(n=1, grid=grid, dt=1e-3, t_end=3e-3, flow=kind, sg_refine=2)
    state = sf.preset_sg_kink(grid, 1)
    calls, step = [], sf.step_rk4

    def counting(s, *args, **kw):
        calls.append(s)
        return step(s, *args, **kw)

    monkeypatch.setattr(sf, "step_rk4", counting)
    traj = sf.run_flow(cfg, state)
    assert len(calls) == 3 and calls[0] is state
    if kind in cg.MAP_CHECKS:
        calls.clear()
        final = traj.states[-1]
        out = cg.map_residuals(final, cg.grid_frame(final, 2), kind, cfg.dt, sg_refine=2)
        assert calls == [] and np.isfinite(out["residual"])


def test_mkdv_map_soliton():
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(state, cg.grid_frame(state, 8), "mkdv", 2e-3, 10)
    out = cg.verify_mkdv_map(traj, idx=5)
    assert out["unitarity"] <= 1e-9
    # speed from the coarse evolved frame is differencing-limited; the
    # strict 1e-8 check runs on the refined fresh transport elsewhere
    assert out["speed_error"] <= 1e-4
    # the tangent is the frame's e_x, so only the time differencing is left
    assert out["residual"] <= 1e-6
    assert out["tangential_residual"] <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mkdv_map_residual_falls_with_dt_squared(n):
    # the residual is the central time difference's error: halving the
    # map-check dt divides it by 4
    if n == 1:
        grid = gcalc.PeriodicGrid(256, 40.0)
        state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
        dt = 2e-3
    else:
        grid = gcalc.PeriodicGrid(128, 20.0)
        state = sf.preset_random_band(grid, n, seed=42, amplitude=0.25, kmax=3)
        dt = 1e-3
    frame = cg.grid_frame(state, 8)
    coarse, fine = (
        cg.verify_mkdv_map(cg.evolve_with_frame(state, frame, "mkdv", h, 10), idx=5)["residual"]
        for h in (dt, dt / 2)
    )
    assert 3.5 <= coarse / fine <= 4.5


def test_wave_map_kink():
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(
        state, cg.grid_frame(state, 8), "sg", 1e-4, 10, branch="-", sg_refine=8
    )
    out = cg.verify_wave_map(traj, idx=5)
    assert out["unitarity"] <= 1e-9
    assert out["residual"] <= 1e-5
    assert out["speed_constancy"] <= 1e-6
    assert abs(out["speed_value"] - chi(1)) <= 1e-6 * chi(1)


def _recording_evolve(monkeypatch):
    calls, evolve = [], cg.evolve_with_frame

    def recording(state, frame, flow, dt, steps, **kw):
        calls.append((dt, steps))
        return evolve(state, frame, flow, dt, steps, **kw)

    monkeypatch.setattr(cg, "evolve_with_frame", recording)
    return calls, evolve


def test_map_residuals_mkdv_takes_ten_steps_at_dt(monkeypatch):
    state = sf.preset_mkdv_soliton(gcalc.PeriodicGrid(64, 20.0), n=1, a=1.0)
    frame = cg.grid_frame(state, 8)
    calls, evolve = _recording_evolve(monkeypatch)
    out = cg.map_residuals(state, frame, "mkdv", 1e-3)
    assert calls == [(1e-3, 10)]
    assert out == cg.verify_mkdv_map(evolve(state, frame, "mkdv", 1e-3, 10), 5)


def test_map_residuals_sg_clamps_dt_and_stops_at_snapshot_6(monkeypatch):
    state = sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n=1, a=1.0)
    frame = cg.grid_frame(state, 8)
    calls, evolve = _recording_evolve(monkeypatch)
    out = cg.map_residuals(state, frame, "sg", 5e-3)
    assert calls == [(1e-3, 6)]
    assert out == cg.verify_wave_map(evolve(state, frame, "sg", 1e-3, 6), 5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_components_round_trip_lie_element(rng, n):
    K = 16
    comps = rng.standard_normal((K, 4 * n))
    assert np.array_equal(cg._components(cg._element(comps, n)), comps)
    g = sl.LieElement(
        n,
        m_par=rng.standard_normal(K),
        m_perp=sl.MPerp(qc.qim(rng.standard_normal((K, 4))), rng.standard_normal((K, n - 1, 4))),
    )
    back = cg._element(cg._components(g), n)
    assert np.array_equal(back.m_par, g.m_par)
    assert np.array_equal(back.m_perp.s, g.m_perp.s)
    assert np.array_equal(back.m_perp.v, g.m_perp.v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_deriv_x_matches_two_transform_reference(rng, n):
    # one transform of the packed [s | v] gives the bits of one per block
    grid = gcalc.PeriodicGrid(32, 12.0)
    state = random_state(rng, grid, n, amplitude=0.5, kmax=3)
    s, v = rng.standard_normal((32, 4)), rng.standard_normal((32, n - 1, 4))
    u, bu = state.arrays()
    ad = sl.bracket(
        sl.LieElement(n, h_perp=sl.HPerp(u, bu)),
        sl.LieElement(n, m_par=s[:, 0], m_perp=sl.MPerp(qc.qim(s), v)),
    )
    ref_s = gcalc.spectral_deriv(s, grid) + (qc.from_real(ad.m_par) + ad.m_perp.s)
    ref_v = gcalc.spectral_deriv(v, grid) + ad.m_perp.v
    expected = np.concatenate([ref_s, ref_v.reshape(32, -1)], axis=1)
    assert np.array_equal(cg.covariant_deriv_x(state, sf._pack(s, v)), expected)


def test_transport_consistency_after_evolution(rng):
    grid = gcalc.PeriodicGrid(128, 30.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(state, cg.grid_frame(state, 8), "mkdv", 2e-3, 5)
    defect = cg.transport_consistency(traj.frames[-1], traj.states[-1], refine=8)
    assert defect <= 1e-6


def test_mkdv_frame_state_matches_small_dt_reference():
    # the criterion-7 run: the co-evolved state is the dealiased RK4 solution
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(state, cg.grid_frame(state, 8), "mkdv", 2e-3, 10)
    ref = state
    for i in range(200):
        ref = sf.step_rk4(
            ref, lambda s: sf.mkdv_rhs(s, galilean_removed=False), 1e-4, i * 1e-4,
            project_fraction=sf.DEFAULT_PROJECT_FRACTION,
        )
    assert np.max(np.abs(traj.states[-1].u.values - ref.u.values)) <= 1e-8


def test_sg_frame_states_equal_sg_step_loop():
    grid = gcalc.PeriodicGrid(128, 40.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.0)
    dt = 1e-4
    traj = cg.evolve_with_frame(
        state, cg.grid_frame(state, 4), "sg", dt, 4, branch="-", sg_refine=8
    )
    s = state
    for i, evolved in enumerate(traj.states[1:]):
        s = sf.sg_step(s, dt, branch="-", mode="line", refine=8, t=i * dt)
        assert np.array_equal(evolved.u.values, s.u.values)
        assert np.array_equal(evolved.bu.values, s.bu.values)


def _m_matrix(s, v):
    """Batched m-type matrices [[0, s, v], [-conj s, 0, 0], [-conj v^t, 0, 0]]."""
    K, m = s.shape[0], v.shape[1]
    out = np.zeros((K, m + 2, m + 2, 4))
    out[:, 0, 1] = s
    out[:, 1, 0] = -qc.qconj(s)
    if m:
        out[:, 0, 2:] = v
        out[:, 2:, 0] = -qc.qconj(v)
    return out


def _h_matrix(p, P, q, qv):
    """Batched h-type matrices [[p+q, 0, 0], [0, p-q, qv], [0, -conj qv^t, P]]."""
    K, m = p.shape[0], qv.shape[1]
    out = np.zeros((K, m + 2, m + 2, 4))
    out[:, 0, 0] = p + q
    out[:, 1, 1] = p - q
    if m:
        out[:, 1, 2:] = qv
        out[:, 2:, 1] = -qc.qconj(qv)
        out[:, 2:, 2:] = P
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mkdv_time_matrices_match_block_layout(rng, n):
    grid = gcalc.PeriodicGrid(64, 12.0)
    state = random_state(rng, grid, n, amplitude=0.5, kmax=3)
    u, bu = state.arrays()
    rc = np.sqrt(chi(n))
    ux, u2 = gcalc.spectral_deriv(u, grid), gcalc.spectral_deriv(u, grid, 2)
    bux, bu2 = gcalc.spectral_deriv(bu, grid), gcalc.spectral_deriv(bu, grid, 2)
    h_par0 = bo._h_par0_local(u, bu)
    e_t = _m_matrix(qc.from_real(h_par0 / rc) + ux / (2.0 * rc), -bux / rc)
    w1s = 0.25 * u2 + 0.25 * qc.comm_C_vec(bu, bux) + h_par0[:, None] * u
    w1v = (
        bu2
        + 0.5 * qc.qmul(ux[:, None, :], bu)
        + qc.qmul(u[:, None, :], bux)
        + h_par0[:, None, None] * bu
    )
    omega_t = _h_matrix(
        bo._w_par1_local(u, bu, ux, bux), bo._W_par1_local(u, bu, bux), w1s, w1v
    )
    expected = qc.qmat_to_complex(e_t + omega_t)
    assert np.array_equal(cg._mkdv_time_matrices(state), expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_time_matrices_match_block_layout(n):
    state = sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n=n, a=1.0)
    h, h_par, _ = sf.sg_solve_h(state, "-", "line", 8)
    rc = np.sqrt(chi(n))
    e_t = _m_matrix(qc.from_real(h_par.values / rc) + h.hs.values / (2.0 * rc), -h.hv.values / rc)
    expected = qc.qmat_to_complex(e_t)
    assert np.array_equal(cg._sg_time_matrices(state, "-", "line", 8), expected)


def _split(c):
    """Packed frame components as the table's (MPar, MPerp) parts."""
    v = c[:, 4:].reshape(len(c), c.shape[1] // 4 - 1, 4)
    return sl.MPar(c[:, 0]), sl.MPerp(qc.qim(c[:, :4]), v)


def _of(g):
    s = qc.from_real(g.m_par) + g.m_perp.s
    return np.concatenate([s, g.m_perp.v.reshape(len(s), -1)], axis=1)


def _table_bracket_h_m(n, h_par, h_perp, c):
    """[h, c] for h = h_par + h_perp and c in m, summed from bracket_projected."""
    bp = sl.bracket_projected
    c_par, c_perp = _split(c)
    return _of(sl.element_from_parts(
        n,
        -bp(c_par, h_par, "m_par"),
        -bp(c_par, h_perp, "m_perp"),
        -bp(c_perp, h_par, "m_perp"),
        -bp(c_perp, h_perp, "m_par"),
        -bp(c_perp, h_perp, "m_perp"),
    ))


def _table_ad_x_squared(n, z, w):
    """[z, [z, w]] summed from bracket_projected; [e, e] = 0 is left out."""
    bp = sl.bracket_projected
    (z_par, z_perp), (w_par, w_perp) = _split(z), _split(w)
    zw = sl.element_from_parts(
        n,
        bp(z_perp, w_perp, "h_par"),
        bp(z_par, w_perp, "h_perp"),
        bp(z_perp, w_par, "h_perp"),
        bp(z_perp, w_perp, "h_perp"),
    )
    return -1.0 * _table_bracket_h_m(n, zw.h_par, zw.h_perp, z)


def _rel_err(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ad_x_squared_matches_bracket_table(rng, n):
    K = 32
    z, w = (
        sf._pack(rng.standard_normal((K, 4)), rng.standard_normal((K, n - 1, 4)))
        for _ in range(2)
    )
    assert _rel_err(cg.ad_x_squared(z, w), _table_ad_x_squared(n, z, w)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_deriv_bracket_matches_bracket_table(rng, n):
    grid = gcalc.PeriodicGrid(32, 12.0)
    state = random_state(rng, grid, n, amplitude=0.5, kmax=3)
    comps = sf._pack(rng.standard_normal((32, 4)), rng.standard_normal((32, n - 1, 4)))
    out = cg.covariant_deriv_x(state, comps)
    bracket_term = out - gcalc.spectral_deriv(comps, grid)
    h_perp = sl.HPerp(state.u.values, state.bu.values)
    h_par = sl.HPar(np.zeros((32, 4)), np.zeros((32, n - 1, n - 1, 4)))
    expected = _table_bracket_h_m(n, h_par, h_perp, comps)
    assert _rel_err(bracket_term, expected) <= 1e-12


def _reference_right_transport(state, refine):
    """psi_x = psi A integrated in its own orientation: the Magnus-4 formula
    for right multiplication and the scan of right products, written out."""
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    u_f[:, 0] = 0.0
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    K = u_f.shape[0]
    tangent = qc.from_real(np.full(K, 1.0 / np.sqrt(chi(state.n))))
    connection = _h_matrix(np.zeros((K, 4)), np.zeros((K, state.n - 1, state.n - 1, 4)), u_f, bu_f)
    mats = connection + _m_matrix(tangent, np.zeros((K, state.n - 1, 4)))
    A = qc.qmat_to_complex(mats)
    A0, Amid = A[0::2], A[1::2]
    A1 = np.roll(A0, -1, axis=0)
    h = grid.dx / refine
    comm = Amid @ (A1 - A0) - (A1 - A0) @ Amid
    T = sf.expm_antihermitian((h / 6.0) * (A0 + 4.0 * Amid + A1) + (h**2 / 12.0) * comm)
    # Q[0] = I, Q[i] = T[0] @ T[1] @ ... @ T[i-1]
    prefixes = np.swapaxes(sf.prefix_products(np.swapaxes(T, -1, -2)), -1, -2)
    return prefixes[:-1], prefixes[-1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transport_frame_matches_right_oriented_reference(rng, n):
    grid = gcalc.PeriodicGrid(64, 12.0)
    state = random_state(rng, grid, n, amplitude=0.5, kmax=3)
    frame = cg.transport_frame(state, refine=4)
    psi, monodromy = _reference_right_transport(state, 4)
    assert np.max(np.abs(frame.psi - psi)) <= 1e-13
    assert np.max(np.abs(frame.monodromy - monodromy)) <= 1e-13


def _reference_transport_transfers(state, refine):
    """The frame transfers built for all fine cells at once, as before the
    blocked build."""
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    u_f[:, 0] = 0.0
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    A = sl.LieElement(state.n, m_par=1.0 / np.sqrt(chi(state.n)), h_perp=sl.HPerp(u_f, bu_f))
    A_t = np.swapaxes(qc.qmat_to_complex(A.to_matrix()), -1, -2)
    return _whole_array_transfers(A_t, grid.dx / refine)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("refine", [1, 2, 3, 8])
@pytest.mark.parametrize("block", [None, 7])
def test_blocked_frame_transfers_equal_the_whole_array_build(monkeypatch, n, refine, block):
    # odd N; 7 cells a block divide none of K = 45, 90, 135, 360; at refine 1
    # the amplitude-3 band's cells pass theta, so the blocks share squarings
    grid = gcalc.PeriodicGrid(45, 20.0)
    if block:
        cells_per_block(monkeypatch, block, 2 * (n + 1), complex)
    for state in (
        sf.preset_random_band(grid, n, seed=12, amplitude=3.0),
        zero_state(grid, n),
    ):
        T = cg._transport_transfers(state, refine)
        assert np.array_equal(T, _reference_transport_transfers(state, refine))


def _peak_allocation(f):
    """Peak bytes tracemalloc sees allocated during f(), after a warm-up call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transfer_builds_hold_a_block_not_the_grid():
    # the whole-grid builds peaked at 5.1 MB (frame, n = 1) and 19.3 MB
    # (the n = 3 x-solve's transfers) at N = 256, refine 8
    grid = gcalc.PeriodicGrid(256, 40.0)
    kink = sf.preset_sg_kink(grid, 1)
    assert _peak_allocation(lambda: cg.grid_frame(kink, 8)) <= 2e6
    kink3 = sf.preset_sg_kink(grid, 3)
    assert _peak_allocation(lambda: sf._sg_transfers_generic(kink3, 8)) <= 19.3e6 / 2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("refine", [2, 4, 8])
def test_grid_frame_is_the_fine_frame_at_the_grid_points(rng, n, refine):
    grid = gcalc.PeriodicGrid(32, 7.0)
    state = random_state(rng, grid, n, amplitude=0.5, kmax=3)
    fine = cg.transport_frame(state, refine=refine)
    frame = cg.grid_frame(state, refine=refine)
    assert frame.grid == grid and frame.n == n
    assert np.array_equal(frame.psi, fine.psi[::refine])
    assert np.array_equal(frame.monodromy, fine.monodromy)


def test_frames_reject_refine_below_1(rng):
    state = random_state(rng, gcalc.PeriodicGrid(16, 4.0), 1, amplitude=0.3)
    for refine in (0, -4):
        for frame in (cg.grid_frame, cg.transport_frame):
            with pytest.raises(DomainError, match="refine"):
                frame(state, refine=refine)


def test_curve_export(tmp_path, rng):
    grid = gcalc.PeriodicGrid(32, 8.0)
    state = random_state(rng, grid, 1, amplitude=0.3)
    frame = cg.grid_frame(state, refine=2)
    gamma = cg.reconstruct_curve(frame)
    path = tmp_path / "curve.csv"
    cg.curve_to_csv(path, frame)
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (32, 1 + 8)
    D = cg.chordal_distance_matrix(gamma)
    assert np.allclose(np.diag(D), 0.0, atol=1e-6)
    assert np.all(D >= 0.0) and np.allclose(D, D.T, atol=1e-12)
    # gauge fixing leaves the projective point unchanged
    fixed = cg.gauge_fixed(gamma)
    inner = cg.projective_pairing(fixed, gamma)
    np.testing.assert_allclose(qc.qnorm(inner), 1.0, atol=1e-10)


def test_verify_map_flow_kind_guard(rng):
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    traj = cg.evolve_with_frame(state, cg.grid_frame(state, 2), "mkdv", 1e-3, 4)
    with pytest.raises(DomainError):
        cg.verify_wave_map(traj, idx=2)


def test_map_checks_need_an_interior_snapshot():
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    mkdv = cg.evolve_with_frame(state, cg.grid_frame(state, 2), "mkdv", 1e-3, 4)
    sg = cg.FrameTrajectory(mkdv.times, mkdv.states, mkdv.frames, flow="sg")
    for check, traj in ((cg.verify_mkdv_map, mkdv), (cg.verify_wave_map, sg)):
        for idx in (0, 4, 5):
            with pytest.raises(DomainError, match="interior"):
                check(traj, idx)


def _reference_gauge_fixed(gamma, threshold=0.3):
    """The per-point loop gauge_fixed replaced."""
    K, rows, _ = gamma.shape
    out = gamma.copy()
    norms = qc.qnorm(gamma)
    for i in range(K):
        idx = next(
            (l for l in range(rows) if norms[i, l] > threshold), int(np.argmax(norms[i]))
        )
        lam = qc.qconj(gamma[i, idx]) / norms[i, idx]
        out[i] = qc.qmul(gamma[i], lam[None, :])
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauge_fixed_matches_loop_reference(rng, n):
    grid = gcalc.PeriodicGrid(64, 8.0)
    state = random_state(rng, grid, n, amplitude=0.8)
    curve = cg.reconstruct_curve(cg.grid_frame(state, refine=2))
    # random unit vectors: at threshold 0.9 some points have no sizable
    # component and take the argmax fallback
    scattered = rng.standard_normal((64, n + 1, 4))
    scattered /= np.sqrt(np.sum(scattered**2, axis=(-1, -2)))[:, None, None]
    if n > 1:
        assert not np.all(np.any(qc.qnorm(scattered) > 0.9, axis=1))
    for gamma in (curve, scattered):
        for threshold in (0.3, 0.9):
            np.testing.assert_array_equal(
                cg.gauge_fixed(gamma, threshold), _reference_gauge_fixed(gamma, threshold)
            )


@pytest.mark.parametrize("n", [1, 2])
def test_extend_with_monodromy_matches_per_point_loop(rng, n):
    grid = gcalc.PeriodicGrid(48, 12.0)
    frame = cg.transport_frame(random_state(rng, grid, n), refine=4)
    gamma = cg.reconstruct_curve(frame)
    Mq = qc.qmat_from_complex(frame.monodromy)
    Mq_inv = qc.qmat_conj_t(Mq)
    for values in (gamma, rng.standard_normal(gamma.shape)):
        for halo in (1, 3):
            right = np.stack([qc.qmatmul(Mq, values[j]) for j in range(halo)])
            left = np.stack([qc.qmatmul(Mq_inv, values[-halo + j]) for j in range(halo)])
            expected = np.concatenate([left, values, right], axis=0)
            out = cg._extend_with_monodromy(values, frame.monodromy, halo)
            assert np.array_equal(out, expected)


def _reference_chordal_distance_matrix(g):
    """The row loop chordal_distance_matrix used before it was vectorized."""
    K = g.shape[0]
    out = np.zeros((K, K))
    for i in range(K):
        inner = cg.projective_pairing(np.broadcast_to(g[i], g.shape), g)
        out[i] = np.sqrt(np.maximum(2.0 - 2.0 * qc.qnorm(inner), 0.0))
    return out


@pytest.mark.parametrize("K", [32, 150])  # 150 rows: two blocks of 64 and a short one
@pytest.mark.parametrize("n", [1, 2])
def test_chordal_distance_matrix_matches_row_loop(rng, n, K):
    grid = gcalc.PeriodicGrid(K, 8.0)
    state = random_state(rng, grid, n, amplitude=0.5)
    gamma = cg.reconstruct_curve(cg.grid_frame(state, refine=2))
    D = cg.chordal_distance_matrix(gamma)
    assert D.shape == (K, K)
    np.testing.assert_array_equal(D, _reference_chordal_distance_matrix(gamma))
