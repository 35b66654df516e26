import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import curve_geometry as cg
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow import symm_lie as sl
from hpflow.errors import DomainError
from hpflow.symm_lie import chi

from conftest import random_unit_quat
from test_biham_ops import random_state


def zero_state(grid, n=1):
    return bo.make_state(
        grid, np.zeros((grid.num_points, 4)), np.zeros((grid.num_points, n - 1, 4))
    )


def test_transport_zero_covariants_is_geodesic_circle():
    grid = gcalc.PeriodicGrid(64, 2 * np.pi * np.sqrt(chi(1)))
    state = zero_state(grid, 1)
    frame = cg.transport_frame(state, refine=4)
    assert frame.unitarity_defect() <= 1e-12
    curve = cg.reconstruct_curve(frame)
    # gamma = (cos(x/sqrt(chi)), -sin(x/sqrt(chi))) in the first two slots
    theta = frame.grid.x / np.sqrt(chi(1))
    np.testing.assert_allclose(curve.gamma[:, 0, 0], np.cos(theta), atol=1e-9)
    np.testing.assert_allclose(curve.gamma[:, 1, 0], -np.sin(theta), atol=1e-9)
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
        gamma = cg.reconstruct_curve(frame).gamma
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
        frame = cg.transport_frame(state, refine=8)
        curve = cg.reconstruct_curve(frame)
        speed = cg.tangent_speed(curve, n)
        assert np.max(np.abs(speed - 1.0)) <= 1e-8


def test_invariant_formulas_vs_curve(rng):
    grid = gcalc.PeriodicGrid(128, 16.0)
    for n in (1, 2):
        state = random_state(rng, grid, n, amplitude=0.4, kmax=3)
        formulas = cg.geometric_invariants(state)
        measured = cg.geometric_invariants_from_curve(state, refine=8)
        for key in ("g_NN", "g_NNx", "g_NxNx"):
            target = gcalc.spectral_refine(formulas[key].values, grid, 8)
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(measured[key] - target)) <= 1e-5 * scale


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


def test_pull_push_roundtrip(rng):
    grid = gcalc.PeriodicGrid(48, 9.0)
    state = random_state(rng, grid, 2, amplitude=0.4)
    frame = cg.grid_frame(state, refine=4)
    comps = cg.MComps(
        rng.standard_normal((48, 4)), rng.standard_normal((48, 1, 4))
    )
    amb = cg.push_from_frame(frame, comps)
    back, vert = cg.pull_to_frame(frame, amb)
    np.testing.assert_allclose(back.s, comps.s, atol=1e-10)
    np.testing.assert_allclose(back.v, comps.v, atol=1e-10)
    np.testing.assert_allclose(vert, 0.0, atol=1e-10)


def test_flow_operator_eigenvalues(rng):
    # -ad_x^2(e_x) acts with eigenvalues 0, 4/chi, 1/chi on the packed blocks
    K = 8
    n = 3
    c = chi(n)
    e_comps = cg.MComps(
        qc.from_real(np.full(K, 1.0 / np.sqrt(c))), np.zeros((K, n - 1, 4))
    )
    probe = cg.MComps(
        np.concatenate(
            [np.zeros((K, 1)), np.ones((K, 3))], axis=1
        ),
        np.ones((K, n - 1, 4)),
    )
    out = cg.ad_x_squared(e_comps, probe).scaled(-1.0)
    np.testing.assert_allclose(qc.qim(out.s), (4.0 / c) * qc.qim(probe.s), atol=1e-12)
    np.testing.assert_allclose(out.v, (1.0 / c) * probe.v, atol=1e-12)
    np.testing.assert_allclose(out.s[:, 0], 0.0, atol=1e-12)
    # parallel probe is annihilated
    par_probe = cg.MComps(qc.from_real(np.ones(K)), np.zeros((K, n - 1, 4)))
    out_par = cg.ad_x_squared(e_comps, par_probe)
    np.testing.assert_allclose(out_par.s, 0.0, atol=1e-12)
    # inverse map composes to the identity on the perp part
    back = cg.flow_operator_inverse(out.perp(), n)
    np.testing.assert_allclose(back.s, qc.qim(probe.s), atol=1e-12)
    np.testing.assert_allclose(back.v, probe.v, atol=1e-12)


def test_covariant_deriv_matches_pulled_curvature(rng):
    # pulling the ambient tangent and differentiating in the frame reproduces
    # the principal normal components (2u, -bu)/sqrt(chi)
    grid = gcalc.PeriodicGrid(128, 16.0)
    n = 2
    state = random_state(rng, grid, n, amplitude=0.4, kmax=3)
    frame = cg.grid_frame(state, refine=8)
    curve = cg.reconstruct_curve(frame)
    T_amb = cg.project_horizontal(cg.curve_tangent(curve), curve.gamma)
    T, vert = cg.pull_to_frame(frame, T_amb)
    assert np.max(np.abs(vert)) <= 1e-8
    rc = np.sqrt(chi(n))
    np.testing.assert_allclose(T.s, qc.from_real(np.full(grid.num_points, 1 / rc)), atol=1e-7)
    N = cg.covariant_deriv_x(state, T)
    expected_s = 2.0 * state.u.values / rc
    expected_v = -state.bu.values / rc
    assert np.max(np.abs(N.s - expected_s)) <= 1e-6
    assert np.max(np.abs(N.v - expected_v)) <= 1e-6


def test_mkdv_map_zero_state():
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    traj = cg.evolve_with_frame(state, "mkdv", 1e-3, 4, transport_refine=4)
    out = cg.verify_mkdv_map(traj, idx=2)
    assert out["residual"] <= 1e-10
    assert out["gamma_t_norm"] <= 1e-12


def test_mkdv_map_soliton():
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(state, "mkdv", 2e-3, 10, transport_refine=8)
    out = cg.verify_mkdv_map(traj, idx=5)
    assert out["unitarity"] <= 1e-9
    # speed from the coarse evolved frame is differencing-limited; the
    # strict 1e-8 check runs on the refined fresh transport elsewhere
    assert out["speed_error"] <= 1e-4
    assert out["residual"] <= 1e-4
    assert out["tangential_residual"] <= 1e-5
    assert np.isfinite(out["alt_form_residual"])


def test_wave_map_kink():
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_sg_kink(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(
        state, "sg", 1e-4, 10, branch="-", sg_refine=8, transport_refine=8
    )
    out = cg.verify_wave_map(traj, idx=5)
    assert out["unitarity"] <= 1e-9
    assert out["residual"] <= 1e-5
    assert out["speed_constancy"] <= 1e-6
    assert abs(out["speed_value"] - chi(1)) <= 1e-6 * chi(1)


def test_transport_consistency_after_evolution(rng):
    grid = gcalc.PeriodicGrid(128, 30.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(state, "mkdv", 2e-3, 5, transport_refine=8)
    defect = cg.transport_consistency(traj.frames[-1], traj.states[-1], refine=8)
    assert defect <= 1e-6


def test_mkdv_frame_state_matches_small_dt_reference():
    # the criterion-7 run: the co-evolved state is the dealiased RK4 solution
    grid = gcalc.PeriodicGrid(256, 40.0)
    state = sf.preset_mkdv_soliton(grid, n=1, a=1.0)
    traj = cg.evolve_with_frame(state, "mkdv", 2e-3, 10, transport_refine=8)
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
        state, "sg", dt, 4, branch="-", sg_refine=8, transport_refine=4
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
    """Frame components as the table's (MPar, MPerp) parts."""
    return sl.MPar(c.s[:, 0]), sl.MPerp(qc.qim(c.s), c.v)


def _of(g):
    return cg.MComps(qc.from_real(g.m_par) + g.m_perp.s, g.m_perp.v)


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
    return _table_bracket_h_m(n, zw.h_par, zw.h_perp, z).scaled(-1.0)


def _rel_err(out, ref):
    scale = max(np.max(np.abs(ref.s)), np.max(np.abs(ref.v), initial=0.0))
    worst = max(np.max(np.abs(out.s - ref.s)), np.max(np.abs(out.v - ref.v), initial=0.0))
    return worst / scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ad_x_squared_matches_bracket_table(rng, n):
    K = 32
    z, w = (
        cg.MComps(rng.standard_normal((K, 4)), rng.standard_normal((K, n - 1, 4)))
        for _ in range(2)
    )
    assert _rel_err(cg.ad_x_squared(z, w), _table_ad_x_squared(n, z, w)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_deriv_bracket_matches_bracket_table(rng, n):
    grid = gcalc.PeriodicGrid(32, 12.0)
    state = random_state(rng, grid, n, amplitude=0.5, kmax=3)
    comps = cg.MComps(rng.standard_normal((32, 4)), rng.standard_normal((32, n - 1, 4)))
    out = cg.covariant_deriv_x(state, comps)
    bracket_term = cg.MComps(
        out.s - gcalc.spectral_deriv(comps.s, grid),
        out.v - gcalc.spectral_deriv(comps.v, grid),
    )
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
    curve = cg.reconstruct_curve(cg.grid_frame(state, refine=2))
    path = tmp_path / "curve.csv"
    cg.curve_to_csv(path, curve)
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (32, 1 + 8)
    D = cg.chordal_distance_matrix(curve)
    assert np.allclose(np.diag(D), 0.0, atol=1e-6)
    assert np.all(D >= 0.0) and np.allclose(D, D.T, atol=1e-12)
    # gauge fixing leaves the projective point unchanged
    fixed = curve.gauge_fixed()
    inner = cg.projective_pairing(fixed, curve.gamma)
    np.testing.assert_allclose(qc.qnorm(inner), 1.0, atol=1e-10)


def test_verify_map_flow_kind_guard(rng):
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = zero_state(grid, 1)
    traj = cg.evolve_with_frame(state, "mkdv", 1e-3, 4, transport_refine=2)
    with pytest.raises(DomainError):
        cg.verify_wave_map(traj, idx=2)


def _reference_gauge_fixed(curve, threshold=0.3):
    """The per-point loop gauge_fixed replaced."""
    K, rows, _ = curve.gamma.shape
    out = curve.gamma.copy()
    norms = qc.qnorm(curve.gamma)
    for i in range(K):
        idx = next(
            (l for l in range(rows) if norms[i, l] > threshold), int(np.argmax(norms[i]))
        )
        lam = qc.qconj(curve.gamma[i, idx]) / norms[i, idx]
        out[i] = qc.qmul(curve.gamma[i], lam[None, :])
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauge_fixed_matches_loop_reference(rng, n):
    grid = gcalc.PeriodicGrid(64, 8.0)
    state = random_state(rng, grid, n, amplitude=0.8)
    curve = cg.reconstruct_curve(cg.grid_frame(state, refine=2))
    for threshold in (0.3, 0.9):
        np.testing.assert_array_equal(
            curve.gauge_fixed(threshold), _reference_gauge_fixed(curve, threshold)
        )
    # random unit vectors: at threshold 0.9 some points have no sizable
    # component and take the argmax fallback
    gamma = rng.standard_normal((64, n + 1, 4))
    gamma /= np.sqrt(np.sum(gamma**2, axis=(-1, -2)))[:, None, None]
    scattered = cg.CurveSample(grid, gamma, curve.monodromy)
    if n > 1:
        assert not np.all(np.any(qc.qnorm(gamma) > 0.9, axis=1))
    for threshold in (0.3, 0.9):
        np.testing.assert_array_equal(
            scattered.gauge_fixed(threshold), _reference_gauge_fixed(scattered, threshold)
        )


@pytest.mark.parametrize("n", [1, 2])
def test_extend_with_monodromy_matches_per_point_loop(rng, n):
    grid = gcalc.PeriodicGrid(48, 12.0)
    curve = cg.reconstruct_curve(cg.transport_frame(random_state(rng, grid, n), refine=4))
    Mq = qc.qmat_from_complex(curve.monodromy)
    Mq_inv = qc.qmat_conj_t(Mq)
    for values in (curve.gamma, rng.standard_normal(curve.gamma.shape)):
        for halo in (1, 3):
            right = np.stack([qc.qmatmul(Mq, values[j]) for j in range(halo)])
            left = np.stack([qc.qmatmul(Mq_inv, values[-halo + j]) for j in range(halo)])
            expected = np.concatenate([left, values, right], axis=0)
            out = cg._extend_with_monodromy(values, curve.monodromy, halo)
            assert np.array_equal(out, expected)


def _reference_chordal_distance_matrix(curve):
    """The row loop chordal_distance_matrix used before it was vectorized."""
    g = curve.gamma
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
    curve = cg.reconstruct_curve(cg.grid_frame(state, refine=2))
    D = cg.chordal_distance_matrix(curve)
    assert D.shape == (K, K)
    np.testing.assert_array_equal(D, _reference_chordal_distance_matrix(curve))
