import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow.errors import DomainError, NonlocalityError
from hpflow.symm_lie import chi

from conftest import random_unit_quat, random_unitary


def bandlimited(rng, grid, shape, kmax=5, amplitude=0.4):
    vals = np.zeros((grid.num_points,) + shape)
    base = 2 * np.pi / grid.length
    for k in range(1, kmax + 1):
        a = rng.standard_normal(shape) / k**2
        b = rng.standard_normal(shape) / k**2
        cosk = np.cos(k * base * grid.x).reshape((-1,) + (1,) * len(shape))
        sink = np.sin(k * base * grid.x).reshape((-1,) + (1,) * len(shape))
        vals += amplitude * (cosk * a + sink * b)
    return vals


def random_state(rng, grid, n, amplitude=0.4, kmax=5):
    u = bandlimited(rng, grid, (4,), kmax, amplitude)
    u[:, 0] = 0.0
    bu = bandlimited(rng, grid, (n - 1, 4), kmax, amplitude)
    return bo.make_state(grid, u, bu)


def random_flow(rng, grid, n, amplitude=0.4):
    s = bandlimited(rng, grid, (4,), 5, amplitude)
    s[:, 0] = 0.0
    return bo.make_flow(grid, s, bandlimited(rng, grid, (n - 1, 4), 5, amplitude))


def random_covector(rng, grid, n, amplitude=0.4):
    f = random_flow(rng, grid, n, amplitude)
    return bo.make_covector(grid, f.hs.values, f.hv.values)


def pair_max(p):
    vmax = np.max(np.abs(p.v.values)) if p.v.values.size else 0.0
    return max(np.max(np.abs(p.s.values)), vmax)


def pair_diff(p, q):
    vdiff = (
        np.max(np.abs(p.v.values - q.v.values)) if p.v.values.size else 0.0
    )
    return max(np.max(np.abs(p.s.values - q.s.values)), vdiff)


GRID = gcalc.PeriodicGrid(128, 13.0)


def test_state_requires_imaginary_scalar(rng):
    u = bandlimited(rng, GRID, (4,))
    with pytest.raises(DomainError):
        bo.make_state(GRID, u, np.zeros((GRID.num_points, 1, 4)))


def test_state_accepts_zero_scalar_with_nan_imaginary(rng):
    # Re u == 0 passes whatever the RMS, NaN included; RK4 reports the blow-up
    u = bandlimited(rng, GRID, (4,))
    u[:, 0] = 0.0
    u[3, 2] = np.nan
    state = bo.make_state(GRID, u, np.zeros((GRID.num_points, 1, 4)))
    assert np.isnan(state.u.values[3, 2])


def test_apply_H_exactness(rng):
    # H applied to the state covector gives exactly the x-derivative flow
    for n in (1, 2, 3):
        state = random_state(rng, GRID, n)
        w = bo.make_covector(GRID, state.u.values, state.bu.values)
        out = bo.apply_H(state, w)
        target = bo.state_deriv(state)
        assert pair_diff(out, target) <= 1e-10 * max(1.0, pair_max(target))


def zero_flow(grid, n):
    return bo.make_flow(grid, np.zeros((grid.num_points, 4)), np.zeros((grid.num_points, n - 1, 4)))


def test_apply_H_linearity_zero(rng):
    state = random_state(rng, GRID, 2)
    zero_w = bo.make_covector(
        GRID, np.zeros((GRID.num_points, 4)), np.zeros((GRID.num_points, 1, 4))
    )
    assert pair_max(bo.apply_H(state, zero_w)) == 0.0
    assert pair_max(bo.apply_J(state, zero_flow(GRID, 2))) == 0.0


def test_scalar_reduction_operators(rng):
    # n = 1: H = D_x - C_u D_x^{-1} C_u and J = D_x/4 - A_u D_x^{-1} A_u / 4
    state = random_state(rng, GRID, 1)
    u = state.u.values
    w = random_covector(rng, GRID, 1)
    out = bo.apply_H(state, w, mean_tolerance=np.inf)
    cw = qc.qmul(u, w.ws.values) - qc.qmul(w.ws.values, u)
    inner = gcalc.spectral_antideriv(cw, GRID)
    expected = gcalc.spectral_deriv(w.ws.values, GRID) - (
        qc.qmul(u, inner) - qc.qmul(inner, u)
    )
    assert np.max(np.abs(out.hs.values - expected)) <= 1e-10

    # J applied to u_x gives u_xx/4 - u^3/2
    ux = gcalc.spectral_deriv(u, GRID)
    j = bo.apply_J(state, bo.make_flow(GRID, ux, state.bu.values * 0),
                   h_par_const=float(np.mean(0.5 * qc.qnormsq(u))))
    usq = -qc.qnormsq(u)
    expected = 0.25 * gcalc.spectral_deriv(ux, GRID) - 0.5 * usq[:, None] * u
    assert np.max(np.abs(j.ws.values - expected)) <= 1e-9


def test_H_via_K_and_J_via_K(rng):
    for n in (1, 2, 3):
        state = random_state(rng, GRID, n)
        w = random_covector(rng, GRID, n)
        h = random_flow(rng, GRID, n)
        direct = bo.apply_H(state, w, mean_tolerance=np.inf)
        via_k = bo.apply_H_via_K(state, w, mean_tolerance=np.inf)
        assert pair_diff(direct, via_k) <= 1e-10 * max(1.0, pair_max(direct))
        direct = bo.apply_J(state, h, mean_tolerance=np.inf)
        via_k = bo.apply_J_via_K(state, h, mean_tolerance=np.inf)
        assert pair_diff(direct, via_k) <= 1e-10 * max(1.0, pair_max(direct))


def test_J_via_K_takes_the_bits_of_the_explicit_maps(rng):
    # ad(e)^{-1} sends h_perp (s, v) to m_perp (s/2, -v); -ad(e)^{-1} sends
    # m_perp (s, v) to (s/2, -v)
    for n in (1, 2, 3):
        state = random_state(rng, GRID, n)
        h = random_flow(rng, GRID, n)
        zs, zv = 0.5 * h.hs.values, -h.hv.values
        out_s, out_v = bo.apply_K(state, zs, zv, "mperp", mean_tolerance=np.inf)
        via_k = bo.apply_J_via_K(state, h, mean_tolerance=np.inf)
        assert via_k.ws.values.tobytes() == (0.5 * out_s).tobytes()
        assert via_k.wv.values.tobytes() == (-out_v).tobytes()


def test_K_zero_input(rng):
    state = random_state(rng, GRID, 2)
    zs, zv = bo.apply_K(
        state,
        np.zeros((GRID.num_points, 4)),
        np.zeros((GRID.num_points, 1, 4)),
        "hperp",
    )
    assert np.max(np.abs(zs)) == 0.0 and np.max(np.abs(zv)) == 0.0
    with pytest.raises(DomainError):
        bo.apply_K(state, zs, zv, "bogus")


def test_R_blocks_match_composition(rng):
    for n in (1, 2, 3):
        state = random_state(rng, GRID, n)
        h = random_flow(rng, GRID, n)
        comp = bo.apply_R(state, h, mean_tolerance=np.inf)
        blocks = bo.apply_R_blocks(state, h, mean_tolerance=np.inf)
        assert pair_diff(comp, blocks) <= 1e-9 * max(1.0, pair_max(comp))


def test_R_zero(rng):
    state = random_state(rng, GRID, 2)
    assert pair_max(bo.apply_R(state, zero_flow(GRID, 2))) == 0.0


def test_skew_adjointness(rng):
    for n in (1, 2):
        state = random_state(rng, GRID, n)
        a = random_covector(rng, GRID, n)
        b = random_covector(rng, GRID, n)
        ha = bo.apply_H(state, a, mean_tolerance=np.inf)
        hb = bo.apply_H(state, b, mean_tolerance=np.inf)
        lhs = bo.pairing(a, hb)
        rhs = bo.pairing(b, ha)
        assert abs(lhs + rhs) <= 1e-9 * (1.0 + abs(lhs))
        fa, fb = random_flow(rng, GRID, n), random_flow(rng, GRID, n)
        ja = bo.apply_J(state, fa, mean_tolerance=np.inf)
        jb = bo.apply_J(state, fb, mean_tolerance=np.inf)
        lhs = bo.pairing(fa, jb)
        rhs = bo.pairing(fb, ja)
        assert abs(lhs + rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_equivariance(rng):
    # H, J, R commute with the rigid U(1,H) x U(n-1,H) action
    n = 2
    state = random_state(rng, GRID, n)
    a = random_unit_quat(rng)
    A = random_unitary(rng, n - 1)

    w = random_covector(rng, GRID, n)
    lhs = bo.equivalence_action_pair(a, A, bo.apply_H(state, w, mean_tolerance=np.inf))
    rhs = bo.apply_H(
        bo.equivalence_action_pair(a, A, state),
        bo.equivalence_action_pair(a, A, w),
        mean_tolerance=np.inf,
    )
    assert pair_diff(lhs, rhs) <= 1e-10 * max(1.0, pair_max(lhs))

    h = random_flow(rng, GRID, n)
    lhs = bo.equivalence_action_pair(a, A, bo.apply_J(state, h, mean_tolerance=np.inf))
    rhs = bo.apply_J(
        bo.equivalence_action_pair(a, A, state),
        bo.equivalence_action_pair(a, A, h),
        mean_tolerance=np.inf,
    )
    assert pair_diff(lhs, rhs) <= 1e-10 * max(1.0, pair_max(lhs))

    lhs = bo.equivalence_action_pair(a, A, bo.apply_R(state, h, mean_tolerance=np.inf))
    rhs = bo.apply_R(
        bo.equivalence_action_pair(a, A, state),
        bo.equivalence_action_pair(a, A, h),
        mean_tolerance=np.inf,
    )
    assert pair_diff(lhs, rhs) <= 1e-10 * max(1.0, pair_max(lhs))


def test_hierarchy_level_zero(rng):
    state = random_state(rng, GRID, 2)
    h0 = bo.hierarchy_flow(state, 0)
    target = bo.state_deriv(state)
    assert pair_diff(h0, target) == 0.0


def test_hierarchy_scalar_reduction_mkdv(rng):
    # n = 1 jet hierarchy: R(u_x) = u_3x/4 - (3/2) u^2 u_x
    state = random_state(rng, GRID, 1, amplitude=0.5)
    u = state.u.values
    h1 = bo.hierarchy_flow(state, 1)
    u3 = gcalc.spectral_deriv(u, GRID, order=3)
    ux = gcalc.spectral_deriv(u, GRID)
    usq = -qc.qnormsq(u)
    expected = 0.25 * u3 - 1.5 * usq[:, None] * ux
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(h1.hs.values - expected)) <= 1e-8 * scale


def test_hierarchy_scaling_covariance(rng):
    # u -> u(x/lam)/lam on the stretched grid scales h_(l) by lam^-(2+2l)
    lam = 2.0
    n = 2
    state = random_state(rng, GRID, n)
    grid2 = gcalc.PeriodicGrid(GRID.num_points, lam * GRID.length)
    state2 = bo.make_state(grid2, state.u.values / lam, state.bu.values / lam)
    for l in (0, 1, 2):
        h = bo.hierarchy_flow(state, l)
        h2 = bo.hierarchy_flow(state2, l)
        factor = lam ** (2.0 + 2.0 * l)
        assert (
            pair_diff(bo.make_flow(GRID, factor * h2.hs.values, factor * h2.hv.values), h)
            <= 1e-8 * max(1.0, pair_max(h))
        )


def test_hierarchy_nonlocality_reported_with_level(rng):
    # level 3 needs jet constants that have no closed form; the failure is
    # reported, never silently fixed
    state = random_state(rng, GRID, 2)
    with pytest.raises(NonlocalityError) as exc:
        bo.hierarchy_flow(state, 3)
    assert exc.value.hierarchy_level == 3


def test_density_identity(rng):
    # hamiltonian_density(l) = h_parallel(hierarchy_flow(l)) / (1 + 2l)
    state = random_state(rng, GRID, 2)
    for l in (0, 1):
        dens = bo.hamiltonian_density(state, l)
        hpar = bo.h_parallel(state, bo.hierarchy_flow(state, l))
        assert np.max(np.abs(dens.values - hpar.values / (1 + 2 * l))) <= 1e-9


def test_density_matches_local_up_to_exact_derivative(rng):
    # the recursion density equals the closed-form local density up to an
    # exact x-derivative (known explicitly at l = 1) and the zero-mean shift
    state = random_state(rng, GRID, 2)
    u, bu = state.arrays()
    ux = gcalc.spectral_deriv(u, GRID)
    bux = gcalc.spectral_deriv(bu, GRID)
    corrections = {
        0: np.zeros(GRID.num_points),
        1: gcalc.spectral_deriv(
            (1.0 / 12.0) * np.sum(u[:, 1:] * ux[:, 1:], axis=-1)
            + (1.0 / 3.0) * qc.vec_dot(bu, bux),
            GRID,
        ),
    }
    for l in (0, 1):
        dens = bo.hamiltonian_density(state, l)
        local = bo.hamiltonian_local_density(state, l).values + corrections[l]
        expected = local - np.mean(local)
        assert np.max(np.abs(dens.values - expected)) <= 1e-9 * max(
            1.0, np.max(np.abs(local))
        )
        # and the integrals agree exactly: the correction integrates to zero
        assert abs(gcalc.integrate(dens)) <= 1e-12


def test_h_parallel_level0(rng):
    # h_par for (u_x, bu_x) is |u|^2/2 + |bu|^2/2 up to the zero-mean shift
    state = random_state(rng, GRID, 2)
    hpar = bo.h_parallel(state, bo.state_deriv(state))
    local = 0.5 * qc.qnormsq(state.u.values) + 0.5 * qc.vec_normsq(state.bu.values)
    expected = local - np.mean(local)
    assert np.max(np.abs(hpar.values - expected)) <= 1e-10
    # zero flow gives zero h_par
    z = bo.h_parallel(state, zero_flow(GRID, 2))
    assert np.max(np.abs(z.values)) == 0.0


def test_hamiltonian_zero_state():
    state = bo.make_state(
        GRID, np.zeros((GRID.num_points, 4)), np.zeros((GRID.num_points, 1, 4))
    )
    assert bo.hamiltonian_value(state, 0) == 0.0
    assert np.max(np.abs(bo.hamiltonian_density(state, 0).values)) == 0.0


def test_fd_gradient_level0(rng):
    grid = gcalc.PeriodicGrid(32, 7.0)
    state = random_state(rng, grid, 2, amplitude=0.5, kmax=3)
    grad = bo.variational_derivative_fd(bo.HierarchyFunctional(0), state)
    assert np.max(np.abs(grad.ws.values - state.u.values)) <= 1e-6
    assert np.max(np.abs(grad.wv.values - state.bu.values)) <= 1e-6


def test_fd_gradient_level1_matches_adjoint_recursion(rng):
    grid = gcalc.PeriodicGrid(32, 7.0)
    state = random_state(rng, grid, 2, amplitude=0.5, kmax=3)
    grad = bo.variational_derivative_fd(bo.HierarchyFunctional(1), state)
    w1 = bo.hierarchy_covector(state, 1)
    assert np.max(np.abs(grad.ws.values - w1.ws.values)) <= 1e-6
    assert np.max(np.abs(grad.wv.values - w1.wv.values)) <= 1e-6


def test_fd_gradient_zero_state():
    grid = gcalc.PeriodicGrid(32, 7.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 1, 4)))
    grad = bo.variational_derivative_fd(bo.HierarchyFunctional(0), state)
    assert np.max(np.abs(grad.ws.values)) <= 1e-12
    assert np.max(np.abs(grad.wv.values)) <= 1e-12


def _per_probe_fd_gradient(functional, state, eps=1e-5):
    """The oracle as one functional call per +-probe, the batched oracle's reference."""
    grid = state.grid
    N = grid.num_points
    m = state.n - 1
    step = eps * max(state.rms(), 1.0)
    u0 = state.u.values
    bu0 = state.bu.values

    def value(uv, bv):
        return functional(bo.make_state(grid, uv, bv))

    ws = np.zeros((N, 4))
    for comp in range(1, 4):
        for i in range(N):
            up = u0.copy()
            up[i, comp] += step
            um = u0.copy()
            um[i, comp] -= step
            ws[i, comp] = (value(up, bu0) - value(um, bu0)) / (2 * step) / grid.dx
    wv = np.zeros((N, m, 4))
    for l in range(m):
        for comp in range(4):
            for i in range(N):
                bp = bu0.copy()
                bp[i, l, comp] += step
                bm = bu0.copy()
                bm[i, l, comp] -= step
                wv[i, l, comp] = (value(u0, bp) - value(u0, bm)) / (2 * step) / grid.dx
    return ws, wv


@pytest.mark.parametrize("N", [32, 31])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("l", [0, 1])
def test_fd_gradient_equals_per_probe_loop(rng, N, n, l):
    grid = gcalc.PeriodicGrid(N, 7.0)
    f = bo.HierarchyFunctional(l)
    zero = bo.make_state(grid, np.zeros((N, 4)), np.zeros((N, n - 1, 4)))
    for state in (random_state(rng, grid, n, amplitude=0.5, kmax=3), zero):
        grad = bo.variational_derivative_fd(f, state)
        ws, wv = _per_probe_fd_gradient(f, state)
        assert np.array_equal(grad.ws.values, ws)
        assert np.array_equal(grad.wv.values, wv)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("l", [0, 1])
def test_functional_values_equal_hamiltonian_value_per_state(rng, n, l):
    grid = gcalc.PeriodicGrid(32, 7.0)
    states = [random_state(rng, grid, n, amplitude=0.5, kmax=3) for _ in range(5)]
    u = np.stack([s.u.values for s in states], axis=1)
    bu = np.stack([s.bu.values for s in states], axis=1)
    vals = bo.HierarchyFunctional(l).values(u, bu, grid)
    assert vals.shape == (5,)
    assert vals.tolist() == [bo.hamiltonian_value(s, l) for s in states]


def test_fd_gradient_needs_batched_values(rng):
    grid = gcalc.PeriodicGrid(32, 7.0)
    state = random_state(rng, grid, 2, amplitude=0.5, kmax=3)
    with pytest.raises(DomainError, match="values"):
        bo.variational_derivative_fd(lambda s: bo.hamiltonian_value(s, 0), state)


def test_poisson_bracket_antisymmetry_and_involution(rng):
    state = random_state(rng, GRID, 2)
    f0, f1 = bo.HierarchyFunctional(0), bo.HierarchyFunctional(1)
    selfbr = bo.poisson_bracket(state, f0, f0)
    assert abs(selfbr) <= 1e-10
    br = bo.poisson_bracket(state, f0, f1)
    scale = abs(f1(state)) + 1.0
    assert abs(br) <= 1e-8 * scale
    ba = bo.poisson_bracket(state, f1, f0)
    assert abs(br + ba) <= 1e-8 * scale


def test_symplectic_pairing_skew(rng):
    state = random_state(rng, GRID, 2)
    X1 = random_flow(rng, GRID, 2)
    X2 = random_flow(rng, GRID, 2)
    a = bo.symplectic_pairing(state, X1, X2, mean_tolerance=np.inf)
    b = bo.symplectic_pairing(state, X2, X1, mean_tolerance=np.inf)
    assert abs(a + b) <= 1e-9 * (1 + abs(a))
    assert abs(bo.symplectic_pairing(state, X1, X1, mean_tolerance=np.inf)) <= 1e-9


def test_symplectic_closure(rng):
    grid = gcalc.PeriodicGrid(64, 9.0)
    state = random_state(rng, grid, 2, amplitude=0.3)
    X1, X2, X3 = (random_flow(rng, grid, 2, amplitude=0.3) for _ in range(3))
    res = bo.symplectic_closure_residual(state, X1, X2, X3)
    assert abs(res) <= 1e-7


def test_commuting_flows(rng):
    # [h_(0), h_(1)] = 0 as vector fields, via finite differences
    grid = gcalc.PeriodicGrid(64, 9.0)
    state = random_state(rng, grid, 2, amplitude=0.3, kmax=3)
    eps = 1e-5

    def flow1(s):
        return bo.hierarchy_flow(s, 1)

    def shift(s, p, e):
        return bo.make_state(
            grid, s.u.values + e * qc.qim(p.hs.values), s.bu.values + e * p.hv.values
        )

    h0 = bo.state_deriv(state)
    h1 = flow1(state)
    d_h1_along_h0 = bo.make_flow(
        grid,
        (flow1(shift(state, h0, eps)).hs.values - flow1(shift(state, h0, -eps)).hs.values)
        / (2 * eps),
        (flow1(shift(state, h0, eps)).hv.values - flow1(shift(state, h0, -eps)).hv.values)
        / (2 * eps),
    )
    # the derivative of the linear flow h_(0) along h_(1) is just D_x h_(1)
    d_h0_along_h1 = bo.make_flow(
        grid,
        gcalc.spectral_deriv(h1.hs.values, grid),
        gcalc.spectral_deriv(h1.hv.values, grid),
    )
    assert pair_diff(d_h1_along_h0, d_h0_along_h1) <= 1e-7 * max(
        1.0, pair_max(d_h0_along_h1)
    )


def test_nonlocality_error_names_block(rng):
    state = random_state(rng, GRID, 2)
    w = random_covector(rng, GRID, 2)
    # a generic covector has non-total-derivative integrands
    with pytest.raises(NonlocalityError) as exc:
        bo.apply_H(state, w, mean_tolerance=1e-12)
    assert exc.value.block in ("w_parallel", "W_parallel")


def test_hierarchy_rejects_negative_level(rng):
    state = random_state(rng, GRID, 1)
    with pytest.raises(DomainError):
        bo.hierarchy_flows(state, -1)
