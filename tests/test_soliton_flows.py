import math
from collections.abc import Mapping

import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow import symm_lie as sl
from hpflow.errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
)
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
    for dt, t_end in ((float("nan"), 1.0), (1e-4, float("inf")), (1e-4, float("nan"))):
        with pytest.raises(ConfigError, match="finite"):
            sf.SimConfig(n=1, grid=grid, dt=dt, t_end=t_end)
    for fraction in (0.0, -1.0, 1.5):
        with pytest.raises(ConfigError, match="project_fraction"):
            sf.SimConfig(n=1, grid=grid, dt=1e-4, t_end=1.0, project_fraction=fraction)
    # a NaN or infinite constant would switch the dispersive bound off; on every flow
    for flow in ("mkdv", "sg"):
        for c in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
            with pytest.raises(ConfigError, match="cfl_constant"):
                sf.SimConfig(n=1, grid=grid, dt=1e-4, t_end=1.0, flow=flow, cfl_constant=c)
    cfg = sf.SimConfig(n=1, grid=grid, dt=1e-4, t_end=0.0)
    assert cfg.cfl_constant == sf.DEFAULT_CFL_CONSTANT


def test_simconfig_and_x_solve_reject_refine_below_1():
    grid = gcalc.PeriodicGrid(64, 10.0)
    state = sf.preset_sg_kink(grid, 1)
    for refine in (0, -4):
        with pytest.raises(ConfigError, match="sg_refine"):
            sf.SimConfig(n=1, grid=grid, dt=1e-3, t_end=0.0, flow="sg", sg_refine=refine)
        with pytest.raises(DomainError, match="refine"):
            sf.sg_solve_h(state, refine=refine)


def test_simconfig_hierarchy_level_bound():
    grid = gcalc.PeriodicGrid(64, 10.0)
    # dt = 1e-2 at level 2 blows up in RK4; it must be rejected, naming the level
    with pytest.raises(ConfigError, match=r"hierarchy level 2 .* dx\^5"):
        sf.SimConfig(
            n=2, grid=grid, dt=1e-2, t_end=1.0, flow="hierarchy", hierarchy_level=2
        )
    for l in (0, 1, 2):
        bound = sf.DEFAULT_CFL_CONSTANT * grid.dx ** (2 * l + 1)
        sf.SimConfig(n=1, grid=grid, dt=bound, t_end=0.0, flow="hierarchy", hierarchy_level=l)
        with pytest.raises(ConfigError, match=f"hierarchy level {l} "):
            sf.SimConfig(
                n=1, grid=grid, dt=1.01 * bound, t_end=0.0, flow="hierarchy",
                hierarchy_level=l,
            )
    # at l = 1 the bound is the mKdV one
    mkdv_bound = sf.DEFAULT_CFL_CONSTANT * grid.dx**3
    sf.SimConfig(n=1, grid=grid, dt=mkdv_bound, t_end=0.0, flow="mkdv")
    with pytest.raises(ConfigError, match=r"dx\^3"):
        sf.SimConfig(n=1, grid=grid, dt=1.01 * mkdv_bound, t_end=0.0, flow="mkdv")
    for kind in sf.FLOWS:  # every kind refuses a negative level
        with pytest.raises(ConfigError, match="level must be >= 0"):
            sf.SimConfig(n=1, grid=grid, dt=1e-6, t_end=0.0, flow=kind, hierarchy_level=-1)


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


def _six_transform_derivs(state):
    """u's and bu's derivatives of orders 1, 2 and 3: one spectral_deriv call
    per field and order, or the packed derivatives a stage state carries."""
    grid = state.grid
    u, bu = state.arrays()
    if state.x_derivs is None:
        return tuple(gcalc.spectral_deriv(f, grid, p) for f in (u, bu) for p in (1, 2, 3))
    if bu.shape[1]:
        ux, u2, u3 = state.x_derivs[:, :, :4]
        bux, bu2, bu3 = state.x_derivs[:, :, 4:].reshape((3,) + bu.shape)
        return ux, u2, u3, bux, bu2, bu3
    # orders 1 and 3: u_2x enters only the coupling terms, empty here
    ux, u3 = state.x_derivs
    return ux, np.zeros_like(ux), u3, bu, bu, bu


def _galilean(state, out_s, out_v, ux, bux, galilean_removed):
    if not galilean_removed:
        c = 1.0 / chi(state.n)
        out_s = out_s + c * ux
        out_v = out_v + c * bux
    return bo.make_flow(state.grid, out_s, out_v)


def _componentwise_mkdv_rhs(state, galilean_removed=True):
    """The right side by the componentwise qmul formulas, the association
    mkdv_rhs had before its n >= 2 coupling went through one-pass products."""
    u, bu = state.arrays()
    ux, u2, u3, bux, bu2, bu3 = _six_transform_derivs(state)
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
    return _galilean(state, out_s, out_v, ux, bux, galilean_removed)


def _component_major(mats):
    """Per-point matrices (N, k, r) with the same values, stored point axis
    innermost, as quat_core lays out its gathered factors: np.matmul then
    multiplies them in its own loop, and rounds as there."""
    return np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)


def _reference_mkdv_rhs(state, galilean_removed=True):
    """Six-transform right side.  n = 1 by the componentwise formulas; n >= 2
    in the association of mkdv_rhs's one-pass coupling, written out through
    L(q) matrices: each matrix product has the operand shapes and layout of
    mkdv_rhs's, so it rounds as there."""
    u, bu = state.arrays()
    N, m = bu.shape[:2]
    if not m:
        return _componentwise_mkdv_rhs(state, galilean_removed)
    ux, u2, u3, bux, bu2, bu3 = _six_transform_derivs(state)
    unormsq = qc.qnormsq(u)
    businormsq = np.sum(bu * bu, axis=(1, 2))
    # the real (4m, 3) matrix a point taking y to Im C(bu, y) = 2 Im sum_l bu_l conj(y_l)
    to_im_c = 2.0 * (qc.left_mult_matrix(bu)[:, :, 1:, :] * [1.0, -1.0, -1.0, -1.0])
    to_im_c = np.swapaxes(to_im_c, 2, 3).reshape(N, 4 * m, 3)
    cvecs = np.stack([bux, bu2], axis=1).reshape(N, 2, 4 * m) @ _component_major(to_im_c)
    cvec = cvecs[:, 0]
    # Im C(u, c) for imaginary c, as a row vector times (L(u) - R(u))^t
    to_im_cu = np.swapaxes(qc.left_mult_matrix(u) - qc.right_mult_matrix(u), 1, 2)
    coupled = (cvec[:, None, :] @ _component_major(to_im_cu[:, 1:, 1:]))[:, 0]
    out_s = 0.25 * u3 + 1.5 * unormsq[:, None] * ux
    out_s[:, 1:] += 0.75 * (coupled + cvecs[:, 1])
    fac1 = ux.copy()
    fac1[:, 0] = ux[:, 0] + (businormsq + unormsq)
    fac2 = u * (2.0 * businormsq)[:, None]
    fac2[:, 0] = fac2[:, 0] + 2.0 * np.sum(u[:, 1:] * ux[:, 1:], axis=-1)
    fac2[:, 1:] = fac2[:, 1:] - cvec
    fac2 = fac2 + u2
    # the stacked L(fac)^t, (N, 8, 4), against the rows [bu_x | bu]
    facs = np.stack([1.5 * fac1, 0.75 * fac2], axis=1)
    to_v = np.swapaxes(qc.left_mult_matrix(facs), 2, 3).reshape(N, 8, 4)
    out_v = bu3 + np.concatenate([bux, bu], axis=2) @ _component_major(to_v)
    return _galilean(state, out_s, out_v, ux, bux, galilean_removed)


def _masked_spectrum_derivs(values, grid, fraction, orders):
    """x-derivatives of the dealiased values, each order its own inverse
    transform of the masked spectrum."""
    F = np.fft.rfft(values, axis=0)
    F[grid.dealias_cut(fraction):] = 0.0
    return np.stack([
        np.fft.irfft(F * grid.deriv_symbols((p,), values.shape[1:])[0], n=grid.num_points, axis=0)
        for p in orders
    ])


def _reference_step_rk4(state, rhs, dt, project_fraction):
    """RK4 that validates each stage twice and dealiases u and bu separately;
    each dealiased stage, and the result, carries the derivatives of its
    masked spectrum."""
    grid = state.grid
    N, m = state.bu.values.shape[:2]
    orders = sf._mkdv_orders(m)

    def project(s):
        u, bu = s.arrays()
        u = u.copy()
        u[:, 0] = 0.0
        derivs = None
        if project_fraction is not None:
            derivs = _masked_spectrum_derivs(u, grid, project_fraction, orders)
            if m:
                bu_derivs = _masked_spectrum_derivs(bu, grid, project_fraction, orders)
                derivs = np.concatenate([derivs, bu_derivs.reshape(3, N, -1)], axis=2)
            u = gcalc.dealias_values(u, grid, project_fraction)
            bu = gcalc.dealias_values(bu, grid, project_fraction)
            u[:, 0] = 0.0
        out = bo.make_state(grid, u, bu)
        out.x_derivs = derivs
        return out

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


@pytest.mark.parametrize("N", [64, 127, 128])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("galilean_removed", [True, False])
def test_mkdv_rhs_near_the_componentwise_formulas(N, n, galilean_removed):
    # the one-pass coupling against the componentwise qmul formulas, on a
    # plain state and on one that carries its derivatives.  Measured: at most
    # 5.9e-16 max|h| (2.6 ulp of 1) over 20 seeds of these cases; bound 1e-15
    grid = gcalc.PeriodicGrid(N, 20.0)
    for seed in range(3):
        state = sf.preset_random_band(grid, n, seed=seed, amplitude=0.4)
        stepped = sf.step_rk4(state, sf.mkdv_rhs, 5e-4, project_fraction=2 / 3)
        for s in (state, stepped):
            want = _componentwise_mkdv_rhs(s, galilean_removed)
            got = sf.mkdv_rhs(s, galilean_removed)
            assert _relative_distance(got, want) <= 1e-15


def _stacked_state(states):
    """One state whose rows are the states' rows, one after another, each
    carrying the derivatives of its own transform."""
    grid = gcalc.PeriodicGrid(sum(s.grid.num_points for s in states), 20.0)
    out = bo.make_state(
        grid,
        np.concatenate([s.u.values for s in states]),
        np.concatenate([s.bu.values for s in states]),
    )
    out.x_derivs = np.concatenate([s.x_derivs for s in states], axis=1)
    return out


@pytest.mark.parametrize("galilean_removed", [True, False])
def test_mkdv_rhs_stacked_rows_equal_single_calls(galilean_removed):
    # a row has the bits of its own call: the coupling of states stacked
    # row after row gives each state's rows bit for bit
    for n in (2, 3):
        states = []
        for i, N in enumerate((64, 127, 128, 64)):
            grid = gcalc.PeriodicGrid(N, 20.0)
            s = sf.preset_random_band(grid, n, seed=30 + i, amplitude=0.4)
            states.append(sf.step_rk4(s, sf.mkdv_rhs, 5e-4, project_fraction=2 / 3))
        stacked = sf.mkdv_rhs(_stacked_state(states), galilean_removed)
        start = 0
        for s in states:
            single = sf.mkdv_rhs(s, galilean_removed)
            rows = slice(start, start + s.grid.num_points)
            assert np.array_equal(stacked.hs.values[rows], single.hs.values)
            assert np.array_equal(stacked.hv.values[rows], single.hv.values)
            start = rows.stop


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fraction", [2 / 3, None])
def test_step_rk4_matches_two_projection_reference(n, fraction, N=128):
    grid = gcalc.PeriodicGrid(N, 20.0)
    dt = 5e-4
    fused = ref = sf.preset_random_band(grid, n, seed=10 + n, amplitude=0.4)
    for i in range(5):
        fused = sf.step_rk4(fused, sf.mkdv_rhs, dt, i * dt, project_fraction=fraction)
        ref = _reference_step_rk4(ref, _reference_mkdv_rhs, dt, fraction)
    assert_pairs_identical(fused, ref)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fraction", [2 / 3, None])
def test_step_rk4_matches_two_projection_reference_odd_grid(n, fraction):
    # the packed stages against the reference where N odd has no Nyquist mode
    test_step_rk4_matches_two_projection_reference(n, fraction, N=127)


def _nearly_imaginary_state(grid, n):
    """A state make_state accepts whose scalar's real part is not exactly 0."""
    state = sf.preset_random_band(grid, n, seed=20 + n, amplitude=0.4)
    u = state.u.values.copy()
    u[:, 0] = 1e-12 * np.cos(grid.x)
    return bo.make_state(grid, u, state.bu.values)


def test_make_state_checks_keep_their_verdicts():
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = _nearly_imaginary_state(grid, 2)  # Re u at 1e-12 passes
    u, bu = state.u.values, state.bu.values
    # equal grids that are distinct objects pass; distinct grids raise
    twin = gcalc.PeriodicGrid(64, 20.0)
    assert twin is not grid
    pair = bo.StatePair(gcalc.Field(grid, u, "iquat"), gcalc.Field(twin, bu, "qvec"))
    assert pair.grid is grid
    other = gcalc.PeriodicGrid(64, 21.0)
    with pytest.raises(DimensionMismatchError):
        bo.StatePair(gcalc.Field(grid, u, "iquat"), gcalc.Field(other, bu, "qvec"))
    # the scalar's bound is 1e-9 relative to the RMS of u
    rms = state.u.rms()
    for re, ok in ((0.5e-9 * rms, True), (2e-9 * rms, False), (-2e-9 * rms, False)):
        v = u.copy()
        v[7, 0] = re
        if ok:
            bo.make_state(grid, v, bu)
        else:
            with pytest.raises(DomainError, match="imaginary"):
                bo.make_state(grid, v, bu)


def _assert_valid_stage(stage, state):
    """The stage state passes make_state's checks, its scalar exactly imaginary."""
    assert (stage.u.kind, stage.bu.kind) == ("iquat", "qvec")
    assert stage.grid is state.grid and stage.bu.grid is state.grid
    assert stage.u.values.shape == state.u.values.shape
    assert stage.bu.values.shape == state.bu.values.shape
    assert np.all(stage.u.values[:, 0] == 0.0)
    bo.make_state(stage.grid, stage.u.values, stage.bu.values)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fraction", [2 / 3, None])
def test_step_rk4_stage_states_pass_make_state(n, fraction, monkeypatch):
    # the stage and result states skip make_state: each would pass it, and
    # a step makes no make_state call
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = _nearly_imaginary_state(grid, n)
    made = []

    def counting_make_state(*args):
        made.append(bo.make_state(*args))
        return made[-1]

    monkeypatch.setattr(sf, "make_state", counting_make_state)
    for step in range(2):
        seen = []

        def spy(s):
            seen.append(s)
            if len(seen) > 1:
                _assert_valid_stage(s, state)
            return sf.mkdv_rhs(s)

        new = sf.step_rk4(state, spy, 5e-4, step * 5e-4, project_fraction=fraction)
        assert len(seen) == 4 and seen[0] is state
        assert made == []
        _assert_valid_stage(new, state)
        state = new


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_step_stage_states_pass_make_state(n, monkeypatch):
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = _nearly_imaginary_state(grid, n)
    seen = []
    solve = sf.sg_solve_h

    def spy(s, *args):
        seen.append(s)
        if len(seen) > 1:
            _assert_valid_stage(s, state)
        return solve(s, *args)

    monkeypatch.setattr(sf, "sg_solve_h", spy)
    new = sf.sg_step(state, 1e-3, refine=2)
    assert len(seen) == 4 and seen[0] is state
    _assert_valid_stage(new, state)


def _out_of_place_rk4(state, rhs, dt, fraction, stage_derivs=True):
    """RK4 on packed arrays with every operation out of place, in the order of
    the unpacked formulas.  With `stage_derivs`, each dealiased stage and the
    result carry their x-derivatives from their masked spectra, as
    step_rk4's do.  Without, this is the transform-twice stepping: a right
    side transforms the dealiased stage, or the previous step's result,
    again."""
    grid = state.grid
    N, m = state.bu.values.shape[:2]
    orders = sf._mkdv_orders(m) if stage_derivs else ()

    def pack(a, b):
        return np.concatenate([a, b.reshape(N, -1)], axis=1)

    def project(z, orders=()):
        """The stage (or result) with the scalar zeroed before and after the
        transform, and its derivatives when `orders` are given."""
        z = z.copy()
        z[:, 0] = 0.0
        if fraction is None:
            return unpack(z)
        rows = gcalc.dealias_values(z, grid, fraction, orders)
        z = (rows[0] if orders else rows).copy()
        z[:, 0] = 0.0
        return unpack(z, rows[1:] if orders else None)

    def unpack(z, derivs=None):
        s = bo.make_state(grid, z[:, :4], z[:, 4:].reshape(N, m, 4))
        s.x_derivs = derivs
        return s

    def k(s):
        return pack(*rhs(s).arrays())

    y = pack(*state.arrays())
    k1 = k(state)
    k2 = k(project(y + (dt / 2) * k1, orders))
    k3 = k(project(y + (dt / 2) * k2, orders))
    k4 = k(project(y + dt * k3, orders))
    return project(y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), orders)


def _spied(fn):
    """fn, keeping every state it is called with and a copy of its arrays."""
    kept = []

    def spy(s, *args):
        kept.append((s, [a.copy() for a in s.arrays()]))
        return fn(s, *args)

    return spy, kept


def _assert_unchanged(kept):
    for s, copies in kept:
        for a, c in zip(s.arrays(), copies):
            assert np.array_equal(a, c)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fraction", [2 / 3, None])
def test_step_rk4_writes_no_state_or_right_side_array(n, fraction):
    # u_t = u through the stage state's own arrays: an in-place update of a
    # right side's result would also write into the state it was called with
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = _nearly_imaginary_state(grid, n)
    spy, kept = _spied(lambda s: bo.make_flow(s.grid, s.u.values, s.bu.values))
    new = sf.step_rk4(state, spy, 0.1, project_fraction=fraction)
    assert len(kept) == 4 and kept[0][0] is state
    _assert_unchanged(kept)
    ref = _out_of_place_rk4(state, lambda s: bo.make_flow(s.grid, s.u.values, s.bu.values),
                            0.1, fraction)
    assert_pairs_identical(new, ref)
    mkdv = sf.step_rk4(state, sf.mkdv_rhs, 5e-4, project_fraction=fraction)
    assert_pairs_identical(mkdv, _out_of_place_rk4(state, sf.mkdv_rhs, 5e-4, fraction))


def _relative_distance(a, b):
    diff = max(np.max(np.abs(x - y), initial=0.0) for x, y in zip(a.arrays(), b.arrays()))
    return diff / max(np.max(np.abs(y), initial=0.0) for y in b.arrays())


@pytest.mark.parametrize("N", [128, 127])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_rk4_stays_near_the_transform_twice_stepping(N, n):
    # the stage derivatives from the masked spectrum against a right side
    # that transforms the dealiased stage again: roundoff apart, 500 steps on
    grid = gcalc.PeriodicGrid(N, 20.0)
    dt = 5e-4
    new = ref = sf.preset_random_band(grid, n, seed=10 + n, amplitude=0.4)
    for i in range(500):
        new = sf.step_rk4(new, sf.mkdv_rhs, dt, i * dt, project_fraction=2 / 3)
        ref = _out_of_place_rk4(ref, sf.mkdv_rhs, dt, 2 / 3, stage_derivs=False)
    assert _relative_distance(new, ref) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_right_sides_that_read_no_derivatives_step_as_before(n):
    # the stage values are the dealiased values bit for bit, so a right side
    # that ignores the carried derivatives steps as the transform-twice RK4
    grid = gcalc.PeriodicGrid(48, 15.0)
    state = sf.preset_random_band(grid, n, seed=5, amplitude=0.2, kmax=2)
    for rhs in (lambda s: bo.make_flow(s.grid, s.u.values, s.bu.values),
                lambda s: bo.hierarchy_flow(s, 1)):
        new = ref = state
        for i in range(3):
            new = sf.step_rk4(new, rhs, 2e-3, i * 2e-3, project_fraction=2 / 3)
            ref = _out_of_place_rk4(ref, rhs, 2e-3, 2 / 3, stage_derivs=False)
        assert_pairs_identical(new, ref)


@pytest.mark.parametrize(
    "fraction, calls, stepped_calls, transform_twice_calls", [(2 / 3, 10, 8, 16), (None, 8, 8, 8)]
)
def test_mkdv_step_transform_calls(
    monkeypatch, fraction, calls, stepped_calls, transform_twice_calls
):
    # one rfft and one irfft per later stage and for the final projection,
    # and one for the first right side of a step from a plain state: a step
    # from a projected step's result reads that result's derivatives.
    # Unprojected, one pair per right side
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = sf.preset_mkdv_soliton(grid, 1)
    made = []
    for name in ("rfft", "irfft"):
        def spy(*args, _fft=getattr(np.fft, name), **kwargs):
            made.append(1)
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    new = sf.step_rk4(state, sf.mkdv_rhs, 1e-4, project_fraction=fraction)
    assert len(made) == calls
    made.clear()
    sf.step_rk4(new, sf.mkdv_rhs, 1e-4, 1e-4, project_fraction=fraction)
    assert len(made) == stepped_calls
    made.clear()
    _out_of_place_rk4(state, sf.mkdv_rhs, 1e-4, fraction, stage_derivs=False)
    assert len(made) == transform_twice_calls


@pytest.mark.parametrize("N", [128, 127])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_projected_step_result_carries_its_own_derivatives(N, n):
    # the final projection's derivatives are those of the result's values,
    # which the next step's first right side reads in place of a transform
    grid = gcalc.PeriodicGrid(N, 20.0)
    m = n - 1
    state = sf.preset_random_band(grid, n, seed=30 + n, amplitude=0.4)
    first = sf.step_rk4(state, sf.mkdv_rhs, 5e-4, project_fraction=2 / 3)
    first_derivs = first.x_derivs.copy()
    new = sf.step_rk4(first, sf.mkdv_rhs, 5e-4, 5e-4, project_fraction=2 / 3)
    # the input state gains no derivatives, and a stepped one keeps its own
    assert "x_derivs" not in vars(state)
    assert np.array_equal(first.x_derivs, first_derivs)
    # a transform's roundoff in a p-th derivative scales as k_max^p times the
    # values: for p = 3 it reaches about 1e-11 of the derivative itself
    k_max = np.max(np.abs(grid.wavenumbers))
    orders = sf._mkdv_orders(m)
    for s in (first, new):
        packed = sf._pack(*s.arrays())
        ref = gcalc.spectral_deriv(packed, grid, orders)
        assert s.x_derivs.shape == ref.shape
        for p, row, ref_row in zip(orders, s.x_derivs, ref):
            bound = 1e-14 * k_max**p * np.max(np.abs(packed))
            assert np.max(np.abs(row - ref_row)) <= bound
    # an unprojected step carries none
    plain = sf.step_rk4(first, sf.mkdv_rhs, 5e-4, 5e-4, project_fraction=None)
    assert plain.x_derivs is None


@pytest.mark.parametrize("n", [1, 2])
def test_sg_step_writes_no_state_array(n, monkeypatch):
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = _nearly_imaginary_state(grid, n)
    reference_rhs = sf._sg_rhs(n, "-", 2)
    solve = sf.sg_solve_h
    spy, kept = _spied(solve)
    monkeypatch.setattr(sf, "sg_solve_h", spy)
    new = sf.sg_step(state, 1e-3, refine=2)
    assert len(kept) == 4 and kept[0][0] is state
    _assert_unchanged(kept)
    monkeypatch.setattr(sf, "sg_solve_h", solve)
    assert_pairs_identical(new, _out_of_place_rk4(state, reference_rhs, 1e-3, None))


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


def test_rk4_right_side_must_match_the_state(rng):
    grid = gcalc.PeriodicGrid(64, 8.0)
    state = random_state(rng, grid, 1, amplitude=0.3)
    wrong_n = random_state(rng, grid, 2, amplitude=0.3)
    with pytest.raises(DimensionMismatchError, match="shape"):
        sf.step_rk4(state, lambda s: bo.state_deriv(wrong_n), 1e-3)
    other_grid = gcalc.PeriodicGrid(64, 9.0)
    with pytest.raises(DimensionMismatchError, match="lives on"):
        sf.step_rk4(
            state, lambda s: bo.make_flow(other_grid, s.u.values, s.bu.values), 1e-3
        )


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

def _sqrt_form(m):
    """S with z = S y: z = (h_par, h_s/2, h_v), y = (h_par, h_s, h_v)."""
    return np.concatenate([[1.0], 0.5 * np.ones(3), np.ones(4 * m)])


def _z_to_y(T, m):
    """A matrix of the z coordinates as one of the y coordinates, S^-1 T S:
    every factor is a power of two, so the entries are exact."""
    S = _sqrt_form(m)
    return T * S / S[:, None]


def test_sg_system_matrix_is_form_skew(rng):
    # in y the coefficient matrix lies in the orthogonal algebra of the
    # constraint form diag(1, I/4, I)
    for n in (1, 2):
        grid = gcalc.PeriodicGrid(32, 8.0)
        state = random_state(rng, grid, n, amplitude=0.6)
        m = n - 1
        M = _z_to_y(sf.sg_system_matrix(sf._pack(*state.arrays())), m)
        B = np.diag(np.concatenate([[1.0], 0.25 * np.ones(3), np.ones(4 * m)]))
        defect = np.swapaxes(M, -1, -2) @ B + B @ M
        assert np.max(np.abs(defect)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_system_matrix_is_the_paper_x_system(rng, n):
    K, m = 64, n - 1
    state = random_state(rng, gcalc.PeriodicGrid(K, 8.0), n, amplitude=0.6)
    u, bu = state.u.values, state.bu.values
    h_par = rng.standard_normal(K)
    h_s = qc.qim(rng.standard_normal((K, 4)))
    h_v = rng.standard_normal((K, m, 4))
    z = np.concatenate([h_par[:, None], h_s[:, 1:] / 2.0, h_v.reshape(K, -1)], axis=1)
    M = sf.sg_system_matrix(sf._pack(u, bu))
    dz = (M @ z[:, :, None])[:, :, 0]

    def as_z(d_par, d_s, d_v):
        return np.concatenate([d_par[:, None], d_s[:, 1:] / 2.0, d_v.reshape(K, -1)], axis=1)

    # the docstring's system, from quat_core's kernels
    d_s = -qc.comm_C_vec(bu, h_v) - 4.0 * h_par[:, None] * u
    d_v = -0.5 * qc.scalar_vec(h_s, bu) - qc.scalar_vec(u, h_v) - h_par[:, None, None] * bu
    d_par = -0.5 * qc.acomm_A_im(u, h_s) + 0.5 * qc.acomm_A_vec(bu, h_v)
    assert np.max(np.abs(dz - as_z(d_par, d_s, d_v))) <= 1e-13
    # the isotropy action [e_t(y), omega_x], e_t(y) = (h_par, h_s/2, -h_v) in m
    e_t = sl.LieElement(n, m_par=h_par, m_perp=sl.MPerp(h_s / 2.0, -h_v))
    ad = sl.bracket(e_t, sl.LieElement(n, h_perp=sl.HPerp(u, bu)))
    assert np.max(np.abs(dz - as_z(ad.m_par, 2.0 * ad.m_perp.s, -ad.m_perp.v))) <= 1e-13
    # skew bit for bit; at n = 1 the closed form's L(a) + R(a), a = -Im u
    assert np.array_equal(M, -np.swapaxes(M, -1, -2))
    if n == 1:
        a = -qc.qim(u)
        assert np.array_equal(M, qc.left_mult_matrix(a) + qc.right_mult_matrix(a))


def _hand_system_matrix(u, bu):
    """The x-system's matrix in z laid out by hand, block by block, from
    quat_core's L and R matrices: the reference for the table product."""
    K = u.shape[0]
    m = bu.shape[1]
    d = 4 + 4 * m
    M = np.zeros((K, d, d))
    # h_par row: 2 dot3(u, z_s) + sum_l dot4(bu_l, h_v_l)
    M[:, 0, 1:4] = 2.0 * u[:, 1:4]
    if m:
        Lu = qc.left_mult_matrix(u)
    for l in range(m):
        c0 = 4 + 4 * l
        M[:, 0, c0 : c0 + 4] = bu[:, l, :]
        M[:, c0 : c0 + 4, 0] = -bu[:, l, :]
        # h_s-h_v coupling: -h_s bu / 2 = -R(bu_l) z_s, -C(bu, h_v) / 2 = R(bu_l)^T h_v_l
        Rb = qc.right_mult_matrix(bu[:, l, :])[:, :, 1:4]
        M[:, c0 : c0 + 4, 1:4] = -Rb
        M[:, 1:4, c0 : c0 + 4] = np.swapaxes(Rb, 1, 2)
        M[:, c0 : c0 + 4, c0 : c0 + 4] -= Lu
    M[:, 1:4, 0] = -2.0 * u[:, 1:4]
    return M


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_system_matrix_equals_the_hand_layout(rng, n):
    # the table from symm_lie.bracket holds 0, +-1 and +-2 only, so its
    # product is the hand layout bit for bit
    state = random_state(rng, gcalc.PeriodicGrid(64, 8.0), n, amplitude=0.6)
    table = sf._system_table(n)
    assert set(np.unique(table)) <= {-2.0, -1.0, 0.0, 1.0, 2.0}
    assert not table[0].any()  # u's real column has weight zero
    M = sf.sg_system_matrix(sf._pack(*state.arrays()))
    assert np.array_equal(M, _hand_system_matrix(*state.arrays()))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("branch, sign", [("+", 1.0), ("-", -1.0)])
def test_sg_zero_state_constant_h(n, branch, sign):
    # no transfer moves the boundary value: h is the branch's h_par axis
    grid = gcalc.PeriodicGrid(32, 8.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, n - 1, 4)))
    h, h_par, info = sf.sg_solve_h(state, branch=branch)
    assert np.max(np.abs(h.hs.values)) == 0.0
    assert np.max(np.abs(h.hv.values), initial=0.0) == 0.0
    np.testing.assert_allclose(h_par.values, sign * chi(n), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_constraint_preserved(rng, n):
    grid = gcalc.PeriodicGrid(64, 16.0)
    state = sf.preset_sg_kink(grid, n=n, a=1.0)
    h, h_par, info = sf.sg_solve_h(state, branch="-", refine=4)
    # structure preservation: constant along x to near roundoff
    assert info["constraint_max_dev"] <= 1e-8 * info["constraint_target"]
    # pointwise value is chi^2
    np.testing.assert_allclose(info["constraint"], chi(n) ** 2, rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_line_solve_branches_are_negatives(rng, n):
    # the x-system is linear and the two branches start from (+chi, 0, ...)
    # and (-chi, 0, ...): their solutions are negatives bit for bit
    state = random_state(rng, gcalc.PeriodicGrid(64, 16.0), n, amplitude=0.5)
    h_p, h_par_p, info_p = sf.sg_solve_h(state, "+")
    h_m, h_par_m, info_m = sf.sg_solve_h(state, "-")
    np.testing.assert_array_equal(info_p["boundary"], np.eye(4 * n)[0] * chi(n))
    np.testing.assert_array_equal(info_m["boundary"], -info_p["boundary"])
    np.testing.assert_array_equal(h_par_m.values, -h_par_p.values)
    np.testing.assert_array_equal(h_m.hs.values, -h_p.hs.values)
    np.testing.assert_array_equal(h_m.hv.values, -h_p.hv.values)
    np.testing.assert_array_equal(info_m["constraint"], info_p["constraint"])


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


@pytest.mark.parametrize("n", [2, 3])
def test_sg_vector_channel_kink_is_exact(n):
    # u = 0, bu = 2a sech(a(x - x0) + t/a) e in slot 0 is an exact -1-flow
    # solution (h_v . e = chi sin Psi, Psi = int f = 2 pi): the x-system's h_v
    # rows carry it.  The error, 2.9e-9 at n = 2 and 3, is the same at dt
    # 1e-2, 5e-3 and 2.5e-3 and at refine 4, 8 and 16: it is the kink's tail
    # cut at the seam, 1.2e-7 at L = 32 and 6.9e-11 at L = 48.
    grid = gcalc.PeriodicGrid(256, 40.0)
    a, x0, t_end = 1.0, grid.length / 2, 0.1
    e = np.array([0.0, 0.6, 0.0, 0.8])

    def kink(t):
        bu = np.zeros((256, n - 1, 4))
        bu[:, 0] = (2.0 * a / np.cosh(a * (grid.x - x0) + t / a))[:, None] * e
        return bu

    state = bo.make_state(grid, np.zeros((256, 4)), kink(0.0))
    config = sf.SimConfig(n=n, grid=grid, dt=5e-3, t_end=t_end, flow="sg", sg_refine=8)
    traj = sf.run_flow(config, state)
    final = traj.states[-1]
    assert traj.times[-1] == t_end
    assert np.max(np.abs(final.bu.values - kink(t_end))) <= 1e-8
    assert np.max(np.abs(final.u.values)) <= 1e-15
    assert traj.x_solve[2]["seam_mismatch"] <= 2e-7


@pytest.mark.parametrize("n, profile", [(2, "v"), (3, "v"), (2, "u")])
def test_mkdv_vector_channel_soliton_is_exact(n, profile):
    # u = 0, bu = 2k sech(k(x - x0 + k^2 t)) e in slot 0 is an exact +1-flow
    # solution: bu's channel is mKdV with no 1/4 in front of f_xxx, carried
    # by mkdv_rhs's gather-engine couplings.  It reads 1.6e-7 at n = 2 and 3,
    # u staying 0 to 2.3e-15; the u channel's profile of the same amplitude,
    # 2k sech(2k(x - x0 + k^2 t)), placed in bu, misses by 0.26.  The error is
    # the same at half the dt and at twice N: it is the soliton's tail cut at
    # the seam, 6.9e-6 at L = 30 and 3.8e-9 at L = 50 (n = 2, same dx).
    grid = gcalc.PeriodicGrid(256, 40.0)
    k, x0, t_end = 0.75, grid.length / 2, 0.1
    e = np.array([0.0, 0.6, 0.0, 0.8])

    def soliton(t):
        bu = np.zeros((256, n - 1, 4))
        if profile == "v":
            bu[:, 0] = (2.0 * k / np.cosh(k * (grid.x - x0 + k * k * t)))[:, None] * e
        else:
            bu[:, 0] = sf.mkdv_soliton_profile(grid, 2.0 * k, x0, t)[:, None] * e
        return bu

    state = bo.make_state(grid, np.zeros((256, 4)), soliton(0.0))
    config = sf.SimConfig(n=n, grid=grid, dt=0.04 * grid.dx**3, t_end=t_end, flow="mkdv")
    traj = sf.run_flow(config, state)
    final = traj.states[-1]
    assert traj.times[-1] == t_end
    error = np.max(np.abs(final.bu.values - soliton(t_end)))
    if profile == "v":
        assert error <= 1e-6
        assert np.max(np.abs(final.u.values)) <= 1e-14
    else:
        assert error >= 1e-3


@pytest.mark.parametrize("n, channel", [(1, "u"), (2, "u"), (2, "v"), (3, "v")])
def test_J_sends_the_minus_one_flow_to_a_multiple_of_the_state(n, channel):
    # the -1 flow sits one level below h_(0) = u_x: J h_(-1) = k (u, bu) on the
    # kink-antikink, which is no travelling wave, psi = 4 arctan((e^eta1 -
    # e^eta2) / (1 + a12 e^(eta1 + eta2))).  The part orthogonal to (u, bu)
    # reads 3.1e-7 (u channel) and 7.8e-7 (v channel); J(u_x) leaves 0.11 and
    # 0.28.  k is set by J's D_x^{-1} constant c, not by the data: k(c) =
    # c - mean(h_par), 20, 26.667 and 33.333 at c = 0 for n = 1, 2, 3.
    grid = gcalc.PeriodicGrid(256, 40.0)
    k, c = np.array([1.0, 1.5]), np.array([-1.0, 1.5])
    a12 = ((k[0] - k[1]) / (k[0] + k[1])) ** 2
    e1, e2 = np.exp(k[:, None] * (grid.x - grid.length / 2) + c[:, None])
    psi_x = gcalc.spectral_deriv(4.0 * np.arctan((e1 - e2) / (1.0 + a12 * e1 * e2)), grid)
    u, bu = np.zeros((256, 4)), np.zeros((256, n - 1, 4))
    if channel == "u":
        u[:, 1] = 0.5 * psi_x
    else:
        bu[:, 0] = psi_x[:, None] * [0.0, 0.6, 0.0, 0.8]
    state, s = bo.make_state(grid, u, bu), sf._pack(u, bu)
    h, h_par, _ = sf.sg_solve_h(state)
    mean = float(np.mean(h_par.values))

    def fit(flow, const):  # the multiple of (u, bu) in J flow, and the part orthogonal to it
        Jh = sf._pack(*bo.apply_J(state, flow, mean_tolerance=np.inf, h_par_const=const).arrays())
        multiple = np.sum(Jh * s) / np.sum(s * s)
        orthogonal = np.max(np.abs(Jh - multiple * s))
        return multiple, orthogonal / (np.max(np.abs(sf._pack(*flow.arrays()))) * np.max(np.abs(s)))

    for const in (0.0, chi(n)):
        multiple, orthogonal = fit(h, const)
        assert orthogonal <= 2e-6
        assert abs(multiple - (const - mean)) <= 1e-9 * abs(const - mean)
    # at c = mean(h_par), J's h_par is the solve's and the multiple vanishes
    assert abs(fit(h, mean)[0]) <= 1e-8
    j_h_par = bo.h_parallel(state, h, np.inf, mean).values
    assert np.max(np.abs(j_h_par - h_par.values)) <= 1e-6 * chi(n)
    u_x = bo.make_flow(grid, gcalc.spectral_deriv(u, grid), gcalc.spectral_deriv(bu, grid))
    assert fit(u_x, 0.0)[1] >= 1e-2


def test_sg_zero_state_stays_zero():
    grid = gcalc.PeriodicGrid(32, 8.0)
    state = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 0, 4)))
    out = sf.sg_step(state, 0.01, branch="-")
    assert np.max(np.abs(out.u.values)) == 0.0


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


def test_prefix_products_every_is_full_scan_rows(rng):
    for K in (0, 1, 2, 5, 8, 13, 2048):
        real = rng.standard_normal((K, 4, 4)) / 2.0
        cplx = (real + 1j * rng.standard_normal((K, 4, 4)) / 2.0) / np.sqrt(2.0)
        for T in (real, cplx):
            full = sf.prefix_products(T)
            for every in (1, 2, 3, 4, 6, 8):
                assert np.array_equal(sf.prefix_products(T, every), full[::every])


def _full_scan(T):
    """The doubling scan over every cell, each level building its identity."""
    K, d = T.shape[0], T.shape[1]
    eye = np.broadcast_to(np.eye(d, dtype=T.dtype), (1, d, d))
    if K == 0:
        return eye.copy()
    if K == 1:
        return np.concatenate([eye, T[:1]], axis=0)
    even = T[0::2]
    paired = T[1::2] @ even[: K // 2]
    sub = _full_scan(paired)
    out = np.empty((K + 1, d, d), dtype=T.dtype)
    out[0::2] = sub[: (K // 2) + 1]
    out[1::2] = even @ sub[: (K + 1) // 2]
    return out


def _x_solve_data(data, rng, n):
    """Random data on L = 16, or the kink on L = 40."""
    if data == "random":
        return random_state(rng, gcalc.PeriodicGrid(64, 16.0), n, amplitude=0.5)
    return sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n)


# |solution rows - full 4 x 4 scan of the fine cells| / chi at n = 1: at most
# 8.4e-15 in z and 1.5e-14 in (h_par, h_s, h_v) over a sweep of 20 random
# states (L = 16), kinks a = 0.8..2 (N = 128 and 256, L = 40) and 5
# amplitude-3 bands, refine 2, 4 and 8; pairing the cells' real components
# in place of complex pairs read 7.9e-15 and 1.5e-14 on the same sweep
N1_PAIRED_SCAN_TOL = 2e-14


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("data", ["random", "kink"])
def test_sg_solve_h_strided_scan_matches_full_scan(rng, n, data):
    # the x-solve reads prefix_products' rows of the grid transfers: the
    # refine * N fine cells at n >= 2, whose full scan gives those rows bit
    # for bit, and the N grid cells of paired unit quaternions at n = 1,
    # within roundoff of the full scan of the fine cells' 4 x 4 transfers
    state = _x_solve_data(data, rng, n)
    h, h_par, info = sf.sg_solve_h(
        state, "-", 8, richardson_check=True, richardson_tol=1.0
    )
    N, m = state.grid.num_points, state.n - 1
    y0 = info["boundary"]
    # the transfers carry z = S y; the solution is read back in y
    S = _sqrt_form(m)

    def rows(refine):
        T, every = sf._sg_grid_transfers(state, refine)
        assert T.shape[0] == N * every
        assert every == (refine if n > 1 else 1)
        return (sf.prefix_products(T, every)[:N] @ (S * y0)) / S

    y = rows(8)
    assert np.array_equal(h_par.values, y[:, 0])
    assert np.array_equal(h.hs.values[:, 1:], y[:, 1:4])
    assert np.array_equal(h.hv.values, y[:, 4:].reshape(N, m, 4))
    y_c = rows(4)
    assert info["richardson_error"] == float(np.max(np.abs(y - y_c))) / 15.0
    assert np.array_equal(y0, np.eye(4 + 4 * m)[0] * -chi(state.n))
    for refine, y_r in ((8, y), (4, y_c)):
        if n > 1:
            full = _full_scan(sf._sg_transfers_generic(state, refine))
            assert np.array_equal(y_r, (full[: refine * N : refine] @ (S * y0)) / S)
        else:
            full = _full_scan(_reference_fine_transfers(state, refine))
            y_full = (full[: refine * N : refine] @ (S * y0)) / S
            assert np.max(np.abs(y_r - y_full)) <= N1_PAIRED_SCAN_TOL * chi(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_solve_h_reports_the_seam_mismatch(n):
    # |P_N z0 - z0| / chi, from the monodromy row of the solve's scan: the
    # a = 1 kink on L = 40 closes to 1.7e-8 at every n, and the kink with u
    # scaled by 1.01, not a whole turn, misses by 6.3e-2 (ROADMAP item 4)
    grid = gcalc.PeriodicGrid(256, 40.0)
    kink = sf.preset_sg_kink(grid, n)
    z0 = -chi(n) * np.eye(4 * n)[0]
    for scale, expected in ((1.0, 1.65e-8), (1.01, 6.28e-2)):
        state = bo.make_state(grid, scale * kink.u.values, kink.bu.values)
        mismatch = sf.sg_solve_h(state)[2]["seam_mismatch"]
        assert mismatch == pytest.approx(expected, rel=0.01)
        monodromy = sf.prefix_products(*sf._sg_grid_transfers(state, 8))[-1]
        direct = float(np.sqrt(np.sum((monodromy @ z0 - z0) ** 2))) / chi(n)
        assert mismatch == pytest.approx(direct, rel=1e-12)
    zero = bo.make_state(grid, np.zeros((256, 4)), np.zeros((256, n - 1, 4)))
    assert sf.sg_solve_h(zero)[2]["seam_mismatch"] == 0.0


def _eager_info(state, branch, refine, richardson_check):
    """sg_solve_h's info formed in full from the solve's scan, as a dict."""
    N, c = state.grid.num_points, chi(state.n)
    z0 = np.zeros(4 * state.n)
    z0[0] = c if branch == "+" else -c
    prefixes = sf.prefix_products(*sf._sg_grid_transfers(state, refine))
    z = prefixes[:N] @ z0
    constraint = np.sum(z * z, axis=-1)
    info = {
        "constraint": constraint,
        "constraint_target": c**2,
        "constraint_max_dev": float(np.max(np.abs(constraint - np.sum(z0 * z0)))),
        "boundary": sf._readout(z0),
        "seam_mismatch": math.dist(prefixes[N] @ z0, z0) / c,
    }
    if richardson_check:
        coarse = sf.prefix_products(*sf._sg_grid_transfers(state, refine // 2))
        y, y_c = sf._readout(z), sf._readout(coarse[:N] @ z0)
        info["richardson_error"] = float(np.max(np.abs(y - y_c))) / 15.0
    return info


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("branch", ["+", "-"])
@pytest.mark.parametrize("richardson_check", [False, True])
def test_sg_solve_h_forms_its_info_on_read(monkeypatch, n, branch, richardson_check):
    # a solve whose info is never read forms no constraint; read, the info is
    # a Mapping with the eager report's keys, in order, and its values
    state = sf.preset_sg_kink(gcalc.PeriodicGrid(64, 16.0), n)
    formed = []
    constraint = sf._sg_constraint

    def spy(z):
        formed.append(z.shape)
        return constraint(z)

    monkeypatch.setattr(sf, "_sg_constraint", spy)
    _, _, info = sf.sg_solve_h(state, branch, 4, richardson_check=richardson_check)
    assert formed == []
    assert isinstance(info, Mapping) and not isinstance(info, dict)
    expected = _eager_info(state, branch, 4, richardson_check)
    assert len(info) == len(expected)
    assert list(info) == list(expected)
    assert all(key in info for key in expected) and "bogus" not in info
    assert info.get("bogus") is None and info.get("bogus", 0) == 0
    with pytest.raises(KeyError):
        info["bogus"]
    assert formed == []
    first = info["constraint"]
    assert formed == [(64, 4 * n)]
    assert info["constraint"] is first and info.get("constraint") is first
    got = dict(info)
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key
    assert formed == [(64, 4 * n), (4 * n,)]  # constraint_max_dev's |z0|^2
    assert dict(info.items()) == got and list(info.keys()) == list(got)


def test_sg_steps_form_no_x_solve_info(monkeypatch):
    # an RK4 step's stages discard their solves' info: nothing of it is formed
    formed = []
    monkeypatch.setattr(sf, "_sg_constraint", lambda z: formed.append(z) or np.sum(z * z, -1))
    kink = sf.preset_sg_kink(gcalc.PeriodicGrid(64, 16.0), 1)
    sf.sg_step(sf.sg_step(kink, 1e-3, refine=2), 1e-3, refine=2)
    assert formed == []
    sf.sg_step(kink, 1e-3, refine=2, on_state_solve=lambda info: info["constraint"])
    assert len(formed) == 1


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


def test_run_flow_rejects_a_config_for_another_state():
    # a config on N = 32 would check the dispersive bound on the wrong grid
    grid = gcalc.PeriodicGrid(256, 10.0)
    state = sf.preset_mkdv_soliton(grid, 1)
    for n, cfg_grid in ((1, gcalc.PeriodicGrid(32, 10.0)), (2, grid)):
        cfg = sf.SimConfig(n=n, grid=cfg_grid, dt=1e-6, t_end=1e-5)
        with pytest.raises(DimensionMismatchError, match=f"n = {n} on .* n = 1 on "):
            sf.run_flow(cfg, state)


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


# -- group exponential ------------------------------------------------------------

def _reference_expm_form_skew(Omega, sqrt_form):
    """The eigh exponential the x-solve used before the Taylor one."""
    sym = sqrt_form[None, :, None] * Omega / sqrt_form[None, None, :]
    lam, V = np.linalg.eigh(1j * sym)
    exp_sym = (V * np.exp(-1j * lam)[:, None, :]) @ np.conj(np.swapaxes(V, -1, -2))
    exp_sym = exp_sym.real
    return exp_sym * sqrt_form[None, None, :] / sqrt_form[None, :, None]


def _reference_expm_antihermitian(Z):
    """The eigh exponential frame transport used before the Taylor one."""
    lam, V = np.linalg.eigh(1j * Z)
    return (V * np.exp(-1j * lam)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def _random_skew(rng, shape, norm, complex_=False):
    """Batch of skew (anti-Hermitian) matrices whose largest Frobenius norm is `norm`."""
    A = rng.standard_normal(shape)
    if complex_:
        A = A + 1j * rng.standard_normal(shape)
    Z = A - np.conj(np.swapaxes(A, -1, -2))
    return Z * (norm / np.max(np.linalg.norm(Z, axis=(-2, -1))))


def _defect(E):
    eye = np.eye(E.shape[-1])
    return float(np.max(np.abs(E @ np.conj(np.swapaxes(E, -1, -2)) - eye)))


NORMS = [0.05, 0.3, 2.0, 20.0]  # the last two take the squaring branch


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("norm", NORMS)
def test_expm_form_skew_matches_eigh_reference(rng, m, norm):
    sqrt_form = _sqrt_form(m)
    sym = _random_skew(rng, (64, 4 + 4 * m, 4 + 4 * m), norm)
    Omega = sym * sqrt_form[None, None, :] / sqrt_form[None, :, None]
    E = sf.expm_antihermitian(sqrt_form[:, None] * Omega / sqrt_form)
    assert E.dtype == np.float64
    assert _defect(E) <= 1e-13
    T = E * sqrt_form / sqrt_form[:, None]
    assert np.max(np.abs(T - _reference_expm_form_skew(Omega, sqrt_form))) <= 1e-12


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("norm", NORMS)
def test_expm_antihermitian_matches_eigh_reference(rng, d, norm):
    Z = _random_skew(rng, (64, d, d), norm, complex_=True)
    E = sf.expm_antihermitian(Z)
    assert E.dtype == np.complex128
    assert _defect(E) <= 1e-13
    assert np.max(np.abs(E - _reference_expm_antihermitian(Z))) <= 1e-12


def test_expm_antihermitian_non_finite_input():
    for bad in (np.inf, np.nan):
        Z = np.zeros((3, 4, 4))
        Z[1, 0, 2], Z[1, 2, 0] = bad, -bad
        with np.errstate(invalid="ignore", over="ignore"):
            E = sf.expm_antihermitian(Z)
        assert not np.all(np.isfinite(E))


def test_expm_antihermitian_zero_and_unbatched():
    eye = np.broadcast_to(np.eye(5), (2, 5, 5))
    np.testing.assert_array_equal(sf.expm_antihermitian(np.zeros((2, 5, 5))), eye)
    Z = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rot = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    assert np.max(np.abs(sf.expm_antihermitian(Z) - rot)) <= 1e-15


def _reference_expm_real(Z):
    """The eigh exponential in expm_antihermitian's place."""
    return _reference_expm_antihermitian(Z).real


def _unit_pairs(state, refine):
    """The n = 1 fine cells' unit quaternion pairs (p, conj q), as complex
    pairs (2, 2, K)."""
    return sf._unit_exp(sf._sg_cell_generators(state, refine))


def _components(pairs):
    """The real components (4, ...) of complex pairs (2, ...), exactly."""
    return np.stack([pairs.real, pairs.imag], axis=1).reshape((4,) + pairs.shape[1:])


def _fine_transfers(state, refine):
    """The x-solve's 4 x 4 transfers of the refine * N fine cells: the n = 1
    cells' unit quaternion pairs as transfers, or the generic build."""
    if state.n == 1:
        return sf._pair_transfers(_unit_pairs(state, refine))
    return sf._sg_transfers_generic(state, refine)


def _solve_through_the_generic_builder(monkeypatch):
    """Make every x-solve scan the generic builder's fine cells, n = 1 too.
    Returns the refines the builder was called with, which a test checks, so
    a reference that did not go through it cannot pass for one."""
    built = []
    generic = sf._sg_transfers_generic

    def spy(state, refine):
        built.append(refine)
        return generic(state, refine)

    def grid_transfers(state, refine):
        return sf._sg_transfers_generic(state, refine), refine

    monkeypatch.setattr(sf, "_sg_transfers_generic", spy)
    monkeypatch.setattr(sf, "_sg_grid_transfers", grid_transfers)
    return built


@pytest.mark.parametrize("n", [1, 2])
def test_sg_transfers_and_monodromy_match_eigh_reference(rng, monkeypatch, n):
    state = random_state(rng, gcalc.PeriodicGrid(64, 16.0), n, amplitude=0.5)
    T = _fine_transfers(state, 8)
    # the monodromy, the last row of the solve's scan
    mono = sf.prefix_products(*sf._sg_grid_transfers(state, 8))[-1]
    # the reference is the generic builder with the eigh exponential, for n = 1 too
    built = _solve_through_the_generic_builder(monkeypatch)
    monkeypatch.setattr(sf, "expm_antihermitian", _reference_expm_real)
    T_ref = sf._sg_transfers_generic(state, 8)
    assert np.max(np.abs(T - T_ref)) <= 1e-13
    mono_ref = sf.prefix_products(*sf._sg_grid_transfers(state, 8))[-1]
    assert built == [8, 8]
    assert np.max(np.abs(mono - mono_ref)) <= 1e-12


def _solve_outputs(state):
    h, h_par, info = sf.sg_solve_h(state, "-")
    return (h.hs.values, h.hv.values, h_par.values, info["boundary"])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("data", ["random", "kink"])
def test_sg_solve_h_matches_eigh_reference(rng, monkeypatch, n, data):
    state = _x_solve_data(data, rng, n)
    new = _solve_outputs(state)
    built = _solve_through_the_generic_builder(monkeypatch)
    monkeypatch.setattr(sf, "expm_antihermitian", _reference_expm_real)
    ref = _solve_outputs(state)
    assert built == [8]
    for a, b in zip(new, ref):
        # the solution has size chi; the tolerance is 1e-12 relative to it
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * chi(n)


@pytest.mark.parametrize("n", [1, 2])
def test_sg_step_nan_raises_blowup(n):
    grid = gcalc.PeriodicGrid(64, 16.0)
    kink = sf.preset_sg_kink(grid, n=n)
    u = kink.u.values.copy()
    u[5, 1] = np.nan
    state = bo.make_state(grid, u, kink.bu.values)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(BlowUpError) as exc:
            sf.sg_step(state, 1e-3, t=0.5)
    assert exc.value.time == pytest.approx(0.501)


# -- run_flow time bookkeeping ---------------------------------------------------

def test_step_plan():
    assert sf._step_plan(0.0025, 1e-3) == (2, pytest.approx(5e-4))
    assert sf._step_plan(0.1, 5e-3) == (20, 0.0)
    assert sf._step_plan(0.3, 0.1) == (3, 0.0)  # 0.3 / 0.1 = 2.9999999999999996
    assert sf._step_plan(0.07, 0.01) == (7, 0.0)  # 0.07 / 0.01 = 7.000000000000001
    assert sf._step_plan(0.0, 1e-3) == (0, 0.0)


def _small_mkdv_run(t_end, dt):
    grid = gcalc.PeriodicGrid(32, 20.0)
    cfg = sf.SimConfig(n=1, grid=grid, dt=dt, t_end=t_end, flow="mkdv")
    state = sf.preset_random_band(grid, n=1, seed=4, amplitude=0.2, kmax=3)
    return cfg, state, sf.run_flow(cfg, state)


def test_run_flow_reaches_t_end_with_a_short_step():
    cfg, state, traj = _small_mkdv_run(0.0025, 1e-3)
    assert traj.times == [0.0, 1e-3, 2e-3, 0.0025]
    direct = state
    for dt in (1e-3, 1e-3, 0.0025 - 2e-3):
        direct = sf.step_rk4(
            direct, lambda s: sf.mkdv_rhs(s), dt, project_fraction=cfg.project_fraction
        )
    assert_pairs_identical(traj.states[-1], direct)


def test_run_flow_dividing_t_end_keeps_full_steps():
    _, _, traj = _small_mkdv_run(0.1, 5e-3)
    assert len(traj.times) == 21
    assert traj.times == [k * 5e-3 for k in range(21)]


# -- n = 1 closed-form transfers ---------------------------------------------------

BENCH_GRID = gcalc.PeriodicGrid(256, 40.0)
N1_STATES = {
    "kink_a1": lambda: sf.preset_sg_kink(BENCH_GRID, 1, a=1.0),
    "kink_a1.25": lambda: sf.preset_sg_kink(BENCH_GRID, 1, a=1.25),
    "band_0.3": lambda: sf.preset_random_band(BENCH_GRID, 1, seed=7, amplitude=0.3),
    # amplitude 3 gives cell Omegas past theta: the Taylor path squares
    "band_3": lambda: sf.preset_random_band(BENCH_GRID, 1, seed=7, amplitude=3.0),
}


def _form_defect(T, m):
    B = np.diag(_sqrt_form(m) ** 2)
    return float(np.max(np.abs(np.swapaxes(T, -1, -2) @ B @ T - B)))


@pytest.mark.parametrize("name", list(N1_STATES))
@pytest.mark.parametrize("refine", [2, 4, 8])
def test_n1_transfers_match_generic_builder(name, refine):
    state = N1_STATES[name]()
    T = _fine_transfers(state, refine)
    T_gen = sf._sg_transfers_generic(state, refine)
    assert T.shape == T_gen.shape == (256 * refine, 4, 4)
    assert np.max(np.abs(T - T_gen)) <= 1e-14
    assert _form_defect(_z_to_y(T, 0), 0) <= 1e-14


def test_n1_large_band_takes_the_squaring_branch(monkeypatch):
    # guards the comment on N1_STATES: at amplitude 3 the generic builder
    # finds cell Omegas past theta, so the Taylor exponential squares
    norms = []
    squarings = sf._expm_squarings

    def spy(norm):
        norms.append(norm)
        return squarings(norm)

    monkeypatch.setattr(sf, "_expm_squarings", spy)
    sf._sg_transfers_generic(N1_STATES["band_3"](), 2)
    assert norms[0] > sf._EXPM_THETA
    assert squarings(norms[0]) > 0


def test_n1_zero_state_gives_identity_transfers_exactly():
    grid = gcalc.PeriodicGrid(32, 8.0)
    zero = bo.make_state(grid, np.zeros((32, 4)), np.zeros((32, 0, 4)))
    with np.errstate(all="raise"):  # no 0/0 in sin(r)/r
        pq = _components(_unit_pairs(zero, 4))
        T, every = sf._sg_grid_transfers(zero, 4)
    np.testing.assert_array_equal(pq, np.broadcast_to(np.eye(4)[:, :1, None], (4, 2, 128)))
    np.testing.assert_array_equal(T, np.broadcast_to(np.eye(4), (32, 4, 4)))
    assert every == 1


def _solve_all_outputs(state, **kw):
    """Outputs of sg_solve_h with their scale: chi for the solution, chi^2 for
    the constraint, and the Richardson estimate when it is reported."""
    h, h_par, info = sf.sg_solve_h(state, "-", **kw)
    c = chi(state.n)
    out = [
        (h.hs.values, c),
        (h_par.values, c),
        (info["boundary"], c),
        (info["constraint"], c**2),
    ]
    if "richardson_error" in info:
        out.append((info["richardson_error"], c))
    return out


def _short_kink():
    """The n = 1 kink on a 64-point grid of length 16, not N1_STATES' 256 and 40."""
    return sf.preset_sg_kink(gcalc.PeriodicGrid(64, 16.0), 1)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("kink_a1", {}),
        ("band_0.3", {}),
        ("band_3", {"refine": 4}),
        ("kink_a1", {"richardson_check": True}),
        ("kink_a1.25", {}),
        ("kink_a1.25", {"richardson_check": True}),
        ("kink_L16", {}),
        ("kink_L16", {"refine": 4}),
        ("kink_a1", {"refine": 1}),
        ("kink_a1", {"refine": 3}),
        ("kink_a1.25", {"refine": 4, "richardson_check": True}),
        ("band_3", {"refine": 3}),
    ],
)
def test_n1_sg_solve_h_matches_generic_path(monkeypatch, name, kw):
    state = {**N1_STATES, "kink_L16": _short_kink}[name]()
    new = _solve_all_outputs(state, **kw)
    built = _solve_through_the_generic_builder(monkeypatch)
    ref = _solve_all_outputs(state, **kw)
    refine = kw.get("refine", 8)
    assert built == ([refine, refine // 2] if kw.get("richardson_check") else [refine])
    assert len(new) == len(ref)
    for (a, scale), (b, _) in zip(new, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def _kink_with(value, n):
    grid = gcalc.PeriodicGrid(64, 16.0)
    kink = sf.preset_sg_kink(grid, n=n)
    u = kink.u.values.copy()
    u[5, 1] = value
    return bo.make_state(grid, u, kink.bu.values)


@pytest.mark.parametrize("n", [1, 2])
def test_sg_inf_state_raises_the_nan_errors(n):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(BlowUpError) as exc:
            sf.sg_step(_kink_with(np.inf, n), 1e-3, t=0.5)
        assert exc.value.time == pytest.approx(0.501)


def _whole_array_transfers(M, h, scale=None):
    """Magnus-4 transfers from M at the 2K fine points: the generators of all
    K cells built at once, then exponentiated by one expm_antihermitian call
    per block of magnus4_transfers' size (from _BLOCK_BYTES, d and dtype)."""
    M0 = M[0::2]
    Mmid = M[1::2]
    M1 = np.roll(M0, -1, axis=0)
    comm = Mmid @ (M1 - M0) - (M1 - M0) @ Mmid
    Omega = (h / 6.0) * (M0 + 4.0 * Mmid + M1) - (h**2 / 12.0) * comm
    if scale is not None:
        Omega = scale[:, None] * Omega / scale
    K, d = Omega.shape[0], Omega.shape[-1]
    step = max(1, sf._BLOCK_BYTES // (d * d * Omega.itemsize))
    E = np.concatenate([sf.expm_antihermitian(Omega[i : i + step]) for i in range(0, K, step)])
    return E if scale is None else E * scale / scale[:, None]


def _reference_sg_transfers(state, refine):
    """The transfer builder every n used before the n = 1 closed form, in
    y = (h_par, h_s, h_v), where the system is skew for the form S^2."""
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    m = state.n - 1
    M = _z_to_y(_hand_system_matrix(u_f, bu_f), m)
    return _whole_array_transfers(M, grid.dx / refine, _sqrt_form(m))


def cells_per_block(monkeypatch, cells, d, dtype=float):
    """Make magnus4_transfers take `cells` cells of (d, d) matrices a block."""
    monkeypatch.setattr(sf, "_BLOCK_BYTES", cells * d * d * np.dtype(dtype).itemsize)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("refine", [1, 2, 3, 8])
@pytest.mark.parametrize("block", [None, 7])
def test_blocked_sg_transfers_equal_the_whole_array_build(monkeypatch, n, refine, block):
    # N = 45 is odd, and 7 cells a block divide none of K = 45, 90, 135, 360;
    # at refine 1 the cells' Omegas pass theta, so the blocks square
    state = sf.preset_random_band(gcalc.PeriodicGrid(45, 20.0), n, seed=11, amplitude=0.8)
    if block:
        cells_per_block(monkeypatch, block, 4 + 4 * (n - 1))
    T = sf._sg_transfers_generic(state, refine)
    assert np.array_equal(_z_to_y(T, n - 1), _reference_sg_transfers(state, refine))


def _linear_skew_system(rng, F, d):
    """A random linear system of F fields: a skew table whose every entry above
    the diagonal is one random field times a random +-1 or +-2, so each
    matrix entry is a field times a power of two, as in the x-systems."""
    table = np.zeros((F, d, d))
    rows, cols = np.triu_indices(d, 1)
    weights = rng.choice([-2.0, -1.0, 1.0, 2.0], len(rows))
    fields = rng.integers(0, F, len(rows))
    table[fields, rows, cols] = weights
    table[fields, cols, rows] = -weights
    table = table.reshape(F, d * d)
    return lambda f: (f @ table).reshape(len(f), d, d)


def test_magnus4_transfers_square_each_block_by_its_own_norm(monkeypatch, rng):
    # one block of large cells: it squares, and the small cells' blocks keep
    # their own count
    K, F, d, h = 45, 6, 8, 0.01
    system = _linear_skew_system(rng, F, d)
    fields = rng.standard_normal((2 * K, F))
    fields[29:42:2] *= 400.0  # the midpoints of cells 14..20, block 2 of 7 cells
    M = system(fields)
    cells_per_block(monkeypatch, 7, d)
    norms, max_norm = [], sf._max_norm
    monkeypatch.setattr(sf, "_max_norm", lambda Z: norms.append(len(Z)) or max_norm(Z))
    T = sf.magnus4_transfers(fields, system, h)
    assert norms == [7, 7, 7, 7, 7, 7, 3]  # each block's norm is taken once
    monkeypatch.setattr(sf, "_max_norm", max_norm)
    assert np.array_equal(T, _whole_array_transfers(M, h))
    # cells 0..7 alone, in blocks of 7: the first block is cells 0..6 on their own
    small = _whole_array_transfers(M[:16], h)[:7]
    assert sf._expm_squarings(sf._max_norm(M[1:14:2] * h)) == 0
    assert sf._expm_squarings(sf._max_norm(M[29:42:2] * h)) > 0
    assert np.array_equal(T[:7], small)


def test_magnus4_transfers_zero_and_non_finite_input(monkeypatch, rng):
    K, F, d = 45, 6, 8
    system = _linear_skew_system(rng, F, d)
    cells_per_block(monkeypatch, 7, d)
    zero = sf.magnus4_transfers(np.zeros((2 * K, F)), system, 0.1)
    np.testing.assert_array_equal(zero, np.broadcast_to(np.eye(d), (K, d, d)))
    # a NaN at fine point 60 is an end of cells 29 and 30: their transfers
    # are non-finite, the others finite, as in the whole-array build
    fields = rng.standard_normal((2 * K, F))
    fields[60, 2] = np.nan
    with np.errstate(invalid="ignore"):
        T = sf.magnus4_transfers(fields, system, 0.1)
        ref = _whole_array_transfers(system(fields), 0.1)
    finite = np.all(np.isfinite(T), axis=(-2, -1))
    assert np.flatnonzero(~finite).tolist() == [29, 30]
    assert np.array_equal(finite, np.all(np.isfinite(ref), axis=(-2, -1)))


@pytest.mark.parametrize("amplitude", [0.3, 3.0])
def test_n2_transfers_unchanged(amplitude):
    state = sf.preset_random_band(BENCH_GRID, 2, seed=7, amplitude=amplitude)
    for refine in (2, 8):
        T, every = sf._sg_grid_transfers(state, refine)
        assert every == refine
        np.testing.assert_array_equal(_z_to_y(T, 1), _reference_sg_transfers(state, refine))


# -- n = 1 transfers and -1-flow monitoring, bit for bit ---------------------------

def _reference_unit_exp(A):
    r = np.sqrt(np.sum(A * A, axis=0))
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    return np.concatenate([np.cos(r)[None], sinc * A])


def _reference_quaternion_transfers(state, refine):
    """The unit quaternions p and q, each (4, K), of the fine cells' transfers
    z -> p z q, as the n = 1 closed-form builder formed them before its
    component-major single pass: the refine along the grid axis, strided ends
    and midpoints, out-of-place Simpson and cross terms, and one exponential
    per unit quaternion."""
    grid = state.grid
    fine = 2 * refine
    F = np.fft.rfft(state.u.values[:, 1:], axis=0)
    n_fine = grid.num_points * fine
    pad = np.zeros((n_fine // 2 + 1, 3), dtype=complex)
    pad[: F.shape[0]] = F
    if grid.num_points % 2 == 0:
        pad[F.shape[0] - 1] *= 0.5
    fine_im_u = np.fft.irfft(pad, n=n_fine, axis=0) * fine
    a = -np.ascontiguousarray(fine_im_u.T)
    a0 = a[:, 0::2]
    am = a[:, 1::2]
    a1 = np.concatenate([a0[:, 1:], a0[:, :1]], axis=1)
    h = grid.dx / refine
    simpson = (h / 6.0) * (a0 + 4.0 * am + a1)
    d = a1 - a0
    cross = (h**2 / 6.0) * np.stack(
        [am[1] * d[2] - am[2] * d[1], am[2] * d[0] - am[0] * d[2], am[0] * d[1] - am[1] * d[0]]
    )
    return _reference_unit_exp(simpson - cross), _reference_unit_exp(simpson + cross)


def _reference_fine_transfers(state, refine):
    """The (K, 4, 4) transfers L(p) R(q) of the reference unit quaternions,
    formed as the n = 1 builder formed them before its cells were paired:
    row 4a + b of the table is L(e_a) R(e_b)."""
    p, q = _reference_quaternion_transfers(state, refine)
    table = qc.left_mult_matrix(np.eye(4))[:, None] @ qc.right_mult_matrix(np.eye(4))[None, :]
    pairs = (p[:, None] * q[None, :]).reshape(16, -1)
    return (pairs.T @ table.reshape(16, 16)).reshape(-1, 4, 4)


ODD_GRID = gcalc.PeriodicGrid(255, 40.0)
N1_BIT_STATES = {
    **N1_STATES,
    "odd_kink_a1.25": lambda: sf.preset_sg_kink(ODD_GRID, 1, a=1.25),
    "odd_band_3": lambda: sf.preset_random_band(ODD_GRID, 1, seed=7, amplitude=3.0),
    "zero_L8": lambda: bo.make_state(
        gcalc.PeriodicGrid(32, 8.0), np.zeros((32, 4)), np.zeros((32, 0, 4))
    ),
}


@pytest.mark.parametrize("name", list(N1_BIT_STATES))
@pytest.mark.parametrize("refine", [1, 2, 3, 4, 8])
def test_n1_transfers_equal_the_out_of_place_builder(name, refine):
    # each fine cell's pair (p, conj q), before any pairing of cells
    state = N1_BIT_STATES[name]()
    pq = _components(_unit_pairs(state, refine))
    p, q = _reference_quaternion_transfers(state, refine)
    assert pq.shape == (4, 2, state.grid.num_points * refine)
    # bits, signed zeros included
    assert np.array_equal(pq[:, 0].view(np.uint64), p.view(np.uint64))
    assert np.array_equal(pq[:, 1].view(np.uint64), qc.qconj(q.T).T.view(np.uint64))


@pytest.mark.parametrize("name", list(N1_BIT_STATES))
@pytest.mark.parametrize("refine", [1, 3, 5])
def test_n1_odd_refine_solve_is_the_real_transfer_scan_bit_for_bit(name, refine):
    # an odd refine pairs no cells: the solution is the full scan of the fine
    # cells' real 4 x 4 transfers, as the out-of-place builder forms them,
    # read at the grid points, bit for bit
    state = N1_BIT_STATES[name]()
    N = state.grid.num_points
    h, h_par, info = sf.sg_solve_h(state, "-", refine)
    z0 = np.array([-chi(1), 0.0, 0.0, 0.0])
    full = _full_scan(_reference_fine_transfers(state, refine))
    z = full[: refine * N + 1 : refine] @ z0
    assert h_par.values.tobytes() == z[:N, 0].tobytes()
    assert h.hs.values[:, 1:].tobytes() == (2.0 * z[:N, 1:]).tobytes()
    assert info["seam_mismatch"] == math.dist(z[N], z0) / chi(1)


def test_unit_exp_equals_the_np_sum_form_bit_for_bit(rng):
    A = rng.standard_normal((3, 64)) * 10.0 ** rng.integers(-200, 3, 64)
    A[:, :4] = 0.0
    A[:, 4:8] = -0.0
    A[1, 8] = 1e-170  # r^2 underflows to 0: the quotient is not formed there
    for B in (A, A[:, 8:], np.abs(A[:, 8:])):  # with and without r = 0
        assert np.array_equal(
            _components(sf._unit_exp(B)).view(np.uint64),
            _reference_unit_exp(B).view(np.uint64),
        )


def _sg_run(cadence, steps, n=1):
    grid = gcalc.PeriodicGrid(64, 40.0)
    cfg = sf.SimConfig(
        n=n, grid=grid, dt=2e-3, t_end=steps * 2e-3, flow="sg", sg_refine=2, cadence=cadence
    )
    return cfg, sf.preset_sg_kink(grid, n)


SG_RUNS = [(1, 4), (3, 6), (4, 6)]  # (cadence, steps): 4 does not divide 6


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("cadence, steps", SG_RUNS)
def test_run_flow_solves_the_sg_x_system_once_per_stage_and_once_at_the_end(
    monkeypatch, cadence, steps, n
):
    cfg, state = _sg_run(cadence, steps, n)
    solved = []
    solve = sf.sg_solve_h

    def spy(s, *args):
        solved.append(s)
        return solve(s, *args)

    monkeypatch.setattr(sf, "sg_solve_h", spy)
    traj = sf.run_flow(cfg, state)
    assert len(solved) == 4 * steps + 1
    assert solved[-1] is traj.states[-1]
    # every snapshot but the last is the input of the step after it
    assert all(any(s is t for t in solved[::4]) for s in traj.states)
    assert len(traj.sg_constraint_value) == len(traj.states)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("cadence, steps", SG_RUNS)
def test_run_flow_sg_constraint_values_equal_a_solve_per_snapshot(cadence, steps, n):
    cfg, state = _sg_run(cadence, steps, n)
    traj = sf.run_flow(cfg, state)
    infos = [sf.sg_solve_h(s, cfg.sg_branch, cfg.sg_refine)[2] for s in traj.states]
    assert len(traj.states) == 1 + steps // cadence + (steps % cadence > 0)
    assert traj.sg_constraint_value == [float(np.mean(i["constraint"])) for i in infos]
    assert traj.sg_seam_mismatch == [i["seam_mismatch"] for i in infos]


def test_run_flow_sg_with_no_steps_solves_the_initial_state_once(monkeypatch):
    cfg, state = _sg_run(1, 0)
    calls = []
    solve = sf.sg_solve_h

    def spy(s, *args):
        calls.append(s)
        return solve(s, *args)

    monkeypatch.setattr(sf, "sg_solve_h", spy)
    traj = sf.run_flow(cfg, state)
    assert len(calls) == 1 and calls[0] is state
    assert len(traj.states) == 1 and traj.states[0] is state
    assert len(traj.sg_constraint_value) == 1


def test_run_flow_sg_seam_mismatch_rises_at_every_snapshot(monkeypatch):
    # the seam series is the -1 flow's early alarm (ROADMAP item 23): on the
    # a = 1 kink it grows from 1.7e-8 to 4.4e-4 by t = 0.3, while H0 drifts
    # 2.4e-9; it is read from the reports the constraint monitor already reads
    grid = gcalc.PeriodicGrid(256, 40.0)
    cfg = sf.SimConfig(n=1, grid=grid, dt=5e-3, t_end=0.3, flow="sg", sg_refine=8, cadence=20)
    calls = []
    solve = sf.sg_solve_h

    def spy(s, *args):
        calls.append(s)
        return solve(s, *args)

    monkeypatch.setattr(sf, "sg_solve_h", spy)
    traj = sf.run_flow(cfg, sf.preset_sg_kink(grid, 1))
    assert len(calls) == 4 * 60 + 1
    seam = traj.sg_seam_mismatch
    assert len(seam) == len(traj.states) == 4
    assert all(later > earlier for earlier, later in zip(seam, seam[1:]))
    assert seam[0] == pytest.approx(1.65e-8, rel=0.01)
    assert seam[-1] == pytest.approx(4.4e-4, rel=0.01)
    assert sf.conserved_report(traj).as_dict()["sg_seam_mismatch"] == seam
