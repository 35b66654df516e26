import numpy as np
import pytest

from hpflow import biham_ops as bo
from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow.errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NonFiniteMonodromyError,
    ShootingError,
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


def _reference_mkdv_rhs(state, galilean_removed=True):
    """Six-transform right side: one spectral_deriv call per field and order,
    or the packed derivatives a stage state carries."""
    grid = state.grid
    u, bu = state.arrays()
    if state.x_derivs is None:
        ux = gcalc.spectral_deriv(u, grid)
        u2 = gcalc.spectral_deriv(u, grid, 2)
        u3 = gcalc.spectral_deriv(u, grid, 3)
        bux = gcalc.spectral_deriv(bu, grid)
        bu2 = gcalc.spectral_deriv(bu, grid, 2)
        bu3 = gcalc.spectral_deriv(bu, grid, 3)
    elif bu.shape[1]:
        ux, u2, u3 = state.x_derivs[:, :, :4]
        bux, bu2, bu3 = state.x_derivs[:, :, 4:].reshape((3,) + bu.shape)
    else:  # orders 1 and 3: u_2x enters only the coupling terms, empty here
        ux, u3 = state.x_derivs
        u2 = np.zeros_like(ux)
        bux = bu2 = bu3 = bu
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
    each dealiased stage carries the derivatives of its masked spectrum."""
    grid = state.grid
    N, m = state.bu.values.shape[:2]
    orders = sf._mkdv_orders(m)

    def project(s, stage=True):
        u, bu = s.arrays()
        u = u.copy()
        u[:, 0] = 0.0
        derivs = None
        if project_fraction is not None:
            if stage:
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
    return project(bo.make_state(grid, state.u.values + du, state.bu.values + dbu), stage=False)


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
    # the stage states skip make_state: each would pass it, and make_state
    # runs once per step, for the result
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
        assert len(made) == step + 1 and made[-1] is new
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
    the unpacked formulas.  With `stage_derivs`, each dealiased stage carries
    its x-derivatives from its masked spectrum, as step_rk4's stages do.
    Without, this is the transform-twice stepping: a right side transforms
    the dealiased stage again."""
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
    return project(y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


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


@pytest.mark.parametrize("fraction, calls, transform_twice_calls", [(2 / 3, 10, 16), (None, 8, 8)])
def test_mkdv_step_transform_calls(monkeypatch, fraction, calls, transform_twice_calls):
    # one rfft and one irfft for the step's first right side, per later stage
    # and for the final projection; unprojected, one pair per right side
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
    # the result carries no derivatives: the next step transforms it
    assert new.x_derivs is None and "x_derivs" not in vars(new)
    made.clear()
    _out_of_place_rk4(state, sf.mkdv_rhs, 1e-4, fraction, stage_derivs=False)
    assert len(made) == transform_twice_calls


@pytest.mark.parametrize("n", [1, 2])
def test_sg_step_writes_no_state_array(n, monkeypatch):
    grid = gcalc.PeriodicGrid(64, 20.0)
    state = _nearly_imaginary_state(grid, n)
    reference_rhs = sf._sg_rhs(n, "-", "line", 2, 1e-3)
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
    # every vector is periodic; the one taken is the branch's h_par axis
    for branch, sign in (("+", 1.0), ("-", -1.0)):
        _, h_par, info = sf.sg_solve_h(zero, branch, "periodic")
        assert info["kernel_dim"] == 4
        np.testing.assert_array_equal(info["boundary"], [sign * chi(1), 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(h_par.values, sign * chi(1))
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["line", "periodic"])
def test_sg_solve_h_strided_scan_matches_full_scan(rng, monkeypatch, n, mode):
    # the x-solve reads the grid-point rows and the monodromy of the
    # refine * N cell scan; those rows of the full scan give its outputs
    # bit for bit
    if mode == "line":
        state = random_state(rng, gcalc.PeriodicGrid(64, 16.0), n, amplitude=0.5)
    else:
        state = sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n)
    svd_args = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svd_args.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    h, h_par, info = sf.sg_solve_h(
        state, "-", mode, 8, richardson_check=True, richardson_tol=1.0
    )
    N, m = state.grid.num_points, state.n - 1
    y0 = info["boundary"]
    full = _full_scan(sf._sg_transfers(state, 8))
    y = full[: 8 * N : 8] @ y0
    assert np.array_equal(h_par.values, y[:, 0])
    assert np.array_equal(h.hs.values[:, 1:], y[:, 1:4])
    assert np.array_equal(h.hv.values, y[:, 4:].reshape(N, m, 4))
    coarse = _full_scan(sf._sg_transfers(state, 4))
    y_c = coarse[: 4 * N : 4] @ y0
    assert info["richardson_error"] == float(np.max(np.abs(y - y_c))) / 15.0
    if mode == "line":
        assert svd_args == []
        assert np.array_equal(y0, np.eye(4 + 4 * m)[0] * -chi(state.n))
    else:
        (shifted,) = svd_args
        assert np.array_equal(shifted, full[-1] - np.eye(4 + 4 * m))


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


def _sqrt_form(m):
    return np.concatenate([[1.0], 0.5 * np.ones(3), np.ones(4 * m)])


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


def _reference_expm_real(Z, squarings=None):
    """The eigh exponential in expm_antihermitian's place; it needs no
    squaring count and ignores one."""
    return _reference_expm_antihermitian(Z).real


@pytest.mark.parametrize("n", [1, 2])
def test_sg_transfers_and_monodromy_match_eigh_reference(rng, monkeypatch, n):
    state = random_state(rng, gcalc.PeriodicGrid(64, 16.0), n, amplitude=0.5)
    T = sf._sg_transfers(state, 8)
    # the reference is the generic builder with the eigh exponential, for n = 1 too
    monkeypatch.setattr(sf, "_sg_transfers", sf._sg_transfers_generic)
    monkeypatch.setattr(sf, "expm_antihermitian", _reference_expm_real)
    T_ref = sf._sg_transfers(state, 8)
    assert np.max(np.abs(T - T_ref)) <= 1e-13
    # the monodromy periodic mode takes its boundary value from
    mono = sf.prefix_products(T)[-1]
    assert np.max(np.abs(mono - sf.prefix_products(T_ref)[-1])) <= 1e-12


def _solve_outputs(state, mode):
    h, h_par, info = sf.sg_solve_h(state, "-", mode)
    return (h.hs.values, h.hv.values, h_par.values, info["boundary"])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["line", "periodic"])
def test_sg_solve_h_matches_eigh_reference(rng, monkeypatch, n, mode):
    # periodic mode needs data with a periodic solution: the kink
    if mode == "line":
        state = random_state(rng, gcalc.PeriodicGrid(64, 16.0), n, amplitude=0.5)
    else:
        state = sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n)
    new = _solve_outputs(state, mode)
    monkeypatch.setattr(sf, "_sg_transfers", sf._sg_transfers_generic)
    monkeypatch.setattr(sf, "expm_antihermitian", _reference_expm_real)
    ref = _solve_outputs(state, mode)
    for a, b in zip(new, ref):
        # the solution has size chi; the tolerance is 1e-12 relative to it
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * chi(n)


def test_sg_step_nan_raises_blowup():
    grid = gcalc.PeriodicGrid(64, 16.0)
    kink = sf.preset_sg_kink(grid, n=1)
    u = kink.u.values.copy()
    u[5, 1] = np.nan
    state = bo.make_state(grid, u, kink.bu.values)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(BlowUpError) as exc:
            sf.sg_step(state, 1e-3, mode="line", t=0.5)
    assert exc.value.time == pytest.approx(0.501)


def _kink_with_nan(n):
    grid = gcalc.PeriodicGrid(64, 16.0)
    kink = sf.preset_sg_kink(grid, n=n)
    u = kink.u.values.copy()
    u[5, 1] = np.nan
    return bo.make_state(grid, u, kink.bu.values)


@pytest.mark.parametrize("n", [1, 2])
def test_sg_solve_h_periodic_nan_raises_typed_error(n):
    # the parent handed the NaN monodromy to np.linalg.svd, which raised
    # LinAlgError("SVD did not converge")
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteMonodromyError, match="non-finite") as exc:
            sf.sg_solve_h(_kink_with_nan(n), mode="periodic")
    assert isinstance(exc.value, ShootingError)


def test_sg_step_periodic_nan_raises_blowup():
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(BlowUpError) as exc:
            sf.sg_step(_kink_with_nan(1), 1e-3, mode="periodic", t=0.5)
    assert exc.value.time == pytest.approx(0.501)
    assert isinstance(exc.value.__cause__, NonFiniteMonodromyError)


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
    T = sf._sg_transfers(state, refine)
    T_gen = sf._sg_transfers_generic(state, refine)
    assert T.shape == T_gen.shape == (256 * refine, 4, 4)
    assert np.max(np.abs(T - T_gen)) <= 1e-14
    assert _form_defect(T, 0) <= 1e-14


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
        T = sf._sg_transfers(zero, 4)
    np.testing.assert_array_equal(T, np.broadcast_to(np.eye(4), (128, 4, 4)))


def _solve_all_outputs(state, **kw):
    """Outputs of sg_solve_h with their scale: chi for the solution, chi^2 for
    the constraint, and the Richardson estimate and kernel dimension when they
    are reported."""
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
    if "kernel_dim" in info:
        out.append((info["kernel_dim"], 0.0))
    return out


def _short_kink(n=1):
    """On L = 16 the kink's periodic solutions span exactly the j, k plane,
    which no transfer moves, and h_par vanishes there."""
    return sf.preset_sg_kink(gcalc.PeriodicGrid(64, 16.0), n)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("kink_a1", {"mode": "line"}),
        ("band_0.3", {"mode": "line"}),
        ("band_3", {"mode": "line", "refine": 4}),
        ("kink_a1", {"mode": "line", "richardson_check": True}),
        ("kink_a1", {"mode": "periodic"}),
        ("kink_a1.25", {"mode": "periodic"}),
        ("kink_L16", {"mode": "periodic"}),
    ],
)
def test_n1_sg_solve_h_matches_generic_path(monkeypatch, name, kw):
    state = {**N1_STATES, "kink_L16": _short_kink}[name]()
    new = _solve_all_outputs(state, **kw)
    monkeypatch.setattr(sf, "_sg_transfers", sf._sg_transfers_generic)
    ref = _solve_all_outputs(state, **kw)
    assert len(new) == len(ref)
    for (a, scale), (b, _) in zip(new, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2])
def test_sg_periodic_kernel_plane_gives_one_solution_for_both_branches(n):
    # the SVD's kernel vector here is any unit vector of the j, k plane, with
    # a sign h_par cannot fix; the projector picks j, whatever the roundoff
    state = _short_kink(n)
    c = chi(n)
    expected = np.zeros(4 + 4 * (n - 1))
    expected[2] = 2.0 * c
    for branch in ("+", "-"):
        h, h_par, info = sf.sg_solve_h(state, branch, "periodic")
        assert info["kernel_dim"] == 2
        assert np.max(np.abs(info["boundary"] - expected)) <= 1e-12 * c
        assert np.max(np.abs(h_par.values)) <= 1e-12 * c
        assert np.max(np.abs(h.hs.values - expected[:4])) <= 1e-12 * c


def test_n1_sg_periodic_sign_stands_where_h_par_vanishes_off_axis(monkeypatch):
    # a kink along (i + 2j + 3k) / sqrt(14): the kernel plane is no longer a
    # coordinate plane, so h_par and y0[0] come out at roundoff, not exactly
    # 0; the branch must not flip the sign on them.  The tolerance is roundoff
    # over the kernel's gap, s = 1.3e-3
    kink = _short_kink()
    direction = np.array([0.0, 1.0, 2.0, 3.0]) / np.sqrt(14.0)
    state = bo.make_state(kink.grid, kink.u.values[:, 1:2] * direction, kink.bu.values)
    c = chi(1)
    outs = {}
    for builder in ("_sg_transfers", "_sg_transfers_generic"):
        monkeypatch.setattr(sf, "_sg_transfers", getattr(sf, builder))
        for branch in ("+", "-"):
            h, h_par, info = sf.sg_solve_h(state, branch, "periodic")
            assert info["kernel_dim"] == 2
            assert np.max(np.abs(h_par.values)) <= 1e-10 * c
            outs[builder, branch] = h.hs.values
    ref = outs["_sg_transfers_generic", "-"]
    for hs in outs.values():
        assert np.max(np.abs(hs - ref)) <= 1e-10 * c


@pytest.mark.parametrize("n", [1, 2])
def test_sg_periodic_full_kernel_gives_the_line_solution(n):
    # on L = 40 the kink's monodromy is the identity to 3e-8, so every
    # boundary value counts as periodic: the one taken is the line mode's
    state = sf.preset_sg_kink(gcalc.PeriodicGrid(128, 40.0), n)
    c = chi(n)
    for branch in ("+", "-"):
        h, h_par, info = sf.sg_solve_h(state, branch, "periodic")
        h_l, h_par_l, info_l = sf.sg_solve_h(state, branch, "line")
        assert info["kernel_dim"] == 4
        assert np.max(np.abs(info["boundary"] - info_l["boundary"])) <= 1e-12 * c
        assert np.max(np.abs(h.hs.values - h_l.hs.values)) <= 1e-12 * c
        assert np.max(np.abs(h_par.values - h_par_l.values)) <= 1e-12 * c


def _kink_with(value, n):
    grid = gcalc.PeriodicGrid(64, 16.0)
    kink = sf.preset_sg_kink(grid, n=n)
    u = kink.u.values.copy()
    u[5, 1] = value
    return bo.make_state(grid, u, kink.bu.values)


@pytest.mark.parametrize("n", [1, 2])
def test_sg_inf_state_raises_the_nan_errors(n):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteMonodromyError):
            sf.sg_solve_h(_kink_with(np.inf, n), mode="periodic")
        for mode in ("line", "periodic"):
            with pytest.raises(BlowUpError) as exc:
                sf.sg_step(_kink_with(np.inf, n), 1e-3, mode=mode, t=0.5)
            assert exc.value.time == pytest.approx(0.501)


def _whole_array_transfers(M, h, scale=None):
    """Magnus-4 transfers from M at the 2K fine points, built for all K cells
    at once and exponentiated by one expm_antihermitian call: the build the
    blocked magnus4_transfers replaced."""
    M0 = M[0::2]
    Mmid = M[1::2]
    M1 = np.roll(M0, -1, axis=0)
    comm = Mmid @ (M1 - M0) - (M1 - M0) @ Mmid
    Omega = (h / 6.0) * (M0 + 4.0 * Mmid + M1) - (h**2 / 12.0) * comm
    if scale is None:
        return sf.expm_antihermitian(Omega)
    E = sf.expm_antihermitian(scale[:, None] * Omega / scale)
    return E * scale / scale[:, None]


def _reference_sg_transfers(state, refine):
    """The transfer builder every n used before the n = 1 closed form."""
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    M = sf.sg_system_matrix(u_f, bu_f)
    return _whole_array_transfers(M, grid.dx / refine, _sqrt_form(state.n - 1))


def cells_per_block(monkeypatch, cells, d, dtype=float):
    """Make magnus4_transfers take `cells` cells of (d, d) matrices a block."""
    monkeypatch.setattr(sf, "_BLOCK_BYTES", cells * d * d * np.dtype(dtype).itemsize)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("refine", [1, 2, 3, 8])
@pytest.mark.parametrize("block", [None, 7])
def test_blocked_sg_transfers_equal_the_whole_array_build(monkeypatch, n, refine, block):
    # N = 45 is odd, and 7 cells a block divide none of K = 45, 90, 135, 360;
    # at refine 1 the cells' Omegas pass theta, so the blocks share squarings
    state = sf.preset_random_band(gcalc.PeriodicGrid(45, 20.0), n, seed=11, amplitude=0.8)
    if block:
        cells_per_block(monkeypatch, block, 4 + 4 * (n - 1))
    T = sf._sg_transfers_generic(state, refine)
    assert np.array_equal(T, _reference_sg_transfers(state, refine))


def _skew_stack(rng, K, d):
    A = rng.standard_normal((2 * K, d, d))
    return A - np.swapaxes(A, -1, -2)


@pytest.mark.parametrize("scale", [None, _sqrt_form(1)])
def test_magnus4_transfers_share_the_squarings_of_the_largest_cell(monkeypatch, rng, scale):
    # one block of large cells: the whole grid takes their squarings, which
    # the small cells' own norm would not pick
    K, d, h = 45, 8, 0.01
    M = _skew_stack(rng, K, d)
    M[29:42:2] *= 400.0  # the midpoints of cells 14..20, block 2 of 7 cells
    cells_per_block(monkeypatch, 7, d)
    norms, max_norm = [], sf._max_norm
    monkeypatch.setattr(sf, "_max_norm", lambda Z: norms.append(len(Z)) or max_norm(Z))
    T = sf.magnus4_transfers(lambda rows: M[rows], K, d, h, scale=scale)
    # each block's norm is taken once: the exponential is handed the count
    assert norms == [7, 7, 7, 7, 7, 7, 3]
    monkeypatch.setattr(sf, "_max_norm", max_norm)
    assert np.array_equal(T, _whole_array_transfers(M, h, scale))
    small = _whole_array_transfers(M[:14], h, scale)[:7]  # cells 0..6 on their own
    assert sf._expm_squarings(sf._max_norm(M[1:14:2] * h)) == 0
    assert not np.array_equal(T[:7], small)


def test_magnus4_transfers_zero_and_non_finite_input(monkeypatch, rng):
    K, d = 45, 8
    cells_per_block(monkeypatch, 7, d)
    zero = sf.magnus4_transfers(lambda rows: np.zeros((len(rows), d, d)), K, d, 0.1)
    np.testing.assert_array_equal(zero, np.broadcast_to(np.eye(d), (K, d, d)))
    # a NaN at fine point 60 is an end of cells 29 and 30: their transfers
    # are non-finite, the others finite, as in the whole-array build
    M = _skew_stack(rng, K, d)
    M[60, 2, 5] = np.nan
    with np.errstate(invalid="ignore"):
        T = sf.magnus4_transfers(lambda rows: M[rows], K, d, 0.1)
        ref = _whole_array_transfers(M, 0.1)
    finite = np.all(np.isfinite(T), axis=(-2, -1))
    assert np.flatnonzero(~finite).tolist() == [29, 30]
    assert np.array_equal(finite, np.all(np.isfinite(ref), axis=(-2, -1)))


@pytest.mark.parametrize("amplitude", [0.3, 3.0])
def test_n2_transfers_unchanged(amplitude):
    state = sf.preset_random_band(BENCH_GRID, 2, seed=7, amplitude=amplitude)
    for refine in (2, 8):
        np.testing.assert_array_equal(
            sf._sg_transfers(state, refine), _reference_sg_transfers(state, refine)
        )


# -- n = 1 transfers, -1-flow monitoring and the constraint, bit for bit -----------

def _reference_unit_exp(A):
    r = np.sqrt(np.sum(A * A, axis=0))
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    return np.concatenate([np.cos(r)[None], sinc * A])


def _reference_quaternion_transfers(state, refine):
    """The n = 1 closed-form builder before its component-major single pass:
    the refine along the grid axis, strided ends and midpoints, out-of-place
    Simpson and cross terms, and one exponential per unit quaternion."""
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
    p = _reference_unit_exp(simpson - cross)
    q = _reference_unit_exp(simpson + cross)
    pairs = (p[:, None] * q[None, :]).reshape(16, -1)
    return (pairs.T @ sf._PAIR_TO_TRANSFER).reshape(-1, 4, 4)


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
    state = N1_BIT_STATES[name]()
    T = sf._sg_transfers(state, refine)
    ref = _reference_quaternion_transfers(state, refine)
    assert T.shape == ref.shape == (state.grid.num_points * refine, 4, 4)
    # bits, signed zeros included
    assert np.array_equal(T.view(np.uint64), ref.view(np.uint64))


def test_unit_exp_equals_the_np_sum_form_bit_for_bit(rng):
    A = rng.standard_normal((3, 64)) * 10.0 ** rng.integers(-200, 3, 64)
    A[:, :4] = 0.0
    A[:, 4:8] = -0.0
    A[1, 8] = 1e-170  # r^2 underflows to 0: the quotient is not formed there
    for B in (A, A[:, 8:], np.abs(A[:, 8:])):  # with and without r = 0
        assert np.array_equal(
            sf._unit_exp(B).view(np.uint64), _reference_unit_exp(B).view(np.uint64)
        )


def _reference_constraint(y):
    return y[..., 0] ** 2 + 0.25 * np.sum(y[..., 1:4] ** 2, axis=-1) + np.sum(
        y[..., 4:] ** 2, axis=-1
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sg_constraint_equals_the_np_sum_form_bit_for_bit(rng, n):
    d = 4 + 4 * (n - 1)
    for shape in ((257, d), (d,), (5, 7, d)):
        y = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        y[rng.random(shape) < 0.2] = 0.0
        y[rng.random(shape) < 0.2] = -0.0
        got, ref = np.asarray(sf._sg_constraint(y)), np.asarray(_reference_constraint(y))
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    zeros = -np.zeros(d)
    assert np.array_equal(
        np.asarray(sf._sg_constraint(zeros)).view(np.uint64),
        np.asarray(_reference_constraint(zeros)).view(np.uint64),
    )


def _sg_run(mode, cadence, steps, n=1):
    # on L = 40 the kink's monodromy is close enough to the identity that
    # periodic mode finds a solution at every stage
    grid = gcalc.PeriodicGrid(64, 40.0)
    cfg = sf.SimConfig(
        n=n, grid=grid, dt=2e-3, t_end=steps * 2e-3, flow="sg", sg_mode=mode, sg_refine=2,
        cadence=cadence,
    )
    return cfg, sf.preset_sg_kink(grid, n)


SG_RUNS = [
    (mode, cadence, steps)
    for mode in ("line", "periodic")
    for cadence, steps in ((1, 4), (3, 6), (4, 6))  # 4 does not divide 6
]


@pytest.mark.parametrize("mode, cadence, steps", SG_RUNS)
def test_run_flow_solves_the_sg_x_system_once_per_stage_and_once_at_the_end(
    monkeypatch, mode, cadence, steps
):
    cfg, state = _sg_run(mode, cadence, steps)
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
@pytest.mark.parametrize("mode, cadence, steps", SG_RUNS)
def test_run_flow_sg_constraint_values_equal_a_solve_per_snapshot(mode, cadence, steps, n):
    cfg, state = _sg_run(mode, cadence, steps, n)
    traj = sf.run_flow(cfg, state)
    expected = [
        float(np.mean(sf.sg_solve_h(s, cfg.sg_branch, mode, cfg.sg_refine)[2]["constraint"]))
        for s in traj.states
    ]
    assert len(traj.states) == 1 + steps // cadence + (steps % cadence > 0)
    assert traj.sg_constraint_value == expected


def test_run_flow_sg_with_no_steps_solves_the_initial_state_once(monkeypatch):
    cfg, state = _sg_run("line", 1, 0)
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
