"""Compatible Hamiltonian operator pair, recursion operator, and hierarchy.

The flow variable is a pair: an imaginary quaternion scalar field u and a
quaternion vector field bu of length n-1.  The cosymplectic operator H maps
covector pairs (ws, wv) to flow pairs; the symplectic operator J maps flow
pairs to covector pairs; their composition R = H o J generates the commuting
hierarchy h_(l) = R^l (u_x, bu_x).

Every D_x^{-1} here is the zero-mean periodic antiderivative.  Antiderivative
constants matter: the closed-form hierarchy formulas correspond to the "jet"
normalization, in which each nonlocal term is the differential polynomial
with no additive constant.  For the recursion steps up to level 1 those
polynomial means are known in closed form, and the hierarchy always applies
them, so hierarchy_flow(state, 1) reproduces the local scalar-vector mKdV
right side exactly.  The flows are local only up to level 1: from level 2 on
the remaining D_x^{-1} constants are the zero mean, not the jet constants,
and the level-2 flow is measurably non-local (two separated bumps give a
relative non-additivity of about 1e-3, against 1e-10 at level 1).  So the
hierarchy row of soliton_flows.FLOWS caps the level the CLI steps at 1.
The raw zero-mean recursion operator is apply_R.  Attempting level 3 can
produce genuinely non-exact integrands; that surfaces as NonlocalityError
tagged with the failing level, never as a silent fix.

All real pairings are the integrated Euclidean pairing of components,
``pairing(a, b) = integral of (Re<a_s, b_s> + Re<a_v, b_v>) dx``.  Gradients
of functionals are Riesz representers for this pairing; with that convention
the level-0 covector is exactly (u, bu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid_calculus as gcalc
from . import quat_core as qc
from . import symm_lie as sl
from .errors import DimensionMismatchError, DomainError
from .grid_calculus import DEFAULT_MEAN_TOLERANCE, Field, PeriodicGrid


class _Pair:
    """Shared behavior of (scalar field, vector field) pairs."""

    _slots = ()

    @property
    def s(self) -> Field:
        return getattr(self, self._slots[0])

    @property
    def v(self) -> Field:
        return getattr(self, self._slots[1])

    @property
    def grid(self) -> PeriodicGrid:
        return self.s.grid

    @property
    def n(self) -> int:
        return self.v.values.shape[1] + 1

    def _validate(self):
        if self.s.kind not in ("iquat", "quat") or self.v.kind != "qvec":
            raise DomainError("pair needs an (i)quat scalar field and a qvec field")
        if self.s.grid is not self.v.grid and self.s.grid != self.v.grid:
            raise DimensionMismatchError("pair fields live on different grids")

    def arrays(self):
        return self.s.values, self.v.values

    def rms(self) -> float:
        return float(
            np.sqrt(np.mean(self.s.values**2) + np.sum(np.mean(self.v.values**2, axis=0)))
        )


@dataclass
class StatePair(_Pair):
    """Flow variable (u, bu); u pointwise imaginary."""

    u: Field
    bu: Field
    _slots = ("u", "bu")
    # stacked x-derivatives of the packed [u | bu], of the orders
    # soliton_flows.mkdv_rhs reads, or None: only the stage and result
    # states of a projected RK4 step carry them, from their dealiasing
    # transform
    x_derivs = None

    def __post_init__(self):
        self._validate()
        # a scalar part of exact zeros (a preset's) passes without the
        # max or the RMS; NaN is truthy, so it still reaches them
        re = self.u.values[:, 0]
        if re.any() and np.max(np.abs(re)) > 1e-9 * max(self.u.rms(), 1e-30):
            raise DomainError("state scalar must be pointwise imaginary")


@dataclass
class FlowPair(_Pair):
    hs: Field
    hv: Field
    _slots = ("hs", "hv")

    def __post_init__(self):
        self._validate()


@dataclass
class CovectorPair(_Pair):
    ws: Field
    wv: Field
    _slots = ("ws", "wv")

    def __post_init__(self):
        self._validate()


def make_state(grid: PeriodicGrid, u_values, bu_values) -> StatePair:
    return StatePair(Field(grid, u_values, "iquat"), Field(grid, bu_values, "qvec"))


def make_flow(grid, s_values, v_values) -> FlowPair:
    return FlowPair(Field(grid, s_values, "iquat"), Field(grid, v_values, "qvec"))


def _unchecked_pair(cls, grid: PeriodicGrid, s_values, v_values):
    """A StatePair or FlowPair around float arrays already known to pass its checks.

    For hot loops whose arrays are valid by construction (the RK4 stage and
    result states, mkdv_rhs): the Field and _Pair checks are skipped, so the
    caller vouches for the kinds' shapes on `grid` and, for a state, a
    pointwise imaginary scalar.  The pair holds the arrays themselves, as make_state
    and make_flow do for float arrays.
    """
    s = object.__new__(Field)
    s.grid, s.values, s.kind = grid, s_values, "iquat"
    v = object.__new__(Field)
    v.grid, v.values, v.kind = grid, v_values, "qvec"
    pair = object.__new__(cls)
    s_name, v_name = cls._slots
    setattr(pair, s_name, s)
    setattr(pair, v_name, v)
    return pair


def make_covector(grid, s_values, v_values) -> CovectorPair:
    return CovectorPair(Field(grid, s_values, "iquat"), Field(grid, v_values, "qvec"))


def state_deriv(state: StatePair) -> FlowPair:
    """The level-0 flow pair (u_x, bu_x)."""
    return make_flow(
        state.grid,
        gcalc.spectral_deriv(state.u.values, state.grid),
        gcalc.spectral_deriv(state.bu.values, state.grid),
    )


# -- the operator pair -------------------------------------------------------

def w_parallel(
    state: StatePair,
    w: CovectorPair,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
    w_par_const=None,
    W_par_const=None,
) -> tuple[Field, Field]:
    """Nonlocal parallel parts (w_par, W_par) generated by a covector."""
    u, bu = state.arrays()
    ws, wv = w.arrays()
    grid = state.grid
    ref = state.rms() * w.rms()
    integrand = qc.comm_C(u, ws) - 0.5 * qc.comm_C_vec(bu, wv)
    w_par = gcalc.guarded_antideriv(integrand, grid, mean_tolerance, "w_parallel", ref)
    W_par = gcalc.guarded_antideriv(qc.matcomm_C(bu, wv), grid, mean_tolerance, "W_parallel", ref)
    if w_par_const is not None:
        w_par -= w_par_const
    if W_par_const is not None:
        W_par += W_par_const
    return Field(grid, -w_par, "iquat"), Field(grid, W_par, "qmat")


def h_parallel(
    state: StatePair,
    h: FlowPair,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
    h_par_const: float | None = None,
) -> Field:
    """Tangential component h_par = -D_x^{-1}(A(u, hs)/2 - A(bu, hv)/2)."""
    u, bu = state.arrays()
    hs, hv = h.arrays()
    # A(u, hs)/2 - A(bu, hv)/2 with vec_dot already equal to A(bu, hv)/2
    integrand = 0.5 * qc.acomm_A_im(u, hs) - qc.vec_dot(bu, hv)
    ref = state.rms() * h.rms()
    out = gcalc.guarded_antideriv(integrand, state.grid, mean_tolerance, "h_parallel", ref)
    if h_par_const is not None:
        out -= float(h_par_const)
    return Field(state.grid, -out, "real")


def apply_H(
    state: StatePair,
    w: CovectorPair,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
    w_par_const=None,
    W_par_const=None,
) -> FlowPair:
    """Cosymplectic operator: covector pair to flow pair."""
    u, bu = state.arrays()
    ws, wv = w.arrays()
    grid = state.grid
    w_par, W_par = w_parallel(state, w, mean_tolerance, w_par_const, W_par_const)
    out_s = (
        gcalc.spectral_deriv(ws, grid) + qc.comm_C(u, w_par.values) + 0.5 * qc.comm_C_vec(bu, wv)
    )
    out_v = (
        gcalc.spectral_deriv(wv, grid)
        - qc.scalar_vec(w_par.values, bu)
        + qc.qmat_vecmul(bu, W_par.values)
        + qc.scalar_vec(ws, bu)
        - qc.scalar_vec(u, wv)
    )
    return make_flow(grid, out_s, out_v)


def apply_J(
    state: StatePair,
    h: FlowPair,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
    h_par_const: float | None = None,
) -> CovectorPair:
    """Symplectic operator: flow pair to covector pair."""
    u, bu = state.arrays()
    hs, hv = h.arrays()
    grid = state.grid
    h_par = h_parallel(state, h, mean_tolerance, h_par_const).values
    out_s = (
        0.25 * gcalc.spectral_deriv(hs, grid) + 0.25 * qc.comm_C_vec(bu, hv) + h_par[:, None] * u
    )
    out_v = (
        gcalc.spectral_deriv(hv, grid)
        + 0.5 * qc.scalar_vec(hs, bu)
        + qc.scalar_vec(u, hv)
        + h_par[:, None, None] * bu
    )
    return make_covector(grid, out_s, out_v)


def apply_K(
    state: StatePair,
    zs: np.ndarray,
    zv: np.ndarray,
    subspace: str,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray]:
    """Ad-form operator K = D_x + [u, .]_perp - [u, D_x^{-1}[u, .]_par].

    Acts on h_perp-valued fields (subspace="hperp") or m_perp-valued fields
    (subspace="mperp"); the parallel projection lands in h_par or m_par
    respectively.  Composing per the operator identities must reproduce
    apply_H and apply_J.
    """
    u, bu = state.arrays()
    grid = state.grid
    ref = state.rms() * float(np.sqrt(np.mean(zs**2) + np.sum(np.mean(zv**2, axis=0))))
    if subspace == "hperp":
        par_s = qc.comm_C(u, zs) - 0.5 * qc.comm_C_vec(bu, zv)
        P = gcalc.guarded_antideriv(par_s, grid, mean_tolerance, "K.h_par.scalar", ref)
        PM = gcalc.guarded_antideriv(
            qc.matcomm_C(zv, bu), grid, mean_tolerance, "K.h_par.matrix", ref
        )
        out_s = gcalc.spectral_deriv(zs, grid) + 0.5 * qc.comm_C_vec(bu, zv) - qc.comm_C(u, P)
        out_v = (
            gcalc.spectral_deriv(zv, grid)
            + qc.scalar_vec(zs, bu)
            - qc.scalar_vec(u, zv)
            + qc.scalar_vec(P, bu)
            - qc.qmat_vecmul(bu, PM)
        )
        return out_s, out_v
    if subspace == "mperp":
        par = qc.acomm_A_im(zs, u) + qc.vec_dot(zv, bu)
        f = gcalc.guarded_antideriv(par, grid, mean_tolerance, "K.m_par", ref)
        out_s = gcalc.spectral_deriv(zs, grid) - 0.5 * qc.comm_C_vec(bu, zv) - 2.0 * f[:, None] * u
        out_v = (
            gcalc.spectral_deriv(zv, grid)
            - qc.scalar_vec(zs, bu)
            + qc.scalar_vec(u, zv)
            + f[:, None, None] * bu
        )
        return out_s, out_v
    raise DomainError(f"unknown subspace tag {subspace!r}")


def apply_H_via_K(state, w: CovectorPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    out_s, out_v = apply_K(state, w.ws.values, w.wv.values, "hperp", mean_tolerance)
    return make_flow(state.grid, out_s, out_v)


def apply_J_via_K(state, h: FlowPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> CovectorPair:
    """J = -ad(e)^{-1} o K o ad(e)^{-1}, with K on m_perp-valued fields."""
    z = sl.ad_e_inv(sl.HPerp(h.hs.values, h.hv.values))
    out_s, out_v = apply_K(state, z.s, z.v, "mperp", mean_tolerance)
    w = -sl.ad_e_inv(sl.MPerp(out_s, out_v))
    return make_covector(state.grid, w.s, w.v)


def apply_R(state, h: FlowPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    """Recursion operator R = H o J (zero-mean antiderivative convention)."""
    return apply_H(state, apply_J(state, h, mean_tolerance), mean_tolerance)


def apply_R_blocks(state, h: FlowPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    """Independent implementation of the four explicit recursion-operator blocks.

    Must agree with apply_R under the shared zero-mean convention.  Two symbol
    typos in the printed 21-block (a scalar commutator that must be the vector
    one, and a vector anticommutator that must be the scalar one) are fixed
    here; the agreement test is the arbiter.
    """
    u, bu = state.arrays()
    hs, hv = h.arrays()
    grid = state.grid
    tol = mean_tolerance

    def dx(a):
        return gcalc.spectral_deriv(a, grid)

    ref = state.rms() * h.rms() * (1.0 + 2.0 * np.pi * grid.num_points / grid.length)

    def ix(a, block):
        return gcalc.guarded_antideriv(a, grid, tol, block, ref)

    hbu = qc.scalar_vec(hs, bu)  # R_bu hs
    f_au = ix(qc.acomm_A_im(u, hs), "R11.AuDxInvAu")  # D_x^{-1} A_u hs
    cu_dxh = ix(qc.comm_C(u, dx(hs)), "R11.CuDx")
    cvec_hbu = 0.5 * qc.comm_C_vec(bu, hbu)  # C_bu R_bu hs

    r11 = (
        0.25 * dx(dx(hs))
        + 0.5 * cvec_hbu
        - 0.5 * dx(f_au[:, None] * u)
        - 0.25 * qc.comm_C(u, cu_dxh)
        + 0.5 * qc.comm_C(u, ix(cvec_hbu, "R11.CuCbuRbu"))
    )

    cvec_h = 0.5 * qc.comm_C_vec(bu, hv)  # C_bu hv
    g_avec = ix(qc.vec_dot(bu, hv), "R12.AuDxInvAvec")  # D_x^{-1} A_bu hv
    uhv = qc.scalar_vec(u, hv)
    cvec_dxh = 0.5 * qc.comm_C_vec(bu, dx(hv))
    cvec_uhv = 0.5 * qc.comm_C_vec(bu, uhv)

    r12 = (
        0.5 * dx(cvec_h)
        + cvec_dxh
        + cvec_uhv
        + dx(g_avec[:, None] * u)
        + qc.comm_C(u, ix(cvec_dxh, "R12.CuCbuDx"))
        - 0.5 * qc.comm_C(u, ix(qc.comm_C(u, cvec_h), "R12.CuCuCbu"))
        + qc.comm_C(u, ix(cvec_uhv, "R12.CuCbuLu"))
    )

    r21 = (
        0.5 * dx(hbu)
        + 0.25 * qc.scalar_vec(dx(hs), bu)
        - 0.5 * qc.scalar_vec(u, hbu)
        + 0.25 * qc.scalar_vec(cu_dxh, bu)
        - 0.5 * dx(f_au[:, None, None] * bu)
        - 0.5 * qc.scalar_vec(f_au[:, None] * u, bu)
        - 0.5 * qc.scalar_vec(ix(cvec_hbu, "R21.CbuRbu"), bu)
        + 0.5 * qc.qmat_vecmul(bu, ix(qc.matcomm_C(bu, hbu), "R21.matC"))
        + 0.5 * qc.scalar_vec(u, f_au[:, None, None] * bu)
    )

    r22 = (
        dx(dx(hv))
        + dx(uhv)
        - qc.scalar_vec(u, dx(hv))
        - qc.scalar_vec(u, uhv)
        + 0.5 * qc.scalar_vec(cvec_h, bu)
        + dx(g_avec[:, None, None] * bu)
        - qc.scalar_vec(ix(cvec_dxh, "R22.CbuDx"), bu)
        + qc.qmat_vecmul(bu, ix(qc.matcomm_C(bu, dx(hv)), "R22.matCDx"))
        + 0.5 * qc.scalar_vec(ix(qc.comm_C(u, cvec_h), "R22.CuCbu"), bu)
        + qc.scalar_vec(g_avec[:, None] * u, bu)
        - qc.scalar_vec(ix(cvec_uhv, "R22.CbuLu"), bu)
        + qc.qmat_vecmul(bu, ix(qc.matcomm_C(bu, uhv), "R22.matCLu"))
        - qc.scalar_vec(u, g_avec[:, None, None] * bu)
    )

    out_s = r11 + r12
    out_v = r21 + r22
    return make_flow(grid, out_s, out_v)


# -- hierarchy with jet-normalized antiderivative constants -------------------

def _h_par0_local(u, bu) -> np.ndarray:
    """Jet antiderivative for the level-0 tangential part: |u|^2/2 + |bu|^2/2."""
    return 0.5 * qc.qnormsq(u) + 0.5 * qc.vec_normsq(bu)


def _w_par1_local(u, bu, ux, bux) -> np.ndarray:
    """Jet antiderivative of the w_parallel integrand at level 1."""
    return (
        -0.25 * qc.comm_C(u, ux)
        + 0.5 * qc.comm_C_vec(bu, bux)
        - 0.5 * qc.vec_normsq(bu)[:, None] * u
    )


def _W_par1_local(u, bu, bux) -> np.ndarray:
    """Jet antiderivative of the W_parallel integrand at level 1: bold
    C(bu, bu_x) plus the matrix of entries conj(bu_l) u bu_k."""
    return qc.matcomm_C(bu, bux) + qc.scalar_vec(qc.qconj(bu), qc.scalar_vec(u, bu)[:, None])


def _density_values(u, bu, grid: PeriodicGrid, l: int) -> np.ndarray:
    """Closed-form conserved densities of levels 0 and 1 on raw arrays.

    The grid is axis 0 and any batch axes follow it: u (N, ..., 4) and
    bu (N, ..., m, 4) give a density shaped (N, ...).
    """
    if l == 0:
        return _h_par0_local(u, bu)
    if l == 1:
        ux = gcalc.spectral_deriv(u, grid)
        bux = gcalc.spectral_deriv(bu, grid)
        return (
            -0.125 * qc.qnormsq(ux)
            - 0.5 * qc.vec_normsq(bux)
            - 0.125 * qc.acomm_A_im(u, qc.comm_C_vec(bu, bux))
            + 0.125 * (qc.qnormsq(u) + qc.vec_normsq(bu)) ** 2
        )
    raise DomainError("closed-form densities are available for l = 0, 1 only")


def hamiltonian_local_density(state: StatePair, l: int) -> Field:
    """Closed-form conserved densities for levels 0 and 1."""
    return Field(state.grid, _density_values(*state.arrays(), state.grid, l), "real")


def hamiltonian_value(state: StatePair, l: int) -> float:
    return gcalc.integrate(hamiltonian_local_density(state, l))


def _jet_h_par_const(state: StatePair, l: int) -> float | None:
    """Jet constant of h_par in the recursion step from level l: known for
    l <= 1, None (the zero mean) above."""
    if l == 0:
        return float(np.mean(_h_par0_local(*state.arrays())))
    if l == 1:
        return 3.0 * hamiltonian_value(state, 1) / state.grid.length
    return None


def hierarchy_flows(
    state: StatePair, l_max: int, mean_tolerance: float = DEFAULT_MEAN_TOLERANCE
) -> list[FlowPair]:
    """Flows h_(0..l_max) with jet constants; each level is computed once and reused."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    flows = [state_deriv(state)]
    for l in range(l_max):
        h_par_const = _jet_h_par_const(state, l)
        w_par_const = W_par_const = None
        if l == 0:
            u, bu = state.arrays()
            ux, bux = flows[0].arrays()
            w_par_const = np.mean(_w_par1_local(u, bu, ux, bux), axis=0)
            W_par_const = np.mean(_W_par1_local(u, bu, bux), axis=0)
        try:
            w_next = apply_J(state, flows[l], mean_tolerance, h_par_const)
            flows.append(
                apply_H(state, w_next, mean_tolerance, w_par_const, W_par_const)
            )
        except Exception as exc:
            exc.hierarchy_level = l + 1
            raise
    return flows


def hierarchy_flow(state, l, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    return hierarchy_flows(state, l, mean_tolerance)[l]


def hierarchy_covector(state, l, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> CovectorPair:
    """Covector w_(l) = (R*)^l (u, bu); w_(0) is the state itself."""
    if l == 0:
        return make_covector(state.grid, state.u.values.copy(), state.bu.values.copy())
    flows = hierarchy_flows(state, l - 1, mean_tolerance)
    return apply_J(state, flows[l - 1], mean_tolerance, _jet_h_par_const(state, l - 1))


def hamiltonian_density(state: StatePair, l: int, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> Field:
    """Zero-mean density (1/(1+2l)) D_x^{-1} Re(<u, hs_(l)> + <bu, hv_(l)>)."""
    if l < 0:
        raise DomainError("l must be >= 0")
    h = hierarchy_flows(state, l, mean_tolerance)[l]
    u, bu = state.arrays()
    hs, hv = h.arrays()
    integrand = qc.dot4(u, hs) + qc.vec_dot(bu, hv)
    ref = state.rms() * h.rms()
    block = f"hamiltonian_density[{l}]"
    vals = gcalc.guarded_antideriv(integrand, state.grid, mean_tolerance, block, ref)
    return Field(state.grid, vals / (1.0 + 2.0 * l), "real")


# -- pairings, gradients, brackets -------------------------------------------

def pairing(a: _Pair, b: _Pair) -> float:
    """Integrated real pairing of two pairs on the same grid."""
    if a.grid != b.grid:
        raise DimensionMismatchError("pairs live on different grids")
    dens = qc.dot4(a.s.values, b.s.values) + qc.vec_dot(a.v.values, b.v.values)
    return float(np.sum(dens) * a.grid.dx)


def variational_derivative_fd(functional, state: StatePair, eps: float = 1e-5) -> CovectorPair:
    """Central finite-difference gradient of a functional of the state.

    Probes every grid point and component; the result is the Riesz
    representer under ``pairing``, assembled as a covector pair.  Serves as
    the independent oracle for closed-form covectors.

    The functional must provide ``values(u, bu, grid)``: the values of a
    batch of states stacked along axis 1, u (N, P, 4) and bu (N, P, m, 4),
    as an array (P,).  The 2N probes of one component form one batch: probe
    i moves grid point i by +step, probe N + i by -step.  A batch holds
    8 N^2 (1 + m) floats, which suits the small grids the oracle is for.
    """
    if not hasattr(functional, "values"):
        raise DomainError("the finite-difference oracle needs a functional with values(u, bu, grid)")
    grid = state.grid
    N = grid.num_points
    m = state.n - 1
    step = eps * max(state.rms(), 1.0)
    u0, bu0 = state.arrays()
    rows = np.arange(N)

    def batch(base, entry=None):
        """2N copies of base along axis 1, the probes at `entry` moved by +-step."""
        out = np.repeat(base[:, None], 2 * N, axis=1)
        if entry is not None:
            out[(rows, rows) + entry] += step
            out[(rows, N + rows) + entry] -= step
        return out

    def central(u, bu):
        vals = functional.values(u, bu, grid)
        return (vals[:N] - vals[N:]) / (2 * step) / grid.dx

    ws = np.zeros((N, 4))
    bu_fixed = batch(bu0)
    for comp in range(1, 4):
        ws[:, comp] = central(batch(u0, (comp,)), bu_fixed)
    wv = np.zeros((N, m, 4))
    u_fixed = batch(u0)
    for l in range(m):
        for comp in range(4):
            wv[:, l, comp] = central(u_fixed, batch(bu0, (l, comp)))
    return make_covector(grid, ws, wv)


def poisson_bracket(state, f1, f2, mean_tolerance: float = DEFAULT_MEAN_TOLERANCE) -> float:
    """{f1, f2} = pairing(grad f1, H grad f2), from the functionals' closed-form
    gradients."""
    return pairing(f1.gradient(state), apply_H(state, f2.gradient(state), mean_tolerance))


class HierarchyFunctional:
    """Conserved functional of level l (closed-form local density, l <= 1)."""

    def __init__(self, l: int):
        if l not in (0, 1):
            raise DomainError("closed-form functionals exist for l = 0, 1")
        self.l = l

    def __call__(self, state: StatePair) -> float:
        return hamiltonian_value(state, self.l)

    def values(self, u, bu, grid: PeriodicGrid) -> np.ndarray:
        """H_l of the states stacked along axis 1, u (N, P, 4) and bu (N, P, m, 4).

        Each probe's density is summed along a contiguous row, in the order
        of hamiltonian_value's sum, so value p equals hamiltonian_value of
        state p bit for bit.
        """
        dens = _density_values(u, bu, grid, self.l)
        return np.sum(np.ascontiguousarray(dens.T), axis=1) * grid.dx

    def gradient(self, state: StatePair) -> CovectorPair:
        return hierarchy_covector(state, self.l)


def equivalence_action_pair(a, A, p):
    """Pointwise residual-group action (s, v) -> (a s a^-1, a v A) on a pair."""
    x = sl.equivalence_action(a, A, sl.MPerp(p.s.values, p.v.values))
    return type(p)(Field(p.grid, x.s, p.s.kind), Field(p.grid, x.v, "qvec"))
