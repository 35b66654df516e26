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
polynomial means are known in closed form and the hierarchy applies them
(constants="jet", the default), so hierarchy_flow(state, 1) reproduces the
local scalar-vector mKdV right side exactly and level 2 remains integrable;
the level-2 flow then differs from its jet normalization only by multiples
of lower flows and rigid-symmetry generators, which preserves commutation
and scaling behavior.  Attempting level 3, or running the raw zero-mean
convention past level 1, can produce genuinely non-exact integrands; that
surfaces as NonlocalityError tagged with the failing level, never as a
silent fix.

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
from .errors import DimensionMismatchError, DomainError
from .grid_calculus import DEFAULT_MEAN_TOLERANCE, Field, PeriodicGrid
from .symm_lie import chi


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
        if self.s.grid != self.v.grid:
            raise DimensionMismatchError("pair fields live on different grids")

    def arrays(self):
        return self.s.values, self.v.values

    def copy(self):
        return type(self)(self.s.copy(), self.v.copy())

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

    def __post_init__(self):
        self._validate()
        if np.max(np.abs(self.u.values[:, 0])) > 1e-9 * max(self.u.rms(), 1e-30):
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


def make_covector(grid, s_values, v_values) -> CovectorPair:
    return CovectorPair(Field(grid, s_values, "iquat"), Field(grid, v_values, "qvec"))


def zero_flow(grid, n) -> FlowPair:
    return make_flow(grid, np.zeros((grid.num_points, 4)), np.zeros((grid.num_points, n - 1, 4)))


def state_deriv(state: StatePair) -> FlowPair:
    """The level-0 flow pair (u_x, bu_x)."""
    return make_flow(
        state.grid,
        gcalc.spectral_deriv(state.u.values, state.grid),
        gcalc.spectral_deriv(state.bu.values, state.grid),
    )


# -- pointwise kernels on raw arrays ----------------------------------------

def _comm(a, b):
    return qc.qmul(a, b) - qc.qmul(b, a)


def _acomm_real(a, b):
    """A(a, b) as a real array, for pointwise imaginary scalars."""
    return -2.0 * np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def _scalar_times_vec(s, v):
    return qc.qmul(s[:, None, :], v) if v.shape[1] else np.zeros_like(v)


def _real_times_vec(f, v):
    return f[:, None, None] * v


def _comm_vec(x, y):
    return qc.comm_C_vec(x, y)


def _avec_real(x, y):
    """(1/2) A(x, y) = Re<x, y>."""
    return qc.vec_dot(x, y)


def _uut_mat(bu, u):
    """Matrix with entries conj(bu_l) * u * bu_m."""
    m = bu.shape[1]
    if m == 0:
        return np.zeros(bu.shape[:1] + (0, 0, 4))
    left = qc.qmul(qc.qconj(bu)[:, :, None, :], u[:, None, None, :])
    return qc.qmul(left, bu[:, None, :, :])


def _dx(values, grid):
    return gcalc.spectral_deriv(values, grid)


def _inv_dx(values, grid, tol, block, const=None, ref=0.0):
    """Zero-mean antiderivative of a raw array, optionally shifted to a jet constant.

    The mean check is relative to max(integrand rms, ref); the reference scale
    lets integrands that vanish identically up to roundoff pass.
    """
    means = np.mean(values, axis=0)
    scale = float(np.sqrt(np.mean(values**2))) if values.size else 0.0
    worst = float(np.max(np.abs(means))) if means.size else 0.0
    if worst > tol * max(scale, ref, 1e-300):
        from .errors import NonlocalityError

        raise NonlocalityError(block, worst, scale, tol)
    out = gcalc.spectral_antideriv(values, grid)
    if const is not None:
        out = out + const
    return out


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
    integrand = _comm(u, ws) - 0.5 * _comm_vec(bu, wv)
    w_par = -_inv_dx(integrand, grid, mean_tolerance, "w_parallel",
                     None if w_par_const is None else -np.asarray(w_par_const), ref)
    W_par = _inv_dx(qc.matcomm_C(bu, wv), grid, mean_tolerance, "W_parallel",
                    W_par_const, ref)
    return Field(grid, w_par, "iquat"), Field(grid, W_par, "qmat")


def h_parallel(
    state: StatePair,
    h: FlowPair,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
    h_par_const: float | None = None,
) -> Field:
    """Tangential component h_par = -D_x^{-1}(A(u, hs)/2 - A(bu, hv)/2)."""
    u, bu = state.arrays()
    hs, hv = h.arrays()
    # A(u, hs)/2 - A(bu, hv)/2 with _avec_real already equal to A(bu, hv)/2
    integrand = 0.5 * _acomm_real(u, hs) - _avec_real(bu, hv)
    ref = state.rms() * h.rms()
    out = -_inv_dx(integrand, state.grid, mean_tolerance, "h_parallel",
                   None if h_par_const is None else -float(h_par_const), ref)
    return Field(state.grid, out, "real")


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
    out_s = _dx(ws, grid) + _comm(u, w_par.values) + 0.5 * _comm_vec(bu, wv)
    out_v = (
        _dx(wv, grid)
        - _scalar_times_vec(w_par.values, bu)
        + qc.qmat_vecmul(bu, W_par.values)
        + _scalar_times_vec(ws, bu)
        - _scalar_times_vec(u, wv)
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
    out_s = 0.25 * _dx(hs, grid) + 0.25 * _comm_vec(bu, hv) + h_par[:, None] * u
    out_v = (
        _dx(hv, grid)
        + 0.5 * _scalar_times_vec(hs, bu)
        + _scalar_times_vec(u, hv)
        + _real_times_vec(h_par, bu)
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
        par_s = _comm(u, zs) - 0.5 * _comm_vec(bu, zv)
        P = _inv_dx(par_s, grid, mean_tolerance, "K.h_par.scalar", None, ref)
        PM = _inv_dx(qc.matcomm_C(zv, bu), grid, mean_tolerance, "K.h_par.matrix", None, ref)
        out_s = _dx(zs, grid) + 0.5 * _comm_vec(bu, zv) - _comm(u, P)
        out_v = (
            _dx(zv, grid)
            + _scalar_times_vec(zs, bu)
            - _scalar_times_vec(u, zv)
            + _scalar_times_vec(P, bu)
            - qc.qmat_vecmul(bu, PM)
        )
        return out_s, out_v
    if subspace == "mperp":
        par = _acomm_real(zs, u) + _avec_real(zv, bu)
        f = _inv_dx(par, grid, mean_tolerance, "K.m_par", None, ref)
        out_s = _dx(zs, grid) - 0.5 * _comm_vec(bu, zv) - 2.0 * f[:, None] * u
        out_v = (
            _dx(zv, grid)
            - _scalar_times_vec(zs, bu)
            + _scalar_times_vec(u, zv)
            + _real_times_vec(f, bu)
        )
        return out_s, out_v
    raise DomainError(f"unknown subspace tag {subspace!r}")


def apply_H_via_K(state, w: CovectorPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    out_s, out_v = apply_K(state, w.ws.values, w.wv.values, "hperp", mean_tolerance)
    return make_flow(state.grid, out_s, out_v)


def apply_J_via_K(state, h: FlowPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> CovectorPair:
    # inner ad(e)^{-1}: h_perp -> m_perp is (s, v) -> (s/2, -v); outer map with the
    # overall minus sign sends the K output (s, v) to (s/2, -v) again.
    zs, zv = 0.5 * h.hs.values, -h.hv.values
    out_s, out_v = apply_K(state, zs, zv, "mperp", mean_tolerance)
    return make_covector(state.grid, 0.5 * out_s, -out_v)


def apply_R(state, h: FlowPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    """Recursion operator R = H o J (zero-mean antiderivative convention)."""
    return apply_H(state, apply_J(state, h, mean_tolerance), mean_tolerance)


def apply_R_adjoint(state, w: CovectorPair, mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> CovectorPair:
    """Adjoint recursion operator R* = J o H."""
    return apply_J(state, apply_H(state, w, mean_tolerance), mean_tolerance)


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
        return _dx(a, grid)

    ref = state.rms() * h.rms() * (1.0 + 2.0 * np.pi * grid.num_points / grid.length)

    def ix(a, block):
        return _inv_dx(a, grid, tol, block, None, ref)

    hbu = _scalar_times_vec(hs, bu)  # R_bu hs
    f_au = ix(_acomm_real(u, hs), "R11.AuDxInvAu")  # D_x^{-1} A_u hs
    cu_dxh = ix(_comm(u, dx(hs)), "R11.CuDx")
    cvec_hbu = 0.5 * _comm_vec(bu, hbu)  # C_bu R_bu hs

    r11 = (
        0.25 * dx(dx(hs))
        + 0.5 * cvec_hbu
        - 0.5 * dx(f_au[:, None] * u)
        - 0.25 * _comm(u, cu_dxh)
        + 0.5 * _comm(u, ix(cvec_hbu, "R11.CuCbuRbu"))
    )

    cvec_h = 0.5 * _comm_vec(bu, hv)  # C_bu hv
    g_avec = ix(_avec_real(bu, hv), "R12.AuDxInvAvec")  # D_x^{-1} A_bu hv
    uhv = _scalar_times_vec(u, hv)
    cvec_dxh = 0.5 * _comm_vec(bu, dx(hv))
    cvec_uhv = 0.5 * _comm_vec(bu, uhv)

    r12 = (
        0.5 * dx(cvec_h)
        + cvec_dxh
        + cvec_uhv
        + dx(g_avec[:, None] * u)
        + _comm(u, ix(cvec_dxh, "R12.CuCbuDx"))
        - 0.5 * _comm(u, ix(_comm(u, cvec_h), "R12.CuCuCbu"))
        + _comm(u, ix(cvec_uhv, "R12.CuCbuLu"))
    )

    r21 = (
        0.5 * dx(hbu)
        + 0.25 * _scalar_times_vec(dx(hs), bu)
        - 0.5 * _scalar_times_vec(u, hbu)
        + 0.25 * _scalar_times_vec(cu_dxh, bu)
        - 0.5 * dx(_real_times_vec(f_au, bu))
        - 0.5 * _scalar_times_vec(f_au[:, None] * u, bu)
        - 0.5 * _scalar_times_vec(ix(cvec_hbu, "R21.CbuRbu"), bu)
        + 0.5 * qc.qmat_vecmul(bu, ix(qc.matcomm_C(bu, hbu), "R21.matC"))
        + 0.5 * qc.qmul(u[:, None, :], _real_times_vec(f_au, bu))
    )

    r22 = (
        dx(dx(hv))
        + dx(uhv)
        - _scalar_times_vec(u, dx(hv))
        - _scalar_times_vec(u, uhv)
        + 0.5 * _scalar_times_vec(cvec_h, bu)
        + dx(_real_times_vec(g_avec, bu))
        - _scalar_times_vec(ix(cvec_dxh, "R22.CbuDx"), bu)
        + qc.qmat_vecmul(bu, ix(qc.matcomm_C(bu, dx(hv)), "R22.matCDx"))
        + 0.5 * _scalar_times_vec(ix(_comm(u, cvec_h), "R22.CuCbu"), bu)
        + _scalar_times_vec(g_avec[:, None] * u, bu)
        - _scalar_times_vec(ix(cvec_uhv, "R22.CbuLu"), bu)
        + qc.qmat_vecmul(bu, ix(qc.matcomm_C(bu, uhv), "R22.matCLu"))
        - qc.qmul(u[:, None, :], _real_times_vec(g_avec, bu))
    )

    out_s = r11 + r12
    out_v = r21 + r22
    return make_flow(grid, out_s, out_v)


# -- hierarchy with jet-normalized antiderivative constants -------------------

def _h_par0_local(state: StatePair) -> np.ndarray:
    """Jet antiderivative for the level-0 tangential part: |u|^2/2 + |bu|^2/2."""
    u, bu = state.arrays()
    return 0.5 * qc.qnormsq(u) + 0.5 * qc.vec_normsq(bu)


def _w_par1_local(state: StatePair) -> np.ndarray:
    """Jet antiderivative of the w_parallel integrand at level 1."""
    u, bu = state.arrays()
    ux = gcalc.spectral_deriv(u, state.grid)
    bux = gcalc.spectral_deriv(bu, state.grid)
    return (
        -0.25 * _comm(u, ux)
        + 0.5 * _comm_vec(bu, bux)
        - 0.5 * qc.vec_normsq(bu)[:, None] * u
    )


def _W_par1_local(state: StatePair) -> np.ndarray:
    """Jet antiderivative of the W_parallel integrand at level 1."""
    u, bu = state.arrays()
    bux = gcalc.spectral_deriv(bu, state.grid)
    return qc.matcomm_C(bu, bux) + _uut_mat(bu, u)


def hamiltonian_local_density(state: StatePair, l: int) -> Field:
    """Closed-form conserved densities for levels 0 and 1."""
    u, bu = state.arrays()
    grid = state.grid
    if l == 0:
        return Field(grid, _h_par0_local(state), "real")
    if l == 1:
        ux = gcalc.spectral_deriv(u, grid)
        bux = gcalc.spectral_deriv(bu, grid)
        vals = (
            -0.125 * qc.qnormsq(ux)
            - 0.5 * qc.vec_normsq(bux)
            - 0.125 * _acomm_real(u, _comm_vec(bu, bux))
            + 0.125 * (qc.qnormsq(u) + qc.vec_normsq(bu)) ** 2
        )
        return Field(grid, vals, "real")
    raise DomainError("closed-form densities are available for l = 0, 1 only")


def hamiltonian_value(state: StatePair, l: int) -> float:
    return gcalc.integrate(hamiltonian_local_density(state, l))


def hierarchy_flows(
    state: StatePair,
    l_max: int,
    constants: str = "jet",
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
) -> list[FlowPair]:
    """Flows h_(0..l_max); each level is computed once and reused."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    if constants not in ("jet", "zero_mean"):
        raise DomainError(f"unknown constants convention {constants!r}")
    L = state.grid.length
    flows = [state_deriv(state)]
    for l in range(l_max):
        h_par_const = None
        w_par_const = None
        W_par_const = None
        if constants == "jet" and l <= 1:
            h_par_const = float(np.mean(_h_par0_local(state))) if l == 0 else (
                3.0 * hamiltonian_value(state, 1) / L
            )
            if l == 0:
                w_par_const = np.mean(_w_par1_local(state), axis=0)
                W_par_const = np.mean(_W_par1_local(state), axis=0)
        try:
            w_next = apply_J(state, flows[l], mean_tolerance, h_par_const)
            flows.append(
                apply_H(state, w_next, mean_tolerance, w_par_const, W_par_const)
            )
        except Exception as exc:
            exc.hierarchy_level = l + 1
            raise
    return flows


def hierarchy_flow(state, l, constants="jet", mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> FlowPair:
    return hierarchy_flows(state, l, constants, mean_tolerance)[l]


def hierarchy_covector(state, l, constants="jet", mean_tolerance=DEFAULT_MEAN_TOLERANCE) -> CovectorPair:
    """Covector w_(l) = (R*)^l (u, bu); w_(0) is the state itself."""
    if l == 0:
        return make_covector(state.grid, state.u.values.copy(), state.bu.values.copy())
    flows = hierarchy_flows(state, l - 1, constants, mean_tolerance)
    h_par_const = None
    if constants == "jet" and l - 1 <= 1:
        h_par_const = (
            float(np.mean(_h_par0_local(state)))
            if l - 1 == 0
            else 3.0 * hamiltonian_value(state, 1) / state.grid.length
        )
    return apply_J(state, flows[l - 1], mean_tolerance, h_par_const)


def hamiltonian_density(
    state: StatePair, l: int, constants="jet", mean_tolerance=DEFAULT_MEAN_TOLERANCE
) -> Field:
    """Zero-mean density (1/(1+2l)) D_x^{-1} Re(<u, hs_(l)> + <bu, hv_(l)>)."""
    if l < 0:
        raise DomainError("l must be >= 0")
    h = hierarchy_flows(state, l, constants, mean_tolerance)[l]
    u, bu = state.arrays()
    hs, hv = h.arrays()
    integrand = qc.dot4(u, hs) + qc.vec_dot(bu, hv)
    ref = state.rms() * h.rms()
    vals = _inv_dx(integrand, state.grid, mean_tolerance, f"hamiltonian_density[{l}]", None, ref)
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
    """
    grid = state.grid
    N = grid.num_points
    m = state.n - 1
    step = eps * max(state.rms(), 1.0)
    u0 = state.u.values
    bu0 = state.bu.values

    def value(uv, bv):
        return functional(make_state(grid, uv, bv))

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
    return make_covector(grid, ws, wv)


def _gradient_of(functional, state, eps):
    if hasattr(functional, "gradient"):
        return functional.gradient(state)
    return variational_derivative_fd(functional, state, eps)


def poisson_bracket(state, f1, f2, eps: float = 1e-5,
                    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE) -> float:
    """{f1, f2} = pairing(grad f1, H grad f2)."""
    g1 = _gradient_of(f1, state, eps)
    g2 = _gradient_of(f2, state, eps)
    return pairing(g1, apply_H(state, g2, mean_tolerance))


def symplectic_pairing(state, X1: FlowPair, X2: FlowPair,
                       mean_tolerance: float = DEFAULT_MEAN_TOLERANCE) -> float:
    """omega(X1, X2) = pairing(X1, J X2)."""
    return pairing(X1, apply_J(state, X2, mean_tolerance))


def symplectic_closure_residual(state, X1, X2, X3, eps: float = 1e-4) -> float:
    """Cyclic sum pr(X1) omega(X2, X3) + cyclic, for constant flow pairs."""
    grid = state.grid

    def omega_at(s, A, B):
        return symplectic_pairing(s, A, B, mean_tolerance=np.inf)

    def directional(A, B, C):
        sp = make_state(grid, state.u.values + eps * qc.qim(A.hs.values),
                        state.bu.values + eps * A.hv.values)
        sm = make_state(grid, state.u.values - eps * qc.qim(A.hs.values),
                        state.bu.values - eps * A.hv.values)
        return (omega_at(sp, B, C) - omega_at(sm, B, C)) / (2 * eps)

    return (
        directional(X1, X2, X3)
        + directional(X2, X3, X1)
        + directional(X3, X1, X2)
    )


class HierarchyFunctional:
    """Conserved functional of level l (closed-form local density, l <= 1)."""

    def __init__(self, l: int):
        if l not in (0, 1):
            raise DomainError("closed-form functionals exist for l = 0, 1")
        self.l = l

    def __call__(self, state: StatePair) -> float:
        return hamiltonian_value(state, self.l)

    def gradient(self, state: StatePair) -> CovectorPair:
        return hierarchy_covector(state, self.l)


def equivalence_action_pair(a, A, p):
    """Pointwise residual-group action (s, v) -> (a s a^-1, a v A) on a pair."""
    from .symm_lie import check_unit_quaternion, check_unitary

    check_unit_quaternion(a)
    check_unitary(A)
    s = qc.qmul(qc.qmul(a, p.s.values), qc.qconj(a))
    if p.v.values.shape[1]:
        v = qc.qmat_vecmul(qc.qmul(a, p.v.values), A)
    else:
        v = p.v.values.copy()
    return type(p)(Field(p.grid, s, p.s.kind), Field(p.grid, v, "qvec"))


def dump_pair_csv(path, state: StatePair, out: _Pair):
    """Diagnostic dump: x, state components, output components."""
    grid = state.grid
    cols = [grid.x]
    for arr in (*state.arrays(), *out.arrays()):
        cols.append(arr.reshape(grid.num_points, -1))
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", fmt="%.17e")
