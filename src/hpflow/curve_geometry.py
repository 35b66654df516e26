"""Moving parallel frames, curve reconstruction, and geometric verification.

The frame is the group element psi(x) solving the right-invariant transport
ODE psi_x = psi (e_x + omega_x), where e_x is the constant unit tangent
representative (carrying the 1/sqrt(chi) Killing normalization) and
omega_x = (u, bu) is the connection built from the state.  psi is stored in
the complex embedding of quaternion matrices, where anti-Hermitian stage
matrices exponentiate through a batched Hermitian eigendecomposition, so the
transport preserves quaternion-unitarity to roundoff.

The curve is gamma(x) = psi(x) applied to the origin column (1, 0, ..., 0)^t:
a unit vector in H^(n+1) representing a projective point up to right unit
quaternion phase.  Ambient checks (tangent norm, curvature invariants) use
the quotient-metric dictionary

    vertical at gamma   : span{gamma i, gamma j, gamma k}
    g(V, W)             : chi * Re<V_amb, W_amb> on horizontal vectors,

together with the phase-drag correction: differentiating the reconstructed
representative in x drags a vertical term gamma*u along, so horizontal
derivatives of horizontal fields are hor(W_x - W u).

Map verification pulls ambient vectors back to Lie-algebra components
through the frame, where the covariant derivative is D_x + [omega_x, .] and
the curve-flow operator acts diagonally on the tangent decomposition with
eigenvalues 0, 4/chi, 1/chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import biham_ops as bo
from . import grid_calculus as gcalc
from . import quat_core as qc
from . import soliton_flows as sf
from .biham_ops import StatePair, make_state
from .errors import BlowUpError, DomainError, GaugeAlignmentError, IntegrationAccuracyError
from .grid_calculus import Field, PeriodicGrid
from .symm_lie import chi


# -- batched matrix builders ---------------------------------------------------

def m_matrix(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m-type matrices [[0, s, v], [-conj s, 0, 0], [-conj v^t, 0, 0]]."""
    K = s.shape[0]
    m = v.shape[1]
    out = np.zeros((K, m + 2, m + 2, 4))
    out[:, 0, 1] = s
    out[:, 1, 0] = -qc.qconj(s)
    if m:
        out[:, 0, 2:] = v
        out[:, 2:, 0] = -qc.qconj(v)
    return out


def h_matrix(p: np.ndarray, P: np.ndarray, q: np.ndarray, qv: np.ndarray) -> np.ndarray:
    """h-type matrices [[p+q, 0, 0], [0, p-q, qv], [0, -conj qv^t, P]]."""
    K = p.shape[0]
    m = qv.shape[1]
    out = np.zeros((K, m + 2, m + 2, 4))
    out[:, 0, 0] = p + q
    out[:, 1, 1] = p - q
    if m:
        out[:, 1, 2:] = qv
        out[:, 2:, 1] = -qc.qconj(qv)
        out[:, 2:, 2:] = P
    return out


def cartan_tangent_matrix(n: int, num_points: int) -> np.ndarray:
    s = np.zeros((num_points, 4))
    s[:, 0] = 1.0 / np.sqrt(chi(n))
    return m_matrix(s, np.zeros((num_points, n - 1, 4)))


def connection_matrix(state: StatePair) -> np.ndarray:
    u, bu = state.arrays()
    K = u.shape[0]
    m = bu.shape[1]
    return h_matrix(np.zeros((K, 4)), np.zeros((K, m, m, 4)), u, bu)


def expm_antihermitian(Z: np.ndarray) -> np.ndarray:
    """Batched exponential of complex anti-Hermitian matrices via eigh."""
    lam, V = np.linalg.eigh(1j * Z)
    return (V * np.exp(-1j * lam)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def right_prefix_products(T: np.ndarray) -> np.ndarray:
    """Q[0] = I, Q[i] = T[0] @ T[1] @ ... @ T[i-1]."""
    swapped = np.swapaxes(T, -1, -2)
    return np.swapaxes(sf.prefix_products(swapped), -1, -2)


# -- frame transport -----------------------------------------------------------

@dataclass
class FrameState:
    """Group-valued frame along x, stored in the complex embedding."""

    grid: PeriodicGrid
    n: int
    psi: np.ndarray  # (K, 2(n+1), 2(n+1)) complex
    monodromy: np.ndarray  # psi(x0)^-1 psi(x0 + L)

    @property
    def psi_quat(self) -> np.ndarray:
        return qc.qmat_from_complex(self.psi)

    def unitarity_defect(self) -> float:
        eye = np.eye(self.psi.shape[-1])
        defect = self.psi @ np.conj(np.swapaxes(self.psi, -1, -2)) - eye
        return float(np.max(np.abs(defect)))


def _transport_transfers(state: StatePair, refine: int) -> np.ndarray:
    """Per-cell transfer exponentials for psi_x = psi * (e_x + omega_x)."""
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    u_f[:, 0] = 0.0
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    K = u_f.shape[0]
    mats = connection_matrix(make_state(grid.refined(fine), u_f, bu_f))
    mats += cartan_tangent_matrix(state.n, K)
    A = qc.qmat_to_complex(mats)
    A0 = A[0::2]
    Amid = A[1::2]
    A1 = np.roll(A0, -1, axis=0)
    h = grid.dx / refine
    comm = Amid @ (A1 - A0) - (A1 - A0) @ Amid
    Omega = (h / 6.0) * (A0 + 4.0 * Amid + A1) + (h**2 / 12.0) * comm
    return expm_antihermitian(Omega)


def transport_frame(state: StatePair, psi0: np.ndarray | None = None, refine: int = 4) -> FrameState:
    """Integrate the frame along x on the refine-times-finer grid."""
    grid = state.grid
    size = 2 * (state.n + 1)
    transfers = _transport_transfers(state, refine)
    prefixes = right_prefix_products(transfers)
    psi = prefixes[:-1]
    monodromy = prefixes[-1]
    if psi0 is not None:
        psi0 = np.asarray(psi0)
        if psi0.shape != (size, size):
            raise DomainError(f"psi0 must be {size} x {size} complex")
        psi = psi0 @ psi
    fine_grid = grid.refined(refine)
    return FrameState(fine_grid, state.n, psi, monodromy)


def downsample_frame(frame: FrameState, factor: int) -> FrameState:
    return FrameState(
        PeriodicGrid(frame.grid.num_points // factor, frame.grid.length),
        frame.n,
        frame.psi[::factor].copy(),
        frame.monodromy.copy(),
    )


# -- curve reconstruction ------------------------------------------------------

@dataclass
class CurveSample:
    """Points of the reconstructed curve as unit vectors in H^(n+1)."""

    grid: PeriodicGrid
    gamma: np.ndarray  # (K, n+1, 4)
    monodromy: np.ndarray  # complex embedding, for seam extension

    def gauge_fixed(self, threshold: float = 0.3) -> np.ndarray:
        """Representative with the first sizable component made positive real."""
        K, rows, _ = self.gamma.shape
        out = self.gamma.copy()
        norms = qc.qnorm(self.gamma)
        for i in range(K):
            idx = next(
                (l for l in range(rows) if norms[i, l] > threshold), int(np.argmax(norms[i]))
            )
            lam = qc.qconj(self.gamma[i, idx]) / norms[i, idx]
            out[i] = qc.qmul(self.gamma[i], lam[None, :])
        return out


def reconstruct_curve(frame: FrameState) -> CurveSample:
    gamma = frame.psi_quat[:, :, 0, :].copy()
    return CurveSample(frame.grid, gamma, frame.monodromy)


def amb_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ambient Euclidean pairing Re<a, b> of H^(n+1) columns."""
    return np.sum(a * b, axis=(-1, -2))


def _right_phase(gamma: np.ndarray, q: np.ndarray) -> np.ndarray:
    return qc.qmul(gamma, np.broadcast_to(q, gamma.shape))


def project_horizontal(V: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Remove the radial and right-phase (vertical) components at gamma."""
    out = V - amb_dot(V, gamma)[:, None, None] * gamma
    for q in (qc.I, qc.J, qc.K):
        vq = _right_phase(gamma, q)
        out = out - amb_dot(out, vq)[:, None, None] * vq
    return out


def project_vertical_out(V: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    out = V.copy()
    for q in (qc.I, qc.J, qc.K):
        vq = _right_phase(gamma, q)
        out = out - amb_dot(out, vq)[:, None, None] * vq
    return out


def _extend_with_monodromy(gamma: np.ndarray, monodromy: np.ndarray, halo: int) -> np.ndarray:
    """Periodic extension of curve samples: gamma(x + L) = M gamma(x)."""
    Mq = qc.qmat_from_complex(monodromy)
    Mq_inv = qc.qmat_conj_t(Mq)
    right = np.stack([qc.qmatmul(Mq, gamma[j]) for j in range(halo)])
    left = np.stack([qc.qmatmul(Mq_inv, gamma[-halo + j]) for j in range(halo)])
    return np.concatenate([left, gamma, right], axis=0)


def fd6_x(values_ext: np.ndarray, dx: float) -> np.ndarray:
    """Sixth-order centered derivative of a three-point-halo extended array."""
    c = values_ext
    return (
        -c[0:-6] + 9.0 * c[1:-5] - 45.0 * c[2:-4] + 45.0 * c[4:-2] - 9.0 * c[5:-1] + c[6:]
    ) / (60.0 * dx)


def curve_tangent(curve: CurveSample) -> np.ndarray:
    """Ambient tangent (vertical part removed) by sixth-order differencing."""
    ext = _extend_with_monodromy(curve.gamma, curve.monodromy, 3)
    raw = fd6_x(ext, curve.grid.dx)
    return project_vertical_out(raw, curve.gamma)


def tangent_speed(curve: CurveSample, n: int) -> np.ndarray:
    """Metric norm |gamma_x|_g, which equals 1 for non-stretching data."""
    T = project_horizontal(curve_tangent(curve), curve.gamma)
    return np.sqrt(chi(n) * amb_dot(T, T))


# -- geometric invariants ------------------------------------------------------

def geometric_invariants(state: StatePair) -> dict:
    """Closed-form curvature invariants from the covariants."""
    grid = state.grid
    u, bu = state.arrays()
    ux = gcalc.spectral_deriv(u, grid)
    bux = gcalc.spectral_deriv(bu, grid)
    g_nn = 4.0 * qc.qnormsq(u) + qc.vec_normsq(bu)
    g_nnx = 4.0 * qc.dot4(u, ux) + qc.vec_dot(bu, bux)
    ubu = qc.qmul(u[:, None, :], bu) if bu.shape[1] else bu
    g_nxnx = (
        4.0 * qc.qnormsq(ux)
        + qc.vec_normsq(bux)
        + g_nn**2
        + 9.0 * qc.qnormsq(u) * qc.vec_normsq(bu)
        + 6.0 * qc.vec_dot(ubu, bux)
    )
    return {
        "g_NN": Field(grid, g_nn, "real"),
        "g_NNx": Field(grid, g_nnx, "real"),
        "g_NxNx": Field(grid, g_nxnx, "real"),
    }


def geometric_invariants_from_curve(state: StatePair, refine: int = 8) -> dict:
    """The same invariants measured on the reconstructed curve.

    Differentiation of the representative drags the vertical phase velocity
    gamma*u; horizontal covariant derivatives therefore subtract W*u before
    projecting.
    """
    frame = transport_frame(state, refine=refine)
    curve = reconstruct_curve(frame)
    fine_grid = frame.grid
    u_f = gcalc.spectral_refine(state.u.values, state.grid, refine)

    gamma = curve.gamma
    T = project_horizontal(curve_tangent(curve), gamma)

    def horizontal_derivative(W):
        ext = _extend_with_monodromy(W, curve.monodromy, 3)
        raw = fd6_x(ext, fine_grid.dx)
        dragged = raw - qc.qmul(W, u_f[:, None, :])
        return project_horizontal(dragged, gamma)

    N = horizontal_derivative(T)
    NX = horizontal_derivative(N)
    c = chi(state.n)
    return {
        "g_NN": c * amb_dot(N, N),
        "g_NNx": c * amb_dot(N, NX),
        "g_NxNx": c * amb_dot(NX, NX),
        "speed": np.sqrt(c * amb_dot(T, T)),
        "frame": frame,
    }


# -- frame-native covariant calculus -------------------------------------------

@dataclass
class MComps:
    """Tangent vector in frame components: full quaternion scalar + vector slot."""

    s: np.ndarray  # (K, 4); real part is the m_par coefficient
    v: np.ndarray  # (K, m, 4)

    def __add__(self, other):
        return MComps(self.s + other.s, self.v + other.v)

    def __sub__(self, other):
        return MComps(self.s - other.s, self.v - other.v)

    def scaled(self, c):
        return MComps(c * self.s, c * self.v)

    def perp(self):
        return MComps(qc.qim(self.s), self.v.copy())

    def par_coeff(self):
        return self.s[:, 0]


def g_metric(a: MComps, b: MComps, n: int) -> np.ndarray:
    """Riemannian metric on frame components, g = -Killing restricted to m."""
    return chi(n) * (qc.dot4(a.s, b.s) + qc.vec_dot(a.v, b.v))


def g_norm(a: MComps, n: int) -> np.ndarray:
    return np.sqrt(np.maximum(g_metric(a, a, n), 0.0))


def pull_to_frame(frame: FrameState, V: np.ndarray) -> tuple[MComps, np.ndarray]:
    """Frame components of ambient vectors; also returns the verticality column."""
    psi_q = frame.psi_quat
    col = qc.qmatmul(qc.qmat_conj_t(psi_q), V[..., None, :])[..., 0, :]
    s = -qc.qconj(col[:, 1])
    v = -qc.qconj(col[:, 2:])
    return MComps(s, v), col[:, 0]


def push_from_frame(frame: FrameState, comps: MComps) -> np.ndarray:
    K = comps.s.shape[0]
    col = np.zeros((K, frame.n + 1, 4))
    col[:, 1] = -qc.qconj(comps.s)
    if comps.v.shape[1]:
        col[:, 2:] = -qc.qconj(comps.v)
    return qc.qmatmul(frame.psi_quat, col[..., None, :])[..., 0, :]


def covariant_deriv_x(state: StatePair, comps: MComps) -> MComps:
    """Frame-native covariant derivative D_x + [omega_x, .] on m-components."""
    grid = state.grid
    u, bu = state.arrays()
    ds = gcalc.spectral_deriv(comps.s, grid)
    dv = gcalc.spectral_deriv(comps.v, grid)
    w_par = comps.s[:, 0]
    z = qc.qim(comps.s)
    par_rate = (
        -2.0 * np.sum(z[:, 1:] * u[:, 1:], axis=-1) + qc.vec_dot(comps.v, bu)
    )
    s_im = (
        2.0 * w_par[:, None] * qc.qim(u)
        - 0.5 * qc.comm_C_vec(bu, comps.v)
    )
    bracket_s = qc.from_real(par_rate) + s_im
    m = bu.shape[1]
    if m:
        bracket_v = (
            -w_par[:, None, None] * bu
            - qc.qmul(z[:, None, :], bu)
            + qc.qmul(u[:, None, :], comps.v)
        )
    else:
        bracket_v = np.zeros_like(comps.v)
    return MComps(ds + bracket_s, dv + bracket_v)


@dataclass
class HComps:
    p: np.ndarray  # (K, 4) imaginary, h_par scalar
    P: np.ndarray  # (K, m, m, 4)
    q: np.ndarray  # (K, 4) imaginary, h_perp scalar
    qv: np.ndarray  # (K, m, 4)


def bracket_mm(a: MComps, b: MComps) -> HComps:
    """[m, m] on packed grid fields, landing in h."""
    a_par, b_par = a.s[:, 0], b.s[:, 0]
    ai, bi = qc.qim(a.s), qc.qim(b.s)
    p = qc.qmul(ai, bi) - qc.qmul(bi, ai) - 0.5 * qc.comm_C_vec(a.v, b.v)
    P = qc.matcomm_C(b.v, a.v)
    q = (
        2.0 * (a_par[:, None] * bi - b_par[:, None] * ai)
        + 0.5 * qc.comm_C_vec(b.v, a.v)
    )
    m = a.v.shape[1]
    if m:
        qv = (
            -a_par[:, None, None] * b.v
            + b_par[:, None, None] * a.v
            + qc.qmul(ai[:, None, :], b.v)
            - qc.qmul(bi[:, None, :], a.v)
        )
    else:
        qv = np.zeros_like(a.v)
    return HComps(p, P, q, qv)


def bracket_hm(h: HComps, b: MComps) -> MComps:
    """[h, m] on packed grid fields, landing in m."""
    b_par = b.s[:, 0]
    bi = qc.qim(b.s)
    par = -2.0 * np.sum(bi[:, 1:] * h.q[:, 1:], axis=-1) + qc.vec_dot(b.v, h.qv)
    s_im = (
        qc.qmul(h.p, bi)
        - qc.qmul(bi, h.p)
        + 2.0 * b_par[:, None] * h.q
        - 0.5 * qc.comm_C_vec(h.qv, b.v)
    )
    m = b.v.shape[1]
    if m:
        v = (
            qc.qmul(h.p[:, None, :], b.v)
            - qc.qmat_vecmul(b.v, h.P)
            - b_par[:, None, None] * h.qv
            - qc.qmul(bi[:, None, :], h.qv)
            + qc.qmul(h.q[:, None, :], b.v)
        )
    else:
        v = np.zeros_like(b.v)
    return MComps(qc.from_real(par) + s_im, v)


def ad_x_squared(z: MComps, w: MComps) -> MComps:
    """ad(e_z)^2 e_w = [e_z, [e_z, e_w]] on frame components."""
    return bracket_hm(bracket_mm(z, w), z).scaled(-1.0)


def flow_operator_inverse(v: MComps, n: int) -> MComps:
    """Inverse of -ad_x^2(gamma_x) on the perp part: chi/4 on the scalar block,
    chi on the vector block."""
    c = chi(n)
    return MComps(0.25 * c * qc.qim(v.s), c * v.v)


# -- frame evolution in time -----------------------------------------------------

def _mkdv_time_matrices(state: StatePair) -> np.ndarray:
    """e_t + omega_t for the full +1 flow (convective term kept)."""
    grid = state.grid
    u, bu = state.arrays()
    K = grid.num_points
    rc = np.sqrt(chi(state.n))
    ux = gcalc.spectral_deriv(u, grid)
    u2 = gcalc.spectral_deriv(u, grid, 2)
    bux = gcalc.spectral_deriv(bu, grid)
    bu2 = gcalc.spectral_deriv(bu, grid, 2)
    h_par0 = 0.5 * qc.qnormsq(u) + 0.5 * qc.vec_normsq(bu)

    e_s = qc.from_real(h_par0 / rc) + ux / (2.0 * rc)
    e_v = -bux / rc
    e_t = m_matrix(e_s, e_v)

    # covector pair w_(1) = J(u_x, bu_x) with jet constants, all local
    w1s = 0.25 * u2 + 0.25 * qc.comm_C_vec(bu, bux) + h_par0[:, None] * u
    if bu.shape[1]:
        w1v = (
            bu2
            + 0.5 * qc.qmul(ux[:, None, :], bu)
            + qc.qmul(u[:, None, :], bux)
            + h_par0[:, None, None] * bu
        )
    else:
        w1v = bu2
    w_par = (
        -0.25 * (qc.qmul(u, ux) - qc.qmul(ux, u))
        + 0.5 * qc.comm_C_vec(bu, bux)
        - 0.5 * qc.vec_normsq(bu)[:, None] * u
    )
    W_par = qc.matcomm_C(bu, bux) + bo._uut_mat(bu, u)
    omega_t = h_matrix(w_par, W_par, w1s, w1v)
    return qc.qmat_to_complex(e_t + omega_t)


def _sg_time_matrices(state: StatePair, branch: str, mode: str, refine: int) -> np.ndarray:
    """e_t for the -1 flow; the connection omega_t vanishes."""
    h, h_par, _ = sf.sg_solve_h(state, branch, mode, refine)
    rc = np.sqrt(chi(state.n))
    e_s = qc.from_real(h_par.values / rc) + h.hs.values / (2.0 * rc)
    e_v = -h.hv.values / rc
    return qc.qmat_to_complex(m_matrix(e_s, e_v))


@dataclass
class FrameTrajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    n: int = 1
    grid: PeriodicGrid = None
    flow: str = "mkdv"

    def append(self, t, state, frame):
        self.times.append(float(t))
        self.states.append(state)
        self.frames.append(frame)


def evolve_with_frame(
    state: StatePair,
    flow: str,
    dt: float,
    steps: int,
    branch: str = "-",
    sg_mode: str = "line",
    sg_refine: int = 8,
    transport_refine: int = 8,
    snapshot_every: int = 1,
) -> FrameTrajectory:
    """Co-evolve the state and the frame field psi(t, x).

    The state advances by RK4; the frame advances by the midpoint Magnus rule
    psi <- psi exp(dt * (e_t + omega_t)) evaluated at a second-order midpoint
    state, which keeps psi exactly unitary.
    """
    grid = state.grid

    if flow == "mkdv":
        def rhs(s):
            return sf.mkdv_rhs(s, galilean_removed=False)

        def time_mats(s):
            return _mkdv_time_matrices(s)
    elif flow == "sg":
        inv_chi = 1.0 / chi(state.n)

        def rhs(s):
            h, _, _ = sf.sg_solve_h(s, branch, sg_mode, sg_refine)
            return bo.make_flow(grid, inv_chi * h.hs.values, inv_chi * h.hv.values)

        def time_mats(s):
            return _sg_time_matrices(s, branch, sg_mode, sg_refine)
    else:
        raise DomainError(f"unknown flow {flow!r} for frame evolution")

    frame0 = downsample_frame(transport_frame(state, refine=transport_refine), transport_refine)
    traj = FrameTrajectory(n=state.n, grid=grid, flow=flow)
    traj.append(0.0, state, frame0)
    psi = frame0.psi.copy()
    t = 0.0

    for step in range(steps):
        k1 = rhs(state)
        s2 = _shift(state, k1, dt / 2)
        k2 = rhs(s2)
        s3 = _shift(state, k2, dt / 2)
        k3 = rhs(s3)
        s4 = _shift(state, k3, dt)
        k4 = rhs(s4)
        mid = make_state(
            grid,
            0.5 * (s2.u.values + s3.u.values),
            0.5 * (s2.bu.values + s3.bu.values),
        )
        _check_finite(mid, t + dt / 2)
        psi = psi @ expm_antihermitian(dt * time_mats(mid))
        du = (dt / 6.0) * (k1.hs.values + 2 * k2.hs.values + 2 * k3.hs.values + k4.hs.values)
        dbu = (dt / 6.0) * (k1.hv.values + 2 * k2.hv.values + 2 * k3.hv.values + k4.hv.values)
        state = _shift(state, bo.make_flow(grid, du, dbu), 1.0)
        t += dt
        _check_finite(state, t)
        if (step + 1) % snapshot_every == 0 or step + 1 == steps:
            traj.append(
                t, state, FrameState(grid, state.n, psi.copy(), frame0.monodromy)
            )
    return traj


def _shift(state: StatePair, k, c) -> StatePair:
    u = state.u.values + c * k.hs.values
    u[:, 0] = 0.0
    return make_state(state.grid, u, state.bu.values + c * k.hv.values)


def _check_finite(state: StatePair, t: float):
    if not all(np.all(np.isfinite(a)) for a in state.arrays()):
        raise BlowUpError(t)


def transport_consistency(frame: FrameState, state: StatePair, refine: int = 8) -> float:
    """Residual of the x-transport relation for a frame evolved in time."""
    transfers = _transport_transfers(state, refine)
    per_cell = transfers.reshape(state.grid.num_points, refine, *transfers.shape[1:])
    acc = per_cell[:, 0]
    for j in range(1, refine):
        acc = acc @ per_cell[:, j]
    predicted = frame.psi @ acc
    defect = predicted[:-1] - frame.psi[1:]
    return float(np.max(np.abs(defect)))


# -- map verification ------------------------------------------------------------

def _curve_time_velocity(traj: FrameTrajectory, idx: int) -> np.ndarray:
    """Central-difference d gamma / dt at snapshot idx, vertical part removed."""
    if idx < 1 or idx > len(traj.times) - 2:
        raise DomainError("need an interior snapshot for time differencing")
    if abs(
        (traj.times[idx + 1] - traj.times[idx]) - (traj.times[idx] - traj.times[idx - 1])
    ) > 1e-12:
        raise GaugeAlignmentError("snapshots are not equispaced in time")
    gp = reconstruct_curve(traj.frames[idx + 1]).gamma
    gm = reconstruct_curve(traj.frames[idx - 1]).gamma
    g0 = reconstruct_curve(traj.frames[idx]).gamma
    dt2 = traj.times[idx + 1] - traj.times[idx - 1]
    raw = (gp - gm) / dt2
    raw = raw - amb_dot(raw, g0)[:, None, None] * g0
    return project_vertical_out(raw, g0)


def _pulled_tangent_chain(traj: FrameTrajectory, idx: int):
    state = traj.states[idx]
    frame = traj.frames[idx]
    curve = reconstruct_curve(frame)
    T_amb = project_horizontal(curve_tangent(curve), curve.gamma)
    T, vert = pull_to_frame(frame, T_amb)
    N = covariant_deriv_x(state, T)
    NN = covariant_deriv_x(state, N)
    return state, frame, curve, T, N, NN, vert


def verify_mkdv_map(traj: FrameTrajectory, idx: int | None = None) -> dict:
    """Residual of the geometric mKdV map along a +1-flow trajectory.

    The normative form inverts the curve-flow operator on the perp part; the
    alternative all-covariant form is evaluated and logged, not asserted.
    """
    if traj.flow != "mkdv":
        raise DomainError("verify_mkdv_map expects a +1-flow trajectory")
    if idx is None:
        idx = len(traj.times) // 2
    state, frame, curve, T, N, NN, vert = _pulled_tangent_chain(traj, idx)
    n = traj.n
    c = chi(n)

    gamma_t, _ = pull_to_frame(frame, _curve_time_velocity(traj, idx))

    ad2_NT = ad_x_squared(N, T)
    inner = (NN.scaled(1.0 / c) - ad2_NT.scaled(0.5)).perp()
    term1 = flow_operator_inverse(inner, n)
    xinv_n = flow_operator_inverse(N.perp(), n)
    # tangential factor +g(X^-1 N, N)/(2 chi); with the positive-definite
    # metric this reproduces the parallel component (|N_s|^2/8 + |N_v|^2/2)
    tangential = 0.5 / c * g_metric(xinv_n, N, n)
    rhs = MComps(
        term1.s + tangential[:, None] * T.s,
        term1.v + tangential[:, None, None] * T.v,
    )
    residual = g_norm(rhs - gamma_t, n)

    # all-covariant alternative, logged only
    W = xinv_n
    dW = covariant_deriv_x(state, W)
    ad2_WT = ad_x_squared(W, T)
    alt = MComps(
        dW.s - ad2_WT.perp().s - 3.0 * qc.from_real(ad2_WT.par_coeff()),
        dW.v - ad2_WT.perp().v,
    )
    alt_residual = g_norm(alt.scaled(1.0 / c) - gamma_t, n)

    # tangential component identity for the parallel part of gamma_t
    h_par0 = 0.5 * qc.qnormsq(state.u.values) + 0.5 * qc.vec_normsq(state.bu.values)
    tang_resid = np.abs(np.sqrt(c) * gamma_t.par_coeff() - h_par0)

    return {
        "residual": float(np.max(residual)),
        "alt_form_residual": float(np.max(alt_residual)),
        "tangential_residual": float(np.max(tang_resid)),
        "verticality": float(np.max(np.abs(vert))),
        "speed_error": float(np.max(np.abs(tangent_speed(curve, n) - 1.0))),
        "unitarity": frame.unitarity_defect(),
        "gamma_t_norm": float(np.max(g_norm(gamma_t, n))),
    }


def verify_wave_map(traj: FrameTrajectory, idx: int | None = None) -> dict:
    """Residuals of the non-stretching wave map along a -1-flow trajectory."""
    if traj.flow != "sg":
        raise DomainError("verify_wave_map expects a -1-flow trajectory")
    if idx is None:
        idx = len(traj.times) // 2
    n = traj.n
    c = chi(n)
    frames = traj.frames
    times = traj.times
    if idx < 1 or idx > len(times) - 2:
        raise DomainError("need an interior snapshot")

    def tangent_field(k):
        frame = frames[k]
        e_comps = MComps(
            qc.from_real(np.full(frame.grid.num_points, 1.0 / np.sqrt(c))),
            np.zeros((frame.grid.num_points, n - 1, 4)),
        )
        return push_from_frame(frame, e_comps)

    g0 = reconstruct_curve(frames[idx]).gamma
    dt2 = times[idx + 1] - times[idx - 1]
    dT = (tangent_field(idx + 1) - tangent_field(idx - 1)) / dt2
    nabla_t_T = project_horizontal(dT, g0)
    residual = np.sqrt(c * amb_dot(nabla_t_T, nabla_t_T))

    gamma_t = _curve_time_velocity(traj, idx)
    speed = np.sqrt(c * amb_dot(gamma_t, gamma_t))

    return {
        "residual": float(np.max(residual)),
        "speed_constancy": float(np.max(np.abs(speed - np.mean(speed))) / np.mean(speed)),
        "speed_value": float(np.mean(speed)),
        "unitarity": frames[idx].unitarity_defect(),
    }


# -- export ----------------------------------------------------------------------

def curve_to_csv(path, curve: CurveSample):
    flat = curve.gauge_fixed().reshape(curve.grid.num_points, -1)
    data = np.column_stack([curve.grid.x, flat])
    np.savetxt(path, data, delimiter=",", fmt="%.17e")


def projective_pairing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_l conj(x_l) y_l; right unit-quaternion phases factor out of its norm."""
    return np.sum(qc.qmul(qc.qconj(x), y), axis=-2)


def chordal_distance_matrix(curve: CurveSample) -> np.ndarray:
    """Gauge-invariant pairwise distances sqrt(2 - 2 |sum conj(x_l) y_l|)."""
    g = curve.gamma
    K = g.shape[0]
    out = np.zeros((K, K))
    for i in range(K):
        inner = projective_pairing(np.broadcast_to(g[i], g.shape), g)
        out[i] = np.sqrt(np.maximum(2.0 - 2.0 * qc.qnorm(inner), 0.0))
    return out
