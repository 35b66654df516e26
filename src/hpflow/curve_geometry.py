"""Moving parallel frames, curve reconstruction, and geometric verification.

The frame is the group element psi(x) solving the right-invariant transport
ODE psi_x = psi (e_x + omega_x), where e_x is the constant unit tangent
representative (carrying the 1/sqrt(chi) Killing normalization) and
omega_x = (u, bu) is the connection built from the state.  psi is stored in
the complex embedding of quaternion matrices.  Its transpose solves
(psi^t)_x = (e_x + omega_x)^t psi^t, an x-system of the -1 flow's form
y_x = M y, so transport reuses that flow's Magnus-4 generator, prefix scan
and unitary Taylor exponential: quaternion-unitarity holds to roundoff.  In
time, the state takes the flow solvers' RK4 step (2/3 rule on the +1 flow)
and the frame one exponential at the average of the step's end states.

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

The algebra is symm_lie's: every frame matrix (e_x + omega_x, e_t + omega_t)
is one LieElement whose leading batch axis is the grid, turned into matrices
by to_matrix, and every frame bracket is symm_lie.bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import biham_ops as bo
from . import grid_calculus as gcalc
from . import quat_core as qc
from . import soliton_flows as sf
from . import symm_lie as sl
from .biham_ops import StatePair, make_state
from .errors import DomainError, GaugeAlignmentError
from .grid_calculus import Field, PeriodicGrid
from .symm_lie import chi


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
    """Per-cell transfers of psi^t, the transpose of psi_x = psi (e_x + omega_x):
    T[i] carries psi^t across cell i as the -1 flow's transfers carry y."""
    if refine < 1:
        raise DomainError(f"refine = {refine} must be >= 1")
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    u_f[:, 0] = 0.0
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    A = sl.LieElement(state.n, m_par=1.0 / np.sqrt(chi(state.n)), h_perp=sl.HPerp(u_f, bu_f))
    A_t = np.swapaxes(qc.qmat_to_complex(A.to_matrix()), -1, -2)
    return sf.expm_antihermitian(sf._magnus4(A_t, grid.dx / refine))


def transport_frame(state: StatePair, refine: int = 4) -> FrameState:
    """Integrate the frame along x on the refine-times-finer grid, from the
    identity at x = 0."""
    prefixes = np.swapaxes(sf.prefix_products(_transport_transfers(state, refine)), -1, -2)
    return FrameState(state.grid.refined(refine), state.n, prefixes[:-1], prefixes[-1])


def grid_frame(state: StatePair, refine: int = 8) -> FrameState:
    """The frame at the grid points alone, transported on the refine-times-finer
    grid: the scan forms only every refine-th prefix and the monodromy, rows
    equal bit for bit to those of transport_frame(state, refine=refine)."""
    prefixes = np.swapaxes(
        sf.prefix_products(_transport_transfers(state, refine), refine), -1, -2
    )
    return FrameState(state.grid, state.n, prefixes[:-1].copy(), prefixes[-1].copy())


# -- curve reconstruction ------------------------------------------------------

@dataclass
class CurveSample:
    """Points of the reconstructed curve as unit vectors in H^(n+1)."""

    grid: PeriodicGrid
    gamma: np.ndarray  # (K, n+1, 4)
    monodromy: np.ndarray  # complex embedding, for seam extension

    def gauge_fixed(self, threshold: float = 0.3) -> np.ndarray:
        """Representative with the first sizable component made positive real."""
        norms = qc.qnorm(self.gamma)
        sizable = norms > threshold
        idx = np.where(sizable.any(axis=1), sizable.argmax(axis=1), norms.argmax(axis=1))
        rows = np.arange(len(idx))
        lam = qc.qconj(self.gamma[rows, idx]) / norms[rows, idx][:, None]
        return qc.qmul(self.gamma, lam[:, None, :])


def reconstruct_curve(frame: FrameState) -> CurveSample:
    gamma = frame.psi_quat[:, :, 0, :].copy()
    return CurveSample(frame.grid, gamma, frame.monodromy)


def project_vertical_out(V: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    out = V.copy()
    for q in (qc.I, qc.J, qc.K):
        vq = qc.qmul(gamma, q)
        out = out - qc.vec_dot(out, vq)[:, None, None] * vq
    return out


def project_horizontal(V: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Remove the radial and right-phase (vertical) components at gamma."""
    return project_vertical_out(V - qc.vec_dot(V, gamma)[:, None, None] * gamma, gamma)


def _extend_with_monodromy(gamma: np.ndarray, monodromy: np.ndarray, halo: int) -> np.ndarray:
    """Periodic extension of curve samples: gamma(x + L) = M gamma(x)."""
    Mq = qc.qmat_from_complex(monodromy)
    Mq_inv = qc.qmat_conj_t(Mq)
    # the samples are column vectors (K, n+1, 1, 4) under one broadcast product
    right = qc.qmatmul(Mq, gamma[:halo, :, None, :])[..., 0, :]
    left = qc.qmatmul(Mq_inv, gamma[-halo:, :, None, :])[..., 0, :]
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
    return np.sqrt(chi(n) * qc.vec_dot(T, T))


# -- geometric invariants ------------------------------------------------------

def geometric_invariants(state: StatePair) -> dict:
    """Closed-form curvature invariants from the covariants."""
    grid = state.grid
    u, bu = state.arrays()
    ux = gcalc.spectral_deriv(u, grid)
    bux = gcalc.spectral_deriv(bu, grid)
    g_nn = 4.0 * qc.qnormsq(u) + qc.vec_normsq(bu)
    g_nnx = 4.0 * qc.dot4(u, ux) + qc.vec_dot(bu, bux)
    g_nxnx = (
        4.0 * qc.qnormsq(ux)
        + qc.vec_normsq(bux)
        + g_nn**2
        + 9.0 * qc.qnormsq(u) * qc.vec_normsq(bu)
        + 6.0 * qc.vec_dot(qc.scalar_vec(u, bu), bux)
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
        "g_NN": c * qc.vec_dot(N, N),
        "g_NNx": c * qc.vec_dot(N, NX),
        "g_NxNx": c * qc.vec_dot(NX, NX),
        "speed": np.sqrt(c * qc.vec_dot(T, T)),
        "frame": frame,
    }


# -- frame-native covariant calculus -------------------------------------------

@dataclass
class MComps:
    """Tangent vector in frame components: full quaternion scalar + vector slot."""

    s: np.ndarray  # (K, 4); real part is the m_par coefficient
    v: np.ndarray  # (K, m, 4)

    def __sub__(self, other):
        return MComps(self.s - other.s, self.v - other.v)

    def scaled(self, c):
        return MComps(c * self.s, c * self.v)

    def perp(self):
        return MComps(qc.qim(self.s), self.v.copy())

    def par_coeff(self):
        return self.s[:, 0]

    def element(self, n: int) -> sl.LieElement:
        """The m-valued LieElement batched over the grid."""
        return sl.LieElement(n, m_par=self.s[:, 0], m_perp=sl.MPerp(qc.qim(self.s), self.v))

    @staticmethod
    def of(g: sl.LieElement) -> "MComps":
        """Frame components of the m part of g."""
        return MComps(qc.from_real(g.m_par) + g.m_perp.s, g.m_perp.v)


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
    u, bu = state.arrays()
    omega_x = sl.LieElement(state.n, h_perp=sl.HPerp(u, bu))
    ad = MComps.of(sl.bracket(omega_x, comps.element(state.n)))
    return MComps(
        gcalc.spectral_deriv(comps.s, state.grid) + ad.s,
        gcalc.spectral_deriv(comps.v, state.grid) + ad.v,
    )


def ad_x_squared(z: MComps, w: MComps) -> MComps:
    """ad(e_z)^2 e_w = [e_z, [e_z, e_w]] on frame components."""
    n = z.v.shape[1] + 1
    e_z = z.element(n)
    return MComps.of(sl.bracket(e_z, sl.bracket(e_z, w.element(n))))


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
    rc = np.sqrt(chi(state.n))
    ux = gcalc.spectral_deriv(u, grid)
    u2 = gcalc.spectral_deriv(u, grid, 2)
    bux = gcalc.spectral_deriv(bu, grid)
    bu2 = gcalc.spectral_deriv(bu, grid, 2)
    h_par0 = bo._h_par0_local(u, bu)
    # covector pair w_(1) = J(u_x, bu_x) with jet constants, all local
    w1s = 0.25 * u2 + 0.25 * qc.comm_C_vec(bu, bux) + h_par0[:, None] * u
    w1v = bu2 + 0.5 * qc.scalar_vec(ux, bu) + qc.scalar_vec(u, bux) + h_par0[:, None, None] * bu
    g = sl.LieElement(
        state.n,
        m_par=h_par0 / rc,
        m_perp=sl.MPerp(ux / (2.0 * rc), -bux / rc),
        h_par=sl.HPar(bo._w_par1_local(u, bu, ux, bux), bo._W_par1_local(u, bu, bux)),
        h_perp=sl.HPerp(w1s, w1v),
    )
    return qc.qmat_to_complex(g.to_matrix())


def _sg_time_matrices(state: StatePair, branch: str, mode: str, refine: int) -> np.ndarray:
    """e_t for the -1 flow; the connection omega_t vanishes."""
    h, h_par, _ = sf.sg_solve_h(state, branch, mode, refine)
    rc = np.sqrt(chi(state.n))
    g = sl.LieElement(
        state.n,
        m_par=h_par.values / rc,
        m_perp=sl.MPerp(h.hs.values / (2.0 * rc), -h.hv.values / rc),
    )
    return qc.qmat_to_complex(g.to_matrix())


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
) -> FrameTrajectory:
    """Co-evolve the state and the frame field psi(t, x).

    The state advances by the flow solvers' RK4 body, with the 2/3 rule on
    the +1 flow and no projection on the -1 flow, as in sg_step.  The frame
    advances by the midpoint Magnus rule psi <- psi exp(dt * (e_t + omega_t))
    at the average of the step's end states, a second-order midpoint that
    keeps psi exactly unitary.
    """
    grid = state.grid

    if flow == "mkdv":
        fraction = sf.DEFAULT_PROJECT_FRACTION
        time_mats = _mkdv_time_matrices

        def step_rhs(t_end):
            return lambda s: sf.mkdv_rhs(s, galilean_removed=False)
    elif flow == "sg":
        fraction = None

        def step_rhs(t_end):
            return sf._sg_rhs(state.n, branch, sg_mode, sg_refine, t_end)

        def time_mats(s):
            return _sg_time_matrices(s, branch, sg_mode, sg_refine)
    else:
        raise DomainError(f"unknown flow {flow!r} for frame evolution")

    frame0 = grid_frame(state, transport_refine)
    traj = FrameTrajectory(n=state.n, grid=grid, flow=flow)
    traj.append(0.0, state, frame0)
    psi = frame0.psi.copy()
    t = 0.0

    for step in range(steps):
        new = sf._rk4(state, step_rhs(t + dt), dt, t, fraction)
        mid = make_state(
            grid,
            0.5 * (state.u.values + new.u.values),
            0.5 * (state.bu.values + new.bu.values),
        )
        psi = psi @ sf.expm_antihermitian(dt * time_mats(mid))
        state = new
        t += dt
        traj.append(t, state, FrameState(grid, state.n, psi.copy(), frame0.monodromy))
    return traj


def transport_consistency(frame: FrameState, state: StatePair, refine: int = 8) -> float:
    """Residual of the x-transport relation for a frame evolved in time."""
    transfers = _transport_transfers(state, refine)
    per_cell = transfers.reshape(state.grid.num_points, refine, *transfers.shape[1:])
    acc = per_cell[:, 0]
    for j in range(1, refine):
        acc = per_cell[:, j] @ acc
    predicted = frame.psi @ np.swapaxes(acc, -1, -2)
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
    return project_horizontal((gp - gm) / dt2, g0)


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
    h_par0 = bo._h_par0_local(*state.arrays())
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
    residual = np.sqrt(c * qc.vec_dot(nabla_t_T, nabla_t_T))

    gamma_t = _curve_time_velocity(traj, idx)
    speed = np.sqrt(c * qc.vec_dot(gamma_t, gamma_t))

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
    gcalc.array_to_csv(path, data)


def projective_pairing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_l conj(x_l) y_l; right unit-quaternion phases factor out of its norm."""
    return np.sum(qc.qmul(qc.qconj(x), y), axis=-2)


_CHORDAL_ROWS = 64


def chordal_distance_matrix(curve: CurveSample) -> np.ndarray:
    """Gauge-invariant pairwise distances sqrt(2 - 2 |sum conj(x_l) y_l|)."""
    g = curve.gamma
    K = g.shape[0]
    out = np.empty((K, K))
    # blocks of rows bound the pairing's temporaries to _CHORDAL_ROWS * K pairs
    for i in range(0, K, _CHORDAL_ROWS):
        inner = projective_pairing(g[i : i + _CHORDAL_ROWS, None], g[None, :])
        out[i : i + _CHORDAL_ROWS] = np.sqrt(np.maximum(2.0 - 2.0 * qc.qnorm(inner), 0.0))
    return out
