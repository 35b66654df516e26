"""Moving parallel frames, curve reconstruction, and geometric verification.

The frame is the group element psi(x) solving the right-invariant transport
ODE psi_x = psi (e_x + omega_x), where e_x is the constant unit tangent
representative (carrying the 1/sqrt(chi) Killing normalization) and
omega_x = (u, bu) is the connection built from the state.  psi is stored in
the complex embedding of quaternion matrices.  Its transpose solves
(psi^t)_x = (e_x + omega_x)^t psi^t, an x-system of the -1 flow's form
y_x = M y, so transport reuses that flow's transfer build and prefix scan:
soliton_flows.magnus4_transfers forms the Magnus-4 generators and their
unitary Taylor exponentials a block of fine cells at a time, building the
frame matrices only for the block's points, and quaternion-unitarity holds
to roundoff.  In time, the state takes the flow solvers' RK4 step (2/3 rule
on the +1 flow) and the frame one exponential at the average of the step's
end states.

The curve is gamma(x) = psi(x) applied to the origin column (1, 0, ..., 0)^t,
psi's first column: a unit vector in H^(n+1) representing a projective point
up to right unit quaternion phase.  Its unit tangent gamma_x is psi's second
column times -1/sqrt(chi).  Ambient checks (tangent norm, curvature
invariants) use the quotient-metric dictionary

    vertical at gamma   : span{gamma i, gamma j, gamma k}
    g(V, W)             : chi * Re<V_amb, W_amb> on horizontal vectors,

together with the phase-drag correction: differentiating the reconstructed
representative in x drags a vertical term gamma*u along, so horizontal
derivatives of horizontal fields are hor(W_x - W u).

Map verification works in frame components, where the tangent gamma_x is
the constant e_x (frame_tangent), the covariant derivative is
D_x + [omega_x, .] and the curve-flow operator acts diagonally on the
tangent decomposition with eigenvalues 0, 4/chi, 1/chi.  Frame components
are packed like the RK4 state, one (K, 4 + 4m) array [s | v]: column 0 the
m_par coefficient, columns 1-3 the imaginary m_perp scalar, the rest the
m_perp vector.  map_residuals is the one map judgment: it co-evolves the
state and frame and reads the residuals at its snapshot.  MAP_CHECKS holds
each flow kind's co-evolution and check; a kind it lacks (hierarchy) has
neither.

The algebra is symm_lie's: every frame matrix (e_x + omega_x, e_t + omega_t)
is one LieElement whose leading batch axis is the grid, turned into matrices
by to_matrix, and every frame bracket is symm_lie.bracket.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import biham_ops as bo
from . import grid_calculus as gcalc
from . import quat_core as qc
from . import soliton_flows as sf
from . import symm_lie as sl
from .biham_ops import StatePair, make_state
from .errors import DimensionMismatchError, DomainError, GaugeAlignmentError
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
    n = state.n
    tangent = 1.0 / np.sqrt(chi(n))

    def system(rows):
        A = sl.LieElement(n, m_par=tangent, h_perp=sl.HPerp(u_f[rows], bu_f[rows]))
        return np.swapaxes(qc.qmat_to_complex(A.to_matrix()), -1, -2)

    return sf.magnus4_transfers(system, u_f.shape[0] // 2, 2 * (n + 1), grid.dx / refine, complex)


def transport_frame(state: StatePair, refine: int) -> FrameState:
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

def _frame_column(frame: FrameState, j: int) -> np.ndarray:
    """Column j of psi as quaternions, (K, n+1, 4), read from the A and B
    blocks of the complex embedding [[A, B], [-conj B, conj A]]."""
    r = frame.n + 1
    A = frame.psi[:, :r, j]
    B = frame.psi[:, :r, r + j]
    return np.stack([A.real, A.imag, B.real, B.imag], axis=-1)


def reconstruct_curve(frame: FrameState) -> np.ndarray:
    """The curve gamma, psi's first column, as unit vectors in H^(n+1)."""
    return _frame_column(frame, 0)


def gauge_fixed(gamma: np.ndarray, threshold: float = 0.3) -> np.ndarray:
    """Representative with the first sizable component made positive real."""
    norms = qc.qnorm(gamma)
    sizable = norms > threshold
    idx = np.where(sizable.any(axis=1), sizable.argmax(axis=1), norms.argmax(axis=1))
    rows = np.arange(len(idx))
    lam = qc.qconj(gamma[rows, idx]) / norms[rows, idx][:, None]
    return qc.qmul(gamma, lam[:, None, :])


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


def curve_tangent(frame: FrameState) -> np.ndarray:
    """Ambient tangent (vertical part removed) by sixth-order differencing of
    the curve; the map checks read the exact gamma_x from the frame instead."""
    gamma = reconstruct_curve(frame)
    raw = fd6_x(_extend_with_monodromy(gamma, frame.monodromy, 3), frame.grid.dx)
    return project_vertical_out(raw, gamma)


def tangent_speed(frame: FrameState) -> np.ndarray:
    """Metric norm |gamma_x|_g, which equals 1 for non-stretching data."""
    T = project_horizontal(curve_tangent(frame), reconstruct_curve(frame))
    return np.sqrt(chi(frame.n) * qc.vec_dot(T, T))


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


def reconstruction_errors(state: StatePair) -> tuple[dict, FrameState, dict]:
    """How well the curve reconstructed at refine 8 reproduces the state, with
    the frame it was read from and the closed-form invariants.

    unitarity_defect is the frame's, speed_max_deviation is max |gamma_x| - 1|,
    and invariant_max_deviation is the largest deviation of the curvature
    invariants measured on the curve from their closed forms, each relative to
    max(1, max |closed form|).  Differentiation of the representative drags
    the vertical phase velocity gamma*u; horizontal covariant derivatives
    therefore subtract W*u before projecting.
    """
    refine = 8
    frame = transport_frame(state, refine=refine)
    u_f = gcalc.spectral_refine(state.u.values, state.grid, refine)

    gamma = reconstruct_curve(frame)
    T = project_horizontal(curve_tangent(frame), gamma)

    def horizontal_derivative(W):
        raw = fd6_x(_extend_with_monodromy(W, frame.monodromy, 3), frame.grid.dx)
        dragged = raw - qc.qmul(W, u_f[:, None, :])
        return project_horizontal(dragged, gamma)

    N = horizontal_derivative(T)
    NX = horizontal_derivative(N)
    c = chi(state.n)
    measured = {
        "g_NN": c * qc.vec_dot(N, N),
        "g_NNx": c * qc.vec_dot(N, NX),
        "g_NxNx": c * qc.vec_dot(NX, NX),
    }
    formulas = geometric_invariants(state)
    deviation = 0.0
    for key, values in measured.items():
        target = gcalc.spectral_refine(formulas[key].values, state.grid, refine)
        deviation = max(
            deviation,
            float(np.max(np.abs(values - target))) / max(1.0, np.max(np.abs(target))),
        )
    speed = np.sqrt(c * qc.vec_dot(T, T))
    errors = {
        "unitarity_defect": frame.unitarity_defect(),
        "speed_max_deviation": float(np.max(np.abs(speed - 1.0))),
        "invariant_max_deviation": deviation,
    }
    return errors, frame, formulas


# -- frame-native covariant calculus -------------------------------------------

def _element(comps: np.ndarray, n: int) -> sl.LieElement:
    """The m-valued LieElement of packed components, batched over the grid."""
    v = comps[:, 4:].reshape(len(comps), n - 1, 4)
    return sl.LieElement(n, m_par=comps[:, 0], m_perp=sl.MPerp(qc.qim(comps[:, :4]), v))


def _components(g: sl.LieElement) -> np.ndarray:
    """Packed frame components of the m part of g."""
    return sf._pack(qc.from_real(g.m_par) + g.m_perp.s, g.m_perp.v)


def frame_tangent(num_points: int, n: int) -> np.ndarray:
    """The curve's unit tangent gamma_x in frame components: the constant
    e_x = (1/sqrt(chi), 0) at every point, exact where differencing is not."""
    comps = np.zeros((num_points, 4 * n))
    comps[:, 0] = 1.0 / np.sqrt(chi(n))
    return comps


def g_metric(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Riemannian metric on frame components, g = -Killing restricted to m.
    The s and v blocks are summed apart: one sum over all columns would
    regroup the additions and move n >= 2 results by roundoff."""
    ab = a * b
    return chi(n) * (np.sum(ab[:, :4], axis=-1) + np.sum(ab[:, 4:], axis=-1))


def g_norm(a: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(np.maximum(g_metric(a, a, n), 0.0))


def pull_to_frame(frame: FrameState, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame components of ambient vectors; also returns the verticality column."""
    psi_q = qc.qmat_from_complex(frame.psi)
    col = qc.qmatmul(qc.qmat_conj_t(psi_q), V[..., None, :])[..., 0, :]
    return -qc.qconj(col[:, 1:]).reshape(len(col), -1), col[:, 0]


def covariant_deriv_x(state: StatePair, comps: np.ndarray) -> np.ndarray:
    """Frame-native covariant derivative D_x + [omega_x, .] on m-components."""
    u, bu = state.arrays()
    omega_x = sl.LieElement(state.n, h_perp=sl.HPerp(u, bu))
    ad = _components(sl.bracket(omega_x, _element(comps, state.n)))
    return gcalc.spectral_deriv(comps, state.grid) + ad


def ad_x_squared(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ad(e_z)^2 e_w = [e_z, [e_z, e_w]] on frame components."""
    n = z.shape[1] // 4
    e_z = _element(z, n)
    return _components(sl.bracket(e_z, sl.bracket(e_z, _element(w, n))))


def flow_operator_inverse(n: int) -> np.ndarray:
    """The diagonal of the inverse of -ad_x^2(gamma_x) on the perp part: 0 on
    m_par, chi/4 on the scalar block, chi on the vector block."""
    c = chi(n)
    return np.array([0.0] + [0.25 * c] * 3 + [c] * (4 * n - 4))


# -- frame evolution in time -----------------------------------------------------

def _mkdv_time_matrices(state: StatePair) -> np.ndarray:
    """e_t + omega_t for the full +1 flow (convective term kept)."""
    grid = state.grid
    u, bu = state.arrays()
    N, m = bu.shape[:2]
    rc = np.sqrt(chi(state.n))
    # both fields' derivatives from one transform of [u | bu], u alone when m = 0
    derivs = gcalc.spectral_deriv(sf._pack(u, bu), grid, (1, 2))
    ux, u2 = derivs[:, :, :4]
    bux, bu2 = derivs[:, :, 4:].reshape(2, N, m, 4)
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
    flow: str = "mkdv"

    def append(self, t, state, frame):
        self.times.append(float(t))
        self.states.append(state)
        self.frames.append(frame)


@dataclass(frozen=True)
class MapCheck:
    """One flow kind's frame co-evolution and map check; sg is the -1 flow's
    (branch, mode, refine)."""

    rhs: Callable  # (n, t_end, sg) -> the state's right side in a step ending at t_end
    fraction: float | None  # the projection of its RK4 stages
    time_matrices: Callable  # (state, sg) -> the frame's e_t + omega_t
    steps: int  # the check's steps, at min(dt, max_dt); it reads snapshot 5
    max_dt: float
    judge: Callable  # (traj, idx) -> residuals, which simulate writes to `file`
    file: str


# The builders call through module names, so a wrapper bound to a name sees
# every call.  The mKdV co-evolution keeps the convective term; map_residuals
# says why each protocol takes its steps and dt.
MAP_CHECKS = {
    "mkdv": MapCheck(
        rhs=lambda n, t_end, sg: lambda s: sf.mkdv_rhs(s, galilean_removed=False),
        fraction=sf.DEFAULT_PROJECT_FRACTION, steps=10, max_dt=math.inf,
        time_matrices=lambda s, sg: _mkdv_time_matrices(s),
        judge=lambda traj, idx: verify_mkdv_map(traj, idx), file="mkdv_map_residuals.json",
    ),
    "sg": MapCheck(
        rhs=lambda n, t_end, sg: sf._sg_rhs(n, *sg, t_end), fraction=None, steps=6, max_dt=1e-3,
        time_matrices=lambda s, sg: _sg_time_matrices(s, *sg),
        judge=lambda traj, idx: verify_wave_map(traj, idx), file="wave_map_residuals.json",
    ),
}


def _map_check(flow: str) -> MapCheck:
    if flow not in MAP_CHECKS:
        raise DomainError(f"flow kind {flow!r} has no frame co-evolution: only {list(MAP_CHECKS)}")
    return MAP_CHECKS[flow]


def evolve_with_frame(
    state: StatePair,
    frame0: FrameState,
    flow: str,
    dt: float,
    steps: int,
    branch: str = "-",
    sg_mode: str = "line",
    sg_refine: int = 8,
) -> FrameTrajectory:
    """Co-evolve the state and the frame field psi(t, x), from frame0, the
    frame of state at the grid points (grid_frame(state, refine)).

    The state advances by the flow solvers' RK4 body on the right side and
    projection of the kind's MAP_CHECKS row: the 2/3 rule on the +1 flow and
    no projection on the -1 flow, as in sg_step.  The frame advances by the
    midpoint Magnus rule psi <- psi exp(dt * (e_t + omega_t)) at the average
    of the step's end states, a second-order midpoint that keeps psi exactly
    unitary.
    """
    grid = state.grid
    if frame0.grid != grid or frame0.n != state.n:
        raise DimensionMismatchError("frame0 is not a frame of state")
    check = _map_check(flow)
    sg = (branch, sg_mode, sg_refine)

    traj = FrameTrajectory(flow=flow)
    traj.append(0.0, state, frame0)
    psi = frame0.psi
    t = 0.0

    for step in range(steps):
        new = sf._rk4(state, check.rhs(state.n, t + dt, sg), dt, t, check.fraction)
        mid = make_state(
            grid,
            0.5 * (state.u.values + new.u.values),
            0.5 * (state.bu.values + new.bu.values),
        )
        psi = psi @ sf.expm_antihermitian(dt * check.time_matrices(mid, sg))
        state = new
        t += dt
        traj.append(t, state, FrameState(grid, state.n, psi, frame0.monodromy))
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
    gp = reconstruct_curve(traj.frames[idx + 1])
    gm = reconstruct_curve(traj.frames[idx - 1])
    g0 = reconstruct_curve(traj.frames[idx])
    dt2 = traj.times[idx + 1] - traj.times[idx - 1]
    return project_horizontal((gp - gm) / dt2, g0)


def verify_mkdv_map(traj: FrameTrajectory, idx: int) -> dict:
    """Residual of the geometric mKdV map along a +1-flow trajectory.

    The right side inverts the curve-flow operator on the perp part and is
    built from the frame's exact tangent e_x, so the residual against gamma_t
    is the central time difference's error alone, O(dt^2).  speed_error
    differences the reconstructed curve instead: the independent check that
    the curve matches its frame.
    """
    if traj.flow != "mkdv":
        raise DomainError("verify_mkdv_map expects a +1-flow trajectory")
    velocity = _curve_time_velocity(traj, idx)
    state = traj.states[idx]
    frame = traj.frames[idx]
    n = state.n
    c = chi(n)
    T = frame_tangent(state.grid.num_points, n)
    N = covariant_deriv_x(state, T)
    NN = covariant_deriv_x(state, N)

    gamma_t, _ = pull_to_frame(frame, velocity)

    # the inverse's diagonal is 0 on m_par, so it also takes the perp part
    x_inv = flow_operator_inverse(n)
    term1 = x_inv * ((1.0 / c) * NN - 0.5 * ad_x_squared(N, T))
    # tangential factor +g(X^-1 N, N)/(2 chi); with the positive-definite
    # metric this reproduces the parallel component (|N_s|^2/8 + |N_v|^2/2)
    tangential = 0.5 / c * g_metric(x_inv * N, N, n)
    residual = g_norm(term1 + tangential[:, None] * T - gamma_t, n)

    # tangential component identity for the parallel part of gamma_t
    h_par0 = bo._h_par0_local(*state.arrays())
    tang_resid = np.abs(np.sqrt(c) * gamma_t[:, 0] - h_par0)

    return {
        "residual": float(np.max(residual)),
        "tangential_residual": float(np.max(tang_resid)),
        "speed_error": float(np.max(np.abs(tangent_speed(frame) - 1.0))),
        "unitarity": frame.unitarity_defect(),
        "gamma_t_norm": float(np.max(g_norm(gamma_t, n))),
    }


def verify_wave_map(traj: FrameTrajectory, idx: int) -> dict:
    """Residuals of the non-stretching wave map along a -1-flow trajectory.

    The unit tangent gamma_x is psi's second column times -1/sqrt(chi): the
    frame's constant e_x pushed to the ambient space."""
    if traj.flow != "sg":
        raise DomainError("verify_wave_map expects a -1-flow trajectory")
    gamma_t = _curve_time_velocity(traj, idx)
    frames = traj.frames
    times = traj.times
    c = chi(frames[idx].n)
    scale = -(1.0 / np.sqrt(c))
    prev, nxt = (scale * _frame_column(frames[k], 1) for k in (idx - 1, idx + 1))
    dt2 = times[idx + 1] - times[idx - 1]
    nabla_t_T = project_horizontal((nxt - prev) / dt2, reconstruct_curve(frames[idx]))
    residual = np.sqrt(c * qc.vec_dot(nabla_t_T, nabla_t_T))

    speed = np.sqrt(c * qc.vec_dot(gamma_t, gamma_t))

    return {
        "residual": float(np.max(residual)),
        "speed_constancy": float(np.max(np.abs(speed - np.mean(speed))) / np.mean(speed)),
        "speed_value": float(np.mean(speed)),
        "unitarity": frames[idx].unitarity_defect(),
    }


def map_residuals(
    state: StatePair, frame: FrameState, flow: str, dt: float,
    branch: str = "-", sg_mode: str = "line", sg_refine: int = 8,
) -> dict:
    """The map check of flow from state and its frame: co-evolve both by the
    protocol of the kind's MAP_CHECKS row and read verify_mkdv_map or
    verify_wave_map at snapshot 5.

    The -1 flow steps at min(dt, 1e-3); its right side is bounded by its
    constraint (|h_s| <= 2 chi, |h_v| <= chi), so its check stops at
    snapshot 6.  The mKdV check steps at dt and keeps 10 steps: they are its
    only probe of RK4 stability at the run's dt
    (tests/test_cli.py::test_simulate_map_check_blowup_exits_1).
    """
    check = _map_check(flow)
    traj = evolve_with_frame(
        state, frame, flow, min(dt, check.max_dt), check.steps,
        branch=branch, sg_mode=sg_mode, sg_refine=sg_refine,
    )
    return check.judge(traj, 5)


# -- export ----------------------------------------------------------------------

def curve_to_csv(path, frame: FrameState):
    """The gauge-fixed curve of frame, one row x, gamma per grid point."""
    flat = gauge_fixed(reconstruct_curve(frame)).reshape(frame.grid.num_points, -1)
    gcalc.array_to_csv(path, np.column_stack([frame.grid.x, flat]))


def projective_pairing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_l conj(x_l) y_l; right unit-quaternion phases factor out of its norm."""
    return np.sum(qc.qmul(qc.qconj(x), y), axis=-2)


_CHORDAL_ROWS = 64


def chordal_distance_matrix(g: np.ndarray) -> np.ndarray:
    """Gauge-invariant pairwise distances sqrt(2 - 2 |sum conj(x_l) y_l|)
    between the points of the curve g."""
    K = g.shape[0]
    out = np.empty((K, K))
    # blocks of rows bound the pairing's temporaries to _CHORDAL_ROWS * K pairs
    for i in range(0, K, _CHORDAL_ROWS):
        inner = projective_pairing(g[i : i + _CHORDAL_ROWS, None], g[None, :])
        out[i : i + _CHORDAL_ROWS] = np.sqrt(np.maximum(2.0 - 2.0 * qc.qnorm(inner), 0.0))
    return out
