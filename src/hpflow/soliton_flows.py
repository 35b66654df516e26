"""Time integration of the quaternionic mKdV (+1) and sine-Gordon (-1) flows.

The mKdV system is local and is stepped with classical RK4 on the periodic
grid; the scalar part of the state is re-projected to its imaginary part
after every stage.

The -1 flow is nonlocal in x: at each instant the flow pair solves a linear
ODE system in x driven by the state, with the pointwise quadratic constraint
h_par^2 + |h_s|^2/4 + |h_v|^2 = chi^2.  The solver builds per-cell transfer
matrices with a fourth-order Magnus scheme and composes them with a prefix
scan; because each transfer is the exponential of an element of the
constraint form's orthogonal algebra, the constraint is preserved to
roundoff along x regardless of resolution.  Two spatial modes are offered:

    line     : integrate left to right from the boundary value
               (sign * chi, 0, 0) at x = 0; meant for states that vanish
               near the domain seam (kink-type data).
    periodic : pick the boundary value from the kernel of (monodromy - id),
               failing loudly when no periodic solution exists.

The branch sign names the sign of the boundary h_par.  The "-" branch is the
one whose scalar reduction obeys the classical sine-Gordon equation
psi_xt = 4 sin(psi) under u = (psi_x / 2) q; it is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import biham_ops as bo
from . import grid_calculus as gcalc
from . import quat_core as qc
from .biham_ops import FlowPair, StatePair, make_flow, make_state
from .errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    IntegrationAccuracyError,
    ShootingError,
)
from .grid_calculus import Field, PeriodicGrid
from .symm_lie import chi

DEFAULT_CFL_CONSTANT = 0.05


@dataclass
class SimConfig:
    """Validated simulation settings for one flow run."""

    n: int
    grid: PeriodicGrid
    dt: float
    t_end: float
    flow: str = "mkdv"
    galilean_removed: bool = True
    sg_branch: str = "-"
    sg_mode: str = "line"
    sg_refine: int = 8
    hierarchy_level: int = 1
    cadence: int = 1
    cfl_constant: float = DEFAULT_CFL_CONSTANT
    project_fraction: float | None = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be >= 0")
        if self.flow not in ("mkdv", "sg", "hierarchy"):
            raise ConfigError(f"unknown flow kind {self.flow!r}")
        if self.sg_branch not in ("+", "-"):
            raise ConfigError("sg_branch must be '+' or '-'")
        if self.sg_mode not in ("line", "periodic"):
            raise ConfigError("sg_mode must be 'line' or 'periodic'")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if self.flow == "mkdv":
            bound = self.cfl_constant * self.grid.dx**3
            if self.dt > bound:
                raise ConfigError(
                    f"dt = {self.dt:.3e} exceeds the dispersive bound "
                    f"{bound:.3e} = cfl_constant * dx^3"
                )


# -- mKdV ---------------------------------------------------------------------

def mkdv_rhs(state: StatePair, galilean_removed: bool = True) -> FlowPair:
    """Closed-form right side of the scalar-vector mKdV system.

    All derivatives come from one transform of the packed (N, 4 + 4m) array
    [u | bu]; the vector-coupling terms are empty sums when m = 0 and are
    only formed when bu has components.
    """
    grid = state.grid
    u, bu = state.arrays()
    N, m = bu.shape[:2]
    derivs = gcalc.spectral_deriv(
        np.concatenate([u, bu.reshape(N, 4 * m)], axis=1), grid, (1, 2, 3)
    )
    ux, u2, u3 = derivs[:, :, :4]
    bux, bu2, bu3 = derivs[:, :, 4:].reshape(3, N, m, 4)

    unormsq = qc.qnormsq(u)

    # scalar row: u3/4 - (3/2) u^2 u_x + (3/4) C(u, C(bu, bu_x)) + (3/4) C(bu, bu_2x)
    out_s = 0.25 * u3 + 1.5 * unormsq[:, None] * ux  # -u^2 = |u|^2 pointwise
    # vector row: bu_3x + (3/2)(|bu|^2 - u^2 + u_x) bu_x
    #             + (3/4)(2u|bu|^2 - A(u, u_x) - C(bu, bu_x) + u_2x) bu
    if m:
        businormsq = qc.vec_normsq(bu)
        cvec = qc.comm_C_vec(bu, bux)
        out_s = (
            out_s
            + 0.75 * (qc.qmul(u, cvec) - qc.qmul(cvec, u))
            + 0.75 * qc.comm_C_vec(bu, bu2)
        )
        fac1 = qc.from_real(businormsq + unormsq) + ux
        a_u_ux = -2.0 * np.sum(u[:, 1:] * ux[:, 1:], axis=-1)
        fac2 = 2.0 * businormsq[:, None] * u - qc.from_real(a_u_ux) - cvec + u2
        out_v = bu3 + 1.5 * qc.qmul(fac1[:, None, :], bux) + 0.75 * qc.qmul(
            fac2[:, None, :], bu
        )
    else:
        out_v = bu3
    if not galilean_removed:
        c = 1.0 / chi(state.n)
        out_s = out_s + c * ux
        out_v = out_v + c * bux
    return make_flow(grid, out_s, out_v)


def _project_state(grid: PeriodicGrid, u, bu, fraction) -> StatePair:
    """Stage state from fresh arrays (u is overwritten): the scalar re-projected
    to imaginary and, with `fraction` set, [u | bu] dealiased in one transform."""
    u[:, 0] = 0.0
    if fraction is not None:
        N = u.shape[0]
        packed = gcalc.dealias_values(
            np.concatenate([u, bu.reshape(N, -1)], axis=1), grid, fraction
        )
        u = packed[:, :4]
        bu = packed[:, 4:].reshape(bu.shape)
        u[:, 0] = 0.0
    return make_state(grid, u, bu)


def step_rk4(
    state: StatePair,
    rhs,
    dt: float,
    t: float = 0.0,
    project_fraction: float | None = None,
) -> StatePair:
    """Classical fourth-order step; re-projects the scalar to imaginary each stage."""
    grid = state.grid
    u, bu = state.arrays()

    def shifted(k, c):
        return _project_state(
            grid, u + c * k.hs.values, bu + c * k.hv.values, project_fraction
        )

    k1 = rhs(state)
    k2 = rhs(shifted(k1, dt / 2))
    k3 = rhs(shifted(k2, dt / 2))
    k4 = rhs(shifted(k3, dt))
    du = (dt / 6.0) * (
        k1.hs.values + 2 * k2.hs.values + 2 * k3.hs.values + k4.hs.values
    )
    dbu = (dt / 6.0) * (
        k1.hv.values + 2 * k2.hv.values + 2 * k3.hv.values + k4.hv.values
    )
    new = _project_state(grid, u + du, bu + dbu, project_fraction)
    if not (np.all(np.isfinite(new.u.values)) and np.all(np.isfinite(new.bu.values))):
        raise BlowUpError(t + dt)
    return new


# -- quaternion multiplication as 4x4 real matrices ---------------------------

_CONJ4 = np.diag([1.0, -1.0, -1.0, -1.0])


def _left_mult_matrix(q):
    """Batched L(q) with L(q) p = components of q * p; q shaped (..., 4)."""
    q0, q1, q2, q3 = (q[..., c] for c in range(4))
    rows = [
        np.stack([q0, -q1, -q2, -q3], axis=-1),
        np.stack([q1, q0, -q3, q2], axis=-1),
        np.stack([q2, q3, q0, -q1], axis=-1),
        np.stack([q3, -q2, q1, q0], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def _right_mult_matrix(q):
    """Batched R(q) with R(q) p = components of p * q."""
    q0, q1, q2, q3 = (q[..., c] for c in range(4))
    rows = [
        np.stack([q0, -q1, -q2, -q3], axis=-1),
        np.stack([q1, q0, q3, -q2], axis=-1),
        np.stack([q2, -q3, q0, q1], axis=-1),
        np.stack([q3, q2, -q1, q0], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def sg_system_matrix(u: np.ndarray, bu: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the linear x-ODE for y = (h_par, h_s, h_v).

    The system is D_x h_s = -C(bu, h_v) - 4 h_par u,
    D_x h_v = -h_s bu / 2 - u h_v - h_par bu,
    D_x h_par = -A(u, h_s)/2 + A(bu, h_v)/2,
    packed over real components; it lies in the orthogonal algebra of the
    quadratic form diag(1, I/4, I), which is the constraint of the flow.
    """
    K = u.shape[0]
    m = bu.shape[1]
    d = 4 + 4 * m
    M = np.zeros((K, d, d))
    # h_par row: dot3(u, h_s) + sum_l dot4(bu_l, h_v_l)
    M[:, 0, 1:4] = u[:, 1:4]
    Lu = _left_mult_matrix(u)
    for l in range(m):
        c0 = 4 + 4 * l
        M[:, 0, c0 : c0 + 4] = bu[:, l, :]
        # h_s rows: -C(bu, h_v) = -(L(bu_l) C4 - R(conj bu_l)) h_v_l, imaginary rows
        map4 = -(
            _left_mult_matrix(bu[:, l, :]) @ _CONJ4
            - _right_mult_matrix(qc.qconj(bu[:, l, :]))
        )
        M[:, 1:4, c0 : c0 + 4] = map4[:, 1:4, :]
        # h_v rows
        M[:, c0 : c0 + 4, 0] = -bu[:, l, :]
        M[:, c0 : c0 + 4, 1:4] = -0.5 * _right_mult_matrix(bu[:, l, :])[:, :, 1:4]
        M[:, c0 : c0 + 4, c0 : c0 + 4] -= Lu
    M[:, 1:4, 0] = -4.0 * u[:, 1:4]
    return M


def _expm_form_skew(Omega: np.ndarray, sqrt_form: np.ndarray) -> np.ndarray:
    """Batched exponential of matrices skew w.r.t. the form diag(sqrt_form^2)."""
    sym = sqrt_form[None, :, None] * Omega / sqrt_form[None, None, :]
    lam, V = np.linalg.eigh(1j * sym)
    exp_sym = (V * np.exp(-1j * lam)[:, None, :]) @ np.conj(np.swapaxes(V, -1, -2))
    exp_sym = exp_sym.real
    return exp_sym * sqrt_form[None, None, :] / sqrt_form[None, :, None]


def prefix_products(T: np.ndarray) -> np.ndarray:
    """Cumulative products P[0] = I, P[i] = T[i-1] @ ... @ T[0], via doubling."""
    K, d = T.shape[0], T.shape[1]
    eye = np.broadcast_to(np.eye(d, dtype=T.dtype), (1, d, d))
    if K == 0:
        return eye.copy()
    if K == 1:
        return np.concatenate([eye, T[:1]], axis=0)
    even = T[0::2]
    odd = T[1::2]
    paired = odd @ even[: odd.shape[0]]
    sub = prefix_products(paired)  # covers pairs; for odd K the last element dangles
    out = np.empty((K + 1, d, d), dtype=T.dtype)
    out[0::2] = sub[: (K // 2) + 1]
    out[1::2] = even @ sub[: (K + 1) // 2]
    return out


def _sg_constraint(y: np.ndarray) -> np.ndarray:
    return y[..., 0] ** 2 + 0.25 * np.sum(y[..., 1:4] ** 2, axis=-1) + np.sum(
        y[..., 4:] ** 2, axis=-1
    )


def _sg_transfers(state: StatePair, refine: int) -> np.ndarray:
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    M = sg_system_matrix(u_f, bu_f)
    M0 = M[0::2]
    Mmid = M[1::2]
    M1 = np.roll(M0, -1, axis=0)
    h = grid.dx / refine
    comm = Mmid @ (M1 - M0) - (M1 - M0) @ Mmid
    Omega = (h / 6.0) * (M0 + 4.0 * Mmid + M1) - (h**2 / 12.0) * comm
    m = state.n - 1
    sqrt_form = np.concatenate([[1.0], 0.5 * np.ones(3), np.ones(4 * m)])
    return _expm_form_skew(Omega, sqrt_form)


def sg_solve_h(
    state: StatePair,
    branch: str = "-",
    mode: str = "line",
    refine: int = 8,
    boundary: np.ndarray | None = None,
    richardson_check: bool = False,
    richardson_tol: float = 1e-6,
):
    """Solve the -1 flow's linear x-system, returning (flow pair, h_par, info).

    The returned pair is normalized so the pointwise constraint equals chi^2.
    """
    if branch not in ("+", "-"):
        raise DomainError("branch must be '+' or '-'")
    grid = state.grid
    N = grid.num_points
    m = state.n - 1
    d = 4 + 4 * m
    c = chi(state.n)

    transfers = _sg_transfers(state, refine)
    prefixes = prefix_products(transfers)
    grid_prefix = prefixes[: N * refine : refine]

    if mode == "line":
        if boundary is None:
            y0 = np.zeros(d)
            y0[0] = c if branch == "+" else -c
        else:
            y0 = np.asarray(boundary, dtype=float)
            if y0.shape != (d,):
                raise DomainError(f"boundary must have shape ({d},)")
    elif mode == "periodic":
        monodromy = prefixes[-1]
        U, s, Vt = np.linalg.svd(monodromy - np.eye(d))
        if s[-1] > 1e-6 * max(s[0], 1.0):
            raise ShootingError(
                f"no periodic -1 flow: smallest singular value of (monodromy - id) "
                f"is {s[-1]:.3e}"
            )
        y0 = Vt[-1]
        y0 = y0 * (c / np.sqrt(_sg_constraint(y0)))
        want = 1.0 if branch == "+" else -1.0
        anchor = y0[0] if abs(y0[0]) > 1e-12 else np.mean(grid_prefix @ y0, axis=0)[0]
        if anchor * want < 0:
            y0 = -y0
    else:
        raise DomainError("mode must be 'line' or 'periodic'")

    y = grid_prefix @ y0
    info = {
        "constraint": _sg_constraint(y),
        "constraint_target": c**2,
        "constraint_max_dev": float(np.max(np.abs(_sg_constraint(y) - _sg_constraint(y0)))),
        "boundary": y0.copy(),
        "seam_state_magnitude": float(
            np.max(np.abs(state.u.values[[0, -1]])) if mode == "line" else 0.0
        ),
    }
    if richardson_check:
        if refine < 2 or refine % 2:
            raise DomainError("richardson_check needs an even refine >= 2")
        coarse = prefix_products(_sg_transfers(state, refine // 2))
        y_c = coarse[: N * (refine // 2) : refine // 2] @ y0
        est = float(np.max(np.abs(y - y_c))) / 15.0
        info["richardson_error"] = est
        if est > richardson_tol * max(c, 1.0):
            raise IntegrationAccuracyError(
                f"-1 flow x-solve error estimate {est:.3e} exceeds tolerance"
            )

    hs = np.zeros((N, 4))
    hs[:, 1:4] = y[:, 1:4]
    hv = y[:, 4:].reshape(N, m, 4)
    h_par = Field(grid, y[:, 0].copy(), "real")
    return make_flow(grid, hs, hv), h_par, info


def sg_step(
    state: StatePair,
    dt: float,
    branch: str = "-",
    mode: str = "line",
    refine: int = 8,
    t: float = 0.0,
) -> StatePair:
    """Advance the -1 flow by one RK4 step, re-solving the x-system per stage."""
    grid = state.grid
    inv_chi = 1.0 / chi(state.n)

    def rhs(s):
        h, _, _ = sg_solve_h(s, branch, mode, refine)
        return make_flow(grid, inv_chi * h.hs.values, inv_chi * h.hv.values)

    return step_rk4(state, rhs, dt, t, project_fraction=None)


# -- presets -------------------------------------------------------------------

def preset_random_band(
    grid: PeriodicGrid, n: int, seed: int = 0, amplitude: float = 0.3, kmax: int = 4
) -> StatePair:
    """Band-limited random smooth state; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    base = 2 * np.pi / grid.length

    def waves(shape):
        vals = np.zeros((grid.num_points,) + shape)
        for k in range(1, kmax + 1):
            a = rng.standard_normal(shape) / k**2
            b = rng.standard_normal(shape) / k**2
            cosk = np.cos(k * base * grid.x).reshape((-1,) + (1,) * len(shape))
            sink = np.sin(k * base * grid.x).reshape((-1,) + (1,) * len(shape))
            vals += amplitude * (cosk * a + sink * b)
        return vals

    u = waves((4,))
    u[:, 0] = 0.0
    return make_state(grid, u, waves((n - 1, 4)))


def mkdv_soliton_profile(grid: PeriodicGrid, a: float, x0: float, t: float = 0.0):
    """sech soliton of the scalar reduction, u0 = a sech(a(x - x0 + a^2 t / 4))."""
    arg = a * (grid.x - x0 + a * a * t / 4.0)
    return a / np.cosh(arg)


def preset_mkdv_soliton(
    grid: PeriodicGrid, n: int, a: float = 1.5, x0: float | None = None, direction=None
) -> StatePair:
    """Scalar-reduction soliton along a fixed imaginary direction."""
    if x0 is None:
        x0 = grid.length / 2.0
    q = qc.I if direction is None else np.asarray(direction) / qc.qnorm(direction)
    u = mkdv_soliton_profile(grid, a, x0)[:, None] * q
    return make_state(grid, u, np.zeros((grid.num_points, n - 1, 4)))


def sg_kink_profile(grid: PeriodicGrid, a: float, x0: float, t: float = 0.0):
    """Covariant of the classical kink psi = 4 arctan exp(a(x - x0) + 4t/a):
    u = psi_x / 2 = a sech(a(x - x0) + 4t/a)."""
    arg = a * (grid.x - x0) + 4.0 * t / a
    return a / np.cosh(arg)


def preset_sg_kink(
    grid: PeriodicGrid, n: int, a: float = 1.0, x0: float | None = None, direction=None
) -> StatePair:
    if x0 is None:
        x0 = grid.length / 2.0
    q = qc.I if direction is None else np.asarray(direction) / qc.qnorm(direction)
    u = sg_kink_profile(grid, a, x0)[:, None] * q
    return make_state(grid, u, np.zeros((grid.num_points, n - 1, 4)))


PRESETS = {
    "random_band": preset_random_band,
    "mkdv_soliton": preset_mkdv_soliton,
    "sg_kink": preset_sg_kink,
}


# -- trajectories and conservation reports ------------------------------------

@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    sg_constraint_dev: list = field(default_factory=list)
    sg_constraint_value: list = field(default_factory=list)

    def append(self, t, state):
        self.times.append(float(t))
        self.states.append(state)


def run_flow(config: SimConfig, state: StatePair, observer=None) -> Trajectory:
    """Integrate the configured flow, snapshotting every `cadence` steps."""
    traj = Trajectory()
    traj.append(0.0, state)
    if config.flow == "sg":
        _, _, info = sg_solve_h(state, config.sg_branch, config.sg_mode, config.sg_refine)
        traj.sg_constraint_dev.append(info["constraint_max_dev"])
        traj.sg_constraint_value.append(float(np.mean(info["constraint"])))
    n_steps = int(round(config.t_end / config.dt))
    t = 0.0
    for step in range(n_steps):
        if config.flow == "mkdv":
            state = step_rk4(
                state,
                lambda s: mkdv_rhs(s, config.galilean_removed),
                config.dt,
                t,
                config.project_fraction,
            )
        elif config.flow == "hierarchy":
            state = step_rk4(
                state,
                lambda s: bo.hierarchy_flow(s, config.hierarchy_level),
                config.dt,
                t,
                config.project_fraction,
            )
        else:
            state = sg_step(
                state, config.dt, config.sg_branch, config.sg_mode, config.sg_refine, t
            )
        t = (step + 1) * config.dt
        if (step + 1) % config.cadence == 0 or step + 1 == n_steps:
            traj.append(t, state)
            if config.flow == "sg":
                _, _, info = sg_solve_h(
                    state, config.sg_branch, config.sg_mode, config.sg_refine
                )
                traj.sg_constraint_dev.append(info["constraint_max_dev"])
                traj.sg_constraint_value.append(float(np.mean(info["constraint"])))
            if observer is not None:
                observer(t, state)
    return traj


@dataclass
class ConservationReport:
    times: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    h0_drift: float
    h1_drift: float
    max_re_u: float
    sg_constraint_drift: float | None = None

    def as_dict(self):
        out = {
            "times": self.times.tolist(),
            "H0": self.h0.tolist(),
            "H1": self.h1.tolist(),
            "H0_relative_drift": self.h0_drift,
            "H1_relative_drift": self.h1_drift,
            "max_re_u": self.max_re_u,
        }
        if self.sg_constraint_drift is not None:
            out["sg_constraint_drift"] = self.sg_constraint_drift
        return out


def conserved_report(traj: Trajectory) -> ConservationReport:
    """Evaluate the first two conserved functionals along a trajectory."""
    times = np.asarray(traj.times)
    h0 = np.array([bo.hamiltonian_value(s, 0) for s in traj.states])
    h1 = np.array([bo.hamiltonian_value(s, 1) for s in traj.states])

    def drift(vals):
        scale = max(np.max(np.abs(vals)), 1e-30)
        return float(np.max(np.abs(vals - vals[0])) / scale)

    max_re = max(float(np.max(np.abs(s.u.values[:, 0]))) for s in traj.states)
    sg_drift = None
    if traj.sg_constraint_value:
        vals = np.asarray(traj.sg_constraint_value)
        sg_drift = float(np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-30))
    return ConservationReport(times, h0, h1, drift(h0), drift(h1), max_re, sg_drift)


def report_to_csv(path, report: ConservationReport):
    data = np.column_stack([report.times, report.h0, report.h1])
    np.savetxt(
        path, data, delimiter=",", header="t,H0,H1", comments="", fmt="%.17e"
    )
