"""Time integration of the quaternionic mKdV (+1) and sine-Gordon (-1) flows.

Each flow kind is one row of FLOWS, which SimConfig, run_flow and the CLI
read: mkdv, sg (the -1 flow) and hierarchy (a level of the recursion).  A
row gives the kind's one RK4 step, the level that sets its dt bound, the
highest level the CLI steps and, for the -1 flow, the closing x-solve.

The mKdV system is local and is stepped with classical RK4 on the periodic
grid; the scalar part of the state is re-projected to its imaginary part
after every stage.  Under the 2/3 rule each stage is dealiased by one
transform pair that also gives its x-derivatives, which the stage state
carries to mkdv_rhs: a step makes 5 transform pairs, one for the step's
first right side, one per later stage and one for the final projection.
For n >= 2 the right side's vector-coupling terms make one call of each
quat_core kernel they use, on stacked operands.

The -1 flow is nonlocal in x: at each instant the flow pair solves a linear
ODE system in x driven by the state, with the pointwise quadratic constraint
h_par^2 + |h_s|^2/4 + |h_v|^2 = chi^2.  The solver builds per-cell transfer
matrices with a fourth-order Magnus scheme and composes them with a prefix
scan that forms only the rows the solve reads, the prefixes at the grid
points and the monodromy; because each transfer is the exponential of an
element of the constraint form's orthogonal algebra, the constraint is
preserved to roundoff along x regardless of resolution.  For n = 1 that
algebra is so(4) = sp(1) + sp(1), and each transfer is built in closed form
as one left and one right multiplication by a unit quaternion (quat_core's
L and R matrices, which also build the n >= 2 system matrix); n >= 2
exponentiates the Magnus generator with the batched Taylor map, a block of
cells at a time (magnus4_transfers).  The frame transport in curve_geometry
shares that build and the prefix scan, and its co-evolution in time the RK4
body.  Two spatial modes are offered:

    line     : integrate left to right from the boundary value
               (sign * chi, 0, 0) at x = 0; meant for states that vanish
               near the domain seam (kink-type data).
    periodic : pick the boundary value from the kernel of (monodromy - id),
               failing loudly when no periodic solution exists.  A kernel
               of dimension > 1 (every n = 1 kernel is one) holds many
               solutions; the one taken is the kernel's projection of a
               coordinate axis, h_par's first, so it does not depend on
               roundoff, and info["kernel_dim"] reports the dimension.

The branch sign names the sign of the boundary h_par.  The "-" branch is the
one whose scalar reduction obeys the classical sine-Gordon equation
psi_xt = 4 sin(psi) under u = (psi_x / 2) q; it is the default.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import biham_ops as bo
from . import grid_calculus as gcalc
from . import quat_core as qc
from .biham_ops import FlowPair, StatePair, make_state
from .errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    IntegrationAccuracyError,
    NonFiniteMonodromyError,
    ShootingError,
)
from .grid_calculus import Field, PeriodicGrid
from .symm_lie import chi

DEFAULT_CFL_CONSTANT = 0.05
# Orszag's 2/3 rule: the +1 flow's stage states keep the lower 2/3 of the modes
DEFAULT_PROJECT_FRACTION = 2.0 / 3.0


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
    project_fraction: float | None = DEFAULT_PROJECT_FRACTION

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt = {self.dt} must be positive and finite")
        if not 0 <= self.t_end < math.inf:
            raise ConfigError(f"t_end = {self.t_end} must be >= 0 and finite")
        if self.flow not in FLOWS:
            raise ConfigError(f"unknown flow kind {self.flow!r}: choose from {list(FLOWS)}")
        if self.sg_branch not in ("+", "-"):
            raise ConfigError("sg_branch must be '+' or '-'")
        if self.sg_mode not in ("line", "periodic"):
            raise ConfigError("sg_mode must be 'line' or 'periodic'")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if self.sg_refine < 1:
            raise ConfigError(f"sg_refine = {self.sg_refine} must be >= 1")
        if not 0 < self.cfl_constant < math.inf:
            raise ConfigError(f"cfl_constant = {self.cfl_constant} must be positive and finite")
        # a fraction <= 0 keeps only the mean mode: every stage would wipe the state
        if self.project_fraction is not None and not 0.0 < self.project_fraction <= 1.0:
            raise ConfigError(
                f"project_fraction = {self.project_fraction} must be in (0, 1], "
                "or None for no dealiasing"
            )
        if self.hierarchy_level < 0:
            raise ConfigError("hierarchy level must be >= 0")
        # the level-l flow has leading order 2l + 1 in x
        kind = FLOWS[self.flow]
        if kind.local:
            l = self.hierarchy_level if kind.level is None else kind.level
            bound = self.cfl_constant * self.grid.dx ** (2 * l + 1)
            if self.dt > bound:
                where = f" of hierarchy level {l}" if kind.level is None else ""
                raise ConfigError(
                    f"dt = {self.dt:.3e} exceeds the dispersive bound{where} "
                    f"{bound:.3e} = cfl_constant * dx^{2 * l + 1}"
                )


@dataclass(frozen=True)
class FlowKind:
    """How run_flow steps one flow kind; FLOWS holds one for each."""

    step: Callable  # (config, state, dt, t, on_solve) -> the state after one RK4 step
    local: bool = True  # dt is bounded by cfl_constant * dx^(2l + 1) at its level l
    level: int | None = None  # that level l; None reads config.hierarchy_level
    max_level: int | None = None  # the highest flow.l the CLI steps
    x_solve: Callable | None = None  # (config, state) -> the info of the -1 flow's x-solve


# The steps call through module names, so a wrapper bound to a name (a
# monkeypatch, the benchmark's tracer) sees every call.  The -1 flow steps by
# sg_step, which hands the solve of the step's start state to on_solve and
# takes no projection.  biham_ops says why the hierarchy's max_level is 1.
FLOWS = {
    "mkdv": FlowKind(
        lambda c, s, dt, t, _: step_rk4(
            s, lambda x: mkdv_rhs(x, c.galilean_removed), dt, t, c.project_fraction
        ),
        level=1,
    ),
    "sg": FlowKind(
        lambda c, s, dt, t, on_solve: sg_step(
            s, dt, c.sg_branch, c.sg_mode, c.sg_refine, t, on_state_solve=on_solve
        ),
        local=False,
        x_solve=lambda c, s: sg_solve_h(s, c.sg_branch, c.sg_mode, c.sg_refine)[2],
    ),
    "hierarchy": FlowKind(
        lambda c, s, dt, t, _: step_rk4(
            s, lambda x: bo.hierarchy_flow(x, c.hierarchy_level), dt, t, c.project_fraction
        ),
        max_level=1,
    ),
}


# -- mKdV ---------------------------------------------------------------------

def mkdv_rhs(state: StatePair, galilean_removed: bool = True) -> FlowPair:
    """Closed-form right side of the scalar-vector mKdV system.

    The derivatives, of the orders _mkdv_orders names, are the state's own
    x_derivs when it carries them (an RK4 stage state's, from the transform
    that dealiased it).  A plain state takes them from one transform of the
    packed (N, 4 + 4m) array [u | bu], or of u alone when m = 0.  The
    vector-coupling terms are empty sums when m = 0 and are only formed when
    bu has components.  The result is not re-validated: its arrays have the
    state's grid and shapes.
    """
    grid = state.u.grid
    u, bu = state.u.values, state.bu.values
    N, m = bu.shape[:2]
    derivs = state.x_derivs
    if derivs is None:
        derivs = gcalc.spectral_deriv(_pack(u, bu), grid, _mkdv_orders(m))
    if m:
        ux, u2, u3 = derivs[:, :, :4]
        bu_derivs = derivs[:, :, 4:].reshape(3, N, m, 4)  # bu_x, bu_2x, bu_3x
        bux, bu3 = bu_derivs[0], bu_derivs[2]
    else:
        ux, u3 = derivs
        bux = bu3 = bu  # (N, 0, 4): no components to differentiate

    unormsq = qc.qnormsq(u)

    # scalar row: u3/4 - (3/2) u^2 u_x + (3/4) C(u, C(bu, bu_x)) + (3/4) C(bu, bu_2x),
    # summed left to right in place
    out_s = 0.25 * u3
    # -u^2 = |u|^2 pointwise; the factor repeated to full shape, as a product
    # broadcast along the quaternion axis costs more
    out_s += (1.5 * unormsq).repeat(4).reshape(N, 4) * ux
    # vector row: bu_3x + (3/2)(|bu|^2 - u^2 + u_x) bu_x
    #             + (3/4)(2u|bu|^2 - A(u, u_x) - C(bu, bu_x) + u_2x) bu
    # one call per kernel on stacked operands: each kernel works elementwise or
    # sums over the vector axis in order, so a row has the bits of its own call
    if m:
        businormsq = qc.vec_normsq(bu)
        cvec, cvec_2x = qc.comm_C_vec(bu, bu_derivs[:2])  # C(bu, bu_x), C(bu, bu_2x)
        out_s += 0.75 * qc.comm_C(u, cvec)
        out_s += 0.75 * cvec_2x
        fac1 = qc.from_real(businormsq + unormsq) + ux
        fac2 = 2.0 * businormsq[:, None] * u - qc.from_real(qc.acomm_A_im(u, ux)) - cvec + u2
        fac_bux, fac_bu = qc.scalar_vec(np.stack([fac1, fac2]), np.stack([bux, bu]))
        out_v = bu3 + 1.5 * fac_bux + 0.75 * fac_bu
    else:
        out_v = bu3
    if not galilean_removed:
        c = 1.0 / chi(state.n)
        out_s += c * ux
        out_v = out_v + c * bux  # out_v is the state's own bu when m = 0
    return bo._unchecked_pair(FlowPair, grid, out_s, out_v)


def _mkdv_orders(m: int) -> tuple:
    """The derivative orders of [u | bu] that mkdv_rhs reads.  u_2x enters
    only the coupling terms, so m = 0 takes (1, 3); each order is its own
    inverse transform, so those rows have the bits of rows 1 and 3 of
    (1, 2, 3)."""
    return (1, 2, 3) if m else (1, 3)


def _pack(u, bu):
    """The (N, 4 + 4m) array [u | bu]; u itself when m = 0."""
    return np.concatenate([u, bu.reshape(len(u), -1)], axis=1) if bu.shape[1] else u


def step_rk4(
    state: StatePair,
    rhs,
    dt: float,
    t: float = 0.0,
    project_fraction: float | None = None,
) -> StatePair:
    """Classical fourth-order step; re-projects the scalar to imaginary each stage."""
    return _rk4(state, rhs, dt, t, project_fraction)


def _rk4(state: StatePair, rhs, dt: float, t: float, project_fraction) -> StatePair:
    """The one RK4 body, shared by step_rk4, sg_step and the frame co-evolution.

    Stages and the update are formed on packed [u | bu] arrays, element for
    element in the order of the unpacked formulas: each stage in one fresh
    array, and the update accumulated in another.  No array a right side
    returned, and no array of the input state, is written.  Only the result
    goes through make_state; the stage states are valid by construction.  A
    right side on another grid or of another shape than the state raises
    DimensionMismatchError.

    When `project_fraction` is set, each stage is dealiased by one
    dealias_values call that also gives its x-derivatives of the orders
    mkdv_rhs reads from the same masked spectrum; the stage state carries
    them as x_derivs, for mkdv_rhs to read instead of transforming again.
    The stage values are those of dealiasing alone, bit for bit, so a right
    side that reads no derivatives steps as before.  The result carries no
    derivatives."""
    grid = state.u.grid
    bu_shape = state.bu.values.shape
    orders = _mkdv_orders(bu_shape[1])
    y = _pack(state.u.values, state.bu.values)  # u itself when m = 0

    def k(s):
        h = rhs(s)
        if h.grid is not grid and h.grid != grid:
            raise DimensionMismatchError(
                f"right side lives on {h.grid}, the state on {grid}"
            )
        packed = _pack(*h.arrays())  # the right side's own hs when m = 0
        if packed.shape != y.shape:
            raise DimensionMismatchError(
                f"right side packs to shape {packed.shape}, the state to {y.shape}"
            )
        return packed

    def stage(kk, c):
        # y + c * kk, the scalar re-projected to imaginary; not re-validated:
        # the input state's grid and shapes, and a scalar of exact zeros, so
        # make_state's checks cannot fail
        z = kk * c
        z += y
        # zeroed before the transform as well as after it, so the derivatives
        # are the stage state's; the transform treats each column on its own,
        # so the other columns do not depend on the scalar's real part
        z[:, 0] = 0.0
        derivs = None
        if project_fraction is not None:
            rows = gcalc.dealias_values(z, grid, project_fraction, orders)
            z, derivs = rows[0], rows[1:]
            z[:, 0] = 0.0
        s = bo._unchecked_pair(StatePair, grid, z[:, :4], z[:, 4:].reshape(bu_shape))
        s.x_derivs = derivs
        return s

    k1 = k(state)
    k2 = k(stage(k1, dt / 2))
    k3 = k(stage(k2, dt / 2))
    k4 = k(stage(k3, dt))
    # y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)
    new = 2 * k2
    new += k1
    new += 2 * k3
    new += k4
    new *= dt / 6.0
    new += y
    if project_fraction is not None:
        new = gcalc.dealias_values(new, grid, project_fraction)
    new[:, 0] = 0.0
    if not np.isfinite(new).all():
        raise BlowUpError(t + dt)
    return make_state(grid, new[:, :4], new[:, 4:].reshape(bu_shape))


# -- the -1 flow's x-system ----------------------------------------------------

_CONJ4 = np.diag([1.0, -1.0, -1.0, -1.0])


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
    if m:
        Lu = qc.left_mult_matrix(u)
    for l in range(m):
        c0 = 4 + 4 * l
        M[:, 0, c0 : c0 + 4] = bu[:, l, :]
        # h_s rows: -C(bu, h_v) = -(L(bu_l) C4 - R(conj bu_l)) h_v_l, imaginary rows
        map4 = -(
            qc.left_mult_matrix(bu[:, l, :]) @ _CONJ4
            - qc.right_mult_matrix(qc.qconj(bu[:, l, :]))
        )
        M[:, 1:4, c0 : c0 + 4] = map4[:, 1:4, :]
        # h_v rows
        M[:, c0 : c0 + 4, 0] = -bu[:, l, :]
        M[:, c0 : c0 + 4, 1:4] = -0.5 * qc.right_mult_matrix(bu[:, l, :])[:, :, 1:4]
        M[:, c0 : c0 + 4, c0 : c0 + 4] -= Lu
    M[:, 1:4, 0] = -4.0 * u[:, 1:4]
    return M


# Taylor polynomial of degree 12 with scaling and squaring.  Once the scaled
# argument has Frobenius norm <= theta, the first dropped term theta^13/13!
# is 2.6e-17 at theta = 0.3, below the unit roundoff 2^-53 = 1.1e-16: the
# truncation error is below roundoff, so skew and anti-Hermitian arguments
# give orthogonal and unitary results to roundoff.
_EXPM_THETA = 0.3
_EXPM_COEFFS = 1.0 / np.cumprod([1.0] + list(range(1, 13)))  # 1/k!, k = 0..12


def _max_norm(Z: np.ndarray) -> float:
    """The batch's largest Frobenius norm; NaN if any entry is NaN."""
    return float(np.sqrt(np.max(np.sum(np.abs(Z) ** 2, axis=(-2, -1)), initial=0.0)))


def _expm_squarings(norm: float) -> int:
    """Squarings s that bring the Frobenius norm `norm` to theta or below; 0
    for a non-finite norm, whose exponential is non-finite anyway."""
    if math.isfinite(norm) and norm > _EXPM_THETA:
        return math.ceil(math.log2(norm / _EXPM_THETA))
    return 0


def expm_antihermitian(Z: np.ndarray, squarings: int | None = None) -> np.ndarray:
    """Batched exponential of real skew-symmetric or complex anti-Hermitian
    matrices (..., d, d), from matrix products alone.

    The degree-12 Taylor polynomial is evaluated by Paterson-Stockmeyer
    (Z^2, Z^3, Z^4 and two Horner products in Z^4) on Z / 2^s, then squared
    s times.  s is `squarings` when given, which must be at least the count
    for the batch's largest Frobenius norm (magnus4_transfers passes the
    count of a larger batch); otherwise it comes from that norm.  Non-finite
    input gives non-finite output.
    """
    s = _expm_squarings(_max_norm(Z)) if squarings is None else squarings
    if s:
        Z = Z * 2.0**-s
    c = _EXPM_COEFFS
    eye = np.eye(Z.shape[-1])
    Z2 = Z @ Z
    Z3 = Z2 @ Z
    Z4 = Z2 @ Z2

    def block(k):  # sum_{j < 4} c[k + j] Z^j
        return c[k] * eye + c[k + 1] * Z + c[k + 2] * Z2 + c[k + 3] * Z3

    E = block(8) + c[12] * Z4
    E = block(4) + Z4 @ E
    E = block(0) + Z4 @ E
    for _ in range(s):
        E = E @ E
    return E


def prefix_products(T: np.ndarray, every: int = 1) -> np.ndarray:
    """Cumulative products P[0] = I, P[i] = T[i-1] @ ... @ T[0], via doubling.

    Returns the rows P[0], P[every], P[2 * every], ... up to P[K].  While
    every is even only the paired level is scanned: its prefixes are the even
    rows of the full scan, with the same association, so the rows are equal
    bit for bit.
    """
    K, d = T.shape[0], T.shape[1]
    if K <= 1:
        return np.concatenate([np.eye(d, dtype=T.dtype)[None], T[:K]])[::every]
    if every % 2 and every > 1:
        return prefix_products(T)[::every]
    even = T[0::2]
    odd = T[1::2]
    paired = odd @ even[: odd.shape[0]]
    if every > 1:
        return prefix_products(paired, every // 2)
    sub = prefix_products(paired)  # covers pairs; for odd K the last element dangles
    out = np.empty((K + 1, d, d), dtype=T.dtype)
    out[0::2] = sub[: (K // 2) + 1]
    out[1::2] = even @ sub[: (K + 1) // 2]
    return out


def _sg_constraint(y: np.ndarray) -> np.ndarray:
    """h_par^2 + |h_s|^2 / 4 + |h_v|^2 over the last axis, bit for bit as with
    np.sum per block.  The three h_s squares are added left to right, which
    is np.sum's order for fewer than 8 terms."""
    sq = y**2
    out = sq[..., 1] + sq[..., 2]
    out += sq[..., 3]
    out *= 0.25
    out += sq[..., 0]
    if sq.shape[-1] > 4:  # an empty h_v block would add +0.0 to a sum >= +0.0
        out += np.sum(sq[..., 4:], axis=-1)
    return out


def _sqrt_form(m: int) -> np.ndarray:
    return np.concatenate([[1.0], 0.5 * np.ones(3), np.ones(4 * m)])


def _sg_transfers(state: StatePair, refine: int) -> np.ndarray:
    """Magnus-4 transfer matrices of the x-system over the refine * N cells."""
    if state.n == 1:
        return _sg_transfers_quaternion(state, refine)
    return _sg_transfers_generic(state, refine)


# Bytes of generators per block of the transfer build; the block's matrices
# and Magnus and Taylor temporaries are a small multiple of it, whatever the
# grid.  64 KB is the largest power of two that keeps the n = 1 frame's build
# under 2 MB (N = 256, refine 8); larger blocks saved at most 15% of its time.
_BLOCK_BYTES = 1 << 16


def magnus4_transfers(system, cells: int, d: int, h: float, dtype=float, scale=None):
    """Transfers exp(Omega) of y_x = M(x) y over `cells` periodic cells of width h.

    Omega = (h/6)(M0 + 4 Mmid + M1) - (h^2/12)[Mmid, M1 - M0] from M at cell
    i's ends, fine points 2i and 2i + 2 (mod 2 * cells), and its midpoint
    2i + 1; `system(rows)` gives M at the fine points `rows`, (len(rows), d, d),
    one block of cells at a time.  The generators fill the returned array,
    and each block is then exponentiated in place with the squarings of the
    largest norm over all cells: for finite input, the arithmetic of one
    whole-stack expm_antihermitian call, without its whole-grid temporaries.
    With `scale`, Omega is skew with respect to diag(scale^2) and is
    exponentiated after the similarity by scale, which makes it skew-symmetric.
    """
    out = np.empty((cells, d, d), dtype)
    step = max(1, _BLOCK_BYTES // (d * d * out.itemsize))
    blocks = [slice(i, min(i + step, cells)) for i in range(0, cells, step)]
    norms = []
    for b in blocks:
        M = system(np.arange(2 * b.start, 2 * b.stop + 1) % (2 * cells))
        M0, Mmid, M1 = M[:-1:2], M[1::2], M[2::2]
        D = M1 - M0
        comm = Mmid @ D - D @ Mmid
        Z = np.subtract((h / 6.0) * (M0 + 4.0 * Mmid + M1), (h**2 / 12.0) * comm, out=out[b])
        if scale is not None:
            np.multiply(scale[:, None], Z, out=Z)
            Z /= scale
        norms.append(_max_norm(Z))
    s = _expm_squarings(float(np.max(norms)))
    for b in blocks:
        E = expm_antihermitian(out[b], s)
        if scale is None:
            out[b] = E
        else:
            np.multiply(E, scale, out=out[b])
            out[b] /= scale[:, None]
    return out


def _sg_transfers_generic(state: StatePair, refine: int) -> np.ndarray:
    """Magnus-4 generators from the system matrix, exponentiated by the Taylor map."""
    grid = state.grid
    fine = 2 * refine
    u_f = gcalc.spectral_refine(state.u.values, grid, fine)
    bu_f = gcalc.spectral_refine(state.bu.values, grid, fine)
    return magnus4_transfers(
        lambda rows: sg_system_matrix(u_f[rows], bu_f[rows]),
        u_f.shape[0] // 2,
        4 + 4 * (state.n - 1),
        grid.dx / refine,
        scale=_sqrt_form(state.n - 1),
    )


# n = 1: in the coordinates scaled by sqrt_form the system matrix is
# L(a) + R(a) with a = -Im u, an element of so(4) = sp(1) + sp(1).  Left and
# right multiplications commute, [L(a), L(c)] = L(2 a x c) and
# [R(a), R(c)] = -R(2 a x c), so the Magnus-4 Omega is L(A) + R(B) and its
# exponential is L(exp A) R(exp B): one left and one right multiplication by
# a unit quaternion.  Row 4a + b of this matrix is L(e_a) R(e_b) undone by the
# sqrt_form similarity, so (p_a q_b) @ it is the transfer L(p) R(q).
_SQRT_FORM_1 = _sqrt_form(0)
_PAIR_TO_TRANSFER = (
    (qc.left_mult_matrix(np.eye(4))[:, None] @ qc.right_mult_matrix(np.eye(4))[None, :])
    * (_SQRT_FORM_1 / _SQRT_FORM_1[:, None])
).reshape(16, 16)


def _unit_exp(A: np.ndarray) -> np.ndarray:
    """exp of pure quaternions with vector parts A (3, K), as a (4, K) array."""
    sq = A * A
    r = sq[0] + sq[1]  # np.sum's order over axis 0
    r += sq[2]
    np.sqrt(r, out=r)
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    E = np.empty((4,) + r.shape)
    np.cos(r, out=E[0])
    np.multiply(sinc, A, out=E[1:])
    return E


def _sg_transfers_quaternion(state: StatePair, refine: int) -> np.ndarray:
    """The n = 1 transfers in closed form, equal to the generic ones to roundoff.

    Works component-major, (3, K), so every array operation runs along K:
    one transform refines -Im u along the rows, and the two unit quaternions
    of every cell come from one exponential of the stacked Simpson -/+ cross
    terms.
    """
    a = gcalc.spectral_refine(state.u.values[:, 1:].T, state.grid, 2 * refine, axis=1)
    np.negative(a, out=a)
    K = a.shape[1] // 2
    # cell ends a0 and a1 (periodic: the last cell ends at the first point) and midpoints
    ends = np.empty((3, K + 1))
    ends[:, :K] = a[:, 0::2]
    ends[:, K] = a[:, 0]
    a0, a1 = ends[:, :K], ends[:, 1:]
    am = np.ascontiguousarray(a[:, 1::2])
    h = state.grid.dx / refine
    simpson = 4.0 * am  # (h / 6) (a0 + 4 am + a1)
    simpson += a0
    simpson += a1
    simpson *= h / 6.0
    d = a1 - a0
    cross = np.empty((3, K))  # (h^2 / 6) am x d
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(am[j], d[k], out=cross[i])
        cross[i] -= am[k] * d[j]
    cross *= h**2 / 6.0
    A = np.empty((3, 2 * K))
    np.subtract(simpson, cross, out=A[:, :K])
    np.add(simpson, cross, out=A[:, K:])
    pq = _unit_exp(A)
    # q in an array of its own: the product of the two halves of pq ran 4-7 us
    # (about 15%) slower inside simulate runs of the kink config (K = 2048),
    # more than the copy costs
    p, q = pq[:, :K], pq[:, K:].copy()
    pairs = (p[:, None] * q[None, :]).reshape(16, -1)
    return (pairs.T @ _PAIR_TO_TRANSFER).reshape(-1, 4, 4)


def sg_solve_h(
    state: StatePair,
    branch: str = "-",
    mode: str = "line",
    refine: int = 8,
    richardson_check: bool = False,
    richardson_tol: float = 1e-6,
):
    """Solve the -1 flow's linear x-system, returning (flow pair, h_par, info).

    The refine * N cell transfers are scanned only for the prefixes at the
    grid points and the monodromy (every refine-th row); the Richardson
    coarse solve likewise scans every (refine // 2)-th row.  The returned
    pair is normalized so the pointwise constraint equals chi^2.
    """
    if branch not in ("+", "-"):
        raise DomainError("branch must be '+' or '-'")
    if refine < 1:
        raise DomainError(f"refine = {refine} must be >= 1")
    grid = state.grid
    N = grid.num_points
    m = state.n - 1
    d = 4 + 4 * m
    c = chi(state.n)

    # rows P[0], P[refine], ..., P[N * refine]: the grid points and the monodromy
    prefixes = prefix_products(_sg_transfers(state, refine), refine)
    grid_prefix = prefixes[:N]

    if mode == "line":
        y0 = np.zeros(d)
        y0[0] = c if branch == "+" else -c
    elif mode == "periodic":
        monodromy = prefixes[N]
        if not np.all(np.isfinite(monodromy)):
            raise NonFiniteMonodromyError(
                "no periodic -1 flow: the monodromy has non-finite entries "
                "(non-finite state values or overflowing transfers)"
            )
        U, s, Vt = np.linalg.svd(monodromy - np.eye(d))
        tol = 1e-6 * max(s[0], 1.0)
        if s[-1] > tol:
            raise ShootingError(
                f"no periodic -1 flow: smallest singular value of (monodromy - id) "
                f"is {s[-1]:.3e}"
            )
        # The SVD's basis of a kernel of dimension > 1 is fixed by roundoff,
        # its projector is not: project the first coordinate axis that keeps
        # at least half the largest projected length.  Every n = 1 kernel has
        # dimension >= 2 (a vector fixed by L(P) R(Q) comes with a plane).
        kernel_dim = int(np.sum(s <= tol))
        kernel = Vt[d - kernel_dim :]
        proj = kernel.T @ kernel
        axis = int(np.argmax(np.diag(proj) >= 0.5 * np.max(np.diag(proj))))
        y0 = proj[:, axis]
        y0 = y0 * (c / np.sqrt(_sg_constraint(y0)))
        # the branch fixes the sign through h_par; where h_par vanishes the
        # projection's own sign stands
        want = 1.0 if branch == "+" else -1.0
        small = 1e-12 * c
        anchor = y0[0] if abs(y0[0]) > small else np.mean(grid_prefix[:, 0] @ y0)
        if anchor * want < -small:
            y0 = -y0
    else:
        raise DomainError("mode must be 'line' or 'periodic'")

    y = grid_prefix @ y0
    constraint = _sg_constraint(y)
    info = {
        "constraint": constraint,
        "constraint_target": c**2,
        "constraint_max_dev": float(np.max(np.abs(constraint - _sg_constraint(y0)))),
        "boundary": y0.copy(),
        "seam_state_magnitude": float(
            np.max(np.abs(state.u.values[[0, -1]])) if mode == "line" else 0.0
        ),
    }
    if mode == "periodic":
        info["kernel_dim"] = kernel_dim
    if richardson_check:
        if refine < 2 or refine % 2:
            raise DomainError("richardson_check needs an even refine >= 2")
        coarse = prefix_products(_sg_transfers(state, refine // 2), refine // 2)
        y_c = coarse[:N] @ y0
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
    # float arrays of the kinds' shapes on the state's grid: valid by construction
    return bo._unchecked_pair(FlowPair, grid, hs, hv), h_par, info


def sg_step(
    state: StatePair,
    dt: float,
    branch: str = "-",
    mode: str = "line",
    refine: int = 8,
    t: float = 0.0,
    on_state_solve=None,
) -> StatePair:
    """Advance the -1 flow by one RK4 step, re-solving the x-system per stage.

    The first stage solves `state` itself; `on_state_solve`, when given, is
    called with that solve's info dict, so a caller monitoring the state's
    constraint needs no solve of its own.
    """
    rhs = _sg_rhs(state.n, branch, mode, refine, t + dt, state, on_state_solve)
    return step_rk4(state, rhs, dt, t, project_fraction=None)


def _sg_rhs(
    n: int, branch: str, mode: str, refine: int, t_end: float, watched=None, on_solve=None
):
    """The -1 flow's right side h / chi; a non-finite monodromy in a step
    ending at t_end is reported as a blow-up there.  The info of the solve of
    the state `watched` goes to `on_solve`."""
    inv_chi = 1.0 / chi(n)

    def rhs(s):
        try:
            h, _, info = sg_solve_h(s, branch, mode, refine)
        except NonFiniteMonodromyError as exc:
            raise BlowUpError(t_end) from exc
        if on_solve is not None and s is watched:
            on_solve(info)
        # the solution's arrays scaled: the kinds' shapes on the state's grid
        return bo._unchecked_pair(FlowPair, s.grid, inv_chi * h.hs.values, inv_chi * h.hv.values)

    return rhs


# -- presets -------------------------------------------------------------------

def preset_random_band(
    grid: PeriodicGrid,
    n: int,
    seed: int | np.random.Generator = 0,
    amplitude: float = 0.3,
    kmax: int = 4,
) -> StatePair:
    """Band-limited random smooth state; deterministic for a given seed.

    A Generator passed as `seed` is drawn from directly, so consecutive calls
    continue its stream.
    """
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
    """The kink's covariant at t = 0, a sech(a(x - x0)): the soliton preset's
    profile, with a = 1 by default."""
    return preset_mkdv_soliton(grid, n, a, x0, direction)


# -- trajectories and conservation reports ------------------------------------

@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    sg_constraint_value: list = field(default_factory=list)

    def append(self, t, state):
        self.times.append(float(t))
        self.states.append(state)


# Relative tolerance on t_end / dt: a ratio this close to an integer counts as
# whole steps (0.07 / 0.01 = 7.000000000000001 and 0.3 / 0.1 =
# 2.9999999999999996 are 7 and 3 steps), and no final step is taken for a
# remainder below it.
_STEP_RTOL = 1e-9


def _step_plan(t_end: float, dt: float) -> tuple[int, float]:
    """Number of full steps of dt that fit in t_end, and the length of the
    final short step that reaches t_end exactly (0.0 when none is needed)."""
    n_full = math.floor(t_end / dt * (1.0 + _STEP_RTOL))
    rest = t_end - n_full * dt
    return n_full, (rest if rest > _STEP_RTOL * t_end else 0.0)


def run_flow(config: SimConfig, state: StatePair, observer=None) -> Trajectory:
    """Integrate the configured flow to t_end by its FLOWS row's step,
    snapshotting every `cadence` steps and after the last one.

    On the -1 flow each snapshot's constraint comes from the x-solve of the
    next step's first stage, which solves the snapshot state itself; only
    the last snapshot is solved on its own, by its row's x_solve.
    """
    if config.grid != state.grid or config.n != state.n:
        raise DimensionMismatchError(
            f"config is for n = {config.n} on {config.grid}, "
            f"the state is n = {state.n} on {state.grid}"
        )
    kind = FLOWS[config.flow]
    traj = Trajectory()

    def monitor(info):
        traj.sg_constraint_value.append(float(np.mean(info["constraint"])))

    traj.append(0.0, state)
    n_full, last_dt = _step_plan(config.t_end, config.dt)
    n_steps = n_full + (last_dt > 0.0)
    t = 0.0
    for step in range(n_steps):
        dt = config.dt if step < n_full else last_dt
        unsolved = len(traj.sg_constraint_value) < len(traj.states)
        state = kind.step(config, state, dt, t, monitor if unsolved else None)
        t = (step + 1) * config.dt if step < n_full else config.t_end
        if (step + 1) % config.cadence == 0 or step + 1 == n_steps:
            traj.append(t, state)
            if observer is not None:
                observer(t, state)
    if kind.x_solve is not None:
        monitor(kind.x_solve(config, state))
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
    gcalc.array_to_csv(path, data, header="t,H0,H1", comments="")
