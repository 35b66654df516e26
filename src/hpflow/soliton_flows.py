"""Time integration of the quaternionic mKdV (+1) and sine-Gordon (-1) flows.

Each flow kind is one row of FLOWS, which SimConfig, run_flow and the CLI
read: mkdv, sg (the -1 flow) and hierarchy (a level of the recursion).  A
row gives the kind's one RK4 step, the level that sets its dt bound, the
highest level the CLI steps and, for the -1 flow, the closing x-solve.

The mKdV system is local and is stepped with classical RK4 on the periodic
grid; the scalar part of the state is re-projected to its imaginary part
after every stage.  Under the 2/3 rule each stage, and the step's result,
is dealiased by one transform pair that also gives its x-derivatives, which
the state carries to mkdv_rhs: a step makes 4 transform pairs, one per later
stage and one for the final projection, whose derivatives the next step's
first right side reads.  Only a step from a plain state, such as a preset,
makes a fifth, for its first right side.
For n >= 2 the right side's vector coupling runs in one pass: one product
gives C(bu, bu_x) and C(bu, bu_2x), and one more applies both scalar
factors to bu_x and bu (quat_core's one-pass kernels).

The -1 flow is nonlocal in x: at each instant the flow pair solves a linear
ODE system in x driven by the state, with the pointwise quadratic constraint
h_par^2 + |h_s|^2/4 + |h_v|^2 = chi^2.  The system is the isotropy action of
omega_x on m, z -> -[omega_x, z], tabulated once per n from symm_lie.bracket:
its matrix is one product of the packed fields [u | bu] with that table.  In
z = (h_par, h_s/2, h_v) the constraint is |z|^2 and the matrix is
skew-symmetric, so the solve works in z and reads h_s = 2 z_s back at its
end.  A fourth-order Magnus scheme, formed on the fields refined by one
transform, gives per-cell transfers, and a prefix scan composes them,
forming only the prefixes at the grid points and the monodromy; each
transfer is the exponential of a skew-symmetric matrix, so the constraint
holds to roundoff along x at any resolution.  n >= 2 exponentiates each
block of Magnus generators by the batched Taylor map (magnus4_transfers) and
scans the refine * N fine cells.  For n = 1 the system lies in
so(4) = sp(1) + sp(1): each fine cell's transfer is z -> p z q for unit
quaternions p and q, held as complex pairs (a, b), q = a + b j, multiplied
down to the grid cells by the Cayley-Dickson product (quat_core.qmul_pairs)
in the scan's association, and made 4 x 4 transfers for the N grid cells
alone.  The frame transport in curve_geometry shares the Magnus-4 layer and
the prefix scan, and its co-evolution in time the RK4 body.  The solve
integrates left to right from the boundary value (sign * chi, 0, 0) at
x = 0, for states that vanish near the domain seam (kink-type data, the data
of the paper's sine-Gordon flow and its wave map).  Its info, formed on
read, reports the seam mismatch, how far the solution carried across the
domain misses the boundary value.

The branch sign names the sign of the boundary h_par.  The "-" branch is the
one whose scalar reduction obeys the classical sine-Gordon equation
psi_xt = 4 sin(psi) under u = (psi_x / 2) q; it is the default.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from . import biham_ops as bo
from . import grid_calculus as gcalc
from . import quat_core as qc
from . import symm_lie as sl
from .biham_ops import FlowPair, StatePair, make_state
from .errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    IntegrationAccuracyError,
)
from .grid_calculus import Field, PeriodicGrid
from .symm_lie import chi

DEFAULT_CFL_CONSTANT = 0.05
# Orszag's 2/3 rule: the +1 flow's stage states keep the lower 2/3 of the modes
DEFAULT_PROJECT_FRACTION = 2.0 / 3.0
SG_REFINE = 8  # the -1 flow's x-solve refine where no caller gives one


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
    sg_refine: int = SG_REFINE
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
    x_solve: Callable | None = None  # (config, state) -> the -1 flow's x-solve of state


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
            s, dt, c.sg_branch, c.sg_refine, t, on_state_solve=on_solve
        ),
        local=False,
        x_solve=lambda c, s: sg_solve_h(s, c.sg_branch, c.sg_refine),
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
    x_derivs when it carries them (a projected RK4 stage or result state's,
    from the transform that dealiased it).  A plain state takes them from
    one transform of the packed (N, 4 + 4m) array [u | bu], or of u alone
    when m = 0.  The vector-coupling terms are empty sums when m = 0 and are
    only formed when bu has components.  The result is not re-validated: its
    arrays have the state's grid and shapes.
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

    # scalar row: u3/4 - (3/2) u^2 u_x + (3/4)(C(u, C(bu, bu_x)) + C(bu, bu_2x)),
    # summed left to right in place
    out_s = 0.25 * u3
    # -u^2 = |u|^2 pointwise; the factor repeated to full shape, as a product
    # broadcast along the quaternion axis costs more
    out_s += (1.5 * unormsq).repeat(4).reshape(N, 4) * ux
    # vector row: bu_3x + (3/2)(|bu|^2 - u^2 + u_x) bu_x
    #             + (3/4)(2u|bu|^2 - A(u, u_x) - C(bu, bu_x) + u_2x) bu
    # The coupling in one pass: the imaginary parts of C(bu, bu_x) and
    # C(bu, bu_2x) from one product; both factors, weighted, in one (N, 2, 4)
    # array; both scalar-times-vector products summed in one product.
    # quat_core's gather engine multiplies each grid point on its own, so a
    # row has the bits of its own call
    if m:
        businormsq = qc.vec_normsq(bu)
        # bu_x and bu_2x as an (N, 2, m, 4) view; C's imaginary parts (N, 2, 3)
        cvecs = qc.comm_C_vec_im(bu, bu_derivs[:2].transpose(1, 0, 2, 3))
        cvec = np.zeros((N, 4))
        cvec[:, 1:] = cvecs[:, 0]
        coupled = qc.comm_C(u, cvec)[:, 1:]
        coupled += cvecs[:, 1]
        coupled *= 0.75
        out_s[:, 1:] += coupled
        fac = np.empty((N, 2, 4))
        fac[:, 0] = ux
        fac[:, 0, 0] += businormsq + unormsq
        np.multiply(u, (2.0 * businormsq)[:, None], out=fac[:, 1])
        fac[:, 1, 0] -= qc.acomm_A_im(u, ux)
        fac[:, 1] -= cvec
        fac[:, 1] += u2
        fac *= _FAC_SCALES
        pairs = np.concatenate([bux, bu], axis=2).reshape(N, m, 2, 4)  # [bu_x | bu]
        out_v = qc.scalar_vec_sum(fac, pairs)
        out_v += bu3
    else:
        out_v = bu3
    if not galilean_removed:
        c = 1.0 / chi(state.n)
        out_s += c * ux
        out_v = out_v + c * bux  # out_v is the state's own bu when m = 0
    return bo._unchecked_pair(FlowPair, grid, out_s, out_v)


# the coupling factors' weights: (3/2) on bu_x's, (3/4) on bu's
_FAC_SCALES = np.array([[1.5], [0.75]])


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
    returned, and no array of the input state, is written.  Neither the
    stage states nor the result go through make_state: each is valid by
    construction, with the input's grid and shapes and a scalar of exact
    zeros, and the result's values are checked finite.  A right side on
    another grid or of another shape than the state raises
    DimensionMismatchError.

    When `project_fraction` is set, each stage and the final projection
    are dealiased by one dealias_values call that also gives the
    x-derivatives of the orders mkdv_rhs reads from the same masked
    spectrum; the stage state, and the result, carry them as x_derivs, for
    mkdv_rhs to read instead of transforming again, in this step or in the
    next.  The values are those of dealiasing alone, bit for bit, so a right
    side that reads no derivatives steps as before.  An unprojected step's
    result carries no derivatives."""
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

    def project(z):
        # the packed z, the scalar re-projected to imaginary, and its state;
        # not re-validated: the input state's grid and shapes, and a scalar
        # of exact zeros, so make_state's checks cannot fail.  Zeroed before
        # the transform as well as after it, so the derivatives are the
        # state's; the transform treats each column on its own, so the other
        # columns do not depend on the scalar's real part
        z[:, 0] = 0.0
        derivs = None
        if project_fraction is not None:
            rows = gcalc.dealias_values(z, grid, project_fraction, orders)
            z, derivs = rows[0], rows[1:]
            z[:, 0] = 0.0
        s = bo._unchecked_pair(StatePair, grid, z[:, :4], z[:, 4:].reshape(bu_shape))
        s.x_derivs = derivs
        return z, s

    def stage(kk, c):  # y + c * kk, projected
        z = kk * c
        z += y
        return project(z)[1]

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
    new, result = project(new)
    if not np.isfinite(new).all():
        raise BlowUpError(t + dt)
    return result


# -- the -1 flow's x-system ----------------------------------------------------

def sg_system_matrix(fields: np.ndarray) -> np.ndarray:
    """Coefficient matrices (K, 4n, 4n) of the linear x-ODE for
    z = (h_par, h_s/2, h_v), from the packed fields [u | bu] (K, 4n):
    D_x h_s = -C(bu, h_v) - 4 h_par u,
    D_x h_v = -h_s bu / 2 - u h_v - h_par bu,
    D_x h_par = -A(u, h_s)/2 + A(bu, h_v)/2.
    It is the isotropy action of omega_x on m, which keeps the constraint
    |z|^2, and is linear in the fields: one table_product with a table of 0,
    +-1 and +-2 (_system_table), so each entry is a component of u or bu, or
    0, times a power of two, and the matrix is skew-symmetric bit for bit.
    """
    return table_product(fields, _system_table(fields.shape[1] // 4))


def table_product(packed: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_j packed[:, j] table[j] (K, d, d) of a contiguous real or complex
    table (D, d, d) whose floats are 0, +-1 or +-2: one real product over
    those floats, exact termwise."""
    D, d = table.shape[:2]
    return (packed @ table.view(float).reshape(D, -1)).view(table.dtype).reshape(len(packed), d, d)


@functools.cache
def _system_table(n: int) -> np.ndarray:
    """Row j: z -> -[omega_x, z] for the j-th unit field, from symm_lie.bracket,
    in m components with h_v negated, as e_t = (h_par, h_s/2, -h_v) / sqrt(chi).
    omega_x = (u, bu) lies in h_perp, which has no real column: u's row is 0."""
    d = 4 * n
    flip = np.ones(d)
    flip[4:] = -1.0
    # row j * d + k pairs the j-th unit field with the k-th unit z
    perp = sl.m_element(np.repeat(np.eye(d), d, axis=0), n).m_perp
    omega = sl.LieElement(n, h_perp=sl.HPerp(perp.s, perp.v))
    z = sl.m_element(np.tile(np.diag(flip), (d, 1)), n)
    columns = -flip * sl.m_components(sl.bracket(omega, z))
    return np.ascontiguousarray(np.swapaxes(columns.reshape(d, d, d), 1, 2))


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


def expm_antihermitian(Z: np.ndarray) -> np.ndarray:
    """Batched exponential of real skew-symmetric or complex anti-Hermitian
    matrices (..., d, d), from matrix products alone.

    The degree-12 Taylor polynomial is evaluated by Paterson-Stockmeyer
    (Z^2, Z^3, Z^4 and two Horner products in Z^4) on Z / 2^s, then squared
    s times, with s the fewest squarings that bring the batch's largest
    Frobenius norm to theta.  Non-finite input gives non-finite output.
    """
    s = _expm_squarings(_max_norm(Z))
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


def _sg_constraint(z: np.ndarray) -> np.ndarray:
    """|z|^2 = h_par^2 + |h_s|^2 / 4 + |h_v|^2 over the last axis."""
    return np.sum(z * z, axis=-1)


# Bytes of generators per block of the transfer build; the block's matrices
# and Magnus and Taylor temporaries are a small multiple of it, whatever the
# grid.  64 KB is the largest power of two that keeps the n = 1 frame's build
# under 2 MB (N = 256, refine 8); larger blocks saved at most 15% of its time.
_BLOCK_BYTES = 1 << 16


def magnus4_transfers(fields: np.ndarray, system, h: float) -> np.ndarray:
    """Transfers exp(Omega) of y_x = M y over the periodic cells of width h
    between the 2 * cells fine rows of `fields`.  M is linear in the fields:
    system(f) is M at the rows f, skew-symmetric (the -1 flow's x-system) or
    anti-Hermitian (the transposed frame transport), so each transfer is
    orthogonal or unitary; system(fields[:0]) gives M's size and type.
    Cell i has ends 2i and 2i + 2 (mod 2 * cells), midpoint 2i + 1, and
    Omega = (h/6) M(f0 + 4 fmid + f1) - (h^2/12) [M(fmid), M(f1 - f0)]: an
    x-system's entries are each a field times a power of two, so this is the
    Omega of M's values bit for bit.  Each block of cells is exponentiated as
    soon as it is built, with its own squarings: no temporary spans the grid.
    """
    cells = len(fields) // 2
    probe = system(fields[:0])
    d = probe.shape[-1]
    out = np.empty((cells, d, d), probe.dtype)
    step = max(1, _BLOCK_BYTES // (d * d * out.itemsize))
    for i in range(0, cells, step):
        j = min(i + step, cells)
        f = fields[np.arange(2 * i, 2 * j + 1) % (2 * cells)]
        f0, fmid, f1 = f[:-1:2], f[1::2], f[2::2]
        Mmid, D = system(fmid), system(f1 - f0)
        simpson = system(f0 + 4.0 * fmid + f1)
        out[i:j] = expm_antihermitian((h / 6.0) * simpson - (h**2 / 12.0) * (Mmid @ D - D @ Mmid))
    return out


def _sg_transfers_generic(state: StatePair, refine: int) -> np.ndarray:
    """The refine * N fine cells' Magnus-4 transfers from the packed fields
    [u | bu], refined by one transform, and the system matrix."""
    grid = state.grid
    fields = gcalc.spectral_refine(_pack(state.u.values, state.bu.values), grid, 2 * refine)
    return magnus4_transfers(fields, sg_system_matrix, grid.dx / refine)


# n = 1: the system matrix is L(a) + R(a) with a = -Im u, an element of
# so(4) = sp(1) + sp(1).  Left and right multiplications commute,
# [L(a), L(c)] = L(2 a x c) and [R(a), R(c)] = -R(2 a x c), so the Magnus-4
# Omega is L(A) + R(B) and its exponential is L(exp A) R(exp B): one left and
# one right multiplication by a unit quaternion.  Row 4a + b of this matrix
# is L(e_a) R(conj e_b), so (p_a c_b) @ it is the transfer L(p) R(conj c).
_PAIR_TO_TRANSFER = (
    qc.left_mult_matrix(np.eye(4))[:, None] @ qc.right_mult_matrix(qc.qconj(np.eye(4)))[None, :]
).reshape(16, 16)


def _unit_exp(A: np.ndarray) -> np.ndarray:
    """exp of pure quaternions with vector parts A (3, ...), r = |A|, as complex
    pairs (2, ...): a = cos r + i sinc(r) A_1 and b = sinc(r) (A_2 + i A_3)."""
    E = np.empty((2,) + A.shape[1:], dtype=complex)
    # the squares in E's buffer, scratch until the components are written
    sq = np.multiply(A, A, out=E.reshape(-1).view(float)[: A.size].reshape(A.shape))
    r = sq[0] + sq[1]  # np.sum's order over axis 0
    r += sq[2]
    np.sqrt(r, out=r)
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    a, b = E[0, ...], E[1, ...]
    np.cos(r, out=a.real)
    np.multiply(sinc, A[0], out=a.imag)
    np.multiply(sinc, A[1], out=b.real)
    np.multiply(sinc, A[2], out=b.imag)
    return E


def _sg_cell_generators(state: StatePair, refine: int) -> np.ndarray:
    """The n = 1 transfers of the refine * N fine cells in closed form: the
    vector parts (S - C, -(S + C)) of a (3, 2, K) array, from the Simpson
    term S and the cross term C, whose one _unit_exp is the complex pairs
    (p, conj q), (2, 2, K).  Cell i's transfer is z -> p z q, and
    consecutive cells compose as (p' p, conj q' conj q); exp(-(S + C)) is
    conj q, q's vector part negated, bit for bit.

    Works component-major, (3, K), so every array operation runs along K:
    one transform refines -Im u along the rows.  Its temporaries are freed
    on return, before the exponential.
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
    A = np.empty((3, 2, K))
    np.subtract(simpson, cross, out=A[:, 0])
    np.add(simpson, cross, out=A[:, 1])
    np.negative(A[:, 1], out=A[:, 1])
    return A


def _pair_transfers(pq: np.ndarray) -> np.ndarray:
    """The (K, 4, 4) transfers L(p) R(q) of (p, conj q), complex pairs (2, 2, K)."""
    pq = np.stack([pq.real, pq.imag], axis=1).reshape(4, 2, -1)  # the components, exactly
    pairs = (pq[:, None, 0] * pq[None, :, 1]).reshape(16, -1)
    return (pairs.T @ _PAIR_TO_TRANSFER).reshape(-1, 4, 4)


def _sg_grid_transfers(state: StatePair, refine: int):
    """Transfers T over cells of `every` fine cells, and `every`, whose
    prefix_products(T, every) are the scan's rows at the grid points and the
    monodromy: at n >= 2 the refine * N fine cells and refine.  n = 1 pairs
    its fine cells' quaternions while the stride is even, in the association
    prefix_products would give the 4 x 4 transfers, and forms 4 x 4
    transfers for the cells left: the N grid cells when refine is a power of
    two, every fine cell when it is odd.
    """
    if state.n > 1:
        return _sg_transfers_generic(state, refine), refine
    pq = _unit_exp(_sg_cell_generators(state, refine))
    every = refine
    while every % 2 == 0:
        # cells 2j + 1 and 2j make cell j: odd times even, prefix_products' pairing
        pq = qc.qmul_pairs(pq[..., 1::2], pq[..., 0::2])
        every //= 2
    return _pair_transfers(pq), every


class _Report(Mapping):
    """A read-only mapping from keys to functions of the mapping itself, each
    called on the first read of its key; the value is kept."""

    def __init__(self, makers: dict):
        self._makers, self._values = makers, {}

    def __getitem__(self, key):
        if key not in self._values:
            self._values[key] = self._makers[key](self)
        return self._values[key]

    def __contains__(self, key):
        return key in self._makers

    def __iter__(self):
        return iter(self._makers)

    def __len__(self):
        return len(self._makers)


def _readout(z: np.ndarray) -> np.ndarray:
    """(h_par, h_s, h_v) from z = (h_par, h_s/2, h_v) over the last axis, exactly."""
    y = z.copy()
    y[..., 1:4] *= 2.0
    return y


def sg_solve_h(
    state: StatePair,
    branch: str = "-",
    refine: int = SG_REFINE,
    richardson_check: bool = False,
    richardson_tol: float = 1e-6,
):
    """Solve the -1 flow's linear x-system, returning (flow pair, h_par, info).

    The scan forms only the prefixes at the grid points and the monodromy,
    from the transfers _sg_grid_transfers builds: the refine * N fine cells
    at n >= 2, the N grid cells at n = 1 (every fine cell when refine is
    odd).  The Richardson coarse solve does the same at refine // 2.  The
    scan and the boundary value z0 are in z = (h_par, h_s/2, h_v), where the
    transfers are orthogonal; the solution, info["boundary"] and the
    Richardson estimate are read back in (h_par, h_s, h_v).
    info["seam_mismatch"] is |P_N z0 - z0| / chi, with P_N the monodromy:
    how far the solution integrated across the domain misses its boundary
    value, 0 for data on which the line solve closes.  The returned pair is
    normalized so the pointwise constraint equals chi^2.  info is a Mapping
    whose values are formed when first read: the RK4 stages never read it.
    """
    if branch not in ("+", "-"):
        raise DomainError("branch must be '+' or '-'")
    if refine < 1:
        raise DomainError(f"refine = {refine} must be >= 1")
    grid = state.grid
    N = grid.num_points
    m = state.n - 1
    c = chi(state.n)

    z0 = np.zeros(4 + 4 * m)
    z0[0] = c if branch == "+" else -c
    # z at the grid points, then P_N z0; each row has the bits of its own product
    z_all = prefix_products(*_sg_grid_transfers(state, refine)) @ z0
    z = z_all[:N]
    y = _readout(z)
    report = {
        "constraint": lambda _: _sg_constraint(z),
        "constraint_target": lambda _: c**2,
        "constraint_max_dev": lambda r: float(np.max(np.abs(r["constraint"] - _sg_constraint(z0)))),
        "boundary": lambda _: _readout(z0),
        "seam_mismatch": lambda _: math.dist(z_all[N], z0) / c,
    }
    if richardson_check:
        if refine < 2 or refine % 2:
            raise DomainError("richardson_check needs an even refine >= 2")
        coarse = prefix_products(*_sg_grid_transfers(state, refine // 2))
        y_c = _readout(coarse[:N] @ z0)
        est = float(np.max(np.abs(y - y_c))) / 15.0
        report["richardson_error"] = lambda _: est
        if est > richardson_tol * max(c, 1.0):
            raise IntegrationAccuracyError(
                f"-1 flow x-solve error estimate {est:.3e} exceeds tolerance"
            )

    hs = np.zeros((N, 4))
    hs[:, 1:4] = y[:, 1:4]
    hv = y[:, 4:].reshape(N, m, 4)
    h_par = Field(grid, y[:, 0].copy(), "real")
    # float arrays of the kinds' shapes on the state's grid: valid by construction
    return bo._unchecked_pair(FlowPair, grid, hs, hv), h_par, _Report(report)


def sg_step(
    state: StatePair,
    dt: float,
    branch: str = "-",
    refine: int = SG_REFINE,
    t: float = 0.0,
    on_state_solve=None,
) -> StatePair:
    """Advance the -1 flow by one RK4 step, re-solving the x-system per stage.

    The first stage solves `state` itself; `on_state_solve`, when given, is
    called with that solve's info, so a caller monitoring the state's
    constraint needs no solve of its own.
    """
    rhs = _sg_rhs(state.n, branch, refine, state, on_state_solve)
    return step_rk4(state, rhs, dt, t, project_fraction=None)


def _sg_rhs(n: int, branch: str, refine: int, watched=None, on_solve=None, solved=None):
    """The -1 flow's right side h / chi.  The info of the solve of the state
    `watched` goes to `on_solve`; `solved`, when given, is that solve, as
    sg_solve_h(watched, branch, refine) returns it, and is read in its place."""
    inv_chi = 1.0 / chi(n)

    def rhs(s):
        h, _, info = solved if s is watched and solved else sg_solve_h(s, branch, refine)
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
    sg_seam_mismatch: list = field(default_factory=list)
    x_solve: tuple | None = None  # the -1 flow's closing x-solve of states[-1]

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
    the last snapshot is solved on its own, by its row's x_solve, whose
    solve traj.x_solve keeps for the map check.  Each report gives its
    snapshot's seam mismatch too.
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
        traj.sg_seam_mismatch.append(info["seam_mismatch"])

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
        traj.x_solve = kind.x_solve(config, state)
        monitor(traj.x_solve[2])
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
    sg_seam_mismatch: list = field(default_factory=list)  # one value a snapshot, sg only

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
            out["sg_seam_mismatch"] = self.sg_seam_mismatch
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
    return ConservationReport(
        times, h0, h1, drift(h0), drift(h1), max_re, sg_drift, traj.sg_seam_mismatch
    )


def report_to_csv(path, report: ConservationReport):
    data = np.column_stack([report.times, report.h0, report.h1])
    gcalc.array_to_csv(path, data, header="t,H0,H1", comments="")
