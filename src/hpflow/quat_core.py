"""Quaternion scalar and vector kernels on float64 component arrays.

Layout convention: a quaternion occupies the last axis, length 4, ordered
(re, i, j, k).  A quaternion vector of length m adds one axis in front,
shape (..., m, 4).  Every kernel broadcasts over leading axes, so the same
functions serve single values, random batches, and grid-sampled fields.
qmul_pairs multiplies complex pairs (2, ...), q = a + b j with a = q0 + q1 i
and b = q2 + q3 i, the layout of the -1 flow's grids of unit quaternions.
Every product of a quaternion, a quaternion vector or a quaternion matrix
with a quaternion vector or matrix goes through one gather engine
(comm_C_vec, scalar_vec, vec_scalar, matcomm_C, qmatmul, qmat_vecmul, and
the stacked comm_C_vec_im and scalar_vec_sum that the coupled mKdV right
side calls); the scalar commutator comm_C is the explicit cross product.

The scalar algebra follows the generator relations i^2 = j^2 = k^2 = -1,
ij = -ji = k, jk = -kj = i, ki = -ik = j.  The Hermitian inner product on
vectors is <x, y> = sum_l x_l * conj(y_l); its real part is the Euclidean
inner product of the 4m real components.

Quaternion multiplication is linear in each factor: q p = L(q) p and
p q = R(q) p for 4x4 real matrices L(q) and R(q), whose entries are signed
components of q (left_mult_matrix, right_mult_matrix).  The engine gathers
them: a quaternion matrix becomes the real matrix of blocks L(a_ij) (F. Zhang,
Linear Algebra Appl. 251 (1997) 21-57), whose pair form, with
j c = conj(c) j, gives qmul_pairs' rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatchError, DomainError

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def from_real(f) -> np.ndarray:
    """Embed a real array of shape (...) as quaternions of shape (..., 4)."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape + (4,))
    out[..., 0] = f
    return out


def qmul(a, b) -> np.ndarray:
    """Quaternion product a b, element for element, the components on the
    last axis of both operands and of the result; the other axes broadcast."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def qmul_pairs(x, y) -> np.ndarray:
    """Quaternion product of complex pairs (2, ...), x = a + b j and
    y = c + d j, by the Cayley-Dickson rule
    x y = (a c - b conj(d)) + (a d + b conj(c)) j; the other axes broadcast.
    Each half of the result is accumulated in place through one scratch
    array: the n = 1 kink's x-solve (N = 256, refine 8) multiplies its three
    pairing levels in 36 us, against 84 us for the real component product,
    and takes 14 us less than with the stacked complex expression."""
    a, b = np.asarray(x, dtype=complex)
    c, d = np.asarray(y, dtype=complex)
    out = np.empty((2,) + np.broadcast(a, b, c, d).shape, dtype=complex)
    t = np.empty(out.shape[1:], dtype=complex)
    out_a, out_b = out[0, ...], out[1, ...]  # arrays, 0-d included
    np.multiply(a, c, out=out_a)
    out_a -= np.multiply(b, np.conjugate(d, out=t), out=t)
    np.multiply(a, d, out=out_b)
    out_b += np.multiply(b, np.conjugate(c, out=t), out=t)
    return out


# Entry (r, c) of L(q) is the e_r component of q e_c, and of R(q) that of e_c q:
# one component of q times a sign, both read off the unit products e_a e_b.
# The gather copies q's components exactly, signed zeros included.
_UNITS = qmul(np.eye(4)[:, None], np.eye(4))  # [a, b] = e_a e_b
_L_INDEX, _L_SIGN = np.argmax(np.abs(_UNITS), axis=0).T, np.sum(_UNITS, axis=0).T
_R_INDEX, _R_SIGN = np.argmax(np.abs(_UNITS), axis=1).T, np.sum(_UNITS, axis=1).T


def left_mult_matrix(q) -> np.ndarray:
    """Batched L(q) with L(q) p = components of q * p; q shaped (..., 4)."""
    return _L_SIGN * np.asarray(q, dtype=float)[..., _L_INDEX]


def right_mult_matrix(q) -> np.ndarray:
    """Batched R(q) with R(q) p = components of p * q."""
    return _R_SIGN * np.asarray(q, dtype=float)[..., _R_INDEX]


def qconj(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def qre(a) -> np.ndarray:
    return np.asarray(a)[..., 0]


def qim(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out[..., 0] = 0.0
    return out


def qnormsq(a) -> np.ndarray:
    a = np.asarray(a)
    sq = a * a
    # the four squares summed left to right, the order np.add.reduce takes on a
    # length-4 axis, so the bits are np.sum's; every mKdV right side runs this
    return sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3]


def qnorm(a) -> np.ndarray:
    return np.sqrt(qnormsq(a))


def is_imaginary(a, tol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a)[..., 0]) <= tol))


def dot4(a, b) -> np.ndarray:
    """Euclidean inner product of quaternions, equals Re(a * conj(b))."""
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def vec_dot(x, y) -> np.ndarray:
    """Euclidean inner product of quaternion vectors, equals Re<x, y>."""
    return np.add.reduce(np.asarray(x) * np.asarray(y), axis=(-1, -2))


def vec_normsq(x) -> np.ndarray:
    return vec_dot(x, x)


def _check_vec_lengths(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-2:] != y.shape[-2:]:
        raise DimensionMismatchError(
            f"vector length mismatch: {x.shape[-2:]} vs {y.shape[-2:]}"
        )
    return x, y


def comm_C(a, b) -> np.ndarray:
    """C(a, b) = ab - ba = (0, 2 Im a x Im b): real parts commute.

    For imaginary arguments this is qmul(a, b) - qmul(b, a) bit for bit, up
    to the sign of a zero: each component of either is twice one
    cross-product term, a2 b3 - a3 b2 and so on, rounded once."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a1, a2, a3 = a[..., 1], a[..., 2], a[..., 3]
    b1, b2, b3 = b[..., 1], b[..., 2], b[..., 3]
    c1 = a2 * b3 - a3 * b2
    out = np.stack([np.zeros_like(c1), c1, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1], axis=-1)
    out *= 2.0
    return out


def acomm_A(a, b) -> np.ndarray:
    """A(a, b) = ab + ba, a real number for imaginary scalar arguments."""
    if not (is_imaginary(a, 1e-9) and is_imaginary(b, 1e-9)):
        raise DomainError("acomm_A requires imaginary quaternion arguments")
    return acomm_A_im(a, b)


def acomm_A_im(a, b) -> np.ndarray:
    """A(a, b) = -2 sum_i a_i b_i from the imaginary parts alone, unchecked."""
    return -2.0 * np.add.reduce(np.asarray(a)[..., 1:] * np.asarray(b)[..., 1:], axis=-1)


# -- the gather engine: signed gathers and one real matrix product ----------
#
# Each kernel below gathers one operand's signed components into a small
# real matrix per point, blocks of L(q) or R(q) entries read off the unit
# products, and makes one batched matrix product with the other operand's
# components, taken as they lie: a quaternion scalar is one block, p stacked
# scalars a column of p blocks, and an (r, c) quaternion matrix the (4c, 4r)
# matrix of blocks L(a_ij)^t, which each column of the right factor, its
# 4c components, multiplies as one row.  The gathered matrices are laid out
# component-major, the point axes innermost, so no point's matrix has a unit
# stride, a lone point's included, and np.matmul multiplies each point on
# its own: one row (K = 1) in a loop with no BLAS call, two or more through
# a contiguous copy and a BLAS product too small to split over threads.  A
# point's bits are therefore the same in any batch, whatever the BLAS
# thread count.  The two sum in different orders, so comm_C_vec has the
# bits of comm_C_vec_im on one vector, not those of a row of a stack.  All
# agree with the componentwise qmul formulas to roundoff, not bit for bit.

# (c, r) tables of one quaternion's signed components: entry r of
# 2 Im(x conj(e_c)), of a e_c and of e_c a, the rows of the real matrix
# taking y's components to C(x, y)'s imaginary parts, to a y (L(a)^t) and
# to y a (R(a)^t)
_CONJ_SIGN = np.array([1.0, -1.0, -1.0, -1.0])
_TABLES = {
    "im_conj": (_L_INDEX[1:].T, 2.0 * (_L_SIGN[1:] * _CONJ_SIGN).T),
    "left": (_L_INDEX.T, _L_SIGN.T),
    "right": (_R_INDEX.T, _R_SIGN.T),
}


@functools.lru_cache(maxsize=64)
def _block_columns(table: str, p: int, r: int = 1):
    """Index into r p quaternions' components, and signs, that gather the
    real (4p, r w) matrix of p x r blocks of `table`, each w columns wide,
    block (q, i) reading quaternion i p + q: for r > 1, an (r, p) quaternion
    matrix.  Read-only: every caller shares them."""
    index, sign = _TABLES[table]
    quat = np.arange(p)[:, None] + p * np.arange(r)  # (p, r)
    index = (4 * quat[:, None, :, None] + index[:, None, :]).reshape(4 * p, r * index.shape[1])
    sign = np.tile(sign, (p, r))
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def _times_gathered(rows, q, index, sign) -> np.ndarray:
    """rows (..., K, k) times the matrices sign * q[..., index], (..., k, r),
    gathered from q's components (..., c) component-major."""
    points = math.prod(q.shape[:-1])
    flat = q.reshape(points, q.shape[-1])
    # (k, r, points): a lone point is gathered twice and read once, so that
    # its matrix has no unit stride either
    cols = (flat if points > 1 else flat.repeat(2, axis=0)).T[index][..., :points]
    cols *= sign[..., None]
    return rows @ cols.transpose(2, 0, 1).reshape(q.shape[:-1] + index.shape)


def comm_C_vec_im(x, ys) -> np.ndarray:
    """Im C(x, y_k) = 2 Im<x, y_k>, (..., K, 3), for a vector x (..., m, 4)
    and K vectors ys (..., K, m, 4): x's components gathered, signed and
    conjugated into one (4m, 3) matrix a point, which all K vectors share.
    The real parts, zero, are not formed."""
    x, ys = _check_vec_lengths(x, ys)
    m = x.shape[-2]
    flat = ys.reshape(ys.shape[:-2] + (4 * m,))
    return _times_gathered(flat, x.reshape(x.shape[:-2] + (4 * m,)), *_block_columns("im_conj", m))


def comm_C_vec(x, y) -> np.ndarray:
    """C(x, y) = <x, y> - <y, x> = 2 Im<x, y>, the Hermitian inner product
    <x, y> = sum_l x_l conj(y_l): comm_C_vec_im's one-vector case, with an
    exactly zero real part."""
    x, y = _check_vec_lengths(x, y)
    out = np.zeros(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (4,))
    if x.shape[-2]:
        out[..., 1:] = comm_C_vec_im(x, y[..., None, :, :])[..., 0, :]
    return out


def scalar_vec_sum(a, v) -> np.ndarray:
    """sum_q a_q v_q, (..., m, 4), for p quaternion scalars a (..., p, 4)
    and vectors v (..., m, p, 4) whose entry l holds the p quaternions
    (v_q)_l: the stacked L(a_q) gathered into one (4p, 4) matrix a point."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    p = a.shape[-2]
    flat = v.reshape(v.shape[:-2] + (4 * p,))
    return _times_gathered(flat, a.reshape(a.shape[:-2] + (4 * p,)), *_block_columns("left", p))


def scalar_vec(a, v) -> np.ndarray:
    """(a * v_l)_l for a quaternion scalar a and a vector v shaped (..., m, 4):
    scalar_vec_sum's one-term case."""
    v = np.asarray(v, dtype=float)
    if v.shape[-2] == 0:
        return v.copy()
    return scalar_vec_sum(np.asarray(a, dtype=float)[..., None, :], v[..., None, :])


def vec_scalar(v, a) -> np.ndarray:
    """(v_l * a)_l for a vector v shaped (..., m, 4) and a quaternion scalar
    a: v's components times R(a)^t, gathered from a."""
    v = np.asarray(v, dtype=float)
    return _times_gathered(v, np.asarray(a, dtype=float), *_block_columns("right", 1))


def acomm_A_vec(x, y) -> np.ndarray:
    """A(x, y) = <x, y> + <y, x> = 2 Re<x, y>, a real number."""
    x, y = _check_vec_lengths(x, y)
    return 2.0 * vec_dot(x, y)


def matcomm_C(x, y) -> np.ndarray:
    """bold C(x, y) = conj(x)^t y - conj(y)^t x, anti-Hermitian (m x m) matrix,
    exactly: P - conj(P)^t for P = conj(x)^t y, whose entries are scalar_vec's."""
    x, y = _check_vec_lengths(x, y)
    m = x.shape[-2]
    if m == 0:
        return np.zeros(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (0, 0, 4))
    P = scalar_vec(qconj(x), y[..., None, :, :])
    return P - qmat_conj_t(P)


# -- quaternion matrices, shape (..., r, c, 4) -------------------------------

def qmat_identity(m) -> np.ndarray:
    out = np.zeros((m, m, 4))
    out[np.arange(m), np.arange(m), 0] = 1.0
    return out


def qmat_conj_t(a) -> np.ndarray:
    return np.swapaxes(qconj(a), -3, -2)


def qmatmul(a, b) -> np.ndarray:
    """Matrix product of quaternion matrices (..., r, c, 4) and (..., c, k, 4),
    broadcast over the leading axes as np.matmul does: each column of b
    times a gathered into its (4c, 4r) blocks L(a_ij)^t.

    A 2-D operand, (c, 4), is a quaternion vector, as np.matmul reads a 1-D
    one: a row vector on the left, a column vector on the right, and its
    axis is dropped from the result."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    row, col = a.ndim == 2, b.ndim == 2
    a, b = (a[None] if row else a), (b[:, None] if col else b)
    (r, c), k = a.shape[-3:-1], b.shape[-2]
    cols = np.swapaxes(b, -3, -2).reshape(b.shape[:-3] + (k, 4 * c))
    out = _times_gathered(cols, a.reshape(a.shape[:-3] + (4 * r * c,)), *_block_columns("left", c, r))
    out = np.swapaxes(out.reshape(out.shape[:-1] + (r, 4)), -3, -2)
    if row:
        out = out[..., 0, :, :]
    return out[..., 0, :] if col else out


def qmat_vecmul(v, a) -> np.ndarray:
    """Row vector (..., m, 4) times matrix (..., m, m, 4): entry l is
    sum_j v_j a_jl, scalar_vec_sum of v's entries with a's columns.

    Not through qmatmul, so qmatmul's calls are the matrix products alone."""
    return scalar_vec_sum(v, np.swapaxes(np.asarray(a, dtype=float), -3, -2))


def qmat_trace(a) -> np.ndarray:
    a = np.asarray(a)
    return np.trace(a, axis1=-3, axis2=-2)


def qmat_re_trace(a) -> np.ndarray:
    return qmat_trace(a)[..., 0]


def qmat_to_complex(a) -> np.ndarray:
    """Embed (..., r, c, 4) into complex (..., 2r, 2c) via A + Bj -> [[A, B], [-conj B, conj A]]."""
    a = np.asarray(a, dtype=float)
    A = a[..., 0] + 1j * a[..., 1]
    B = a[..., 2] + 1j * a[..., 3]
    top = np.concatenate([A, B], axis=-1)
    bot = np.concatenate([-np.conj(B), np.conj(A)], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def qmat_from_complex(z) -> np.ndarray:
    z = np.asarray(z)
    r2, c2 = z.shape[-2], z.shape[-1]
    A = z[..., : r2 // 2, : c2 // 2]
    B = z[..., : r2 // 2, c2 // 2 :]
    return np.stack([A.real, A.imag, B.real, B.imag], axis=-1)


def qmat_frobenius(a) -> np.ndarray:
    a = np.asarray(a)
    return np.sqrt(np.sum(a * a, axis=(-1, -2, -3)))
