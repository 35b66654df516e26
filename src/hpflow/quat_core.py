"""Quaternion scalar and vector kernels on float64 component arrays.

Layout convention: a quaternion occupies the last axis, length 4, ordered
(re, i, j, k).  A quaternion vector of length m adds one axis in front,
shape (..., m, 4).  Every kernel broadcasts over leading axes, so the same
functions serve single values, random batches, and grid-sampled fields.

The scalar algebra follows the generator relations i^2 = j^2 = k^2 = -1,
ij = -ji = k, jk = -kj = i, ki = -ik = j.  The Hermitian inner product on
vectors is <x, y> = sum_l x_l * conj(y_l); its real part is the Euclidean
inner product of the 4m real components.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DomainError

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def quat(re=0.0, i=0.0, j=0.0, k=0.0) -> np.ndarray:
    return np.array([re, i, j, k], dtype=float)


def from_real(f) -> np.ndarray:
    """Embed a real array of shape (...) as quaternions of shape (..., 4)."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape + (4,))
    out[..., 0] = f
    return out


def qmul(a, b) -> np.ndarray:
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
    return np.sum(a * a, axis=-1)


def qnorm(a) -> np.ndarray:
    return np.sqrt(qnormsq(a))


def is_imaginary(a, tol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a)[..., 0]) <= tol))


def dot4(a, b) -> np.ndarray:
    """Euclidean inner product of quaternions, equals Re(a * conj(b))."""
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def vec_dot(x, y) -> np.ndarray:
    """Euclidean inner product of quaternion vectors, equals Re<x, y>."""
    return np.sum(np.asarray(x) * np.asarray(y), axis=(-1, -2))


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


def hermitian_inner(x, y) -> np.ndarray:
    """<x, y> = sum_l x_l conj(y_l) for vectors shaped (..., m, 4)."""
    x, y = _check_vec_lengths(x, y)
    if x.shape[-2] == 0:
        return np.zeros(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (4,))
    return np.sum(qmul(x, qconj(y)), axis=-2)


def comm_C(a, b) -> np.ndarray:
    """C(a, b) = ab - ba; purely imaginary for imaginary arguments."""
    return qmul(a, b) - qmul(b, a)


def acomm_A(a, b) -> np.ndarray:
    """A(a, b) = ab + ba, a real number for imaginary scalar arguments."""
    if not (is_imaginary(a, 1e-9) and is_imaginary(b, 1e-9)):
        raise DomainError("acomm_A requires imaginary quaternion arguments")
    return -2.0 * np.sum(np.asarray(a)[..., 1:] * np.asarray(b)[..., 1:], axis=-1)


def comm_C_vec(x, y) -> np.ndarray:
    """C(x, y) = <x, y> - <y, x> = 2 Im<x, y>, an imaginary quaternion."""
    h = hermitian_inner(x, y)
    return h - qconj(h)


def acomm_A_vec(x, y) -> np.ndarray:
    """A(x, y) = <x, y> + <y, x> = 2 Re<x, y>, a real number."""
    x, y = _check_vec_lengths(x, y)
    return 2.0 * vec_dot(x, y)


def matcomm_C(x, y) -> np.ndarray:
    """bold C(x, y) = conj(x)^t y - conj(y)^t x, anti-Hermitian (m x m) matrix."""
    x, y = _check_vec_lengths(x, y)
    m = x.shape[-2]
    if m == 0:
        return np.zeros(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (0, 0, 4))
    xl = qconj(x)[..., :, None, :]
    yl = qconj(y)[..., :, None, :]
    return qmul(xl, y[..., None, :, :]) - qmul(yl, x[..., None, :, :])


# -- quaternion matrices, shape (..., r, c, 4) -------------------------------

def qmat_identity(m) -> np.ndarray:
    out = np.zeros((m, m, 4))
    out[np.arange(m), np.arange(m), 0] = 1.0
    return out


def qmat_conj_t(a) -> np.ndarray:
    return np.swapaxes(qconj(a), -3, -2)


def qmatmul(a, b) -> np.ndarray:
    """Matrix product of quaternion matrices via 16 real matmuls."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = (a[..., c] for c in range(4))
    b0, b1, b2, b3 = (b[..., c] for c in range(4))
    return np.stack(
        [
            a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
            a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
            a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
            a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
        ],
        axis=-1,
    )


def qmat_vecmul(v, a) -> np.ndarray:
    """Row vector (..., m, 4) times matrix (..., m, m, 4)."""
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if v.shape[-2] == 0:
        return v.copy()
    return np.sum(qmul(v[..., :, None, :], a), axis=-3)


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
