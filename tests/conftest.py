import struct

import numpy as np
import pytest

from hpflow import quat_core as qc
from hpflow import symm_lie as sl


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_quat(rng, scale=1.0):
    return scale * rng.standard_normal(4)


def random_iquat(rng, scale=1.0):
    q = scale * rng.standard_normal(4)
    q[0] = 0.0
    return q


def random_qvec(rng, m, scale=1.0):
    return scale * rng.standard_normal((m, 4))


def random_antihermitian(rng, m, scale=1.0):
    A = scale * rng.standard_normal((m, m, 4))
    return 0.5 * (A - qc.qmat_conj_t(A))


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / qc.qnorm(q)


def random_unitary(rng, m):
    """Exponential of a random anti-Hermitian quaternion matrix, in U(m, H)."""
    if m == 0:
        return np.zeros((0, 0, 4))
    S = random_antihermitian(rng, m)
    Zc = qc.qmat_to_complex(S)
    lam, V = np.linalg.eigh(1j * Zc)
    expZ = V @ np.diag(np.exp(-1j * lam)) @ V.conj().T
    return qc.qmat_from_complex(expZ)


def random_part(rng, n, kind, scale=1.0):
    if kind == "m_par":
        return sl.MPar(float(scale * rng.standard_normal()))
    if kind == "m_perp":
        return sl.MPerp(random_iquat(rng, scale), random_qvec(rng, n - 1, scale))
    if kind == "h_par":
        return sl.HPar(random_iquat(rng, scale), random_antihermitian(rng, n - 1, scale))
    if kind == "h_perp":
        return sl.HPerp(random_iquat(rng, scale), random_qvec(rng, n - 1, scale))
    raise ValueError(kind)


def random_element(rng, n, scale=1.0):
    return sl.element_from_parts(
        n,
        random_part(rng, n, "m_par", scale),
        random_part(rng, n, "m_perp", scale),
        random_part(rng, n, "h_par", scale),
        random_part(rng, n, "h_perp", scale),
    )


def read_qfld(path):
    """(n, N, L, kind, values) of a field snapshot written by
    grid_calculus.field_to_binary: the magic b"QFLD0001", then n, N and L
    packed "<qqd", the kind in 16 NUL-padded ASCII bytes, ndim and the shape
    as little-endian int64, and the samples as little-endian float64."""
    with open(path, "rb") as fh:
        assert fh.read(8) == b"QFLD0001"
        n, num_points, length = struct.unpack("<qqd", fh.read(24))
        kind = fh.read(16).rstrip(b"\0").decode("ascii")
        (ndim,) = struct.unpack("<q", fh.read(8))
        shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return n, num_points, length, kind, values
