"""Symmetric Lie algebra u(n+1, H) with the split relative to a rank-one Cartan element.

Elements are anti-Hermitian quaternion matrices of size n+1.  The involutive
split g = h (+) m refines further relative to the fixed Cartan element

    e = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]     (block sizes 1, 1, n-1)

into m = m_par (+) m_perp and h = h_par (+) h_perp.  The canonical storage is
the packed component form; the full matrix is produced on demand.  bracket
(the matrix commutator) is the bracket the frame calculus in curve_geometry
uses; the closed-form projected table is checked against it.

Packed components (all quaternions as trailing-axis-4 arrays):
    MPar   : real coefficient of e
    MPerp  : imaginary scalar s, vector v in H^(n-1)
    HPar   : imaginary scalar p, anti-Hermitian matrix mat of size n-1
    HPerp  : imaginary scalar s, vector v in H^(n-1)

Parts and elements may carry one leading batch axis of length B: MPar.coeff
is then shaped (B,) and every array of the other parts gains a leading B.
element_from_parts, to_matrix, from_matrix, add, bracket, bracket_projected,
killing, killing_components and ad_e act on each instance of the batch, in
the broadcasting convention of quat_core.  Without a batch axis, real-valued
results stay Python floats.  m_element and m_components pack a batch's m
parts as one (B, 4n) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat_core as qc
from .errors import DimensionMismatchError, DomainError


def _float_or_batch(x):
    """A 0-d result as a Python float; a batched result as its array."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _coeff(a, ndim: int) -> np.ndarray:
    """MPar coefficient shaped to broadcast against arrays with ndim trailing axes."""
    c = np.asarray(a.coeff, dtype=float)
    return c.reshape(c.shape + (1,) * ndim)


def chi(n: int) -> float:
    """Normalization constant of the Killing form restricted to m."""
    return 8.0 * (n + 2)


@dataclass
class MPar:
    coeff: float | np.ndarray

    def __neg__(self):
        return MPar(-self.coeff)


@dataclass
class MPerp:
    s: np.ndarray
    v: np.ndarray

    def __neg__(self):
        return MPerp(-self.s, -self.v)


@dataclass
class HPar:
    p: np.ndarray
    mat: np.ndarray

    def __neg__(self):
        return HPar(-self.p, -self.mat)


@dataclass
class HPerp:
    s: np.ndarray
    v: np.ndarray

    def __neg__(self):
        return HPerp(-self.s, -self.v)


@dataclass
class LieElement:
    """Element of u(n+1, H) in the packed 5-slot form."""

    n: int
    m_par: float | np.ndarray = 0.0
    m_perp: MPerp = None
    h_par: HPar = None
    h_perp: HPerp = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        k = self.n - 1
        if self.m_perp is None:
            self.m_perp = MPerp(np.zeros(4), np.zeros((k, 4)))
        if self.h_par is None:
            self.h_par = HPar(np.zeros(4), np.zeros((k, k, 4)))
        if self.h_perp is None:
            self.h_perp = HPerp(np.zeros(4), np.zeros((k, 4)))

    def to_matrix(self) -> np.ndarray:
        """Full (..., n+1, n+1, 4) quaternion matrix."""
        n = self.n
        batch = np.broadcast_shapes(
            np.shape(self.m_par),
            self.m_perp.s.shape[:-1],
            self.m_perp.v.shape[:-2],
            self.h_par.p.shape[:-1],
            self.h_par.mat.shape[:-3],
            self.h_perp.s.shape[:-1],
            self.h_perp.v.shape[:-2],
        )
        M = np.zeros(batch + (n + 1, n + 1, 4))
        m_scalar = qc.from_real(self.m_par) + self.m_perp.s
        M[..., 0, 1, :] = m_scalar
        M[..., 1, 0, :] = -qc.qconj(m_scalar)
        if n > 1:
            M[..., 0, 2:, :] = self.m_perp.v
            M[..., 2:, 0, :] = -qc.qconj(self.m_perp.v)
        M[..., 0, 0, :] = self.h_par.p + self.h_perp.s
        M[..., 1, 1, :] = self.h_par.p - self.h_perp.s
        if n > 1:
            M[..., 1, 2:, :] = self.h_perp.v
            M[..., 2:, 1, :] = -qc.qconj(self.h_perp.v)
            M[..., 2:, 2:, :] = self.h_par.mat
        return M

    @staticmethod
    def from_matrix(M: np.ndarray) -> "LieElement":
        M = np.asarray(M, dtype=float)
        n = M.shape[-3] - 1 if M.ndim >= 3 else 0
        if n < 1 or M.shape[-2] != n + 1:
            raise DimensionMismatchError(f"bad matrix shape {M.shape}")
        m_scalar = M[..., 0, 1, :]
        p_plus_q = M[..., 0, 0, :]
        p_minus_q = M[..., 1, 1, :]
        return LieElement(
            n=n,
            m_par=_float_or_batch(m_scalar[..., 0].copy()),
            m_perp=MPerp(qc.qim(m_scalar), M[..., 0, 2:, :].copy()),
            h_par=HPar(0.5 * (p_plus_q + p_minus_q), M[..., 2:, 2:, :].copy()),
            h_perp=HPerp(0.5 * (p_plus_q - p_minus_q), M[..., 1, 2:, :].copy()),
        )

    def add(self, other: "LieElement") -> "LieElement":
        if other.n != self.n:
            raise DimensionMismatchError("mismatched n")
        return LieElement(
            self.n,
            self.m_par + other.m_par,
            MPerp(self.m_perp.s + other.m_perp.s, self.m_perp.v + other.m_perp.v),
            HPar(self.h_par.p + other.h_par.p, self.h_par.mat + other.h_par.mat),
            HPerp(self.h_perp.s + other.h_perp.s, self.h_perp.v + other.h_perp.v),
        )


def element_from_parts(n: int, *parts) -> LieElement:
    g = LieElement(n)
    for part in parts:
        if isinstance(part, MPar):
            g.m_par += part.coeff
        elif isinstance(part, MPerp):
            g.m_perp = MPerp(g.m_perp.s + part.s, g.m_perp.v + part.v)
        elif isinstance(part, HPar):
            g.h_par = HPar(g.h_par.p + part.p, g.h_par.mat + part.mat)
        elif isinstance(part, HPerp):
            g.h_perp = HPerp(g.h_perp.s + part.s, g.h_perp.v + part.v)
        else:
            raise DomainError(f"not a subspace part: {part!r}")
    return g


def m_element(comps: np.ndarray, n: int) -> LieElement:
    """The m element of packed m components (K, 4n): column 0 the m_par
    coefficient, columns 1-3 the imaginary m_perp scalar, the rest m_perp.v."""
    v = comps[:, 4:].reshape(len(comps), n - 1, 4)
    return LieElement(n, m_par=comps[:, 0], m_perp=MPerp(qc.qim(comps[:, :4]), v))


def m_components(g: LieElement) -> np.ndarray:
    """The packed m components of g's m part, m_element's inverse."""
    s = qc.from_real(g.m_par) + g.m_perp.s
    return np.concatenate([s, g.m_perp.v.reshape(len(s), -1)], axis=1)


def bracket(g1: LieElement, g2: LieElement) -> LieElement:
    """Lie bracket as the matrix commutator, the definition.

    curve_geometry's frame brackets and the -1 flow's x-system table come
    from here; bracket_projected's closed forms are checked against it.
    """
    if g1.n != g2.n:
        raise DimensionMismatchError("mismatched n")
    M1, M2 = g1.to_matrix(), g2.to_matrix()
    return LieElement.from_matrix(qc.qmatmul(M1, M2) - qc.qmatmul(M2, M1))


# part class -> kind name, in the order an element's parts are drawn in verify
_KIND_OF = {MPar: "m_par", MPerp: "m_perp", HPar: "h_par", HPerp: "h_perp"}
KINDS = tuple(_KIND_OF.values())


def _m_par_m_par(a, b):
    batch = np.broadcast_shapes(np.shape(a.coeff), np.shape(b.coeff))
    return HPar(np.zeros(batch + (4,)), np.zeros(batch + (0, 0, 4)))


def _perp_perp_h_par(a, b):
    return HPar(qc.comm_C(a.s, b.s) - 0.5 * qc.comm_C_vec(a.v, b.v), qc.matcomm_C(b.v, a.v))


# (kind of a, kind of b, target) -> the target part of [a, b] in closed form,
# in the order bracket_table_suite draws its cases.  A pair of distinct kinds
# is listed in one order; bracket_projected takes the other from [b, a] = -[a, b].
BRACKET_TABLE = {
    ("m_par", "m_par", "h_par"): _m_par_m_par,
    ("m_par", "h_par", "m_par"): lambda a, b: MPar(_float_or_batch(np.zeros(
        np.broadcast_shapes(np.shape(a.coeff), b.p.shape[:-1], b.mat.shape[:-3])
    ))),
    ("h_par", "h_par", "h_par"): lambda a, b: HPar(
        qc.comm_C(a.p, b.p), qc.qmatmul(a.mat, b.mat) - qc.qmatmul(b.mat, a.mat)
    ),
    ("m_par", "m_perp", "h_perp"): lambda a, b: HPerp(
        2.0 * _coeff(a, 1) * b.s, -_coeff(a, 2) * b.v
    ),
    ("m_par", "h_perp", "m_perp"): lambda a, b: MPerp(
        -2.0 * _coeff(a, 1) * b.s, _coeff(a, 2) * b.v
    ),
    ("h_par", "m_perp", "m_perp"): lambda a, b: MPerp(
        qc.comm_C(a.p, b.s), qc.scalar_vec(a.p, b.v) - qc.qmat_vecmul(b.v, a.mat)
    ),
    ("h_par", "h_perp", "h_perp"): lambda a, b: HPerp(
        qc.comm_C(a.p, b.s), qc.scalar_vec(a.p, b.v) - qc.qmat_vecmul(b.v, a.mat)
    ),
    ("m_perp", "m_perp", "h_par"): _perp_perp_h_par,
    ("m_perp", "m_perp", "h_perp"): lambda a, b: HPerp(
        0.5 * qc.comm_C_vec(b.v, a.v), qc.scalar_vec(a.s, b.v) - qc.scalar_vec(b.s, a.v)
    ),
    ("h_perp", "h_perp", "h_par"): _perp_perp_h_par,
    ("h_perp", "h_perp", "h_perp"): lambda a, b: HPerp(
        0.5 * qc.comm_C_vec(a.v, b.v), qc.scalar_vec(b.s, a.v) - qc.scalar_vec(a.s, b.v)
    ),
    ("m_perp", "h_perp", "m_par"): lambda a, b: MPar(
        _float_or_batch(-qc.acomm_A(a.s, b.s) - 0.5 * qc.acomm_A_vec(a.v, b.v))
    ),
    ("m_perp", "h_perp", "m_perp"): lambda a, b: MPerp(
        0.5 * qc.comm_C_vec(b.v, a.v), qc.scalar_vec(a.s, b.v) - qc.scalar_vec(b.s, a.v)
    ),
}


def bracket_projected(a, b, target: str):
    """Closed-form projection of [a, b] onto the named target subspace.

    The form comes from BRACKET_TABLE, directly or negated from the reversed
    pair; a combination in neither order raises DomainError.  Each form must
    agree with projecting the matrix commutator, which the test suite enforces.
    """
    ka, kb = (_KIND_OF.get(type(x), type(x).__name__) for x in (a, b))
    form = BRACKET_TABLE.get((ka, kb, target))
    if form is not None:
        return form(a, b)
    form = BRACKET_TABLE.get((kb, ka, target))
    if form is not None:
        return -form(b, a)
    raise DomainError(f"[{ka}, {kb}] has no closed-form part in {target!r}")


def killing(g1: LieElement, g2: LieElement) -> float | np.ndarray:
    """Cartan-Killing form 4(N+1) Re tr(M1 M2) on u(N, H), here N = n+1."""
    if g1.n != g2.n:
        raise DimensionMismatchError("mismatched n")
    prod = qc.qmatmul(g1.to_matrix(), g2.to_matrix())
    return _float_or_batch(4.0 * (g1.n + 2) * qc.qmat_re_trace(prod))


def killing_m(n, mpar1, mperp1, mpar2, mperp2) -> float | np.ndarray:
    """Component formula for the Killing form restricted to m."""
    c = chi(n)
    return _float_or_batch(
        -c
        * (
            mpar1 * mpar2
            + qc.dot4(mperp1.s, mperp2.s)
            + qc.vec_dot(mperp1.v, mperp2.v)
        )
    )


def killing_components(g1: LieElement, g2: LieElement) -> float | np.ndarray:
    """Killing form assembled from packed parts (m and h blocks are orthogonal)."""
    n = g1.n
    f = 4.0 * (n + 2)
    m_term = killing_m(n, g1.m_par, g1.m_perp, g2.m_par, g2.m_perp)
    h_term = f * (
        -2.0 * qc.dot4(g1.h_par.p, g2.h_par.p)
        - 2.0 * qc.dot4(g1.h_perp.s, g2.h_perp.s)
        - 2.0 * qc.vec_dot(g1.h_perp.v, g2.h_perp.v)
        - np.sum(g1.h_par.mat * g2.h_par.mat, axis=(-1, -2, -3))
    )
    return _float_or_batch(m_term + h_term)


def ad_e(x):
    """ad(e) mapping h_perp -> m_perp, (s, v) -> (-2s, v), and m_perp -> h_perp, (s, v) -> (2s, -v)."""
    if isinstance(x, HPerp):
        return MPerp(-2.0 * x.s, x.v.copy())
    if isinstance(x, MPerp):
        return HPerp(2.0 * x.s, -x.v)
    raise DomainError("ad_e acts on HPerp or MPerp")


def ad_e_inv(x):
    """Inverse of ad_e on the perp subspaces."""
    if isinstance(x, MPerp):
        return HPerp(-0.5 * x.s, x.v.copy())
    if isinstance(x, HPerp):
        return MPerp(0.5 * x.s, -x.v)
    raise DomainError("ad_e_inv acts on MPerp or HPerp")


def check_unit_quaternion(a, tol=1e-10):
    if abs(qc.qnorm(a) - 1.0) > tol:
        raise DomainError("expected a unit quaternion")


def check_unitary(A, tol=1e-10):
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if m == 0:
        return
    defect = qc.qmatmul(A, qc.qmat_conj_t(A)) - qc.qmat_identity(m)
    if np.max(np.abs(defect)) > tol:
        raise DomainError("expected a quaternion-unitary matrix")


def equivalence_action(a, A, x):
    """Residual frame freedom: s -> a s a^-1, v -> a v A, for unit a and unitary A."""
    check_unit_quaternion(a)
    check_unitary(A)
    s = qc.qmul(qc.qmul(a, x.s), qc.qconj(a))
    v = qc.qmat_vecmul(qc.scalar_vec(a, x.v), A)
    return type(x)(s, v)


def cartan_element(n: int) -> LieElement:
    return LieElement(n, m_par=1.0)

