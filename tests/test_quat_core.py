import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpflow import quat_core as qc
from hpflow.errors import DimensionMismatchError, DomainError

from conftest import random_iquat, random_quat, random_qvec

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def quats(draw):
    return np.array([draw(finite) for _ in range(4)])


def quat(re=0.0, i=0.0, j=0.0, k=0.0):
    return np.array([re, i, j, k], dtype=float)


def test_generator_relations():
    np.testing.assert_allclose(qc.qmul(qc.I, qc.J), qc.K, atol=1e-15)
    np.testing.assert_allclose(qc.qmul(qc.J, qc.I), -qc.K, atol=1e-15)
    np.testing.assert_allclose(qc.qmul(qc.J, qc.K), qc.I, atol=1e-15)
    np.testing.assert_allclose(qc.qmul(qc.K, qc.I), qc.J, atol=1e-15)
    for q in (qc.I, qc.J, qc.K):
        np.testing.assert_allclose(qc.qmul(q, q), -qc.ONE, atol=1e-15)


def test_identity_element(rng):
    q = random_quat(rng)
    np.testing.assert_allclose(qc.qmul(qc.ONE, q), q, atol=1e-15)
    np.testing.assert_allclose(qc.qmul(q, qc.ONE), q, atol=1e-15)


def test_bilinear_expansion():
    # (1+i)(1+j) = 1 + i + j + k
    a = quat(1.0, 1.0, 0.0, 0.0)
    b = quat(1.0, 0.0, 1.0, 0.0)
    np.testing.assert_allclose(qc.qmul(a, b), np.array([1.0, 1.0, 1.0, 1.0]), atol=1e-15)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_norm_multiplicativity(data):
    a = np.array([data.draw(finite) for _ in range(4)])
    b = np.array([data.draw(finite) for _ in range(4)])
    assert abs(qc.qnorm(qc.qmul(a, b)) - qc.qnorm(a) * qc.qnorm(b)) <= 1e-10 * (
        1.0 + qc.qnorm(a) * qc.qnorm(b)
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_conj_antihomomorphism(data):
    a = np.array([data.draw(finite) for _ in range(4)])
    b = np.array([data.draw(finite) for _ in range(4)])
    lhs = qc.qconj(qc.qmul(a, b))
    rhs = qc.qmul(qc.qconj(b), qc.qconj(a))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_real_imaginary_split_reassembles(rng):
    q = random_quat(rng)
    np.testing.assert_array_equal(qc.from_real(qc.qre(q)) + qc.qim(q), q)


def test_norm_equals_q_conj_q(rng):
    q = random_quat(rng)
    prod = qc.qmul(q, qc.qconj(q))
    assert abs(prod[0] - qc.qnormsq(q)) < 1e-12
    np.testing.assert_allclose(prod[1:], 0.0, atol=1e-12)


def test_cyclic_trace_identities(rng):
    # Re(abc) = Re(bca) = -Re(bac) for imaginary a, b, c
    for _ in range(1000):
        a, b, c = (random_iquat(rng) for _ in range(3))
        abc = qc.qre(qc.qmul(qc.qmul(a, b), c))
        bca = qc.qre(qc.qmul(qc.qmul(b, c), a))
        bac = qc.qre(qc.qmul(qc.qmul(b, a), c))
        assert abs(abc - bca) < 1e-13 * (1 + abs(abc))
        assert abs(abc + bac) < 1e-13 * (1 + abs(abc))


# qmul-composed references for the gather engine's kernels
def _hermitian_inner(x, y):
    """<x, y> = sum_l x_l conj(y_l) for vectors (..., m, 4)."""
    return np.sum(qc.qmul(x, qc.qconj(y)), axis=-2)


def _inner_from_kernels(x, y):
    """<x, y> = (A(x, y) + C(x, y)) / 2 from the library's vector kernels."""
    return qc.from_real(0.5 * qc.acomm_A_vec(x, y)) + 0.5 * qc.comm_C_vec(x, y)


def test_re_pairing_antisymmetry(rng):
    # Re(a<b,c>) = -Re(a<c,b>) for imaginary a and quaternion vectors b, c:
    # only C(b, c) = -C(c, b) enters
    for _ in range(1000):
        a = random_iquat(rng)
        b = random_qvec(rng, 3)
        c = random_qvec(rng, 3)
        lhs = qc.qre(qc.qmul(a, _inner_from_kernels(b, c)))
        rhs = qc.qre(qc.qmul(a, _inner_from_kernels(c, b)))
        assert abs(lhs + rhs) < 1e-12 * (1 + abs(lhs))


def test_hermitian_inner_examples(rng):
    # the Hermitian inner product through comm_C_vec and acomm_A_vec
    x = np.stack([qc.I, qc.J])
    np.testing.assert_allclose(_inner_from_kernels(x, x), 2.0 * qc.ONE, atol=1e-15)
    y = random_qvec(rng, 2)
    np.testing.assert_allclose(_inner_from_kernels(y, np.zeros((2, 4))), np.zeros(4), atol=1e-15)
    # conj(<x,y>) = <y,x>: A symmetric, C antisymmetric
    a, b = random_qvec(rng, 4), random_qvec(rng, 4)
    assert qc.acomm_A_vec(a, b) == qc.acomm_A_vec(b, a)
    np.testing.assert_allclose(qc.comm_C_vec(a, b), -qc.comm_C_vec(b, a), atol=1e-12)
    np.testing.assert_allclose(
        qc.qconj(_inner_from_kernels(a, b)), _inner_from_kernels(b, a), atol=1e-12
    )
    # Re part is the Euclidean inner product; both kernels agree with the product form
    assert abs(qc.qre(_hermitian_inner(a, b)) - qc.vec_dot(a, b)) < 1e-12
    np.testing.assert_allclose(_inner_from_kernels(a, b), _hermitian_inner(a, b), atol=1e-12)


def test_hermitian_inner_length_mismatch(rng):
    x, y = random_qvec(rng, 2), random_qvec(rng, 3)
    for kernel in (qc.comm_C_vec, qc.acomm_A_vec, qc.matcomm_C):
        with pytest.raises(DimensionMismatchError):
            kernel(x, y)


def test_hermitian_inner_positive(rng):
    # <x, x> = |x|^2: C(x, x) vanishes and A(x, x) is 2|x|^2
    x = random_qvec(rng, 5)
    assert qc.acomm_A_vec(x, x) >= 0.0
    np.testing.assert_allclose(qc.comm_C_vec(x, x), 0.0, atol=1e-12)


def test_comm_examples(rng):
    np.testing.assert_allclose(qc.comm_C(qc.I, qc.J), 2.0 * qc.K, atol=1e-15)
    a = random_iquat(rng)
    np.testing.assert_allclose(qc.comm_C(a, a), np.zeros(4), atol=1e-15)
    # C((1,i),(j,0)) = -2j
    x = np.stack([qc.ONE, qc.I])
    y = np.stack([qc.J, np.zeros(4)])
    np.testing.assert_allclose(qc.comm_C_vec(x, y), -2.0 * qc.J, atol=1e-15)


def test_comm_imaginary_for_imaginary(rng):
    a, b = random_iquat(rng), random_iquat(rng)
    assert abs(qc.comm_C(a, b)[0]) < 1e-14


def _commutator_by_products(a, b):
    return qc.qmul(a, b) - qc.qmul(b, a)


def test_comm_C_is_the_product_commutator(rng):
    # imaginary arguments over 1e-8..1e8: the cross product has the bits of
    # ab - ba; general arguments agree to roundoff, their real parts commute
    shape = (64, 3, 4)
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape) for _ in range(2))
    a[..., 0] = b[..., 0] = 0.0
    assert qc.comm_C(a, b).tobytes() == _commutator_by_products(a, b).tobytes()
    assert qc.comm_C(a[0, 0], b).tobytes() == _commutator_by_products(a[0, 0], b).tobytes()
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    scale = qc.qnorm(a) * qc.qnorm(b)
    err = qc.qnorm(qc.comm_C(a, b) - _commutator_by_products(a, b))
    assert np.all(err <= 1e-15 * scale)
    assert np.all(qc.comm_C(a, b)[..., 0] == 0.0)


def test_acomm_examples(rng):
    assert abs(qc.acomm_A(qc.I, qc.I) + 2.0) < 1e-15
    a = random_iquat(rng)
    assert abs(qc.acomm_A(a, np.zeros(4))) < 1e-15
    x = random_qvec(rng, 3)
    assert abs(qc.acomm_A_vec(x, x) - 2.0 * qc.vec_normsq(x)) < 1e-12
    # agrees with the quaternion product definition
    b = random_iquat(rng)
    direct = qc.qmul(a, b) + qc.qmul(b, a)
    assert abs(qc.acomm_A(a, b) - direct[0]) < 1e-12
    np.testing.assert_allclose(direct[1:], 0.0, atol=1e-12)


def test_acomm_rejects_non_imaginary(rng):
    with pytest.raises(DomainError):
        qc.acomm_A(qc.ONE, random_iquat(rng))


@pytest.mark.parametrize("m", [0, 1, 3])
def test_scalar_vec_matches_componentwise_qmul(rng, m):
    a = rng.standard_normal((7, 4))
    v = rng.standard_normal((7, m, 4))
    expected = np.zeros_like(v)
    for l in range(m):
        expected[:, l] = qc.qmul(a, v[:, l])
    out = qc.scalar_vec(a, v)
    assert out.shape == (7, m, 4)
    scale = qc.qnorm(a)[:, None] * qc.qnorm(v)
    assert np.all(np.abs(out - expected) <= 1e-14 * scale[..., None])
    # a single scalar against a single vector
    assert np.all(np.abs(qc.scalar_vec(a[0], v[0]) - expected[0]) <= 1e-14 * scale[0, :, None])


# the gather engine against the componentwise forms, relative to the size
# of each entry's terms; each product rounds a sum of at most 8m terms
def _norm_products(x, y):
    """sum_l |x_l| |y_l| per point, for vectors (..., m, 4)."""
    return np.sum(qc.qnorm(x) * qc.qnorm(y), axis=-1)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_comm_C_vec_im_matches_comm_C_vec(rng, m):
    # comm_C_vec is comm_C_vec_im's one-vector case, bit for bit, with an
    # exactly zero real part; a stack of K vectors agrees to roundoff
    x, ys = rng.standard_normal((7, m, 4)), rng.standard_normal((7, 3, m, 4))
    got = qc.comm_C_vec_im(x, ys)
    assert got.shape == (7, 3, 3)
    for k in range(3):
        want = qc.comm_C_vec(x, ys[:, k])
        assert np.all(want[:, 0] == 0.0)
        assert np.array_equal(qc.comm_C_vec_im(x, ys[:, k:k + 1])[:, 0], want[:, 1:])
        scale = 2.0 * _norm_products(x, ys[:, k])[:, None]
        assert np.all(np.abs(got[:, k] - want[:, 1:]) <= 1e-14 * scale)
    with pytest.raises(DimensionMismatchError):
        qc.comm_C_vec_im(x, rng.standard_normal((7, 3, m + 1, 4)))


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize(
    "batch_x, batch_y", [((5, 7), (5, 7)), ((7,), (5, 7)), ((), (7,)), ((7,), ())]
)
def test_vector_kernels_match_qmul_references(rng, m, batch_x, batch_y):
    # batch axes that broadcast, a broadcast scalar or vector, and K = 3
    # stacked vectors, each within 1e-14 of its terms' size
    x = rng.standard_normal(batch_x + (m, 4))
    y = rng.standard_normal(batch_y + (m, 4))
    ys = rng.standard_normal(batch_y + (3, m, 4))
    a = rng.standard_normal(batch_x + (4,))
    batch = np.broadcast_shapes(batch_x, batch_y)

    ref = _hermitian_inner(x, y)
    got = qc.comm_C_vec(x, y)
    assert got.shape == batch + (4,)
    assert np.all(got[..., 0] == 0.0)
    scale = 2.0 * _norm_products(x, y)[..., None]
    assert np.all(np.abs(got - (ref - qc.qconj(ref))) <= 1e-14 * scale)

    got = qc.comm_C_vec_im(x, ys)
    assert got.shape == batch + (3, 3)
    ref = _hermitian_inner(x[..., None, :, :], ys)
    scale = 2.0 * _norm_products(x[..., None, :, :], ys)[..., None]
    assert np.all(np.abs(got - 2.0 * ref[..., 1:]) <= 1e-14 * scale)

    got = qc.scalar_vec(a, y)
    ref = qc.qmul(a[..., None, :], y)
    if m:
        assert got.shape == ref.shape
    scale = qc.qnorm(a)[..., None] * qc.qnorm(y)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale[..., None])

    got = qc.vec_scalar(y, a)
    ref = qc.qmul(y, a[..., None, :])
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * scale[..., None])

    got = qc.matcomm_C(x, y)
    assert got.shape == batch + (m, m, 4)
    xl, yl = qc.qconj(x)[..., :, None, :], qc.qconj(y)[..., :, None, :]
    ref = qc.qmul(xl, y[..., None, :, :]) - qc.qmul(yl, x[..., None, :, :])
    nx, ny = qc.qnorm(x), qc.qnorm(y)
    scale = nx[..., :, None] * ny[..., None, :] + ny[..., :, None] * nx[..., None, :]
    assert np.all(np.abs(got - ref) <= 1e-14 * scale[..., None])
    assert np.array_equal(got, -qc.qmat_conj_t(got))  # anti-Hermitian exactly


@pytest.mark.parametrize("m, p", [(0, 2), (1, 1), (1, 2), (3, 2)])
def test_scalar_vec_sum_matches_scalar_vec(rng, m, p):
    a, v = rng.standard_normal((7, p, 4)), rng.standard_normal((7, m, p, 4))
    got = qc.scalar_vec_sum(a, v)
    assert got.shape == (7, m, 4)
    want = sum(qc.scalar_vec(a[:, q], v[:, :, q]) for q in range(p))
    scale = sum(qc.qnorm(a[:, q])[:, None] * qc.qnorm(v[:, :, q]) for q in range(p))
    assert np.all(np.abs(got - want) <= 1e-14 * scale[..., None])


def test_one_pass_kernels_rows_equal_their_own_calls(rng):
    # a point's bits do not depend on the other points: a batch of 6 against
    # the same points called one and two at a time, and against a 2-D batch
    m = 2
    x, ys = rng.standard_normal((6, m, 4)), rng.standard_normal((6, 2, m, 4))
    y, a = rng.standard_normal((6, m, 4)), rng.standard_normal((6, 4))
    s, v = rng.standard_normal((6, 2, 4)), rng.standard_normal((6, m, 2, 4))
    M = rng.standard_normal((6, m, m, 4))
    for kernel, args in ((qc.comm_C_vec_im, (x, ys)), (qc.comm_C_vec, (x, y)),
                         (qc.scalar_vec_sum, (s, v)), (qc.scalar_vec, (a, y)),
                         (qc.vec_scalar, (y, a)), (qc.matcomm_C, (x, y)),
                         (qc.qmat_vecmul, (y, M))):
        batched = kernel(*args)
        for i in range(0, 6, 2):
            assert np.array_equal(kernel(*(arg[i:i + 2] for arg in args)), batched[i:i + 2])
        for i in range(6):
            assert np.array_equal(kernel(*(arg[i] for arg in args)), batched[i])
        grid = kernel(*(arg.reshape((2, 3) + arg.shape[1:]) for arg in args))
        assert np.array_equal(grid.reshape(batched.shape), batched)


def test_acomm_A_im_equals_checked_form(rng):
    a = np.stack([random_iquat(rng) for _ in range(5)])
    b = np.stack([random_iquat(rng) for _ in range(5)])
    assert np.array_equal(qc.acomm_A_im(a, b), qc.acomm_A(a, b))
    with pytest.raises(DomainError):
        qc.acomm_A(a + qc.ONE, b)


def test_matcomm(rng):
    x = random_qvec(rng, 3)
    np.testing.assert_allclose(qc.matcomm_C(x, x), np.zeros((3, 3, 4)), atol=1e-15)
    # 1x1 case: C((1),(i)) = (2i)
    a = qc.ONE[None, :]
    b = qc.I[None, :]
    np.testing.assert_allclose(qc.matcomm_C(a, b)[0, 0], 2.0 * qc.I, atol=1e-15)
    # anti-Hermitian by construction
    y = random_qvec(rng, 3)
    M = qc.matcomm_C(x, y)
    np.testing.assert_allclose(M + qc.qmat_conj_t(M), 0.0, atol=1e-13)


def test_empty_vectors_return_additive_identity():
    x = np.zeros((0, 4))
    assert qc.comm_C_vec(x, x).tobytes() == np.zeros(4).tobytes()
    assert qc.comm_C_vec(np.zeros((5, 0, 4)), x).tobytes() == np.zeros((5, 4)).tobytes()
    assert qc.acomm_A_vec(x, x) == 0.0
    assert qc.matcomm_C(x, x).shape == (0, 0, 4)
    v = np.zeros((5, 0, 4))
    out = qc.scalar_vec(qc.I, v)
    assert out.shape == (5, 0, 4) and out is not v


def _sixteen_matmul_qmatmul(a, b):
    """The quaternion matrix product as 16 real matmuls, one per component pair."""
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


QMATMUL_SHAPES = [
    ((3, 3, 4), (3, 3, 4)),
    ((2, 3, 4), (3, 5, 4)),  # r, c and k all differ
    ((1, 2, 3, 4), (6, 3, 4, 4)),  # batch axes broadcast, 1 against K
    ((6, 2, 3, 4), (1, 3, 1, 4)),
    ((5, 1, 2, 3, 4), (4, 3, 2, 4)),
    ((2, 3, 4), (3, 4)),  # a vector right operand
    ((7, 2, 3, 4), (3, 4)),
    ((3, 4), (3, 2, 4)),  # a vector left operand
    ((3, 4), (3, 4)),
    ((0, 0, 4), (0, 0, 4)),  # the empty blocks of n = 1
    ((9, 0, 0, 4), (9, 0, 0, 4)),
    ((2, 0, 4), (0, 3, 4)),
]


@pytest.mark.parametrize("shape_a, shape_b", QMATMUL_SHAPES)
def test_qmatmul_matches_sixteen_matmul_form(rng, shape_a, shape_b):
    a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
    got, want = qc.qmatmul(a, b), _sixteen_matmul_qmatmul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    # relative to sum_j |a_ij| |b_jk|, the size of each entry's terms
    scale = np.max(qc.qnorm(a) @ qc.qnorm(b), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("r, c, k", [(3, 3, 3), (2, 1, 5), (4, 3, 1), (1, 4, 2), (2, 2, 0)])
def test_batched_qmatmul_equals_single_calls(rng, r, c, k):
    a, b = rng.standard_normal((5, r, c, 4)), rng.standard_normal((5, c, k, 4))
    batched = qc.qmatmul(a, b)
    for i in range(5):
        assert batched[i].tobytes() == qc.qmatmul(a[i], b[i]).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_qmatmul_non_finite_entry(rng, bad):
    a, b = rng.standard_normal((4, 3, 3, 4)), rng.standard_normal((4, 3, 2, 4))
    a[1, 2, 0, 3] = bad
    with np.errstate(invalid="ignore"):
        got, want = qc.qmatmul(a, b), _sixteen_matmul_qmatmul(a, b)
    # row 2 of batch 1 is non-finite, as in the 16-matmul form, and nothing else
    assert not np.any(np.isfinite(got[1, 2]))
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))


def test_qmat_vecmul_is_a_one_row_product(rng):
    for m in (0, 1, 3):
        v, a = rng.standard_normal((5, m, 4)), rng.standard_normal((5, m, m, 4))
        want = np.sum(qc.qmul(v[..., :, None, :], a), axis=-3)
        got = qc.qmat_vecmul(v, a)
        assert got.shape == want.shape
        scale = np.max(np.sum(qc.qnorm(v)[..., None] * qc.qnorm(a), axis=-2), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale


def test_mult_matrices_act_as_quaternion_products(rng):
    q = rng.standard_normal((9, 4))
    p = rng.standard_normal((9, 4))
    left = (qc.left_mult_matrix(q) @ p[..., None])[..., 0]
    right = (qc.right_mult_matrix(q) @ p[..., None])[..., 0]
    scale = np.max(np.abs(q)) * np.max(np.abs(p))
    assert np.max(np.abs(left - qc.qmul(q, p))) <= 1e-14 * scale
    assert np.max(np.abs(right - qc.qmul(p, q))) <= 1e-14 * scale


def test_qmatmul_matches_complex_embedding(rng):
    A = rng.standard_normal((3, 3, 4))
    B = rng.standard_normal((3, 3, 4))
    direct = qc.qmatmul(A, B)
    via_complex = qc.qmat_from_complex(qc.qmat_to_complex(A) @ qc.qmat_to_complex(B))
    np.testing.assert_allclose(direct, via_complex, atol=1e-12)


def test_complex_embedding_roundtrip(rng):
    A = rng.standard_normal((2, 5, 4))
    np.testing.assert_array_equal(qc.qmat_from_complex(qc.qmat_to_complex(A)), A)


@pytest.mark.parametrize("shape", [(4,), (7, 4), (256, 4), (4097, 4), (128, 3, 4)])
def test_qnormsq_is_add_reduce_bit_for_bit(shape):
    # entries over 1e-8..1e8, with zeros of both signs, infinities and a nan
    rng = np.random.default_rng(shape[0])
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    for i, v in enumerate([0.0, -0.0, np.inf, -np.inf, np.nan]):
        if 7 * i + 1 < a.size:
            a.flat[7 * i + 1] = v
    got, want = np.asarray(qc.qnormsq(a)), np.asarray(np.add.reduce(a * a, axis=-1))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _pairs(a):
    """Quaternions (..., 4) as complex pairs (2, ...), a = q0 + q1 i and
    b = q2 + q3 i, each component copied exactly."""
    out = np.empty((2,) + a.shape[:-1], dtype=complex)
    out.real = np.moveaxis(a[..., 0::2], -1, 0)
    out.imag = np.moveaxis(a[..., 1::2], -1, 0)
    return out


def _components(x):
    """Complex pairs (2, ...) as quaternions (..., 4), exactly."""
    return np.moveaxis(np.stack([x.real, x.imag], axis=1).reshape((4,) + x.shape[1:]), 0, -1)


PAIR_SHAPES = [((4,), (4,)), ((9, 4), (9, 4)), ((3, 1, 4), (1, 5, 4)), ((2, 7, 4), (4,))]


def _operands(shape_a, shape_b):
    # non-unit entries over 1e-8..1e8
    rng = np.random.default_rng(len(shape_a) + shape_a[0])
    return (rng.standard_normal(s) * 10.0 ** rng.uniform(-8, 8, s) for s in (shape_a, shape_b))


def _four_product_scale(a, b):
    """Per component of a b, the sum of the magnitudes of its four products
    |a_i| |b_j|: the rows of |L(a)| times |b|."""
    return (np.abs(qc.left_mult_matrix(a)) @ np.abs(b)[..., None])[..., 0]


def test_pair_layout_round_trips_exactly(rng):
    a = rng.standard_normal((3, 5, 4))
    a[0, 0] = [0.0, -0.0, np.inf, np.nan]
    assert _components(_pairs(a)).tobytes() == a.tobytes()
    np.testing.assert_array_equal(_pairs(qc.K), [0.0, 1j])  # k = (0 + 0 i) + (0 + 1 i) j


@pytest.mark.parametrize("shape_a, shape_b", PAIR_SHAPES)
def test_qmul_pairs_is_qmul_to_a_few_ulps(shape_a, shape_b):
    # each component of either product sums the same four products: two
    # roundings of at most 7 units of roundoff, relative to their magnitudes
    a, b = _operands(shape_a, shape_b)
    got = qc.qmul_pairs(_pairs(a), _pairs(b))
    want = qc.qmul(a, b)
    assert got.dtype == complex and got.shape == (2,) + want.shape[:-1]
    bound = 4.0 * np.finfo(float).eps * _four_product_scale(a, b)
    assert np.all(np.abs(_components(got) - want) <= bound)


def test_qmul_pairs_generator_relations():
    one, i, j, k = (_pairs(q) for q in (qc.ONE, qc.I, qc.J, qc.K))
    for x, y, xy in ((i, j, k), (j, k, i), (k, i, j), (j, i, -k), (i, i, -one), (k, k, -one)):
        np.testing.assert_array_equal(qc.qmul_pairs(x, y), xy)


@pytest.mark.parametrize(
    "shape_a, shape_b", [((9, 4), (9, 4)), ((3, 1, 4), (1, 5, 4)), ((2, 7, 4), (1, 7, 4))]
)
def test_qmul_pairs_non_finite_operands(shape_a, shape_b):
    # zeros of both signs, infinities and a nan: a component is nan or infinite
    # in one product exactly where it is in the other, with the same sign
    a, b = _operands(shape_a, shape_b)
    for i, v in enumerate([0.0, -0.0, np.inf, -np.inf, np.nan]):
        a.flat[(5 * i + 2) % a.size] = v
        b.flat[(3 * i + 1) % b.size] = -v
    with np.errstate(invalid="ignore"):
        got = _components(qc.qmul_pairs(_pairs(a), _pairs(b)))
        want = qc.qmul(a, b)
        scale = _four_product_scale(a, b)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])
    assert np.isnan(want).any() and np.isinf(want).any()
    finite = np.isfinite(want)
    bound = 4.0 * np.finfo(float).eps * scale[finite]
    assert np.all(np.abs(got[finite] - want[finite]) <= bound)
