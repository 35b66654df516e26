import itertools

import numpy as np
import pytest

from hpflow import quat_core as qc
from hpflow import symm_lie as sl
from hpflow.errors import DimensionMismatchError, DomainError

from conftest import random_element, random_part, random_unit_quat, random_unitary


NS = (1, 2, 3)


def _project(g: sl.LieElement, target: str):
    if target == "m_par":
        return sl.MPar(g.m_par)
    if target == "m_perp":
        return g.m_perp
    if target == "h_par":
        return g.h_par
    if target == "h_perp":
        return g.h_perp
    raise ValueError(target)


def _max_abs(x):
    x = np.asarray(x)
    return 0.0 if x.size == 0 else float(np.max(np.abs(x)))


def _part_close(a, b, tol):
    if isinstance(a, sl.MPar):
        assert abs(a.coeff - b.coeff) <= tol
        return
    if isinstance(a, sl.HPar):
        np.testing.assert_allclose(a.p, b.p, atol=tol)
        if a.mat.shape == b.mat.shape:
            np.testing.assert_allclose(a.mat, b.mat, atol=tol)
        else:
            # degenerate zero results may carry an uninformative empty shape
            assert _max_abs(a.mat) <= tol and _max_abs(b.mat) <= tol
        return
    np.testing.assert_allclose(a.s, b.s, atol=tol)
    np.testing.assert_allclose(a.v, b.v, atol=tol)


def test_pack_matrix_roundtrip(rng):
    for n in NS:
        g = random_element(rng, n)
        M = g.to_matrix()
        # anti-Hermitian
        np.testing.assert_allclose(M + qc.qmat_conj_t(M), 0.0, atol=1e-13)
        g2 = sl.LieElement.from_matrix(M)
        np.testing.assert_allclose(g2.to_matrix(), M, atol=1e-14)


def test_bracket_antisymmetry(rng):
    for n in NS:
        g = random_element(rng, n)
        z = sl.bracket(g, g)
        np.testing.assert_allclose(z.to_matrix(), 0.0, atol=1e-12)


def test_mpar_brackets_vanish(rng):
    n = 3
    e1 = sl.element_from_parts(n, sl.MPar(1.3))
    e2 = sl.element_from_parts(n, sl.MPar(-0.4))
    np.testing.assert_allclose(sl.bracket(e1, e2).to_matrix(), 0.0, atol=1e-15)
    hp = sl.element_from_parts(n, random_part(rng, n, "h_par"))
    np.testing.assert_allclose(sl.bracket(e1, hp).to_matrix()[0:2, 0:2], 0.0, atol=1e-14)


def test_jacobi_identity(rng):
    for n in NS:
        for _ in range(25):
            a, b, c = (random_element(rng, n) for _ in range(3))
            scale = max(
                qc.qmat_frobenius(g.to_matrix()) for g in (a, b, c)
            )
            j = sl.bracket(a, sl.bracket(b, c)).add(
                sl.bracket(b, sl.bracket(c, a))
            ).add(sl.bracket(c, sl.bracket(a, b)))
            assert qc.qmat_frobenius(j.to_matrix()) <= 1e-12 * scale**3


def test_symmetric_space_inclusions(rng):
    # [m, m] has no m part, [h, m] no h part, [h, h] no m part
    for n in NS:
        m1 = sl.element_from_parts(
            n, random_part(rng, n, "m_par"), random_part(rng, n, "m_perp")
        )
        m2 = sl.element_from_parts(
            n, random_part(rng, n, "m_par"), random_part(rng, n, "m_perp")
        )
        h1 = sl.element_from_parts(
            n, random_part(rng, n, "h_par"), random_part(rng, n, "h_perp")
        )
        h2 = sl.element_from_parts(
            n, random_part(rng, n, "h_par"), random_part(rng, n, "h_perp")
        )
        mm = sl.bracket(m1, m2)
        assert abs(mm.m_par) < 1e-13
        np.testing.assert_allclose(mm.m_perp.s, 0.0, atol=1e-13)
        np.testing.assert_allclose(mm.m_perp.v, 0.0, atol=1e-13)
        hm = sl.bracket(h1, m1)
        np.testing.assert_allclose(hm.h_par.p, 0.0, atol=1e-13)
        np.testing.assert_allclose(hm.h_perp.s, 0.0, atol=1e-13)
        hh = sl.bracket(h1, h2)
        assert abs(hh.m_par) < 1e-13
        np.testing.assert_allclose(hh.m_perp.s, 0.0, atol=1e-13)


_CASES = [
    ("m_par", "m_par", "h_par"),
    ("m_par", "h_par", "m_par"),
    ("h_par", "h_par", "h_par"),
    ("m_par", "m_perp", "h_perp"),
    ("m_par", "h_perp", "m_perp"),
    ("h_par", "m_perp", "m_perp"),
    ("h_par", "h_perp", "h_perp"),
    ("m_perp", "m_perp", "h_par"),
    ("m_perp", "m_perp", "h_perp"),
    ("h_perp", "h_perp", "h_par"),
    ("h_perp", "h_perp", "h_perp"),
    ("m_perp", "h_perp", "m_par"),
    ("m_perp", "h_perp", "m_perp"),
]


@pytest.mark.parametrize("ka,kb,target", _CASES)
def test_bracket_table_vs_matrix_oracle(rng, ka, kb, target):
    # every closed-form projection must match the matrix commutator projection
    for n in NS:
        reps = 500 // len(NS) + 1
        for _ in range(reps):
            pa = random_part(rng, n, ka)
            pb = random_part(rng, n, kb)
            closed = sl.bracket_projected(pa, pb, target)
            oracle = _project(
                sl.bracket(
                    sl.element_from_parts(n, pa), sl.element_from_parts(n, pb)
                ),
                target,
            )
            _part_close(closed, oracle, 1e-12)


def test_bracket_table_examples(rng):
    n = 3
    # [(m_par),(m_perp, v)] = (2 m_par s, -m_par v) in h_perp
    a = sl.MPar(0.7)
    b = random_part(rng, n, "m_perp")
    out = sl.bracket_projected(a, b, "h_perp")
    np.testing.assert_allclose(out.s, 2 * 0.7 * b.s, atol=1e-14)
    np.testing.assert_allclose(out.v, -0.7 * b.v, atol=1e-14)
    # [(h1_perp),(h2_perp)] h_perp part: (C(v1,v2)/2, s2 v1 - s1 v2)
    h1 = random_part(rng, n, "h_perp")
    h2 = random_part(rng, n, "h_perp")
    out = sl.bracket_projected(h1, h2, "h_perp")
    np.testing.assert_allclose(out.s, 0.5 * qc.comm_C_vec(h1.v, h2.v), atol=1e-14)
    np.testing.assert_allclose(
        out.v, qc.qmul(h2.s, h1.v) - qc.qmul(h1.s, h2.v), atol=1e-14
    )


def test_bracket_projected_rejects_bad_target(rng):
    with pytest.raises(DomainError):
        sl.bracket_projected(sl.MPar(1.0), sl.MPar(1.0), "m_perp")


def test_killing_forms_agree(rng):
    for n in NS:
        for _ in range(40):
            g1, g2 = random_element(rng, n), random_element(rng, n)
            k_matrix = sl.killing(g1, g2)
            k_comp = sl.killing_components(g1, g2)
            assert abs(k_matrix - k_comp) <= 1e-12 * (1.0 + abs(k_matrix))


def test_killing_restricted_m(rng):
    for n in NS:
        g1 = sl.element_from_parts(
            n, random_part(rng, n, "m_par"), random_part(rng, n, "m_perp")
        )
        g2 = sl.element_from_parts(
            n, random_part(rng, n, "m_par"), random_part(rng, n, "m_perp")
        )
        expected = sl.killing_m(n, g1.m_par, g1.m_perp, g2.m_par, g2.m_perp)
        assert abs(sl.killing(g1, g2) - expected) <= 1e-12 * (1 + abs(expected))


def test_killing_cartan_norm():
    # <e, e> = -chi = -8(n+2)
    for n in NS:
        e = sl.cartan_element(n)
        assert abs(sl.killing(e, e) + sl.chi(n)) < 1e-12


def test_killing_sp1_norm(rng):
    # n = 1 element identified with q in Im H: -1/8 <g, g> = |q|^2.
    # The size-1 block sits in u(1, H); its Killing factor is 4*(1+1) = 8.
    q = np.array([0.0, 0.3, -1.1, 0.7])
    M = q[None, None, :]
    k = 4.0 * 2 * qc.qmat_re_trace(qc.qmatmul(M, M))
    assert abs(-k / 8.0 - qc.qnormsq(q)) < 1e-14


def test_killing_negative_definite(rng):
    for n in NS:
        g = random_element(rng, n)
        assert sl.killing(g, g) < 0.0


def test_killing_zero(rng):
    g = random_element(rng, 2)
    z = sl.LieElement(2)
    assert sl.killing(g, z) == 0.0


def test_ad_invariance(rng):
    for n in NS:
        for _ in range(20):
            z, g1, g2 = (random_element(rng, n) for _ in range(3))
            lhs = sl.killing(sl.bracket(z, g1), g2) + sl.killing(g1, sl.bracket(z, g2))
            scale = abs(sl.killing(g1, g1)) + abs(sl.killing(g2, g2))
            assert abs(lhs) <= 1e-11 * (1.0 + scale)


def test_ad_e_maps(rng):
    for n in NS:
        hp = random_part(rng, n, "h_perp")
        mp = sl.ad_e(hp)
        np.testing.assert_allclose(mp.s, -2.0 * hp.s, atol=1e-15)
        np.testing.assert_allclose(mp.v, hp.v, atol=1e-15)
        # against the matrix commutator with e
        e = sl.cartan_element(n)
        oracle = sl.bracket(e, sl.element_from_parts(n, hp))
        np.testing.assert_allclose(oracle.m_perp.s, mp.s, atol=1e-13)
        np.testing.assert_allclose(oracle.m_perp.v, mp.v, atol=1e-13)

        mq = random_part(rng, n, "m_perp")
        hq = sl.ad_e(mq)
        oracle = sl.bracket(e, sl.element_from_parts(n, mq))
        np.testing.assert_allclose(oracle.h_perp.s, hq.s, atol=1e-13)
        np.testing.assert_allclose(oracle.h_perp.v, hq.v, atol=1e-13)


def test_ad_e_squared_eigenvalues(rng):
    for n in NS:
        hp = random_part(rng, n, "h_perp")
        twice = sl.ad_e(sl.ad_e(hp))
        np.testing.assert_allclose(twice.s, -4.0 * hp.s, atol=1e-14)
        np.testing.assert_allclose(twice.v, -hp.v, atol=1e-14)
        mp = random_part(rng, n, "m_perp")
        twice = sl.ad_e(sl.ad_e(mp))
        np.testing.assert_allclose(twice.s, -4.0 * mp.s, atol=1e-14)
        np.testing.assert_allclose(twice.v, -mp.v, atol=1e-14)


def test_ad_e_inverse(rng):
    for n in NS:
        hp = random_part(rng, n, "h_perp")
        back = sl.ad_e_inv(sl.ad_e(hp))
        np.testing.assert_array_equal(back.s, hp.s)
        np.testing.assert_array_equal(back.v, hp.v)
        mp = random_part(rng, n, "m_perp")
        back = sl.ad_e_inv(sl.ad_e(mp))
        np.testing.assert_array_equal(back.s, mp.s)
        np.testing.assert_array_equal(back.v, mp.v)
        np.testing.assert_allclose(
            sl.ad_e(sl.ad_e_inv(hp)).s, hp.s, atol=0
        )


def test_ad_e_zero():
    z = sl.HPerp(np.zeros(4), np.zeros((1, 4)))
    out = sl.ad_e(z)
    np.testing.assert_array_equal(out.s, np.zeros(4))


def killing_hperp(n, a, b):
    """Component formula for the Killing form restricted to h_perp."""
    return -sl.chi(n) * (qc.dot4(a.s, b.s) + qc.vec_dot(a.v, b.v))


def test_equivalence_action(rng):
    for n in NS:
        x = random_part(rng, n, "h_perp")
        # identity action
        out = sl.equivalence_action(qc.ONE, qc.qmat_identity(n - 1), x)
        np.testing.assert_allclose(out.s, x.s, atol=1e-14)
        np.testing.assert_allclose(out.v, x.v, atol=1e-14)
        # Killing norm preserved
        a = random_unit_quat(rng)
        A = random_unitary(rng, n - 1)
        out = sl.equivalence_action(a, A, x)
        k1 = killing_hperp(n, x, x)
        k2 = killing_hperp(n, out, out)
        assert abs(k1 - k2) <= 1e-12 * (1 + abs(k1))


def test_equivalence_action_j_on_i():
    x = sl.HPerp(qc.I.copy(), np.zeros((0, 4)))
    out = sl.equivalence_action(qc.J, np.zeros((0, 0, 4)), x)
    np.testing.assert_allclose(out.s, -qc.I, atol=1e-15)


def test_equivalence_action_rejects_bad_group_elements(rng):
    x = random_part(rng, 2, "h_perp")
    with pytest.raises(DomainError):
        sl.equivalence_action(2.0 * qc.ONE, qc.qmat_identity(1), x)
    with pytest.raises(DomainError):
        sl.equivalence_action(qc.ONE, 2.0 * qc.qmat_identity(1), x)


# -- a leading batch axis: each instance equals the unbatched call -------------

BATCH = 6


def _stack_parts(parts):
    """One batched part from unbatched parts of the same kind."""
    first = parts[0]
    if isinstance(first, sl.MPar):
        return sl.MPar(np.array([p.coeff for p in parts]))
    fields = ("p", "mat") if isinstance(first, sl.HPar) else ("s", "v")
    return type(first)(*(np.stack([getattr(p, f) for p in parts]) for f in fields))


def _stack_elements(gs):
    return sl.LieElement(
        gs[0].n,
        np.array([g.m_par for g in gs]),
        _stack_parts([g.m_perp for g in gs]),
        _stack_parts([g.h_par for g in gs]),
        _stack_parts([g.h_perp for g in gs]),
    )


def _part_arrays(x):
    if isinstance(x, sl.MPar):
        return [np.asarray(x.coeff)]
    if isinstance(x, sl.HPar):
        return [x.p, x.mat]
    return [x.s, x.v]


def _assert_part_at(batched, i, single):
    assert type(batched) is type(single)
    for b, s in zip(_part_arrays(batched), _part_arrays(single)):
        np.testing.assert_array_equal(b[i], s, strict=True)


def _assert_element_at(batched, i, single):
    assert batched.n == single.n
    np.testing.assert_array_equal(batched.m_par[i], single.m_par, strict=True)
    for name in ("m_perp", "h_par", "h_perp"):
        _assert_part_at(getattr(batched, name), i, getattr(single, name))


@pytest.mark.parametrize("ka,kb,target", _CASES)
def test_batched_bracket_table_equals_single_calls(rng, ka, kb, target):
    for n in NS:
        pas = [random_part(rng, n, ka) for _ in range(BATCH)]
        pbs = [random_part(rng, n, kb) for _ in range(BATCH)]
        closed = sl.bracket_projected(_stack_parts(pas), _stack_parts(pbs), target)
        full = sl.bracket(
            sl.element_from_parts(n, _stack_parts(pas)),
            sl.element_from_parts(n, _stack_parts(pbs)),
        )
        for i, (pa, pb) in enumerate(zip(pas, pbs)):
            _assert_part_at(closed, i, sl.bracket_projected(pa, pb, target))
            single = sl.bracket(sl.element_from_parts(n, pa), sl.element_from_parts(n, pb))
            _assert_element_at(full, i, single)


def test_table_lists_the_cases_in_order():
    assert list(sl.BRACKET_TABLE) == _CASES
    assert sl.KINDS == ("m_par", "m_perp", "h_par", "h_perp")


@pytest.mark.parametrize("batched", [False, True])
def test_every_kind_combination_follows_the_table(rng, batched):
    # a combination has a closed form exactly when it or its reverse is a table
    # key, and a pair of distinct kinds in the unlisted order gives minus the
    # listed one, bit for bit
    def draw(n, kind):
        if not batched:
            return random_part(rng, n, kind)
        return _stack_parts([random_part(rng, n, kind) for _ in range(BATCH)])

    for n in NS:
        for ka, kb, target in itertools.product(sl.KINDS, repeat=3):
            pa, pb = draw(n, ka), draw(n, kb)
            if (ka, kb, target) not in sl.BRACKET_TABLE:
                if (kb, ka, target) not in sl.BRACKET_TABLE:
                    with pytest.raises(DomainError, match=f"{ka}, {kb}.*{target}"):
                        sl.bracket_projected(pa, pb, target)
                continue
            forward = sl.bracket_projected(pa, pb, target)
            if ka == kb:
                continue
            reverse = sl.bracket_projected(pb, pa, target)
            assert type(reverse) is type(forward)
            for f, r in zip(_part_arrays(forward), _part_arrays(reverse)):
                assert f.shape == r.shape and np.negative(f).tobytes() == r.tobytes()


def test_batched_matrix_killing_and_ad_e_equal_single_calls(rng):
    for n in NS:
        g1s = [random_element(rng, n) for _ in range(BATCH)]
        g2s = [random_element(rng, n) for _ in range(BATCH)]
        g1, g2 = _stack_elements(g1s), _stack_elements(g2s)
        M = g1.to_matrix()
        np.testing.assert_array_equal(M, np.stack([g.to_matrix() for g in g1s]), strict=True)
        back = sl.LieElement.from_matrix(M)
        summed = g1.add(g2)
        bracketed = sl.bracket(g1, g2)
        k = sl.killing(g1, g2)
        kc = sl.killing_components(g1, g2)
        assert k.shape == kc.shape == (BATCH,)
        hps = [random_part(rng, n, "h_perp") for _ in range(BATCH)]
        mps = [random_part(rng, n, "m_perp") for _ in range(BATCH)]
        ad_h, ad_m = sl.ad_e(_stack_parts(hps)), sl.ad_e(_stack_parts(mps))
        for i, (a, b) in enumerate(zip(g1s, g2s)):
            _assert_element_at(back, i, sl.LieElement.from_matrix(a.to_matrix()))
            _assert_element_at(summed, i, a.add(b))
            _assert_element_at(bracketed, i, sl.bracket(a, b))
            assert k[i] == sl.killing(a, b)
            assert kc[i] == sl.killing_components(a, b)
            _assert_part_at(ad_h, i, sl.ad_e(hps[i]))
            _assert_part_at(ad_m, i, sl.ad_e(mps[i]))


def test_unbatched_real_results_stay_floats(rng):
    g1, g2 = random_element(rng, 2), random_element(rng, 2)
    assert type(sl.killing(g1, g2)) is float
    assert type(sl.killing_components(g1, g2)) is float
    assert type(sl.LieElement.from_matrix(g1.to_matrix()).m_par) is float
    out = sl.bracket_projected(random_part(rng, 2, "m_perp"), random_part(rng, 2, "h_perp"), "m_par")
    assert type(out.coeff) is float


def test_from_matrix_rejects_bad_shapes():
    for shape in ((3, 4), (1, 1, 4), (3, 2, 4), (5, 3, 2, 4)):
        with pytest.raises(DimensionMismatchError):
            sl.LieElement.from_matrix(np.zeros(shape))
