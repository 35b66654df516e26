import numpy as np
import pytest

from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow import soliton_flows as sf
from hpflow import symm_lie as sl
from hpflow import verify_suites as vs
from hpflow.symm_lie import chi

from test_biham_ops import random_state


def test_all_scopes_listed():
    assert set(vs.SCOPES) == {"algebra", "operators", "flows", "geometry", "all"}


SUITES = ["algebra_suite", "bracket_table_suite", "operator_suite", "flow_suite", "geometry_suite"]


@pytest.mark.parametrize(
    "scope, expected",
    [
        ("algebra", SUITES[:2]),
        ("operators", SUITES[2:3]),
        ("flows", SUITES[3:4]),
        ("geometry", SUITES[4:]),
        ("all", SUITES),
    ],
)
def test_run_scope_runs_its_suites_in_order_at_their_seed_offsets(monkeypatch, scope, expected):
    # the suites are looked up when run_scope runs, so a replaced module
    # function is the one called
    calls = []
    for name in SUITES:
        monkeypatch.setattr(vs, name, lambda seed, name=name: calls.append((name, seed)) or [name])
    assert vs.run_scope(scope, seed=10) == expected
    assert calls == [(name, 10 + SUITES.index(name)) for name in expected]


def test_algebra_suite_passes():
    checks = vs.algebra_suite(seed=5, instances=200)
    assert checks and all(c.passed for c in checks)


def test_bracket_suite_passes():
    checks = vs.bracket_table_suite(seed=6, instances=60)
    assert checks and all(c.passed for c in checks)


def test_operator_suite_passes():
    checks = vs.operator_suite(seed=7, num_points=96)
    assert checks and all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert "explicit recursion blocks equal the composition" in names


def test_check_result_serialization():
    c = vs.CheckResult("demo", 1e-3, 1e-4)
    d = c.as_dict()
    assert d["passed"] is True and d["name"] == "demo"
    assert not vs.CheckResult("demo", 1e-5, 1e-4).passed


def test_random_band_preset_draws_from_a_passed_generator():
    # the suites pass their Generator as the seed; arrays and the rest of the
    # stream match drawing the same waves from that Generator directly
    grid = gcalc.PeriodicGrid(48, 12.0)
    for n, amplitude, kmax in ((2, 0.4, 5), (1, 0.5, 5), (3, 0.4, 3)):
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        state = sf.preset_random_band(grid, n, seed=rng, amplitude=amplitude, kmax=kmax)
        ref = random_state(ref_rng, grid, n, amplitude=amplitude, kmax=kmax)
        for a, b in zip(state.arrays(), ref.arrays()):
            np.testing.assert_array_equal(a, b)
        assert rng.standard_normal() == ref_rng.standard_normal()


# -- the batched algebra suites against the per-instance loops they replace ----

def _loop_iquat(rng):
    q = rng.standard_normal(4)
    q[0] = 0.0
    return q


def _loop_part(rng, n, kind):
    if kind == "m_par":
        return sl.MPar(float(rng.standard_normal()))
    if kind == "m_perp":
        return sl.MPerp(_loop_iquat(rng), rng.standard_normal((n - 1, 4)))
    if kind == "h_par":
        A = rng.standard_normal((n - 1, n - 1, 4))
        return sl.HPar(_loop_iquat(rng), 0.5 * (A - qc.qmat_conj_t(A)))
    return sl.HPerp(_loop_iquat(rng), rng.standard_normal((n - 1, 4)))


def _loop_element(rng, n):
    return sl.element_from_parts(
        n, *(_loop_part(rng, n, kind) for kind in ("m_par", "m_perp", "h_par", "h_perp"))
    )


def _loop_algebra_suite(rng, instances):
    results = []
    worst = 0.0
    for q1, q2, expect in ((qc.I, qc.J, qc.K), (qc.J, qc.K, qc.I), (qc.K, qc.I, qc.J)):
        worst = max(worst, float(np.max(np.abs(qc.qmul(q1, q2) - expect))))
        worst = max(worst, float(np.max(np.abs(qc.qmul(q2, q1) + expect))))
        worst = max(worst, float(np.max(np.abs(qc.qmul(q1, q1) + qc.ONE))))
    results.append(("quaternion generator relations", 1e-15, worst))

    worst = 0.0
    for _ in range(instances):
        a, b, c = (_loop_iquat(rng) for _ in range(3))
        abc = qc.qre(qc.qmul(qc.qmul(a, b), c))
        bca = qc.qre(qc.qmul(qc.qmul(b, c), a))
        bac = qc.qre(qc.qmul(qc.qmul(b, a), c))
        worst = max(worst, abs(abc - bca), abs(abc + bac))
    results.append(("cyclic trace identities", 1e-12, worst))

    for n in (1, 2, 3):
        reps = max(instances // 10, 10)
        worst = 0.0
        for _ in range(reps):
            a, b, c = (_loop_element(rng, n) for _ in range(3))
            j = sl.bracket(a, sl.bracket(b, c)).add(
                sl.bracket(b, sl.bracket(c, a))
            ).add(sl.bracket(c, sl.bracket(a, b)))
            scale = max(qc.qmat_frobenius(g.to_matrix()) for g in (a, b, c)) ** 3
            worst = max(worst, qc.qmat_frobenius(j.to_matrix()) / max(scale, 1e-30))
        results.append((f"Jacobi identity (n={n})", 1e-12, worst))

        worst = 0.0
        for _ in range(reps):
            m1 = sl.element_from_parts(n, _loop_part(rng, n, "m_par"), _loop_part(rng, n, "m_perp"))
            m2 = sl.element_from_parts(n, _loop_part(rng, n, "m_par"), _loop_part(rng, n, "m_perp"))
            h1 = sl.element_from_parts(n, _loop_part(rng, n, "h_par"), _loop_part(rng, n, "h_perp"))
            mm = sl.bracket(m1, m2)
            hm = sl.bracket(h1, m1)
            hh = sl.bracket(h1, sl.element_from_parts(n, _loop_part(rng, n, "h_perp")))
            worst = max(
                worst,
                abs(mm.m_par),
                float(np.max(np.abs(mm.m_perp.s))),
                float(np.max(np.abs(hm.h_par.p))),
                float(np.max(np.abs(hm.h_perp.s))),
                abs(hh.m_par),
            )
        results.append((f"symmetric-space inclusions (n={n})", 1e-12, worst))

        worst = 0.0
        for _ in range(reps):
            hp = _loop_part(rng, n, "h_perp")
            twice = sl.ad_e(sl.ad_e(hp))
            worst = max(
                worst,
                float(np.max(np.abs(twice.s + 4.0 * hp.s))),
                float(np.max(np.abs(twice.v + hp.v))) if hp.v.size else 0.0,
            )
        results.append((f"ad(e)^2 eigenvalues (n={n})", 1e-12, worst))

        worst = 0.0
        for _ in range(reps):
            g1, g2 = _loop_element(rng, n), _loop_element(rng, n)
            k = sl.killing(g1, g2)
            worst = max(worst, abs(k - sl.killing_components(g1, g2)) / (1 + abs(k)))
        e = sl.cartan_element(n)
        worst = max(worst, abs(sl.killing(e, e) + chi(n)) / chi(n))
        results.append((f"Killing form formulas agree (n={n})", 1e-12, worst))
    return results


def _loop_part_deviation(a, b):
    def arrs(x):
        if isinstance(x, sl.MPar):
            return [np.atleast_1d(x.coeff)]
        if isinstance(x, sl.HPar):
            return [x.p, x.mat]
        return [x.s, x.v]

    worst = 0.0
    for u, v in zip(arrs(a), arrs(b)):
        if u.shape != v.shape:
            worst = max(worst, float(np.max(np.abs(u))) if u.size else 0.0)
            worst = max(worst, float(np.max(np.abs(v))) if v.size else 0.0)
        elif u.size:
            worst = max(worst, float(np.max(np.abs(u - v))))
    return worst


def _loop_bracket_table_suite(rng, instances):
    results = []
    for ka, kb, target in vs._TABLE_CASES:
        worst = 0.0
        for n in (1, 2, 3):
            for _ in range(instances // 3 + 1):
                pa, pb = _loop_part(rng, n, ka), _loop_part(rng, n, kb)
                closed = sl.bracket_projected(pa, pb, target)
                oracle = vs._project(
                    sl.bracket(sl.element_from_parts(n, pa), sl.element_from_parts(n, pb)),
                    target,
                )
                worst = max(worst, _loop_part_deviation(closed, oracle))
        results.append((f"bracket table [{ka}, {kb}] -> {target}", 1e-12, worst))
    return results


@pytest.mark.parametrize(
    "suite,loop,instances",
    [
        (vs.algebra_suite, _loop_algebra_suite, 40),
        (vs.algebra_suite, _loop_algebra_suite, 130),
        (vs.bracket_table_suite, _loop_bracket_table_suite, 12),
        (vs.bracket_table_suite, _loop_bracket_table_suite, 31),
    ],
)
def test_batched_suites_match_per_instance_loops(suite, loop, instances):
    # same instances from the same stream, so the same checks and residuals;
    # the Generator is passed as the seed to read its next draw afterwards
    for seed in (0, 7):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        checks = suite(rng, instances)
        ref = loop(ref_rng, instances)
        assert [(c.name, c.tolerance) for c in checks] == [r[:2] for r in ref]
        for c, (_, _, residual) in zip(checks, ref):
            assert c.residual == residual or abs(c.residual - residual) <= 1e-14
            assert c.passed
        assert rng.standard_normal() == ref_rng.standard_normal()


def test_batched_draws_are_the_loop_instances():
    # row r of the one block draw is instance r, drawn part by part in order
    kinds = ("m_par", "m_perp", "h_par", "h_perp", "h_perp", "m_par")
    for n in (1, 2, 3):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        batched = vs._rand_parts(rng, n, kinds, 5)
        for r in range(5):
            for kind, part in zip(kinds, batched):
                ref = _loop_part(ref_rng, n, kind)
                if kind == "m_par":
                    assert part.coeff[r] == ref.coeff
                    continue
                fields = ("p", "mat") if kind == "h_par" else ("s", "v")
                for f in fields:
                    np.testing.assert_array_equal(getattr(part, f)[r], getattr(ref, f), strict=True)
        assert rng.standard_normal() == ref_rng.standard_normal()
