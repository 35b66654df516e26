import numpy as np

from hpflow import grid_calculus as gcalc
from hpflow import soliton_flows as sf
from hpflow import verify_suites as vs

from test_biham_ops import random_state


def test_all_scopes_listed():
    assert set(vs.SCOPES) == {"algebra", "operators", "flows", "geometry", "all"}


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
