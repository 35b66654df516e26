import numpy as np
import pytest

from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow.errors import DimensionMismatchError, DomainError, NonlocalityError


def sine_field(grid, mode=1):
    return gcalc.Field(grid, np.sin(2 * np.pi * mode * grid.x / grid.length), "real")


def random_bandlimited(rng, grid, kind="real", m=1, kmax=6, zero_mean=False):
    shape = {"real": (), "iquat": (4,), "quat": (4,), "qvec": (m, 4)}[kind]
    vals = np.zeros((grid.num_points,) + shape)
    base = 2 * np.pi / grid.length
    for k in range(0 if not zero_mean else 1, kmax + 1):
        a = rng.standard_normal(shape) / (1 + k) ** 2
        b = rng.standard_normal(shape) / (1 + k) ** 2
        if k == 0:
            vals += a
            continue
        vals += np.cos(k * base * grid.x).reshape((-1,) + (1,) * len(shape)) * a
        vals += np.sin(k * base * grid.x).reshape((-1,) + (1,) * len(shape)) * b
    if kind == "iquat":
        vals[..., 0] = 0.0
    return gcalc.Field(grid, vals, kind)


def test_grid_validation():
    with pytest.raises(DomainError):
        gcalc.PeriodicGrid(4, 1.0)
    with pytest.raises(DomainError):
        gcalc.PeriodicGrid(16, -1.0)


def test_deriv_sine():
    grid = gcalc.PeriodicGrid(64, 7.0)
    f = sine_field(grid)
    df = gcalc.deriv_x(f)
    expected = (2 * np.pi / grid.length) * np.cos(2 * np.pi * grid.x / grid.length)
    assert np.max(np.abs(df.values - expected)) <= 1e-10


def test_deriv_constant_is_zero():
    grid = gcalc.PeriodicGrid(32, 2.0)
    f = gcalc.Field(grid, np.full(32, 3.7), "real")
    assert np.max(np.abs(gcalc.deriv_x(f).values)) == 0.0


def test_deriv_quaternion_componentwise():
    grid = gcalc.PeriodicGrid(64, 5.0)
    base = 2 * np.pi / grid.length
    vals = np.zeros((64, 4))
    vals[:, 1] = np.exp(np.sin(base * grid.x))
    f = gcalc.Field(grid, vals, "iquat")
    df = gcalc.deriv_x(f)
    expected = base * np.cos(base * grid.x) * np.exp(np.sin(base * grid.x))
    assert np.max(np.abs(df.values[:, 1] - expected)) <= 1e-10
    assert np.max(np.abs(df.values[:, [0, 2, 3]])) == 0.0


@pytest.mark.parametrize("N", [64, 63])
@pytest.mark.parametrize(
    "shape", [(), (4,), (0, 4), (2, 4), (2, 2, 4)], ids=["real", "quat", "qvec0", "qvec2", "qmat"]
)
def test_spectral_deriv_tuple_order_stacks_int_orders(N, shape):
    # white noise fills every mode, so the even-N Nyquist row is exercised too
    rng = np.random.default_rng(N)
    grid = gcalc.PeriodicGrid(N, 7.0)
    vals = rng.standard_normal((N,) + shape)
    orders = (1, 2, 3)
    stacked = gcalc.spectral_deriv(vals, grid, orders)
    assert stacked.shape == (len(orders), N) + shape
    expected = np.stack([gcalc.spectral_deriv(vals, grid, p) for p in orders])
    assert np.array_equal(stacked, expected)
    assert grid.deriv_symbols(orders) is grid.deriv_symbols(orders)


def test_deriv_of_nyquist_mode_is_zero():
    grid = gcalc.PeriodicGrid(16, 2.0)
    vals = np.cos(np.pi * np.arange(16))
    assert np.max(np.abs(gcalc.spectral_deriv(vals, grid, (1, 2, 3)))) == 0.0


def test_antideriv_cosine():
    grid = gcalc.PeriodicGrid(64, 3.0)
    base = 2 * np.pi / grid.length
    f = gcalc.Field(grid, np.cos(base * grid.x), "real")
    F = gcalc.antideriv_x(f)
    expected = np.sin(base * grid.x) / base
    assert np.max(np.abs(F.values - expected)) <= 1e-12


def test_antideriv_rejects_nonzero_mean():
    grid = gcalc.PeriodicGrid(32, 1.0)
    f = gcalc.Field(grid, np.ones(32), "real")
    with pytest.raises(NonlocalityError) as exc:
        gcalc.antideriv_x(f, block="test-block")
    assert exc.value.block == "test-block"
    assert exc.value.mean == pytest.approx(1.0)


def test_antideriv_roundtrip(rng):
    grid = gcalc.PeriodicGrid(128, 11.0)
    f = random_bandlimited(rng, grid, "qvec", m=2, zero_mean=True)
    back = gcalc.deriv_x(gcalc.antideriv_x(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-10
    # antiderivative output always has zero grid mean
    F = gcalc.antideriv_x(f)
    assert np.max(np.abs(F.values.mean(axis=0))) <= 1e-13


def test_integrate():
    grid = gcalc.PeriodicGrid(64, 9.0)
    assert abs(gcalc.integrate(sine_field(grid))) <= 1e-12
    ones = gcalc.Field(grid, np.ones(64), "real")
    assert abs(gcalc.integrate(ones) - grid.length) <= 1e-12
    sq = gcalc.Field(grid, np.sin(2 * np.pi * grid.x / grid.length) ** 2, "real")
    assert abs(gcalc.integrate(sq) - grid.length / 2) <= 1e-12


def test_integral_of_total_derivative_vanishes(rng):
    grid = gcalc.PeriodicGrid(64, 4.0)
    f = random_bandlimited(rng, grid, "real")
    assert abs(gcalc.integrate(gcalc.deriv_x(f))) <= 1e-12 * f.rms()


def test_skew_adjointness(rng):
    grid = gcalc.PeriodicGrid(128, 6.0)
    f = random_bandlimited(rng, grid, "qvec", m=2)
    g = random_bandlimited(rng, grid, "qvec", m=2)
    fg_x = gcalc.integrate(
        gcalc.Field(grid, qc.vec_dot(f.values, gcalc.deriv_x(g).values), "real")
    )
    f_xg = gcalc.integrate(
        gcalc.Field(grid, qc.vec_dot(gcalc.deriv_x(f).values, g.values), "real")
    )
    assert abs(fg_x + f_xg) <= 1e-10 * (1 + abs(fg_x))


def test_field_arithmetic_checks():
    g1 = gcalc.PeriodicGrid(16, 1.0)
    g2 = gcalc.PeriodicGrid(32, 1.0)
    f1 = gcalc.Field(g1, np.zeros(16), "real")
    f2 = gcalc.Field(g2, np.zeros(32), "real")
    with pytest.raises(DimensionMismatchError):
        _ = f1 + f2
    with pytest.raises(DimensionMismatchError):
        gcalc.Field(g1, np.zeros(8), "real")
    with pytest.raises(DomainError):
        gcalc.Field(g1, np.zeros(16), "bogus")


def test_refine_is_bandlimited_interpolation():
    grid = gcalc.PeriodicGrid(32, 5.0)
    base = 2 * np.pi / grid.length
    vals = np.cos(3 * base * grid.x) + 0.5 * np.sin(base * grid.x)
    fine = gcalc.spectral_refine(vals, grid, 4)
    xf = gcalc.PeriodicGrid(128, 5.0).x
    expected = np.cos(3 * base * xf) + 0.5 * np.sin(base * xf)
    assert np.max(np.abs(fine - expected)) <= 1e-12


def test_dealias_removes_high_modes():
    grid = gcalc.PeriodicGrid(32, 2 * np.pi)
    vals = np.cos(14 * grid.x) + np.cos(2 * grid.x)
    f = gcalc.dealias(gcalc.Field(grid, vals, "real"))
    assert np.max(np.abs(f.values - np.cos(2 * grid.x))) <= 1e-12


def test_csv_export(tmp_path):
    grid = gcalc.PeriodicGrid(16, 1.0)
    f = gcalc.Field(grid, np.arange(16 * 4, dtype=float).reshape(16, 4), "quat")
    path = tmp_path / "f.csv"
    gcalc.field_to_csv(path, f)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (16, 5)
    np.testing.assert_allclose(data[:, 0], grid.x)
    np.testing.assert_allclose(data[:, 1:], f.values)


def test_binary_roundtrip(tmp_path, rng):
    grid = gcalc.PeriodicGrid(16, 2.5)
    f = gcalc.Field(grid, rng.standard_normal((16, 2, 4)), "qvec")
    path = tmp_path / "f.qfld"
    gcalc.field_to_binary(path, f, n=3)
    n, g = gcalc.field_from_binary(path)
    assert n == 3
    assert g.kind == "qvec"
    assert g.grid == grid
    np.testing.assert_array_equal(g.values, f.values)
