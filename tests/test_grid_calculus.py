import numpy as np
import pytest

from hpflow import grid_calculus as gcalc
from hpflow import quat_core as qc
from hpflow.errors import DimensionMismatchError, DomainError, NonlocalityError

from conftest import read_qfld

TOL = gcalc.DEFAULT_MEAN_TOLERANCE


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
    for length in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="positive and finite"):
            gcalc.PeriodicGrid(16, length)


def test_deriv_sine():
    grid = gcalc.PeriodicGrid(64, 7.0)
    df = gcalc.spectral_deriv(sine_field(grid).values, grid)
    expected = (2 * np.pi / grid.length) * np.cos(2 * np.pi * grid.x / grid.length)
    assert np.max(np.abs(df - expected)) <= 1e-10


def test_deriv_constant_is_zero():
    grid = gcalc.PeriodicGrid(32, 2.0)
    assert np.max(np.abs(gcalc.spectral_deriv(np.full(32, 3.7), grid))) == 0.0


def test_deriv_quaternion_componentwise():
    grid = gcalc.PeriodicGrid(64, 5.0)
    base = 2 * np.pi / grid.length
    vals = np.zeros((64, 4))
    vals[:, 1] = np.exp(np.sin(base * grid.x))
    df = gcalc.spectral_deriv(vals, grid)
    expected = base * np.cos(base * grid.x) * np.exp(np.sin(base * grid.x))
    assert np.max(np.abs(df[:, 1] - expected)) <= 1e-10
    assert np.max(np.abs(df[:, [0, 2, 3]])) == 0.0


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


@pytest.mark.parametrize("N", [64, 63])
@pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 4), (12,)])
def test_spectral_deriv_repeated_symbols_match_the_broadcast_product(N, shape):
    # symbols repeated over the trailing axes give the bits of the product
    # broadcast from the (orders, modes) symbols
    rng = np.random.default_rng(N)
    grid = gcalc.PeriodicGrid(N, 7.0)
    vals = rng.standard_normal((N,) + shape) * 10.0 ** rng.uniform(-8, 8, (N,) + shape)
    orders = (1, 2, 3)
    symbols = grid.deriv_symbols(orders).reshape((3, N // 2 + 1) + (1,) * len(shape))
    F = np.fft.rfft(vals, axis=0)[None] * symbols
    expected = np.fft.irfft(F, n=N, axis=1)
    assert gcalc.spectral_deriv(vals, grid, orders).tobytes() == expected.tobytes()
    assert grid.deriv_symbols(orders, shape).shape == (3, N // 2 + 1) + shape


def test_deriv_of_nyquist_mode_is_zero():
    grid = gcalc.PeriodicGrid(16, 2.0)
    vals = np.cos(np.pi * np.arange(16))
    assert np.max(np.abs(gcalc.spectral_deriv(vals, grid, (1, 2, 3)))) == 0.0


def test_antideriv_cosine():
    grid = gcalc.PeriodicGrid(64, 3.0)
    base = 2 * np.pi / grid.length
    F = gcalc.guarded_antideriv(np.cos(base * grid.x), grid, TOL, "cosine")
    expected = np.sin(base * grid.x) / base
    assert np.max(np.abs(F - expected)) <= 1e-12


def test_antideriv_rejects_nonzero_mean():
    grid = gcalc.PeriodicGrid(32, 1.0)
    with pytest.raises(NonlocalityError) as exc:
        gcalc.guarded_antideriv(np.ones(32), grid, TOL, "test-block")
    assert exc.value.block == "test-block"
    assert exc.value.mean == pytest.approx(1.0)


def test_guarded_antideriv_reference_scale():
    # an integrand that cancels to roundoff passes against a reference scale,
    # and the same call without one names its block in the error
    grid = gcalc.PeriodicGrid(32, 1.0)
    base = 2 * np.pi / grid.length
    big = 1e8 * np.cos(base * grid.x)
    values = (big + 1.0) - big - 1.0
    assert np.max(np.abs(values)) > 0.0
    out = gcalc.guarded_antideriv(values, grid, 1e-8, "roundoff", ref=1.0)
    assert np.array_equal(out, gcalc.spectral_antideriv(values, grid))
    with pytest.raises(NonlocalityError) as exc:
        gcalc.guarded_antideriv(values, grid, 1e-8, "roundoff", ref=0.0)
    assert exc.value.block == "roundoff"


def test_antideriv_roundtrip(rng):
    grid = gcalc.PeriodicGrid(128, 11.0)
    f = random_bandlimited(rng, grid, "qvec", m=2, zero_mean=True).values
    F = gcalc.guarded_antideriv(f, grid, TOL, "roundtrip")
    assert np.max(np.abs(gcalc.spectral_deriv(F, grid) - f)) <= 1e-10
    # antiderivative output always has zero grid mean
    assert np.max(np.abs(F.mean(axis=0))) <= 1e-13


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
    df = gcalc.Field(grid, gcalc.spectral_deriv(f.values, grid), "real")
    assert abs(gcalc.integrate(df)) <= 1e-12 * f.rms()


def test_skew_adjointness(rng):
    grid = gcalc.PeriodicGrid(128, 6.0)
    f = random_bandlimited(rng, grid, "qvec", m=2).values
    g = random_bandlimited(rng, grid, "qvec", m=2).values
    fg_x = gcalc.integrate(
        gcalc.Field(grid, qc.vec_dot(f, gcalc.spectral_deriv(g, grid)), "real")
    )
    f_xg = gcalc.integrate(
        gcalc.Field(grid, qc.vec_dot(gcalc.spectral_deriv(f, grid), g), "real")
    )
    assert abs(fg_x + f_xg) <= 1e-10 * (1 + abs(fg_x))


def test_field_arithmetic_checks():
    g1 = gcalc.PeriodicGrid(16, 1.0)
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


@pytest.mark.parametrize("N", [32, 33])
@pytest.mark.parametrize("factor", [1, 2, 3, 16])
def test_refine_along_the_last_axis_gives_the_same_bits(rng, N, factor):
    grid = gcalc.PeriodicGrid(N, 5.0)
    vals = rng.standard_normal((N, 3))
    by_rows = gcalc.spectral_refine(vals, grid, factor)
    assert by_rows.shape == (N * factor, 3)
    for cols in (vals.T, np.ascontiguousarray(vals.T)):
        assert np.array_equal(gcalc.spectral_refine(cols, grid, factor, axis=1), by_rows.T)
        assert np.array_equal(gcalc.spectral_refine(cols, grid, factor, axis=-1), by_rows.T)


def test_dealias_removes_high_modes():
    grid = gcalc.PeriodicGrid(32, 2 * np.pi)
    vals = np.cos(14 * grid.x) + np.cos(2 * grid.x)
    f = gcalc.dealias_values(vals, grid)
    assert np.max(np.abs(f - np.cos(2 * grid.x))) <= 1e-12


def _mask_dealias(values, grid, fraction):
    """The boolean-mask form of the dealias filter."""
    F = np.fft.rfft(values, axis=0)
    F[~(grid.wavenumbers <= fraction * np.pi / grid.dx)] = 0.0
    return np.fft.irfft(F, n=grid.num_points, axis=0)


@pytest.mark.parametrize("N", [64, 127, 128, 256])
@pytest.mark.parametrize("fraction", [2 / 3, 1 / 2, 1.0])
@pytest.mark.parametrize("length", [2 * np.pi, 20.0])
def test_dealias_cut_matches_mask(rng, N, fraction, length):
    grid = gcalc.PeriodicGrid(N, length)
    mask = grid.wavenumbers <= fraction * np.pi / grid.dx
    cut = grid.dealias_cut(fraction)
    assert np.array_equal(mask, np.arange(N // 2 + 1) < cut)
    assert grid.dealias_cut(fraction) == cut
    vals = rng.standard_normal((N, 8))
    assert np.array_equal(
        gcalc.dealias_values(vals, grid, fraction), _mask_dealias(vals, grid, fraction)
    )
    if fraction == 1.0 and N % 2 == 0 and length == 2 * np.pi:
        # kmax lands exactly on the Nyquist wavenumber, which is kept
        assert fraction * np.pi / grid.dx == grid.wavenumbers[-1]
        assert cut == N // 2 + 1


def test_binary_roundtrip(tmp_path, rng):
    grid = gcalc.PeriodicGrid(16, 2.5)
    f = gcalc.Field(grid, rng.standard_normal((16, 2, 4)), "qvec")
    path = tmp_path / "f.qfld"
    gcalc.field_to_binary(path, f, n=3)
    n, num_points, length, kind, values = read_qfld(path)
    assert (n, num_points, length, kind) == (3, 16, 2.5, "qvec")
    assert values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("shape", [(1, 6), (9, 1), (300, 300)], ids=["row", "column", "KxK"])
@pytest.mark.parametrize("header", ["", "t=0.25; columns: x, u(4)"])
@pytest.mark.parametrize("comments", ["", "# "])
def test_array_to_csv_writes_the_bytes_of_savetxt(tmp_path, shape, header, comments):
    # 300 x 300 spans more than one formatted block
    rng = np.random.default_rng(sum(shape))
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    data.flat[:4] = [-0.0, np.nan, np.inf, -np.inf]
    np.savetxt(tmp_path / "ref.csv", data, delimiter=",", fmt="%.17e", header=header,
               comments=comments)
    gcalc.array_to_csv(tmp_path / "out.csv", data, header=header, comments=comments)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
