"""Periodic grids, quaternion-valued fields, and spectral calculus.

Fields sample a function on a uniform periodic grid over [0, L).  The sample
array always has the grid as its leading axis; trailing axes encode the value
kind:

    real : (N,)          iquat/quat : (N, 4)
    qvec : (N, m, 4)     qmat       : (N, m, m, 4)

Differentiation is Fourier collocation applied componentwise.  The formal
inverse D_x^{-1} exists on the periodic class only for zero-mean input; it is
guarded by a relative tolerance and returns the unique zero-mean
antiderivative.  Violations raise NonlocalityError, never get fixed silently.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonlocalityError

KINDS = ("real", "iquat", "quat", "qvec", "qmat")

DEFAULT_MEAN_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PeriodicGrid:
    num_points: int
    length: float

    def __post_init__(self):
        if self.num_points < 8:
            raise DomainError("need at least 8 grid points")
        if self.length <= 0:
            raise DomainError("domain length must be positive")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.num_points) * self.dx

    @property
    def dx(self) -> float:
        return self.length / self.num_points

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi / self.length * np.arange(self.num_points // 2 + 1)

    @cached_property
    def _deriv_symbols(self) -> dict:
        return {}

    def deriv_symbols(self, orders: tuple) -> np.ndarray:
        """Stacked multipliers (ik)^p on the rfft modes, shape (len(orders), N//2 + 1).

        The even-N Nyquist row is zero: that mode carries no signed
        derivative.  Built once per grid and per tuple of orders.
        """
        symbols = self._deriv_symbols.get(orders)
        if symbols is None:
            symbols = np.stack([(1j * self.wavenumbers) ** p for p in orders])
            if self.num_points % 2 == 0:
                symbols[:, -1] = 0.0
            self._deriv_symbols[orders] = symbols
        return symbols

    def refined(self, factor: int) -> "PeriodicGrid":
        return PeriodicGrid(self.num_points * factor, self.length)


def _kshape(k, values):
    return k.reshape((-1,) + (1,) * (values.ndim - 1))


def spectral_deriv(
    values: np.ndarray, grid: PeriodicGrid, order: int | tuple = 1
) -> np.ndarray:
    """Fourier-collocation derivative of `order` along the grid axis.

    `order` may also be a tuple of orders: the result is then the stacked
    derivatives, shape (len(order),) + values.shape, from one rfft and one
    batched irfft.
    """
    symbols = grid.deriv_symbols(order if isinstance(order, tuple) else (order,))
    F = np.fft.rfft(values, axis=0)
    F = F[None] * symbols.reshape(symbols.shape + (1,) * (values.ndim - 1))
    out = np.fft.irfft(F, n=grid.num_points, axis=1)
    return out if isinstance(order, tuple) else out[0]


def spectral_antideriv(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    F = np.fft.rfft(values, axis=0)
    k = _kshape(grid.wavenumbers, values)
    out = np.zeros_like(F)
    out[1:] = F[1:] / (1j * k[1:])
    if grid.num_points % 2 == 0:
        out[-1] = 0.0
    return np.fft.irfft(out, n=grid.num_points, axis=0)


def spectral_refine(values: np.ndarray, grid: PeriodicGrid, factor: int) -> np.ndarray:
    """Band-limited upsampling by an integer factor."""
    if factor == 1:
        return values.copy()
    F = np.fft.rfft(values, axis=0)
    n_fine = grid.num_points * factor
    pad = np.zeros((n_fine // 2 + 1,) + F.shape[1:], dtype=complex)
    pad[: F.shape[0]] = F
    if grid.num_points % 2 == 0:
        pad[F.shape[0] - 1] *= 0.5  # split the Nyquist mode symmetrically
    return np.fft.irfft(pad, n=n_fine, axis=0) * factor


def dealias_values(values: np.ndarray, grid: PeriodicGrid, fraction: float = 2.0 / 3.0) -> np.ndarray:
    F = np.fft.rfft(values, axis=0)
    kmax = fraction * np.pi / grid.dx
    mask = grid.wavenumbers <= kmax
    F[~mask] = 0.0
    return np.fft.irfft(F, n=grid.num_points, axis=0)


@dataclass
class Field:
    grid: PeriodicGrid
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in KINDS:
            raise DomainError(f"unknown field kind {self.kind!r}")
        if self.values.shape[0] != self.grid.num_points:
            raise DimensionMismatchError(
                f"samples ({self.values.shape[0]}) do not match grid "
                f"({self.grid.num_points})"
            )
        expected_ndim = {"real": 1, "iquat": 2, "quat": 2, "qvec": 3, "qmat": 4}[self.kind]
        if self.values.ndim != expected_ndim:
            raise DimensionMismatchError(
                f"kind {self.kind!r} expects {expected_ndim} axes, got {self.values.ndim}"
            )

    def _binary_check(self, other: "Field"):
        if not isinstance(other, Field):
            raise DomainError("field arithmetic needs another Field")
        if other.grid != self.grid:
            raise DimensionMismatchError("fields live on different grids")
        if other.kind != self.kind:
            raise DimensionMismatchError(f"kind mismatch {self.kind} vs {other.kind}")

    def __add__(self, other):
        self._binary_check(other)
        return Field(self.grid, self.values + other.values, self.kind)

    def __sub__(self, other):
        self._binary_check(other)
        return Field(self.grid, self.values - other.values, self.kind)

    def __mul__(self, scalar):
        return Field(self.grid, float(scalar) * self.values, self.kind)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values, self.kind)

    def copy(self):
        return Field(self.grid, self.values.copy(), self.kind)

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))


def deriv_x(f: Field, order: int = 1) -> Field:
    return Field(f.grid, spectral_deriv(f.values, f.grid, order), f.kind)


def antideriv_x(
    f: Field,
    mean_tolerance: float = DEFAULT_MEAN_TOLERANCE,
    block: str = "antideriv_x",
) -> Field:
    """Zero-mean periodic antiderivative; raises NonlocalityError on nonzero mean."""
    means = np.mean(f.values, axis=0)
    scale = f.rms()
    worst = float(np.max(np.abs(means))) if means.size else 0.0
    if worst > mean_tolerance * max(scale, 1e-300):
        raise NonlocalityError(block, worst, scale, mean_tolerance)
    return Field(f.grid, spectral_antideriv(f.values, f.grid), f.kind)


def integrate(f: Field):
    """Rectangle quadrature, exact for trigonometric polynomials below Nyquist."""
    out = np.sum(f.values, axis=0) * f.grid.dx
    return float(out) if f.kind == "real" else out


def dealias(f: Field, fraction: float = 2.0 / 3.0) -> Field:
    return Field(f.grid, dealias_values(f.values, f.grid, fraction), f.kind)


# -- serialization -----------------------------------------------------------

_MAGIC = b"QFLD0001"


def field_to_csv(path, f: Field, header: bool = True):
    """Columns: x then the flattened per-point components in full precision."""
    flat = f.values.reshape(f.grid.num_points, -1)
    cols = np.column_stack([f.grid.x, flat])
    names = ["x"] + [f"c{i}" for i in range(flat.shape[1])]
    np.savetxt(
        path,
        cols,
        delimiter=",",
        header=",".join(names) if header else "",
        comments="",
        fmt="%.17e",
    )


def field_to_binary(path, f: Field, n: int):
    """Header: algebra size n, N, L, kind; payload: row-major float64 samples."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        kind_bytes = f.kind.encode("ascii").ljust(16, b"\0")
        fh.write(struct.pack("<qqd", n, f.grid.num_points, f.grid.length))
        fh.write(kind_bytes)
        fh.write(struct.pack("<q", f.values.ndim))
        fh.write(struct.pack(f"<{f.values.ndim}q", *f.values.shape))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def field_from_binary(path):
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise DomainError("not a field snapshot file")
        n, num_points, length = struct.unpack("<qqd", fh.read(24))
        kind = fh.read(16).rstrip(b"\0").decode("ascii")
        (ndim,) = struct.unpack("<q", fh.read(8))
        shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return int(n), Field(PeriodicGrid(num_points, length), data.copy(), kind)


def report_to_json(path, report: dict):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
