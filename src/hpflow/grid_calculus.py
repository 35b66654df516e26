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
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonlocalityError

_KIND_NDIM = {"real": 1, "iquat": 2, "quat": 2, "qvec": 3, "qmat": 4}
KINDS = tuple(_KIND_NDIM)

DEFAULT_MEAN_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PeriodicGrid:
    num_points: int
    length: float

    def __post_init__(self):
        if self.num_points < 8:
            raise DomainError("need at least 8 grid points")
        if not 0 < self.length < math.inf:
            raise DomainError(f"domain length {self.length} must be positive and finite")

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

    def deriv_symbols(self, orders: tuple, trailing: tuple = ()) -> np.ndarray:
        """Stacked multipliers (ik)^p on the rfft modes, repeated over the
        `trailing` axes of the sampled values: shape (len(orders), N//2 + 1)
        + trailing, the shape of the stacked transforms they multiply.

        The even-N Nyquist row is zero: that mode carries no signed
        derivative.  Built once per grid, tuple of orders and trailing shape.
        """
        symbols = self._deriv_symbols.get((orders, trailing))
        if symbols is None:
            symbols = np.stack([(1j * self.wavenumbers) ** p for p in orders])
            if self.num_points % 2 == 0:
                symbols[:, -1] = 0.0
            # stored at full shape: a product broadcast along a short axis,
            # such as the quaternion axis, costs twice as much
            unit_axes = symbols.reshape(symbols.shape + (1,) * len(trailing))
            symbols = np.broadcast_to(unit_axes, symbols.shape + trailing).copy()
            self._deriv_symbols[orders, trailing] = symbols
        return symbols

    @cached_property
    def _dealias_cuts(self) -> dict:
        return {}

    def dealias_cut(self, fraction: float) -> int:
        """First rfft mode the dealias filter drops: it keeps the wavenumbers
        <= fraction * pi / dx.  Found once per grid and per fraction."""
        cuts = self._dealias_cuts
        if fraction not in cuts:
            kept = self.wavenumbers <= fraction * np.pi / self.dx
            cuts[fraction] = int(np.count_nonzero(kept))
        return cuts[fraction]

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
    orders = order if isinstance(order, tuple) else (order,)
    symbols = grid.deriv_symbols(orders, values.shape[1:])
    F = np.fft.rfft(values, axis=0)[None] * symbols
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


def guarded_antideriv(
    values: np.ndarray, grid: PeriodicGrid, tol: float, block: str, ref: float = 0.0
) -> np.ndarray:
    """Zero-mean antiderivative of a sample array, the one D_x^{-1} mean guard.

    The mean check is relative to max(integrand rms, ref); the reference scale
    lets integrands that vanish identically up to roundoff pass.  A larger
    mean raises NonlocalityError tagged with `block`.
    """
    means = np.mean(values, axis=0)
    scale = float(np.sqrt(np.mean(values**2))) if values.size else 0.0
    worst = float(np.max(np.abs(means))) if means.size else 0.0
    if worst > tol * max(scale, ref, 1e-300):
        raise NonlocalityError(block, worst, scale, tol)
    return spectral_antideriv(values, grid)


def spectral_refine(
    values: np.ndarray, grid: PeriodicGrid, factor: int, axis: int = 0
) -> np.ndarray:
    """Band-limited upsampling by an integer factor along `axis`, the axis of
    the grid samples; every line along it is transformed on its own."""
    if factor == 1:
        return values.copy()
    F = np.fft.rfft(values, axis=axis)
    lead = (slice(None),) * (axis % values.ndim)  # index along `axis`
    n_fine = grid.num_points * factor
    shape = list(F.shape)
    shape[axis] = n_fine // 2 + 1
    pad = np.zeros(shape, dtype=complex)
    pad[lead + (slice(F.shape[axis]),)] = F
    if grid.num_points % 2 == 0:
        pad[lead + (F.shape[axis] - 1,)] *= 0.5  # split the Nyquist mode symmetrically
    out = np.fft.irfft(pad, n=n_fine, axis=axis)
    out *= factor
    return out


def dealias_values(
    values: np.ndarray, grid: PeriodicGrid, fraction: float = 2.0 / 3.0, orders: tuple = ()
) -> np.ndarray:
    """The values with every rfft mode above the dealias cut set to zero.

    With derivative `orders`, the result is the stack [dealiased values,
    their x-derivatives of those orders], shape (1 + len(orders),) +
    values.shape, from the one masked spectrum: one rfft and one batched
    irfft.  Each line is its own inverse transform, so the first row equals
    the values alone bit for bit.
    """
    F = np.fft.rfft(values, axis=0)
    F[grid.dealias_cut(fraction):] = 0.0
    if not orders:
        return np.fft.irfft(F, n=grid.num_points, axis=0)
    stack = np.empty((1 + len(orders),) + F.shape, complex)
    stack[0] = F
    np.multiply(F, grid.deriv_symbols(orders, values.shape[1:]), out=stack[1:])
    return np.fft.irfft(stack, n=grid.num_points, axis=1)


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
        expected_ndim = _KIND_NDIM[self.kind]
        if self.values.ndim != expected_ndim:
            raise DimensionMismatchError(
                f"kind {self.kind!r} expects {expected_ndim} axes, got {self.values.ndim}"
            )

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))


def integrate(f: Field):
    """Rectangle quadrature, exact for trigonometric polynomials below Nyquist."""
    out = np.sum(f.values, axis=0) * f.grid.dx
    return float(out) if f.kind == "real" else out


# -- serialization -----------------------------------------------------------

_MAGIC = b"QFLD0001"


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


# values formatted per % operation: a block's text stays near 200 kB however
# large the array
_CSV_BLOCK_VALUES = 1 << 13


def array_to_csv(path, data, header: str = "", comments: str = "# "):
    """Write the rows of a 2-D array as full-precision CSV, byte for byte what
    np.savetxt(path, data, delimiter=",", fmt="%.17e", header=header,
    comments=comments) writes for a one-line header.  Each block of rows is
    formatted by one % operation."""
    rows, cols = data.shape
    row_fmt = ",".join(["%.17e"] * cols) + "\n"
    block = max(1, _CSV_BLOCK_VALUES // cols)
    with open(path, "w") as fh:
        if header:
            fh.write(comments + header + "\n")
        for start in range(0, rows, block):
            chunk = data[start : start + block]
            fh.write(row_fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def report_to_json(path, report: dict):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
