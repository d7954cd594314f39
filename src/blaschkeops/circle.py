"""Discrete Fourier analysis on the unit circle.

Uniform power-of-two grids, numpy's FFT restricted to power-of-two lengths,
band-limited Fourier symbols stored as dense coefficient vectors, the
normalised L2 inner product and the coefficient form of the Poisson extension
to the open disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid ``theta_j = 2 pi j / size`` with power-of-two size >= 4.

    ``nodes`` and ``points`` are computed once per grid and read-only; a
    caller that writes into one copies it first.
    """

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 4 or not _is_power_of_two(self.size):
            raise ValueError("grid size must be a power of two, at least 4")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * np.arange(self.size) / self.size)

    @cached_property
    def points(self) -> np.ndarray:
        return _read_only(np.exp(1j * self.nodes))


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _check_length(x: np.ndarray) -> None:
    if not _is_power_of_two(x.shape[-1]):
        raise ValueError("transform length must be a power of two")


def fft(x) -> np.ndarray:
    """Discrete Fourier transform along the last axis (numpy's FFT).

    Unnormalised: ``X_k = sum_j x_j exp(-2 pi i j k / n)``.  The length of
    the last axis must be a power of two.
    """
    x = np.asarray(x, dtype=complex)
    _check_length(x)
    return np.fft.fft(x, axis=-1)


def ifft(x) -> np.ndarray:
    """Inverse of :func:`fft`, normalised by 1/n."""
    x = np.asarray(x, dtype=complex)
    _check_length(x)
    return np.fft.ifft(x, axis=-1)


@dataclass(frozen=True, init=False, eq=False)
class FourierSymbol:
    """Finitely supported two-sided Fourier coefficients of a circle function.

    Built from a map ``{k: c_k}`` and stored densely: ``values[i]`` (read-only)
    is the coefficient of ``z^(low + i)``.  A symbol with vanishing negative
    coefficients represents an analytic (Hardy-class) function.
    """

    low: int
    values: np.ndarray

    def __init__(self, coefficients: dict):
        coefficients = {int(k): complex(v) for k, v in coefficients.items()}
        low = min(coefficients, default=0)
        values = np.zeros(max(coefficients, default=low - 1) + 1 - low, dtype=complex)
        values[[k - low for k in coefficients]] = list(coefficients.values())
        values.setflags(write=False)
        self.__dict__.update(low=low, values=values)

    @classmethod
    def _dense(cls, low: int, values: np.ndarray) -> "FourierSymbol":
        symbol = cls.__new__(cls)
        values.setflags(write=False)
        symbol.__dict__.update(low=low, values=values)
        return symbol

    def _terms(self):
        """Nonzero ``(k, c_k)``, k ascending, as Python ``int`` and ``complex``."""
        # numpy multiplies an array by np.complex128 in a loop that can round differently
        for i in np.flatnonzero(self.values):
            yield int(self.low + i), complex(self.values[i])

    def coefficient(self, k: int) -> complex:
        i = k - self.low
        return complex(self.values[i]) if 0 <= i < self.values.size else 0j

    @property
    def band_limit(self) -> int:
        return max(-self.low, self.low + self.values.size - 1) if self.values.size else 0

    def indices(self):
        """Indices of the nonzero coefficients, ascending."""
        return [k for k, _ in self._terms()]

    def is_analytic(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.values[: max(0, -self.low)]) <= tol))

    def conjugate(self) -> "FourierSymbol":
        """Symbol of the complex conjugate function: k -> conj(c_{-k})."""
        return FourierSymbol._dense(1 - self.low - self.values.size, self.values[::-1].conj())

    def truncated(self, tol: float) -> "FourierSymbol":
        return FourierSymbol({k: v for k, v in self._terms() if abs(v) > tol})

    def evaluate(self, z):
        """Pointwise value ``sum_k c_k z^k`` (z nonzero when negative k occur).

        One Horner pass over the dense coefficients, times ``z^low``.
        """
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for v in self.values[::-1]:
            out = out * z + v
        if self.low:
            out = out * z**self.low
        return out if out.ndim else complex(out)


def sample(f, grid: CircleGrid) -> np.ndarray:
    """Values of ``f`` at the grid points ``e^(i theta_j)``.

    ``f`` is called once with the whole point array; a callable that only
    supports scalars is evaluated pointwise instead.  Evaluation failures
    propagate.
    """
    pts = grid.points
    try:
        vals = np.asarray(f(pts), dtype=complex)
        if vals.shape != pts.shape:
            raise TypeError
    except (TypeError, AttributeError):
        vals = np.array([complex(f(p)) for p in pts])
    return vals


def fourier_coefficients(samples) -> FourierSymbol:
    """Trapezoidal Fourier coefficients ``c_k = (1/M) sum_j f_j e^(-i k theta_j)``.

    Frequencies are mapped to ``(-M/2, M/2]``; exact for trigonometric
    polynomials of degree below M/2.
    """
    (m,) = np.shape(samples)  # a one-dimensional sequence of samples
    shift = (m - 1) // 2  # the roll moves frequency -shift from index m - shift to 0
    return FourierSymbol._dense(-shift, np.roll(fft(samples) / m, shift))


def synthesize(symbol: FourierSymbol, grid: CircleGrid) -> np.ndarray:
    """Samples of the symbol on the grid (inverse of coefficient extraction)."""
    m = grid.size
    if symbol.band_limit > m // 2:
        raise ValueError("band limit exceeds the grid Nyquist frequency")
    spectrum = np.zeros(m, dtype=complex)
    np.add.at(spectrum, (symbol.low + np.arange(symbol.values.size)) % m, symbol.values)
    return ifft(spectrum) * m


def l2_inner(f, g) -> complex:
    """Normalised inner product ``(1/M) sum_j f_j conj(g_j)``.

    Linear in the first argument; by Parseval this equals the coefficient
    pairing ``sum_k c_k conj(d_k)``.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape:
        raise ValueError("inner product requires samples of equal length")
    return complex(np.sum(f * np.conj(g)) / f.shape[-1])


def poisson_extension(symbol: FourierSymbol, r: float, theta):
    """Harmonic extension ``sum_k c_k r^|k| e^(i k theta)`` for ``0 <= r < 1``.

    For an analytic symbol this is the analytic extension into the disk.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("radius must satisfy 0 <= r < 1")
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape, dtype=complex)
    for k, v in symbol._terms():
        out = out + v * r ** abs(k) * np.exp(1j * k * theta)
    return out if out.ndim else complex(out)
