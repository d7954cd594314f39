"""Discrete Fourier analysis on the unit circle.

Uniform power-of-two grids, numpy's FFT restricted to power-of-two lengths,
band-limited Fourier symbols stored as dense coefficient vectors, and their
trapezoidal Fourier coefficients from circle samples.
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


def fft(x) -> np.ndarray:
    """Discrete Fourier transform along the last axis (numpy's FFT).

    Unnormalised: ``X_k = sum_j x_j exp(-2 pi i j k / n)``.  The length of
    the last axis must be a power of two.
    """
    x = np.asarray(x, dtype=complex)
    if not _is_power_of_two(x.shape[-1]):
        raise ValueError("transform length must be a power of two")
    return np.fft.fft(x, axis=-1)


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
        self.__dict__.update(low=low, values=_read_only(values))

    @classmethod
    def _dense(cls, low: int, values: np.ndarray) -> "FourierSymbol":
        symbol = cls.__new__(cls)
        symbol.__dict__.update(low=low, values=_read_only(values))
        return symbol

    def _terms(self):
        """Nonzero ``(k, c_k)``, k ascending, as Python ``int`` and ``complex``."""
        # numpy multiplies an array by np.complex128 in a loop that can round differently
        for i in np.flatnonzero(self.values):
            yield int(self.low + i), complex(self.values[i])

    def coefficient(self, k: int) -> complex:
        i = k - self.low
        return complex(self.values[i]) if 0 <= i < self.values.size else 0j

    def indices(self):
        """Indices of the nonzero coefficients, ascending."""
        return [k for k, _ in self._terms()]

    def is_analytic(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.values[: max(0, -self.low)]) <= tol))

    def truncated(self, tol: float) -> "FourierSymbol":
        return FourierSymbol({k: v for k, v in self._terms() if abs(v) > tol})

    def evaluate(self, z):
        """Pointwise value ``sum_k c_k z^k`` (z nonzero when negative k occur).

        One Horner pass over the dense coefficients, times ``z^low``.  An analytic symbol drops its
        rounding-level negative band first (as ``fourier_coefficients`` leaves one), so it is finite in the disk.
        """
        z = np.asarray(z, dtype=complex)
        low = 0 if self.low < 0 and self.is_analytic() else self.low
        out = np.zeros(z.shape, dtype=complex)
        for v in self.values[low - self.low :][::-1]:
            out = out * z + v
        if low:
            out = out * z**low
        return out if out.ndim else complex(out)


def fourier_coefficients(samples) -> FourierSymbol:
    """Trapezoidal Fourier coefficients ``c_k = (1/M) sum_j f_j e^(-i k theta_j)``.

    Frequencies are mapped to ``(-M/2, M/2]``; exact for trigonometric
    polynomials of degree below M/2.
    """
    (m,) = np.shape(samples)  # a one-dimensional sequence of samples
    shift = (m - 1) // 2  # the roll moves frequency -shift from index m - shift to 0
    return FourierSymbol._dense(-shift, np.roll(fft(samples) / m, shift))
