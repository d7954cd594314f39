"""Discrete Fourier analysis on the unit circle.

Uniform power-of-two grids, numpy's FFT restricted to power-of-two lengths,
band-limited Fourier symbols, the normalised L2 inner product and the
coefficient form of the Poisson extension to the open disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid ``theta_j = 2 pi j / size`` with power-of-two size >= 4."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 4 or not _is_power_of_two(self.size):
            raise ValueError("grid size must be a power of two, at least 4")

    @property
    def nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.nodes)


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


@dataclass(frozen=True)
class FourierSymbol:
    """Finitely supported two-sided Fourier coefficients of a circle function.

    A symbol with vanishing negative coefficients represents an analytic
    (Hardy-class) function.
    """

    coefficients: dict

    def __post_init__(self):
        object.__setattr__(
            self,
            "coefficients",
            {int(k): complex(v) for k, v in self.coefficients.items()},
        )

    def coefficient(self, k: int) -> complex:
        return self.coefficients.get(k, 0j)

    @property
    def band_limit(self) -> int:
        if not self.coefficients:
            return 0
        return max(abs(k) for k in self.coefficients)

    def indices(self):
        return sorted(self.coefficients)

    def is_analytic(self, tol: float = 1e-12) -> bool:
        return all(abs(v) <= tol for k, v in self.coefficients.items() if k < 0)

    def conjugate(self) -> "FourierSymbol":
        """Symbol of the complex conjugate function: k -> conj(c_{-k})."""
        return FourierSymbol({-k: np.conj(v) for k, v in self.coefficients.items()})

    def truncated(self, tol: float) -> "FourierSymbol":
        return FourierSymbol({k: v for k, v in self.coefficients.items() if abs(v) > tol})

    def evaluate(self, z):
        """Pointwise value ``sum_k c_k z^k`` (z nonzero when negative k occur)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for k, v in self.coefficients.items():
            out = out + v * z ** k
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
    samples = np.asarray(samples, dtype=complex)
    m = samples.shape[-1]
    spectrum = fft(samples) / m
    coeffs = {}
    for k in range(m):
        freq = k if k <= m // 2 else k - m
        coeffs[freq] = complex(spectrum[k])
    return FourierSymbol(coeffs)


def synthesize(symbol: FourierSymbol, grid: CircleGrid) -> np.ndarray:
    """Samples of the symbol on the grid (inverse of coefficient extraction)."""
    m = grid.size
    if symbol.band_limit > m // 2:
        raise ValueError("band limit exceeds the grid Nyquist frequency")
    spectrum = np.zeros(m, dtype=complex)
    for k, v in symbol.coefficients.items():
        spectrum[k % m] += v
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
    for k, v in symbol.coefficients.items():
        out = out + v * r ** abs(k) * np.exp(1j * k * theta)
    return out if out.ndim else complex(out)
