"""Truncated matrix models of Toeplitz and composition operators.

An N x N matrix stands for the compression of a Hardy-space operator to
``span{1, z, ..., z^(N-1)}``.  Identities that hold exactly (or modulo
compact operators) upstairs are tested on an m x m corner whose guard band
``N - m`` absorbs truncation spill-over.  Column j of the composition matrix
C holds the first N Taylor coefficients of R^j, exactly: N limits a column,
no grid does.  ``R(0) = 0`` makes C lower triangular, so a corner reads only
the first m columns of C, and a Toeplitz operator acts on them as one FFT
convolution.  A modulo-compact identity is read from the Toeplitz symbol of
its residual: every trailing corner of a Toeplitz section is a leading
section of the same symbol.  Residual norms are exact, from numpy's SVD,
which costs about a millisecond on an m x m corner.  A large section is
first compared with a certified bound: it has norm at most its symbol's
supremum on the circle, which one zero-padded FFT and Bernstein's inequality
bound from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct
from .circle import CircleGrid, FourierSymbol, fourier_coefficients

_TINY = 1e-150


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite section of a Hardy-space operator, with a provenance label."""

    entries: np.ndarray
    label: str

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must form a square matrix")
        if entries.shape[0] < 2:
            raise ValueError("truncation dimension must be at least 2")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if not self.label:
            raise ValueError("label must be nonempty")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.entries.conj().T, f"({self.label})*")

    def corner(self, m: int) -> np.ndarray:
        return np.array(self.entries[:m, :m])

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator(self.entries @ other.entries, f"{self.label}·{other.label}")

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator(self.entries - other.entries, f"{self.label} - {other.label}")

    @staticmethod
    def identity(n: int) -> "TruncatedOperator":
        return TruncatedOperator(np.eye(n, dtype=complex), "I")


def _toeplitz_block(a: FourierSymbol, rows: int, cols: int) -> np.ndarray:
    """Leading ``rows x cols`` block of the Toeplitz matrix: ``[i, j] = a_hat(i - j)``."""
    # band[t] = a_hat(rows - 1 - t), zero outside the stored values; row i starts at rows - 1 - i
    padded = np.concatenate(([0j], a.values, [0j]))
    band = padded[np.clip(np.arange(rows, -cols, -1) - a.low, 0, padded.size - 1)]
    return np.lib.stride_tricks.sliding_window_view(band, cols)[:rows][::-1].copy()


def _toeplitz_apply(a: FourierSymbol, x: np.ndarray) -> np.ndarray:
    """``T_a x`` for the N x N section of ``T_a`` and an N x k block x, by FFT convolution."""
    n = x.shape[0]
    # row i of T_a x is entry N - 1 + i of x convolved with a_hat(1 - N), ..., a_hat(N - 1),
    # the section's first row reversed and then its first column; at length 2N nothing wraps onto it
    band = np.concatenate((_toeplitz_block(a, 1, n)[0, :0:-1], _toeplitz_block(a, n, 1)[:, 0]))
    spectrum = np.fft.fft(x, 2 * n, axis=0)
    spectrum *= np.fft.fft(band, 2 * n)[:, None]
    return np.fft.ifft(spectrum, axis=0)[n - 1 : 2 * n - 1].copy()


def toeplitz_matrix(a: FourierSymbol, n_trunc: int, label: str = "T_a") -> TruncatedOperator:
    """Multiplication compressed to the analytic side: ``entries[i, j] = a_hat(i - j)``."""
    return TruncatedOperator(entries=_toeplitz_block(a, n_trunc, n_trunc), label=label)


def _flush(x: np.ndarray) -> np.ndarray:
    # No residual sees entries this small, and their subnormal products slow
    # np.convolve several-fold.
    return np.where(np.abs(x) < _TINY, 0.0, x)


@lru_cache(maxsize=4)
def _power_spectra(product: BlaschkeProduct, n_trunc: int, cols: int) -> np.ndarray:
    """Columns ``j < cols`` of C, the first N Taylor coefficients of R^j (read-only).

    R multiplies its factors' series ``-a + sum_k (1 - |a|^2) conj(a)^(k-1) z^k``
    and column ``j + 1`` is column j times R, each truncated at N: nothing is
    aliased, and the leading block does not depend on N.
    """
    taylor = np.zeros(n_trunc, dtype=complex)
    taylor[0] = product.phase
    for a in product.zeros:
        factor = np.concatenate(([-a], (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(n_trunc - 1)))
        taylor = _flush(np.convolve(taylor, _flush(factor))[:n_trunc])
    powers = np.zeros((cols, n_trunc), dtype=complex)
    powers[0, 0] = 1.0
    for j in range(1, cols):
        powers[j] = _flush(np.convolve(powers[j - 1], taylor)[:n_trunc])
    powers.setflags(write=False)
    return powers.T


def composition_matrix(product: BlaschkeProduct, n_trunc: int) -> TruncatedOperator:
    """Truncated composition operator: column j holds the exact Taylor coefficients of R^j."""
    return TruncatedOperator(entries=_power_spectra(product, n_trunc, n_trunc), label="C_R")


def _power_iteration(block: np.ndarray, tol: float, max_iter: int):
    """Largest singular value of a block via power iteration on ``A* A``.

    No residual calls it (:func:`_matrix_norm` is exact); it stays while
    ``perfbench/spans.py`` names it as a traced entry point.

    Steps apply ``A* (A v)`` until ``n // 2`` steps have cost as much as
    forming the n x n Gram matrix ``A* A``; later steps multiply by it.

    Returns ``(estimate, converged)``; clustered top singular values can
    stall the absolute-change criterion without hurting the estimate much.
    """
    if block.size == 0 or not np.any(block):
        return 0.0, True
    n = block.shape[1]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    gram = None
    previous = 0.0
    current = 0.0
    for step in range(max_iter):
        if step == n // 2:
            gram = block.conj().T @ block
        w = gram @ v if gram is not None else ((block @ v).conj() @ block).conj()
        current = float(np.linalg.norm(w))
        if current == 0.0:
            return 0.0, True
        v = w / current
        if abs(current - previous) <= tol * max(current, 1.0):
            return float(np.sqrt(current)), True
        previous = current
    return float(np.sqrt(current)), False


def _matrix_norm(block: np.ndarray) -> float:
    """Largest singular value, from numpy's SVD; 0.0 for an empty block."""
    block = np.asarray(block)
    return float(np.linalg.norm(block, 2)) if block.size else 0.0


def operator_norm(x: TruncatedOperator) -> float:
    """Operator (spectral) norm of the truncated operator."""
    return _matrix_norm(x.entries)


def isometry_residual(c, m: int) -> float:
    """Norm of the top-left m x m block of ``C* C - I``.

    ``c`` is a TruncatedOperator or its leading N x k columns, ``k >= m``.
    Zero for an isometry whose columns stay inside the truncation window;
    requires a guard band ``m <= N/2``.
    """
    cols = np.asarray(getattr(c, "entries", c))[:, :m]
    if m > cols.shape[0] // 2:
        raise ValueError("corner size must leave a guard band (m <= N/2)")
    return _matrix_norm(cols.conj().T @ cols - np.eye(m))


def covariance_residual(
    product: BlaschkeProduct,
    a: FourierSymbol,
    n_trunc: int,
    m: int,
    grid: CircleGrid,
) -> float:
    """Corner norm of ``C* T_a C - T_(L a)``.

    The symbol of ``L a`` comes from the pointwise transfer oracle, keeping
    the two sides of the identity on independent numerical routes.
    """
    from .transfer import TransferOperator

    if m > n_trunc // 4:
        raise ValueError("corner size must leave a guard band (m <= N/4)")
    cols = _power_spectra(product, n_trunc, m)
    t_image = _toeplitz_block(TransferOperator(product).symbol_image(a.evaluate, grid), m, m)
    return _matrix_norm(cols.conj().T @ _toeplitz_apply(a, cols) - t_image)


def commutation_residual(
    product: BlaschkeProduct,
    b: FourierSymbol,
    n_trunc: int,
    m: int,
    grid: CircleGrid,
) -> float:
    """Corner norm of ``C T_b - T_(b o R) C`` for an analytic symbol b."""
    if not b.is_analytic():
        raise ValueError("commutation identity requires an analytic symbol")
    if m > n_trunc // 4:
        raise ValueError("corner size must leave a guard band (m <= N/4)")
    cols = _power_spectra(product, n_trunc, m)
    pullback = fourier_coefficients(b.evaluate(product.evaluate(grid.points)))
    t_pull = _toeplitz_block(pullback, m, n_trunc)
    # C[:m, :] = [C[:m, :m], 0], so (C T_b)[:m, :m] = C[:m, :m] T_b[:m, :m]
    return _matrix_norm(cols[:m] @ _toeplitz_block(b, m, m) - t_pull @ cols)


def tail_compactness_profile(d: FourierSymbol, n_trunc: int, cuts):
    """Corner norms ``||P_m^perp T_d P_m^perp||`` on the N x N section, for increasing cuts m.

    The trailing ``(N - m) x (N - m)`` corner of a Toeplitz section is the
    leading section of the same symbol (Boettcher-Silbermann), so each value
    is the norm of ``_toeplitz_block(d, N - m, N - m)``.  Corners of
    compressions never grow under nesting, so the profile is monotone
    nonincreasing by construction; what carries information is how fast it
    decays.  An empty corner, from a cut at or past N, has norm zero.  Each
    value is an exact SVD, cubic in ``N - m``; :func:`_symbol_sup_bound`
    bounds them all from one FFT.
    """
    cuts = [int(c) for c in cuts]
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])) or not cuts:
        raise ValueError("cuts must be strictly increasing and nonempty")
    if cuts[0] < 0:
        raise ValueError("cuts must be nonnegative")
    sizes = [n_trunc - m for m in cuts]
    return [_matrix_norm(_toeplitz_block(d, k, k)) if k > 0 else 0.0 for k in sizes]


def _symbol_sup_bound(d: FourierSymbol) -> float:
    """Certified upper bound on ``sup |d|`` over the unit circle.

    ``|d| = |z^(-c) d|`` for the centre ``c`` of the band, a trigonometric
    polynomial of degree ``h = (len - 1) / 2``, so Bernstein's inequality
    gives ``|d|' <= h sup|d|``.  Every point of the circle lies within
    ``pi / L`` of one of L equispaced samples, hence
    ``sup|d| <= max|samples| / (1 - pi h / L)``; one zero-padded FFT of the
    coefficients at ``L >= 16 (h + 1)`` points gives the samples, and the
    bound is at most ``1 / (1 - pi / 16) ~ 1.25`` times the largest of them.
    Every section of ``T_d``, so every value of
    :func:`tail_compactness_profile`, is at most this bound.
    """
    size = d.values.size
    if not size:
        return 0.0
    length = 1 << (8 * (size + 1) - 1).bit_length()  # the power of two >= 16 (h + 1)
    peak = float(np.max(np.abs(np.fft.fft(d.values, length))))
    return peak / (1.0 - np.pi * (size - 1) / (2 * length))
