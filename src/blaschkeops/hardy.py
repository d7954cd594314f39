"""Truncated matrix models of Toeplitz and composition operators.

An N x N matrix stands for the compression of a Hardy-space operator to
``span{1, z, ..., z^(N-1)}``.  Column j of the composition matrix C holds
the first N Taylor coefficients of R^j, exactly, from the partial products
that also give the Cuntz family's frame series.  ``R(0) = 0`` makes C lower
triangular, so a corner reads only the first m columns of C, and ``|R| = 1``
on the circle makes ``C* T_a C`` Toeplitz on H^2: one routine streams the
columns of C into its symbol for a batch of symbols a, with no N.  A
Toeplitz operator has the norm ``sup |d|`` of its symbol d, and one rule
values every symbol residual: one zero-padded FFT samples d, and the
largest sample and Bernstein's inequality bracket ``sup |d|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .blaschke import BlaschkeProduct
from .circle import CircleGrid, FourierSymbol, _read_only, fft
from .transfer import TransferOperator, transfer_grid


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
        object.__setattr__(self, "entries", _read_only(entries))

    def __matmul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return TruncatedOperator(self.entries @ other.entries, f"{self.label}·{other.label}")


def _toeplitz_block(a: FourierSymbol, rows: int, cols: int) -> np.ndarray:
    """Leading ``rows x cols`` block of the Toeplitz matrix: ``[i, j] = a_hat(i - j)``."""
    # band[t] = a_hat(rows - 1 - t), zero outside the stored values; row i starts at rows - 1 - i
    padded = np.concatenate(([0j], a.values, [0j]))
    band = padded[np.clip(np.arange(rows, -cols, -1) - a.low, 0, padded.size - 1)]
    return np.lib.stride_tricks.sliding_window_view(band, cols)[:rows][::-1].copy()


def toeplitz_matrix(a: FourierSymbol, n_trunc: int, label: str = "T_a") -> TruncatedOperator:
    """Multiplication compressed to the analytic side: ``entries[i, j] = a_hat(i - j)``."""
    return TruncatedOperator(entries=_toeplitz_block(a, n_trunc, n_trunc), label=label)


def _partial_products(product: BlaschkeProduct, rows: int):
    """Yields the first ``rows`` Taylor coefficients of the partial products ``R_0 = 1, ..., R_n = R / phase``
    of the factors' series ``-a + sum_k (1 - |a|^2) conj(a)^(k-1) z^k``; each product is cut at
    ``rows`` and taken by FFTs of length ``2 rows``, so nothing wraps and no grid aliases."""
    size = 2 * rows
    taylor = np.eye(1, rows, dtype=complex)[0]
    yield taylor
    for a in product.zeros:
        factor = np.concatenate(([-a], (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(rows - 1)))
        taylor = np.fft.ifft(np.fft.fft(taylor, size) * np.fft.fft(factor, size))[:rows]
        yield taylor


def _taylor_columns(product: BlaschkeProduct, rows: int):
    """Yields the columns j = 0, 1, ... of C, the first ``rows`` Taylor coefficients of R^j: R is the
    phase times ``R_n`` of :func:`_partial_products`, and column ``j + s`` is column j times column s,
    so one FFT of column j and the kept spectra of the columns ``s = 1, ..., 16`` give the next 16,
    each cut at ``rows``.  ``R(0) = 0``: column j is formed on rows ``>= j``, and C stays lower triangular."""
    size = 2 * rows
    *_, taylor = _partial_products(product, rows)
    column, j, steps = np.eye(1, rows, dtype=complex)[0], 0, np.fft.fft(product.phase * taylor, size)[None]
    yield column
    while True:  # the columns j + 1, ..., j + len(steps): column j times those whose spectra steps holds
        block = np.triu(np.fft.ifft(np.fft.fft(column, size) * steps)[:, :rows], j + 1)
        yield from block
        if j == len(steps) < 16:  # the block continues the columns 1, ..., len(steps)
            steps = np.concatenate((steps, np.fft.fft(block, size)))
        j, column = j + len(block), block[-1]


@lru_cache(maxsize=4)
def _power_spectra(product: BlaschkeProduct, n_trunc: int, cols: int) -> np.ndarray:
    """Columns ``j < cols`` of C, N rows each (read-only), from :func:`_taylor_columns`."""
    return _read_only(np.stack(list(islice(_taylor_columns(product, n_trunc), cols)), axis=1))


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
    """Norm of the top-left m x m block of ``C* C - I``, from ``c``, the first rows of ``k >= m`` columns of C.

    Zero for an isometry once those rows hold the columns' mass (``composition_isometry`` sizes them from the
    zeros, never below N); requires a guard band ``m <= rows/2``.
    """
    cols = np.asarray(c)[:, :m]
    if m > cols.shape[0] // 2:
        raise ValueError("corner size must leave a guard band (m <= rows/2)")
    return _matrix_norm(cols.conj().T @ cols - np.eye(m))


def _left_symbols(product: BlaschkeProduct, below, width: int) -> np.ndarray:
    """Coefficients ``-d``, ``d < width``, of the symbol of ``C* T_a C`` (Toeplitz on H^2, as ``|R| = 1``), one
    row per row ``below[..., t] = a_hat(-t)``, ``t < K``: ``sum_t a_hat(-t) C[t, d]``; the columns of the lower
    triangular C stream from :func:`_taylor_columns`, K rows each, and no ``K x width`` block is kept."""
    out = np.empty(below.shape[:-1] + (width,), dtype=complex)
    for d, column in enumerate(islice(_taylor_columns(product, below.shape[-1]), width)):
        out[..., d] = below[..., d:] @ column[d:]
    return out


def covariance_residual(product: BlaschkeProduct, symbols, *, tol: float = np.inf) -> list:
    """Norms on H^2 of ``C* T_a C - T_(L a)``, one per symbol a of the sequence, valued by :func:`_certified_norms`.

    The symbol s of ``C* T_a C`` has ``s_hat(-d)`` from the rows ``a_hat(-t)`` and ``conj(s_hat(d))`` from the rows
    ``conj(a_hat(t))`` (:func:`_left_symbols`); for the union band ``|k| <= B`` of the symbols both need ``t, d <= B``.
    ``L`` is linear, so every ``L a`` combines the monomial images of the pointwise transfer oracle, an independent
    route; ``L(z^q)`` has degree ``|q|`` at most: ``4 (2B + 1)`` points hold every image.
    """
    low = min(s.low for s in symbols)
    band = max(-low, max(s.low + s.values.size for s in symbols) - 1, 0)  # the union band |k| <= B
    coeffs = np.zeros((len(symbols), 2 * band + 1), dtype=complex)  # [r, B + k] = a_hat(k)
    for row, s in zip(coeffs, symbols):
        row[band + s.low : band + s.low + s.values.size] = s.values
    grid = transfer_grid(4 * (2 * band + 1))
    images = coeffs @ TransferOperator(product).monomial_samples(-band, band + 1, grid)
    rows = np.concatenate((coeffs[:, band::-1], coeffs[:, band:].conj()))
    below, above = np.split(_left_symbols(product, rows, band + 1), 2)  # [r, d]: s_hat(-d), conj(s_hat(d))
    left = np.concatenate((below[:, :0:-1], above.conj()), axis=1)
    right = fft(images)[:, np.arange(-band, band + 1) % grid.size] / grid.size
    return _certified_norms(left - right, tol)[1]


def commutation_residual(product: BlaschkeProduct, symbols, m: int, grid: CircleGrid) -> list:
    """Corner norms of ``C T_b - T_(b o R) C``, one per analytic symbol b of the sequence.  All three are lower
    triangular, as ``R(0) = 0``, so the m x m corner is ``C[:m, :m] T_b[:m, :m] - T_(b o R)[:m, :m] C[:m, :m]``
    and needs no guard band.  ``T_(b o R)`` reads only coefficients ``0 <= k < m`` of ``b o R``, on ``grid`` of
    G >= m points: bin k adds ``k + G, k + 2G, ...``, below rounding once those of ``R^B`` past G are (b of band B)."""
    if not all(s.is_analytic() for s in symbols):
        raise ValueError("commutation identity requires an analytic symbol")
    if grid.size < m:
        raise ValueError("grid must hold m points")
    corner, images = _power_spectra(product, m, m), product.evaluate(grid.points)
    series = (FourierSymbol._dense(0, fft(s.evaluate(images))[:m] / grid.size) for s in symbols)
    return [
        _matrix_norm(corner @ _toeplitz_block(s, m, m) - _toeplitz_block(t, m, m) @ corner)
        for s, t in zip(symbols, series)
    ]


def _certified_norms(rows, tol: float) -> tuple:
    """``(bounds, values)`` for the Toeplitz operators of rows of symbol coefficients along the last axis of
    ``rows`` (each a dense band, as ``FourierSymbol.values`` holds it), whose norms are ``sup |d|``.

    ``|d| = |z^(-c) d|`` for the centre ``c`` of the band, a trigonometric
    polynomial of degree ``h = (len - 1) / 2``, so Bernstein's inequality
    gives ``|d|' <= h sup|d|``.  Every point of the circle lies within
    ``pi / L`` of one of L equispaced samples, hence the largest sample
    ``peak`` has ``peak <= sup|d| <= peak / (1 - pi h / L)``, the bound; one
    zero-padded FFT of the rows at ``L >= 16 (h + 1)`` points gives the
    samples, and each bound is at most ``1 / (1 - pi / 16) ~ 1.25`` times its
    peak; a row whose peak is within ``tol`` and bound is not is sampled again
    at twice the length, at most six times.  A row's value is its peak where
    that exceeds ``tol``, a sound FAIL, and its bound otherwise: a sound PASS
    within ``tol``, and past it a FAIL that no bound could certify.
    """
    size = np.shape(rows)[-1]  # an empty band samples zeros and reads 0.0
    length = 1 << (8 * (size + 1) - 1).bit_length()  # the power of two >= 16 (h + 1)
    peaks = np.asarray(np.max(np.abs(np.fft.fft(rows, length, axis=-1)), axis=-1))
    bounds = np.asarray(peaks / (1.0 - np.pi * (size - 1) / (2 * length)))
    for _ in range(6):
        open_ = (peaks <= tol) & (bounds > tol)
        if not open_.any():
            break
        length *= 2
        peaks[open_] = np.max(np.abs(np.fft.fft(rows[open_], length, axis=-1)), axis=-1)
        bounds[open_] = peaks[open_] / (1.0 - np.pi * (size - 1) / (2 * length))
    return bounds.tolist(), np.where(peaks > tol, peaks, bounds).tolist()
