"""Rational orthonormal basis adapted to a Blaschke product, and the
isometry family it induces.

With zero sequence ``beta_{kn+l} = z_l`` (the product's zeros repeated
periodically) and phases ``alpha_{kn+l} = phase^k``, the Takenaka-Malmquist
elements form an orthonormal basis of the Hardy space that factors as
``e_{kn+l} = Q_l R_l R^k``.  The operators ``W_k = T_(Q_{k-1} R_{k-1}) C``
are isometries with mutually orthogonal ranges summing to the identity - a
concrete family satisfying the Cuntz relations.  ``W_i* W_j`` is Toeplitz,
the left side of the bimodule relation ``V_p* V_q = T_<p,q>``, an identity
on H^2 (``T_conj(p) T_q = T_(conj(p) q)`` for analytic p); both read their
symbols through the left-symbol routine and the norm rule of
:mod:`~blaschkeops.hardy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb, log

import numpy as np

from .blaschke import BlaschkeProduct
from .circle import CircleGrid, _read_only, fft
from .hardy import TruncatedOperator, _certified_norms, _left_symbols, _matrix_norm, _partial_products, _power_spectra
from .transfer import TransferOperator, bimodule_inner_samples, transfer_grid

_MAX_GRAM_COUNT = 64
_MAX_GRID = 1 << 18  # the largest grid that a grid sized from the zeros holds
# A length K read for P columns or pairs holds about K max(P, 64) coefficients, 64 K being the 16 spectra and block
# on 2K points that _column_spectra keeps (the left symbols add 2 P K, the rows on 2K points); past 2^23 none is formed.
_MAX_COEFFICIENTS = 1 << 23
# The Gram rows take points in slices of at most this many.
_GRAM_BLOCK = 1024


@dataclass(frozen=True)
class TMBasis:
    """Takenaka-Malmquist system built from a product's zeros, n-periodically."""

    product: BlaschkeProduct
    count: int = 32

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("basis count must be positive")

    def alpha(self, l: int) -> complex:
        return self.product.phase ** (l // self.product.degree)

    def beta(self, l: int) -> complex:
        return self.product.zeros[l % self.product.degree]


def _elements(basis: TMBasis, count: int, z):
    """Yields the first ``count`` basis elements at z, ``alpha_l sqrt(1-|beta_l|^2)/(1 - conj(beta_l) z) B_l``:
    the partial product ``B_l`` of the earlier Blaschke factors gains one factor per element.  The elements of one
    zero (l and ``l + n`` for the periodic zeros) share its two quotients, dropped once no later element reads them."""
    betas, partial, kept = [basis.beta(l) for l in range(count)], np.ones(np.shape(z), dtype=complex), {}
    last = {beta: l for l, beta in enumerate(betas)}
    for l, beta in enumerate(betas):
        if beta not in kept:
            den = 1.0 - np.conj(beta) * z
            kept[beta] = np.sqrt(1.0 - abs(beta) ** 2) / den, den
        weight, den = kept.pop(beta) if last[beta] == l else kept[beta]
        yield basis.alpha(l) * weight * partial
        partial = partial * (z - beta) / den


def tm_element(basis: TMBasis, l: int, z):
    """Value of the l-th basis element at z (scalar or array, |z| <= 1)."""
    if l < 0:
        raise ValueError("basis index must be nonnegative")
    out = next(islice(_elements(basis, l + 1, np.asarray(z, dtype=complex)), l, None))
    return out if out.ndim else complex(out)


def factorization_residual(basis: TMBasis, powers: int, grid: CircleGrid) -> np.ndarray:
    """Sup over the grid of ``|e_{kn+l} - Q_l R_l R^k|`` for ``1 <= k <= powers``, as an array ``[k - 1, l]``
    (``k = 0`` would compare the frame ``Q_l R_l = e_l`` with itself); reads ``(powers + 1) n`` elements."""
    n = basis.product.degree
    if (powers + 1) * n > basis.count:
        raise ValueError("index exceeds the realized basis count")
    pts = grid.points
    elements = _elements(basis, (powers + 1) * n, pts)
    frame_vals = list(islice(elements, n))  # the frame: alpha_l = 1 for l < n
    comp = basis.product.evaluate(pts)
    out = np.empty((powers, n))
    power = comp
    for index, direct in enumerate(elements):
        k, l = divmod(index, n)
        out[k, l] = np.max(np.abs(direct - frame_vals[l] * power))
        if l == n - 1:
            power = power * comp
    return out


def gram_residual(basis: TMBasis, count: int, grid: CircleGrid) -> float:
    """Max deviation of the quadrature Gram matrix of the first ``count`` basis elements from the identity.

    The element rows fill one ``(count, _GRAM_BLOCK)`` block per slice of the grid, whose
    Gram products add up, so the rows never occupy ``(count, M)`` at once."""
    if count < 1 or count > _MAX_GRAM_COUNT:
        raise ValueError(f"gram count must lie in [1, {_MAX_GRAM_COUNT}]")
    if count > basis.count:
        raise ValueError("index exceeds the realized basis count")
    pts = grid.points
    block = np.empty((count, min(grid.size, _GRAM_BLOCK)), dtype=complex)
    gram = np.zeros((count, count), dtype=complex)
    for start in range(0, grid.size, block.shape[1]):
        part = pts[start : start + block.shape[1]]
        rows = block[:, : part.size]
        for row, element in zip(rows, _elements(basis, count, part)):
            row[:] = element
        gram += rows @ rows.conj().T
    return float(np.max(np.abs(gram / grid.size - np.eye(count))))


def cuntz_columns(product: BlaschkeProduct, cols: np.ndarray):
    """Yields ``T_(v_(k-1)) cols``, k = 1..n: the columns of ``W_k`` at an N x k block of C.  The frame
    series ``v_l = R_l sqrt(1 - |a_l|^2) conj(a_l)^t`` is cut at N before it meets the columns, and
    ``T_v`` of an analytic v is a causal convolution, so FFTs of length 2N take both products unwrapped."""
    rows = cols.shape[0]
    size = 2 * rows
    spectrum = np.fft.fft(cols, size, axis=0)
    for a, partial in zip(product.zeros, _partial_products(product, rows)):
        kernel = np.sqrt(1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(rows)
        series = np.fft.ifft(np.fft.fft(partial, size) * np.fft.fft(kernel, size))[:rows]
        yield np.fft.ifft(spectrum * np.fft.fft(series, size)[:, None], axis=0)[:rows]


def cuntz_family(product: BlaschkeProduct, n_trunc: int):
    """The n truncated isometries ``W_k = T_(Q_{k-1} R_{k-1}) C``, k = 1..n: ``W_k`` sends the
    j-th monomial to the basis element of index ``j n + (k-1)``."""
    columns = cuntz_columns(product, _power_spectra(product, n_trunc, n_trunc))
    return [TruncatedOperator(w, label=f"W{k + 1}") for k, w in enumerate(columns)]


def cons_residual(corners, gram, *, tol: float = np.inf) -> dict:
    """Cuntz-relation residuals of ``W_k = T_(v_(k-1)) C``: the dict of ``completeness`` ``||sum_k W_k W_k* - I||``
    on the corner, from the m x m ``corners`` that hold the first m rows of the lower triangular ``W_k``, and, on
    H^2, ``isometry`` ``max_k ||W_k* W_k - I||`` and ``orthogonality`` ``max_(k < j) ||W_k* W_j||`` by
    :func:`~blaschkeops.hardy._certified_norms` of ``gram[i, j]``, the symbol of ``n W_i* W_j``, as
    ``W_i* W_j = C* T_(conj(v_i) v_j) C`` is Toeplitz (:func:`inner_product_residual`'s left side)."""
    stacked, n, centre = np.hstack(list(corners)), len(gram), gram.shape[-1] // 2
    isometry = orthogonality = 0.0
    for k, row in enumerate(gram):  # one FFT per row of pairs (k, j >= k)
        rows = row[k:] / n
        rows[0, centre] -= 1.0
        _, norms = _certified_norms(rows, tol)
        isometry, orthogonality = max(isometry, norms[0]), max([orthogonality, *norms[1:]])
    completeness = _matrix_norm(stacked @ stacked.conj().T - np.eye(len(stacked)))
    return {"completeness": completeness, "isometry": isometry, "orthogonality": orthogonality}


def frame(product: BlaschkeProduct):
    """The frame ``v_l = Q_l R_l``, l = 0..n-1, as one map from points to the stack of their
    values: the first n basis elements, since ``alpha_l = 1`` for ``l < n``."""
    basis = TMBasis(product)
    return lambda z: np.array(list(_elements(basis, product.degree, np.asarray(z, dtype=complex))))


class _Unresolved(ValueError):
    """A length past its cap, never formed: ``args[0]`` is ``{name + "_needed": length}``, a FAIL's ``details``."""


def _needed_length(product: BlaschkeProduct, power: int, least: int, cap=_MAX_GRID, name: str = "grid") -> int:
    """The power of two, at least ``least``, past which the Taylor coefficients of a function with the poles
    of ``R^power`` fall below rounding: a pole of order m at ``1 / conj(z)`` adds ``binom(t + m - 1, m - 1) |z|^t``.
    A length past ``cap`` raises :class:`_Unresolved` with ``{name + "_needed": length}``."""
    size = 1 << (least - 1).bit_length()
    zeros = {z: power * product.zeros.count(z) for z in product.zeros if z and power}  # multiplicities
    while any(log(comb(size + m - 1, m - 1)) + size * log(abs(z)) > log(1e-16) for z, m in zeros.items()):
        size *= 2
    if size > cap:
        raise _Unresolved({f"{name}_needed": size})
    return size


def inner_product_residual(product: BlaschkeProduct, stack, n_trunc: int) -> tuple:
    """The two sides of ``V_p* V_q = T_<p,q>`` as Toeplitz symbols, coefficients ``|k| < w = min(N, K)``, for
    every pair ``(p, q) = (v_i, v_j)`` of the P functions that ``stack`` maps points to (as :func:`frame`
    does): ``(left, right, K)``, two read-only ``(P, P, 2w - 1)`` arrays whose entries ``[i, j, w - 1 + k]`` are
    coefficient k of the pair ``(v_i, v_j)`` and the Taylor length they read; the residual symbols are ``left - right``.

    The left side, the Gram matrix ``n <q R^j, p R^i>`` of ``n C* T_(conj(p) q) C``, is Toeplitz as
    ``|R| = 1`` on the circle; one FFT on ``2K`` points (:func:`_needed_length`) gives the rows ``a_hat(-t)``,
    ``t < K``, of ``a = n conj(p) q`` for every pair, and :func:`~blaschkeops.hardy._left_symbols` gives their
    coefficients ``-d``, ``d < w``; coefficient ``+d`` is the conjugate of the transposed pair's ``-d``.  Past K
    both sides fall below rounding.  The right side is one FFT of the transfer oracle's ``(P, P, M)`` pairings, an
    independent route sampled on ``M = max(256, 2K)`` points (:func:`~blaschkeops.transfer.transfer_grid`),
    whatever N is.  A K past ``2^23 / max(n^2, 64)`` (``_MAX_COEFFICIENTS``, 128 MB) raises :class:`_Unresolved`.
    """
    size = _needed_length(product, 1, product.degree, _MAX_COEFFICIENTS // max(product.degree**2, 64), "taylor_length")
    width = min(n_trunc, size)
    grid, bins = transfer_grid(2 * size), np.arange(1 - width, width)  # the right side's samples and bins
    right = fft(bimodule_inner_samples(TransferOperator(product), stack, grid))[..., bins % grid.size] / grid.size
    vals = np.asarray(stack(CircleGrid(2 * size).points), dtype=complex)
    a_hat = (np.fft.ifft(product.degree * np.conj(v) * vals)[:, :size] for v in vals)  # [i][j, t], freed once read
    lower = _left_symbols(product, np.array(list(a_hat)), width)  # [i, j, d]: coefficient -d of every pair
    left = np.concatenate((lower[..., :0:-1], lower.swapaxes(0, 1).conj()), axis=-1)
    return _read_only(left), _read_only(right), size


@lru_cache(maxsize=1)
def _frame_sides(product: BlaschkeProduct, n_trunc: int) -> tuple:
    """:func:`inner_product_residual` of the :func:`frame`, formed once for ``cuntz_relations`` (the left side) and
    ``module_inner_tails`` (the difference); one entry is kept, as at degree 64 the two sides hold about 67 MB."""
    return inner_product_residual(product, frame(product), n_trunc)
