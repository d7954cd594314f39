"""Rational orthonormal basis adapted to a Blaschke product, and the
isometry family it induces.

With zero sequence ``beta_{kn+l} = z_l`` (the product's zeros repeated
periodically) and phases ``alpha_{kn+l} = phase^k``, the Takenaka-Malmquist
elements form an orthonormal basis of the Hardy space that factors as
``e_{kn+l} = Q_l R_l R^k``.  The operators ``W_k = T_(Q_{k-1} R_{k-1}) C``
are isometries with mutually orthogonal ranges summing to the identity - a
concrete family satisfying the Cuntz relations in truncation.  The bimodule
relation ``V_p* V_q = T_<p,q>`` modulo compact operators is read from the
Toeplitz symbol of its residual, whose trailing-corner norms must decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations

import numpy as np

from .blaschke import BlaschkeProduct
from .circle import CircleGrid, FourierSymbol, fourier_coefficients
from .hardy import TruncatedOperator, _matrix_norm, _power_spectra, _toeplitz_applies, isometry_residual
from .transfer import TransferOperator, bimodule_inner_samples

_MAX_GRAM_COUNT = 64


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
    the partial product ``B_l`` of the earlier Blaschke factors gains one factor per element."""
    partial = np.ones(np.shape(z), dtype=complex)
    for l in range(count):
        beta = basis.beta(l)
        den = 1.0 - np.conj(beta) * z
        yield basis.alpha(l) * (np.sqrt(1.0 - abs(beta) ** 2) / den) * partial
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
    frame_vals = frame(basis.product)(pts)
    comp = basis.product.evaluate(pts)
    out = np.empty((powers, n))
    power = comp
    for index, direct in enumerate(islice(_elements(basis, (powers + 1) * n, pts), n, None)):
        k, l = divmod(index, n)
        out[k, l] = np.max(np.abs(direct - frame_vals[l] * power))
        if l == n - 1:
            power = power * comp
    return out


def gram_residual(basis: TMBasis, count: int, grid: CircleGrid) -> float:
    """Max deviation of the quadrature Gram matrix of the first ``count`` basis elements from the identity."""
    if count < 1 or count > _MAX_GRAM_COUNT:
        raise ValueError(f"gram count must lie in [1, {_MAX_GRAM_COUNT}]")
    if count > basis.count:
        raise ValueError("index exceeds the realized basis count")
    rows = np.empty((count, grid.size), dtype=complex)
    for row, element in zip(rows, _elements(basis, count, grid.points)):
        row[:] = element
    gram = rows @ rows.conj().T / grid.size
    return float(np.max(np.abs(gram - np.eye(count))))


def cuntz_columns(product: BlaschkeProduct, cols: np.ndarray, grid: CircleGrid):
    """Yields ``T_(Q_{k-1} R_{k-1}) cols``, k = 1..n: the columns of ``W_k`` at an N x k block of C."""
    yield from _toeplitz_applies(map(fourier_coefficients, frame(product)(grid.points)), cols)


def cuntz_family(product: BlaschkeProduct, n_trunc: int, grid: CircleGrid):
    """The n truncated isometries ``W_k = T_(Q_{k-1} R_{k-1}) C``, k = 1..n.

    ``W_k`` sends the j-th monomial to the basis element of index
    ``j n + (k-1)``; together the family satisfies the Cuntz relations on a
    guarded corner.
    """
    columns = cuntz_columns(product, _power_spectra(product, n_trunc, n_trunc), grid)
    return [TruncatedOperator(w, label=f"W{k + 1}") for k, w in enumerate(columns)]


def cons_residual(family, m: int) -> dict:
    """Cuntz-relation residuals of an isometry family on the m x m corner: the dict of
    ``completeness`` ``||sum_k W_k W_k* - I||``, ``isometry`` ``max_k ||W_k* W_k - I||`` and
    ``orthogonality`` ``max_(k != j) ||W_k* W_j||``.

    Each member holds the leading N x k columns of a truncated ``W_k``, ``k >= m``.
    ``W_k = T_(Q R) C`` is lower triangular, so completeness reads ``W_k[:m, :m]``.
    """
    cols = [np.asarray(w)[:, :m] for w in family]
    if m > cols[0].shape[0] // 4:
        raise ValueError("corner size must leave a guard band (m <= N/4)")
    return {
        "completeness": _matrix_norm(sum(c[:m] @ c[:m].conj().T for c in cols) - np.eye(m)),
        "isometry": max(isometry_residual(c, m) for c in cols),
        "orthogonality": max(_matrix_norm(ci.conj().T @ cj) for ci, cj in permutations(cols, 2)),
    }


def frame(product: BlaschkeProduct):
    """The frame ``v_l = Q_l R_l``, l = 0..n-1, as one map from points to the stack of their
    values: the first n basis elements, since ``alpha_l = 1`` for ``l < n``."""
    basis = TMBasis(product)
    return lambda z: np.array(list(_elements(basis, product.degree, np.asarray(z, dtype=complex))))


def inner_product_residual(product: BlaschkeProduct, stack, n_trunc: int, grid: CircleGrid):
    """Toeplitz symbols of ``V_p* V_q - T_<p,q>`` on the N x N truncation window, for every
    pair ``(p, q) = (v_i, v_j)`` of the functions that ``stack`` maps points to (as
    :func:`frame` does): the nested list ``[i][j]``.

    The coefficients are those of index ``|k| < N``, all that the N x N
    section reads.  The left side is assembled by quadrature,
    ``n * <q R^j, p R^i>``, which is the faithful compression of the operator
    product (free of finite-section boundary artifacts).  Because ``|R| = 1``
    on the circle, ``conj(R^i) R^j`` is ``R^(j-i)`` above the diagonal and
    ``conj(R)^(i-j)`` below it, so the entry depends only on ``j - i``: the
    Gram matrix is Toeplitz and its symbol is two weighted power sums of
    length N, at cost ``O(N M)``; one power-sum pass serves every pair.  The
    right side is the Fourier transform of the weighted pairing delivered by
    the pointwise transfer oracle, so the two sides reach the symbol through
    independent routes.
    """
    if 2 * n_trunc > grid.size:
        raise ValueError("truncation must not exceed half the grid")
    pts = grid.points
    vals = np.asarray(stack(pts), dtype=complex)
    # one row per pair (v_i, v_j), i major, then their conjugates
    weight = (product.degree * np.conj(vals)[:, None, :] * vals / grid.size).reshape(-1, grid.size)
    weights = np.concatenate((weight, weight.conj()))
    comp_vals = product.evaluate(pts)
    sums = np.empty((n_trunc, len(weights)), dtype=complex)
    power = np.ones(grid.size, dtype=complex)
    for d in range(n_trunc):
        sums[d] = weights @ power
        power = power * comp_vals
    # upper[d] = weighted sum of R^d, the coefficient of index -d;
    # lower[d] = weighted sum of conj(R)^d, the coefficient of index d
    upper, lower = sums[:, : len(weight)], sums[:, len(weight) :].conj()
    pairings = bimodule_inner_samples(TransferOperator(product), stack, grid).reshape(len(weight), -1)
    symbols = []
    for band, pairing in zip(np.concatenate((upper[:0:-1], lower)).T, map(fourier_coefficients, pairings)):
        pairing_band = pairing.values[1 - n_trunc - pairing.low : n_trunc - pairing.low]
        symbols.append(FourierSymbol._dense(1 - n_trunc, band - pairing_band))
    return [symbols[i : i + len(vals)] for i in range(0, len(symbols), len(vals))]
