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
from itertools import permutations

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


def _kernel_factor(beta: complex, z):
    return np.sqrt(1.0 - abs(beta) ** 2) / (1.0 - np.conj(beta) * z)


def tm_element(basis: TMBasis, l: int, z):
    """Value of the l-th basis element at z (scalar or array, |z| <= 1)."""
    if l < 0:
        raise ValueError("basis index must be nonnegative")
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, basis.alpha(l), dtype=complex) * _kernel_factor(basis.beta(l), z)
    for k in range(l):
        bk = basis.beta(k)
        out = out * (z - bk) / (1.0 - np.conj(bk) * z)
    return out if out.ndim else complex(out)


def factor_parts(basis: TMBasis, l: int, z):
    """The pair ``(Q_l(z), R_l(z))`` for ``0 <= l <= n-1``.

    ``Q_l`` is the normalised reproducing-kernel factor at the l-th zero and
    ``R_l`` the partial Blaschke product over the earlier zeros.
    """
    n = basis.product.degree
    if not 0 <= l <= n - 1:
        raise ValueError("factor index must lie in [0, degree)")
    z = np.asarray(z, dtype=complex)
    q = _kernel_factor(basis.product.zeros[l], z)
    r = np.ones(z.shape, dtype=complex)
    for k in range(l):
        zk = basis.product.zeros[k]
        r = r * (z - zk) / (1.0 - np.conj(zk) * z)
    if z.ndim:
        return q, r
    return complex(q), complex(r)


def factorization_residual(basis: TMBasis, powers: int, grid: CircleGrid) -> np.ndarray:
    """Sup over the grid of ``|e_{kn+l} - Q_l R_l R^k|`` for ``k < powers``, as an array ``[k, l]``.

    One pass: the direct side gains one factor per index, as in :func:`gram_residual`.
    """
    n = basis.product.degree
    if powers * n - 1 > basis.count:
        raise ValueError("index exceeds the realized basis count")
    pts = grid.points
    frame_vals = frame(basis.product)(pts)
    comp = basis.product.evaluate(pts)
    out = np.empty((powers, n))
    partial = np.ones(grid.size, dtype=complex)
    power = np.ones(grid.size, dtype=complex)
    for index in range(powers * n):
        k, l = divmod(index, n)
        beta = basis.beta(index)
        direct = basis.alpha(index) * _kernel_factor(beta, pts) * partial
        out[k, l] = np.max(np.abs(direct - frame_vals[l] * power))
        partial = partial * (pts - beta) / (1.0 - np.conj(beta) * pts)
        if l == n - 1:
            power = power * comp
    return out


def gram_residual(basis: TMBasis, count: int, grid: CircleGrid) -> float:
    """Max deviation of the quadrature Gram matrix from the identity.

    The rows are the first ``count`` basis elements on the grid, built in
    one pass as ``alpha_l * k_(beta_l) * B_l``, where the partial product
    ``B_l`` of the earlier Blaschke factors gains one factor per row.
    """
    if count < 1 or count > _MAX_GRAM_COUNT:
        raise ValueError(f"gram count must lie in [1, {_MAX_GRAM_COUNT}]")
    pts = grid.points
    rows = np.empty((count, grid.size), dtype=complex)
    partial = np.ones(grid.size, dtype=complex)
    for l in range(count):
        bl = basis.beta(l)
        rows[l] = basis.alpha(l) * _kernel_factor(bl, pts) * partial
        partial = partial * (pts - bl) / (1.0 - np.conj(bl) * pts)
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


@dataclass(frozen=True)
class ConsResidual:
    """Corner norms for the three Cuntz-relation checks."""

    completeness: float   # || sum_k W_k W_k* - I ||
    isometry: float       # max_k || W_k* W_k - I ||
    orthogonality: float  # max_{k != j} || W_k* W_j ||

    @property
    def worst(self) -> float:
        return max(self.completeness, self.isometry, self.orthogonality)


def cons_residual(family, m: int) -> ConsResidual:
    """Cuntz-relation residuals of an isometry family on the m x m corner.

    Each member is a truncated ``W_k`` or its leading N x k columns, ``k >= m``.
    ``W_k = T_(Q R) C`` is lower triangular, so completeness reads ``W_k[:m, :m]``.
    """
    cols = [np.asarray(getattr(w, "entries", w))[:, :m] for w in family]
    if m > cols[0].shape[0] // 4:
        raise ValueError("corner size must leave a guard band (m <= N/4)")
    completeness = _matrix_norm(sum(c[:m] @ c[:m].conj().T for c in cols) - np.eye(m))
    isometry = max(isometry_residual(c, m) for c in cols)
    orthogonality = max(_matrix_norm(ci.conj().T @ cj) for ci, cj in permutations(cols, 2))
    return ConsResidual(completeness, isometry, orthogonality)


def frame(product: BlaschkeProduct):
    """The frame ``v_l = Q_l R_l``, l = 0..n-1, as one map from points to the stack of their values."""
    basis = TMBasis(product)
    return lambda z: np.array([np.multiply(*factor_parts(basis, l, z)) for l in range(product.degree)])


def inner_product_residual(product: BlaschkeProduct, p, q, n_trunc: int, grid: CircleGrid):
    """Toeplitz symbol of ``V_p* V_q - T_<p,q>`` on the N x N truncation window.

    The coefficients are those of index ``|k| < N``, all that the N x N
    section reads.  The left side is assembled by quadrature,
    ``n * <q R^j, p R^i>``, which is the faithful compression of the operator
    product (free of finite-section boundary artifacts).  Because ``|R| = 1``
    on the circle, ``conj(R^i) R^j`` is ``R^(j-i)`` above the diagonal and
    ``conj(R)^(i-j)`` below it, so the entry depends only on ``j - i``: the
    Gram matrix is Toeplitz and its symbol is two weighted power sums of
    length N, at cost ``O(N M)``.  The right side is the Fourier transform of
    the weighted pairing delivered by the pointwise transfer oracle, so the
    two sides reach the symbol through independent routes.  When ``p`` and
    ``q`` map points to stacks of functions (as :func:`frame` does), the
    result is the nested list ``[i][j]`` over the pairs ``(p_i, q_j)``: one
    power-sum pass serves every pair, and one contraction every pairing.
    """
    if 2 * n_trunc > grid.size:
        raise ValueError("truncation must not exceed half the grid")
    pts = grid.points
    p_vals = np.asarray(p(pts), dtype=complex)
    q_vals = p_vals if q is p else np.asarray(q(pts), dtype=complex)
    # one row per pair (p_i, q_j), i major, then their conjugates
    weight = (product.degree * np.conj(p_vals)[..., None, :] * q_vals / grid.size).reshape(-1, grid.size)
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
    pairings = bimodule_inner_samples(TransferOperator(product), p, q, grid).reshape(len(weight), -1)
    symbols = []
    for band, pairing in zip(np.concatenate((upper[:0:-1], lower)).T, map(fourier_coefficients, pairings)):
        pairing_band = pairing.values[1 - n_trunc - pairing.low : n_trunc - pairing.low]
        symbols.append(FourierSymbol._dense(1 - n_trunc, band - pairing_band))
    if p_vals.ndim == 1:
        return symbols[0]
    return [symbols[i : i + len(q_vals)] for i in range(0, len(symbols), len(q_vals))]
