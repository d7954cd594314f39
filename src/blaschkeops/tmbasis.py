"""Rational orthonormal basis adapted to a Blaschke product, and the
isometry family it induces.

With zero sequence ``beta_{kn+l} = z_l`` (the product's zeros repeated
periodically) and phases ``alpha_{kn+l} = phase^k``, the Takenaka-Malmquist
elements form an orthonormal basis of the Hardy space that factors as
``e_{kn+l} = Q_l R_l R^k``.  The operators ``W_k = T_(Q_{k-1} R_{k-1}) C``
are isometries with mutually orthogonal ranges summing to the identity - a
concrete family satisfying the Cuntz relations in truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .circle import CircleGrid, FourierSymbol, fourier_coefficients
from .hardy import (
    TruncatedOperator,
    _matrix_norm,
    composition_matrix,
    toeplitz_matrix,
)
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


def factorization_residual(basis: TMBasis, k: int, l: int, grid: CircleGrid) -> float:
    """Sup over the grid of ``|e_{kn+l} - Q_l R_l R^k|``."""
    n = basis.product.degree
    if k < 0 or not 0 <= l <= n - 1:
        raise ValueError("need k >= 0 and 0 <= l < degree")
    index = k * n + l
    if index > basis.count:
        raise ValueError("index exceeds the realized basis count")
    pts = grid.points
    direct = tm_element(basis, index, pts)
    q, r = factor_parts(basis, l, pts)
    factored = q * r * basis.product.evaluate(pts) ** k
    return float(np.max(np.abs(direct - factored)))


def gram_residual(basis: TMBasis, count: int, grid: CircleGrid) -> float:
    """Max deviation of the quadrature Gram matrix from the identity."""
    if count < 1 or count > _MAX_GRAM_COUNT:
        raise ValueError(f"gram count must lie in [1, {_MAX_GRAM_COUNT}]")
    pts = grid.points
    rows = np.empty((count, grid.size), dtype=complex)
    for l in range(count):
        rows[l] = tm_element(basis, l, pts)
    gram = rows @ rows.conj().T / grid.size
    return float(np.max(np.abs(gram - np.eye(count))))


def _factor_symbol(basis: TMBasis, k: int, grid: CircleGrid) -> FourierSymbol:
    q, r = factor_parts(basis, k, grid.points)
    return fourier_coefficients(q * r)


def cuntz_family(product: BlaschkeProduct, n_trunc: int, grid: CircleGrid):
    """The n truncated isometries ``W_k = T_(Q_{k-1} R_{k-1}) C``, k = 1..n.

    ``W_k`` sends the j-th monomial to the basis element of index
    ``j n + (k-1)``; together the family satisfies the Cuntz relations on a
    guarded corner.
    """
    basis = TMBasis(product)
    comp = composition_matrix(product, n_trunc, grid)
    family = []
    for k in range(product.degree):
        factor = toeplitz_matrix(_factor_symbol(basis, k, grid), n_trunc, label=f"T_Q{k}R{k}")
        family.append(TruncatedOperator((factor @ comp).entries, label=f"W{k + 1}"))
    return family


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
    """Cuntz-relation residuals of an isometry family on the m x m corner."""
    if m > family[0].dim // 4:
        raise ValueError("corner size must leave a guard band (m <= N/4)")
    rows = [w.entries[:m] for w in family]
    cols = [w.entries[:, :m] for w in family]
    completeness = _matrix_norm(sum(r @ r.conj().T for r in rows) - np.eye(m))
    isometry = 0.0
    orthogonality = 0.0
    for i, ci in enumerate(cols):
        isometry = max(isometry, _matrix_norm(ci.conj().T @ ci - np.eye(m)))
        for j, cj in enumerate(cols):
            if i != j:
                orthogonality = max(orthogonality, _matrix_norm(ci.conj().T @ cj))
    return ConsResidual(completeness, isometry, orthogonality)


def quotient_generators(product: BlaschkeProduct, n_trunc: int, grid: CircleGrid):
    """The pair ``(U, V) = (T_z, C)`` generating the truncated operator algebra."""
    u = toeplitz_matrix(FourierSymbol({1: 1.0}), n_trunc, label="T_z")
    v = composition_matrix(product, n_trunc, grid)
    return u, v


def module_isometry(product: BlaschkeProduct, p, n_trunc: int, grid: CircleGrid) -> TruncatedOperator:
    """Truncation of ``sqrt(n) T_p C`` for a circle function p.

    This realises the generator attached to a correspondence element whose
    restriction to the graph of R is p.
    """
    symbol = fourier_coefficients(np.asarray(p(grid.points), dtype=complex))
    factor = toeplitz_matrix(symbol, n_trunc, label="T_p")
    comp = composition_matrix(product, n_trunc, grid)
    scaled = np.sqrt(product.degree) * (factor @ comp).entries
    return TruncatedOperator(scaled, label="V_p")


def inner_product_residual(
    product: BlaschkeProduct,
    p,
    q,
    n_trunc: int,
    grid: CircleGrid,
) -> TruncatedOperator:
    """Compression of ``V_p* V_q - T_<p,q>`` to the truncation window.

    The left side is assembled by quadrature, ``n * <q R^j, p R^i>``, which
    is the faithful N x N compression of the operator product (free of
    finite-section boundary artifacts).  Because ``|R| = 1`` on the circle,
    ``conj(R^i) R^j`` is ``R^(j-i)`` above the diagonal and
    ``conj(R)^(i-j)`` below it, so the entry depends only on ``j - i``: the
    Gram matrix is Toeplitz and is built from two weighted power sums of
    length N at cost ``O(N M)`` instead of ``O(N^2 M)``.  The right side is
    the Toeplitz matrix of the weighted pairing symbol delivered by the
    pointwise transfer oracle, so the two sides reach the matrix through
    independent routes.
    """
    pts = grid.points
    p_vals = np.asarray(p(pts), dtype=complex)
    q_vals = np.asarray(q(pts), dtype=complex)
    weight = product.degree * np.conj(p_vals) * q_vals / grid.size
    weights = np.stack((weight, weight.conj()))
    comp_vals = product.evaluate(pts)
    sums = np.empty((n_trunc, 2), dtype=complex)
    power = np.ones(grid.size, dtype=complex)
    for d in range(n_trunc):
        sums[d] = weights @ power
        power = power * comp_vals
    # upper[d] = weighted sum of R^d, lower[d] = weighted sum of conj(R)^d
    upper, lower = sums[:, 0], sums[:, 1].conj()
    band = np.concatenate((lower[:0:-1], upper))
    idx = np.arange(n_trunc)
    gram = band[idx[None, :] - idx[:, None] + n_trunc - 1]
    pairing = bimodule_inner_samples(TransferOperator(product), p, q, grid)
    t_pairing = toeplitz_matrix(fourier_coefficients(pairing), n_trunc, label="T_<p,q>")
    return TruncatedOperator(gram - t_pairing.entries, label="V_p*V_q - T_<p,q>")
