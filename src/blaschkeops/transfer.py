"""Weighted preimage-sum operator attached to a finite Blaschke product.

For a degree-n product R the operator averages a function over the n circle
preimages of a point with the positive weights ``h(z)/n = R(z)/(z R'(z))``,
fixes constants, and intertwines multiplication:
``L((a o R) b) = a L(b)``.  On analytic functions it acts as the adjoint of
the composition operator, which is what :func:`transfer_matrix` truncates.

Everything here is evaluated strictly through preimage sums, never through
matrix truncation, so the matrix models in :mod:`blaschkeops.hardy` can be
tested against an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct, preimage_grid
from .circle import CircleGrid, FourierSymbol, _read_only, fft, fourier_coefficients


def transfer_grid(samples: int) -> CircleGrid:
    """The smallest power-of-two grid of at least ``samples`` and at least 256 points: every reader
    of the transfer route samples one, so the verify checks mostly share the 256-point table."""
    return CircleGrid(max(256, 1 << (samples - 1).bit_length()))


@lru_cache(maxsize=16)
def _preimage_table(product: BlaschkeProduct, grid: CircleGrid):
    """Preimage points and weights over all grid targets, read-only and branch-major:
    shape ``(n, M)``, row b the b-th preimages, so a preimage sum is ``sum(axis=0)``."""
    points, _ = preimage_grid(product, grid.points)
    points = _read_only(np.ascontiguousarray(points.T))
    return points, _read_only(preimage_weights(product, points))


@dataclass(frozen=True)
class TransferOperator:
    """Preimage-averaging operator of a fixed Blaschke product."""

    product: BlaschkeProduct

    @property
    def degree(self) -> int:
        return self.product.degree

    def apply(self, f, w: complex) -> complex:
        """Value ``L(f)(w) = sum_i weight_i f(z_i)`` over the preimages of w."""
        points = np.asarray(self.product.preimages(w).points)
        weights = preimage_weights(self.product, points)
        return complex(np.sum(weights * np.asarray(f(points), dtype=complex)))

    def apply_samples(self, f, grid: CircleGrid) -> np.ndarray:
        """Values of ``L(f)`` at every grid point, sharing one preimage solve."""
        points, weights = _preimage_table(self.product, grid)
        return np.sum(weights * np.asarray(f(points), dtype=complex), axis=0)

    def symbol_image(self, f, grid: CircleGrid) -> FourierSymbol:
        """Fourier coefficients of ``L(f)`` extracted on the grid."""
        return fourier_coefficients(self.apply_samples(f, grid))

    def monomial_samples(self, low: int, high: int, grid: CircleGrid) -> np.ndarray:
        """Values of ``L(z^k)`` at every grid point, one row per ``low <= k < high``; ``L`` is
        linear, so they give ``L(a)`` for every symbol in the band as one matrix product."""
        points, weights = _preimage_table(self.product, grid)
        rows = np.empty((high - low, grid.size), dtype=complex)
        weighted = weights * points**low  # a fresh array: the cached table stays untouched
        for row in rows:
            np.sum(weighted, axis=0, out=row)
            weighted *= points
        return rows


def preimage_weights(product: BlaschkeProduct, points) -> np.ndarray:
    """The weights ``R(z)/(z R'(z))`` at already solved circle preimages, shaped like ``points``."""
    return 1.0 / product._log_derivative_at(np.asarray(points))


def partial_fraction_weights(product: BlaschkeProduct, w: complex) -> np.ndarray:
    """The n positive weights ``R(z)/(z R'(z))`` over the preimages of w.

    These are the residues of ``(R(z)/z)/(R(z) - w)`` at its simple poles;
    they sum to one, which is exactly why the operator fixes constants.
    Ordered like :meth:`BlaschkeProduct.preimages` (by principal argument).
    """
    return preimage_weights(product, product.preimages(w).points)


def bimodule_inner_samples(op: TransferOperator, stack, grid: CircleGrid) -> np.ndarray:
    """The weighted pairings ``n L(conj(p) q) = sum_z h(z) conj(p(z)) q(z)`` at every grid point,
    for every pair of the P functions that ``stack`` maps points to: ``(P, P, M)``."""
    points, weights = _preimage_table(op.product, grid)
    vals = np.asarray(stack(points), dtype=complex)
    return op.degree * np.einsum("pbm,qbm->pqm", weights * np.conj(vals), vals)


def transfer_matrix(op: TransferOperator, n_trunc: int, grid: CircleGrid) -> np.ndarray:
    """Truncation of the operator to ``span{1, z, ..., z^(N-1)}``, as a read-only N x N array.

    Column j holds the first N Fourier coefficients of ``L(z^j)``, extracted
    on the grid from preimage sums.  As ``R(0) = 0``, ``L(z^j)`` is a
    polynomial of degree at most j, so the truncation is upper triangular and
    every grid of ``4 N`` points or more holds it (:func:`transfer_grid`).
    """
    m = grid.size
    if n_trunc > m // 4:
        raise ValueError("truncation size must not exceed a quarter of the grid")
    return _read_only((fft(op.monomial_samples(0, n_trunc, grid))[:, :n_trunc] / m).T)
