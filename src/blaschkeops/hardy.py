"""Truncated matrix models of Toeplitz and composition operators.

An N x N matrix stands for the compression of a Hardy-space operator to
``span{1, z, ..., z^(N-1)}``.  Identities that hold exactly (or modulo
compact operators) upstairs are tested on an m x m corner whose guard band
``N - m`` absorbs truncation spill-over.  A corner is assembled from slices,
``(A B)[:m, :m] = A[:m, :] @ B[:, :m]``, at cost ``N^2 m`` instead of ``N^3``;
residual norms are measured with a power iteration rather than a full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct, ConvergenceError
from .circle import CircleGrid, FourierSymbol, fft, fourier_coefficients

_NORM_TOL = 1e-12
_NORM_MAX_ITER = 10_000


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

    def __rmul__(self, scalar) -> "TruncatedOperator":
        return TruncatedOperator(complex(scalar) * self.entries, f"{scalar}·{self.label}")

    @staticmethod
    def identity(n: int) -> "TruncatedOperator":
        return TruncatedOperator(np.eye(n, dtype=complex), "I")


def toeplitz_matrix(a: FourierSymbol, n_trunc: int, label: str = "T_a") -> TruncatedOperator:
    """Multiplication compressed to the analytic side: ``entries[i, j] = a_hat(i - j)``."""
    offsets = np.array([a.coefficient(d) for d in range(-(n_trunc - 1), n_trunc)])
    idx = np.arange(n_trunc)
    entries = offsets[idx[:, None] - idx[None, :] + n_trunc - 1]
    return TruncatedOperator(entries=entries, label=label)


@lru_cache(maxsize=8)
def _power_spectra(product: BlaschkeProduct, n_trunc: int, grid: CircleGrid) -> np.ndarray:
    """First ``grid.size`` Fourier coefficients of R^m for m < N; read-only."""
    m = grid.size
    values = product.evaluate(grid.points)
    rows = np.empty((n_trunc, m), dtype=complex)
    power = np.ones(m, dtype=complex)
    for j in range(n_trunc):
        rows[j] = power
        power = power * values
    spectra = fft(rows) / m
    spectra.setflags(write=False)
    return spectra


def composition_matrix(product: BlaschkeProduct, n_trunc: int, grid: CircleGrid) -> TruncatedOperator:
    """Truncated composition operator: column m holds the coefficients of R^m."""
    if n_trunc > grid.size // 4:
        raise ValueError("truncation size must not exceed a quarter of the grid")
    spectra = _power_spectra(product, n_trunc, grid)
    return TruncatedOperator(entries=spectra[:, :n_trunc].T, label="C_R")


def _power_iteration(block: np.ndarray, tol: float, max_iter: int):
    """Largest singular value of a block via power iteration on ``A* A``.

    Returns ``(estimate, converged)``; clustered top singular values can
    stall the absolute-change criterion without hurting the estimate much.
    """
    if block.size == 0 or not np.any(block):
        return 0.0, True
    gram = block.conj().T @ block
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(gram.shape[0]) + 1j * rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    previous = 0.0
    current = 0.0
    for _ in range(max_iter):
        w = gram @ v
        current = float(np.linalg.norm(w))
        if current == 0.0:
            return 0.0, True
        v = w / current
        if abs(current - previous) <= tol * max(current, 1.0):
            return float(np.sqrt(current)), True
        previous = current
    return float(np.sqrt(current)), False


def _matrix_norm(block: np.ndarray) -> float:
    """Largest singular value; raises when the iteration fails to settle."""
    value, converged = _power_iteration(np.asarray(block), _NORM_TOL, _NORM_MAX_ITER)
    if not converged:
        raise ConvergenceError("power iteration for the operator norm did not converge")
    return value


def operator_norm(x: TruncatedOperator) -> float:
    """Operator (spectral) norm of the truncated operator."""
    return _matrix_norm(x.entries)


def isometry_residual(c: TruncatedOperator, m: int) -> float:
    """Norm of the top-left m x m block of ``C* C - I``.

    Zero for an isometry whose columns stay inside the truncation window;
    requires a guard band ``m <= N/2``.
    """
    if m > c.dim // 2:
        raise ValueError("corner size must leave a guard band (m <= N/2)")
    cols = c.entries[:, :m]
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
    cols = composition_matrix(product, n_trunc, grid).entries[:, :m]
    t_a = toeplitz_matrix(a, n_trunc).entries
    image = TransferOperator(product).symbol_image(a.evaluate, grid)
    t_image = toeplitz_matrix(image, n_trunc, label="T_La")
    return _matrix_norm(cols.conj().T @ (t_a @ cols) - t_image.corner(m))


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
    comp = composition_matrix(product, n_trunc, grid).entries
    t_b = toeplitz_matrix(b, n_trunc).entries
    pullback = fourier_coefficients(b.evaluate(product.evaluate(grid.points)))
    t_pull = toeplitz_matrix(pullback, n_trunc).entries
    return _matrix_norm(comp[:m] @ t_b[:, :m] - t_pull[:m] @ comp[:, :m])


def tail_compactness_profile(mres: TruncatedOperator, cuts, window: int | None = None):
    """Corner norms ``||P_m^perp M P_m^perp||`` for increasing cuts m.

    ``window`` bounds the rows/columns considered (defaults to the full
    truncation); each value is the norm of ``entries[m:window, m:window]``.
    Corners of compressions never grow under nesting, so the profile is
    monotone nonincreasing by construction; what carries information is how
    fast it decays.  An empty corner, from a cut at or past the window, has
    norm zero.
    """
    cuts = [int(c) for c in cuts]
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])) or not cuts:
        raise ValueError("cuts must be strictly increasing and nonempty")
    if cuts[0] < 0:
        raise ValueError("cuts must be nonnegative")
    if window is None:
        window = mres.dim
        if cuts[-1] > mres.dim // 2:
            raise ValueError("largest cut must not exceed half the truncation")
    if window > mres.dim:
        raise ValueError("window must fit inside the truncation")
    return [_matrix_norm(np.asarray(mres.entries[m:window, m:window])) for m in cuts]
