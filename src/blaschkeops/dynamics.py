"""Circle dynamics of a Blaschke product restricted to the unit circle.

The restriction is an expanding degree-n covering: its lift is a strictly
increasing function climbing by 2 pi n per revolution, with derivative equal
to the circle log-derivative (hence > 1).  Branch inverses of the lift
reproduce the preimage sets, and the tree of iterated preimages of a fixed
point gives the topological conjugacy to the monomial map of the same degree
(Shub, Amer. J. Math. 91, 1969).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import _SEPARATION_TOL, BlaschkeProduct, ConvergenceError, preimage_grid

_TWO_PI = 2.0 * np.pi
_LIFT_TOTAL_TOL = 1e-8
_BRANCH_TOL = 1e-11
_FIXED_POINT_STEPS = 4
_MIN_LIFT_GRID = 256


def _hermite(u, y0, y1, m0, m1, h):
    u2 = u * u
    u3 = u2 * u
    return (
        (2 * u3 - 3 * u2 + 1) * y0
        + (u3 - 2 * u2 + u) * h * m0
        + (-2 * u3 + 3 * u2) * y1
        + (u3 - u2) * h * m1
    )


@dataclass(frozen=True)
class CircleLift:
    """Sampled lift ``psi`` on ``[theta0 - 2 pi, theta0]`` with ``R(e^(i theta)) = e^(i psi(theta))``.

    ``psi`` increases from 0 to 2 pi n; ``dpsi`` holds the analytic
    derivative samples (the circle log-derivative, real and > 1).
    """

    product: BlaschkeProduct
    theta0: float
    thetas: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray

    def __post_init__(self):
        for name in ("thetas", "psi", "dpsi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.product.degree
        if abs(self.psi[0]) > 1e-12 or abs(self.psi[-1] - _TWO_PI * n) > _LIFT_TOTAL_TOL:
            raise ValueError("lift must rise from 0 to 2 pi n over one revolution")
        if np.any(np.diff(self.psi) <= 0):
            raise ValueError("lift samples must be strictly increasing")
        if np.min(self.dpsi) <= 1.0:
            raise ValueError("lift derivative must exceed 1 (expanding map)")

    @property
    def degree(self) -> int:
        return self.product.degree


def build_lift(product: BlaschkeProduct, grid_size: int) -> CircleLift:
    """Unwrapped argument of ``theta -> R(e^(i theta))`` over one revolution.

    The anchor ``theta0 - 2 pi`` is the smallest angle in ``[0, 2 pi)``
    whose image is 1, which pins ``psi(theta0 - 2 pi) = 0``; for monomials
    this gives ``theta0 = 2 pi`` and ``psi(theta) = n theta``.  The grid must
    resolve the fastest winding: ``max(psi') * step < pi``.
    """
    if grid_size < _MIN_LIFT_GRID:
        raise ValueError(f"lift grid must have at least {_MIN_LIFT_GRID} samples")
    anchors = np.angle(np.asarray(product.preimages(1.0 + 0j).points)) % _TWO_PI
    anchors[anchors > _TWO_PI - 1e-9] -= _TWO_PI
    start = float(np.min(anchors))
    theta0 = start + _TWO_PI
    thetas = np.linspace(start, theta0, grid_size)
    dpsi = np.asarray(product.log_derivative(thetas), dtype=float)
    peak = float(np.max(dpsi))
    if peak * _TWO_PI / (grid_size - 1) >= np.pi:
        needed = _MIN_LIFT_GRID
        while peak * _TWO_PI / (needed - 1) >= np.pi:
            needed *= 2
        raise ValueError(
            f"grid too coarse to unwrap the lift unambiguously: max psi' = {peak:.4g} needs grid >= {needed}"
        )
    raw = np.unwrap(np.angle(product.evaluate(np.exp(1j * thetas))))
    psi = raw - raw[0]
    total = psi[-1] - _TWO_PI * product.degree
    if abs(total) > _LIFT_TOTAL_TOL:
        raise ConvergenceError(f"lift failed to climb by 2 pi n (defect {total:.3e})")
    return CircleLift(product=product, theta0=theta0, thetas=thetas, psi=psi, dpsi=dpsi)


def _lift_value(lift: CircleLift, theta: float) -> float:
    # Exact lift value: principal argument moved onto the branch suggested by
    # the sampled lift (valid because the grid resolves every winding).
    approx = float(np.interp(theta, lift.thetas, lift.psi))
    raw = float(np.angle(lift.product.evaluate(np.exp(1j * theta))))
    return raw + _TWO_PI * round((approx - raw) / _TWO_PI)


def branch_inverse(lift: CircleLift, k: int, t: float) -> float:
    """The k-th inverse branch ``sigma_k(t) = psi^(-1)(t + 2 (k-1) pi)``.

    ``e^(i sigma_k(t))`` is a preimage of ``e^(i t)``; over k = 1..n the
    branches enumerate the full preimage set.  Seeded by monotone cubic
    interpolation of the sampled lift, then Newton-refined against the
    analytic derivative.
    """
    n = lift.degree
    if not 1 <= k <= n:
        raise ValueError("branch index must lie in 1..degree")
    if not 0.0 <= t <= _TWO_PI:
        raise ValueError("branch parameter must lie in [0, 2 pi]")
    s = t + _TWO_PI * (k - 1)
    # Monotone cubic seed for psi^(-1): theta as a function of psi, with the
    # exact inverse-function slopes 1/psi'.
    idx = int(np.clip(np.searchsorted(lift.psi, s) - 1, 0, len(lift.psi) - 2))
    h = lift.psi[idx + 1] - lift.psi[idx]
    u = (s - lift.psi[idx]) / h
    inv_slopes = 1.0 / lift.dpsi
    theta = float(
        _hermite(u, lift.thetas[idx], lift.thetas[idx + 1], inv_slopes[idx], inv_slopes[idx + 1], h)
    )
    for _ in range(8):
        value = _lift_value(lift, theta)
        if abs(value - s) <= _BRANCH_TOL:
            break
        theta -= (value - s) / float(lift.product.log_derivative(theta))
    else:
        raise ConvergenceError("branch inversion did not converge")
    return theta


@dataclass(frozen=True)
class ConjugacyMap:
    """Samples of the degree-one circle map ``phi`` with ``phi o R = phi^n``.

    ``thetas[j]`` is the angle of ``phi^(-1)(e^(2 pi i j / N))`` for the
    ``N = n^levels`` points of the preimage tree, so ``values[j] = 2 pi j / N``;
    ``residual`` is the certificate ``max_j |R(x_j) - x_((n j) mod N)|`` and
    ``min_gap`` the smallest angular gap between consecutive samples.
    """

    thetas: np.ndarray
    values: np.ndarray
    residual: float
    levels: int
    min_gap: float

    def __post_init__(self):
        for name in ("thetas", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _fixed_point(lift: CircleLift) -> complex:
    # psi(theta) - theta increases (slope psi' - 1 > 0) by 2 pi (n - 1) over
    # the lift's revolution, so some grid cell brackets a multiple of 2 pi.
    excess = lift.psi - lift.thetas
    level = _TWO_PI * np.ceil(excess[0] / _TWO_PI)
    i = int(np.clip(np.searchsorted(excess, level), 1, len(excess) - 1))
    lo, hi = lift.thetas[i - 1], lift.thetas[i]
    theta = lo + (hi - lo) * (level - excess[i - 1]) / (excess[i] - excess[i - 1])
    for _ in range(_FIXED_POINT_STEPS):
        z = np.exp(1j * theta)
        theta -= np.angle(lift.product.evaluate(z) / z) / (lift.product.log_derivative(theta) - 1.0)
    return complex(np.exp(1j * theta))


def _power_certificate(product: BlaschkeProduct, points: np.ndarray) -> float:
    """``max_j |R(x_j) - x_((n j) mod N)|`` over points ordered as ``phi^(-1)`` of the N-th roots of unity."""
    index = product.degree * np.arange(len(points)) % len(points)
    return float(np.max(np.abs(product.evaluate(points) - points[index])))


def _preimage_tree(product: BlaschkeProduct, p: complex, max_points: int):
    """``R^(-K)(p)`` sorted by angle from the fixed point ``p``, for the deepest admissible K.

    Each level solves the preimages of the previous one in one batch; it
    contains that level because ``R(p) = p``.  A level is kept while it has
    at most ``max_points`` points and its smallest angular gap stays above
    the root-separation bound.  Returns ``(points, offsets, levels, min_gap)``.
    """
    n = product.degree
    points, offsets, levels, min_gap = np.array([p]), np.zeros(1), 0, _TWO_PI
    while len(points) * n <= max_points:
        roots, _ = preimage_grid(product, points)
        roots = roots.ravel()
        angles = np.angle(roots / p) % _TWO_PI
        # p's own copy may round to just below 2 pi; anchor it at 0
        angles[np.argmin(np.abs(roots - p))] = 0.0
        order = np.argsort(angles)
        gap = float(np.min(np.diff(np.append(angles[order], _TWO_PI))))
        if gap <= _SEPARATION_TOL:
            break
        points, offsets, levels, min_gap = roots[order], angles[order], levels + 1, gap
    return points, offsets, levels, min_gap


def conjugacy_to_power(product: BlaschkeProduct, grid_size: int = 4096) -> ConjugacyMap:
    """Conjugacy from the circle restriction to the monomial map of equal degree.

    Shub's construction: ``phi`` sends a fixed point ``p`` of R to 1, and the
    tree of iterated preimages of ``p``, in circle order from ``p``, onto the
    roots of unity of order ``N = n^K`` in their order, so ``R(x_j) =
    x_((n j) mod N)`` is an exact, interpolation-free certificate of
    ``phi o R = phi^n``.  ``grid_size`` sizes the lift that brackets ``p``
    and caps N; the depth K is the largest whose points stay separated.
    For ``R(z) = z^n`` ``phi`` is the identity.
    """
    p = _fixed_point(build_lift(product, grid_size))
    points, offsets, levels, min_gap = _preimage_tree(product, p, grid_size)
    return ConjugacyMap(
        thetas=np.angle(p) % _TWO_PI + offsets,
        values=_TWO_PI * np.arange(len(points)) / len(points),
        residual=_power_certificate(product, points),
        levels=levels,
        min_gap=min_gap,
    )


def k_groups(n: int) -> tuple[str, str]:
    """K-theory of the quotient algebra: ``(Z + Z/(n-1)Z, Z)``, symbolically."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("degree must be an integer >= 2")
    k0 = "Z" if n == 2 else f"Z ⊕ Z/{n - 1}Z"
    return k0, "Z"
