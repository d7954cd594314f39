"""Circle dynamics of a Blaschke product restricted to the unit circle.

The restriction is an expanding degree-n covering: its lift is a strictly
increasing function climbing by 2 pi n per revolution, with derivative equal
to the circle log-derivative (hence > 1), and has a closed form as a sum of
continuous factor arguments.  Branch inverses of the lift reproduce the
preimage sets, and the tree of iterated preimages of a fixed point gives the
topological conjugacy to the monomial map of the same degree (Shub, Amer. J.
Math. 91, 1969).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import _SEPARATION_TOL, _TWO_PI, BlaschkeProduct, _argument, _solve_increasing, _window, preimage_grid
from .circle import _read_only

_MIN_LIFT_GRID = 256


@dataclass(frozen=True)
class CircleLift:
    """Sampled lift ``psi`` on ``[theta0 - 2 pi, theta0]`` with ``R(e^(i theta)) = e^(i psi(theta))``.

    ``psi`` increases from 0 to 2 pi n, with derivative the circle
    log-derivative ``product.log_derivative(thetas)``; the ``lift_winding``
    and ``lift_expanding`` checks report both facts.
    """

    product: BlaschkeProduct
    theta0: float
    thetas: np.ndarray
    psi: np.ndarray

    @property
    def degree(self) -> int:
        return self.product.degree


def build_lift(product: BlaschkeProduct, grid_size: int) -> CircleLift:
    """The lift of ``theta -> R(e^(i theta))`` over one revolution, sampled on ``grid_size`` angles.

    The anchor ``theta0 - 2 pi`` is the first angle from ``-1e-9`` (so an image
    1 at 0 up to rounding anchors at 0) whose image is 1, which pins
    ``psi(theta0 - 2 pi) = 0``; one solve finds it, as :func:`_fixed_point`
    finds its point.  For monomials this gives ``theta0 = 2 pi`` and
    ``psi(theta) = n theta``.  Every sample is the closed-form continuous
    argument, so no unwrapping is involved and any grid of at least 256
    samples serves.
    """
    if grid_size < _MIN_LIFT_GRID:
        raise ValueError(f"lift grid must have at least {_MIN_LIFT_GRID} samples")
    window = _window(product, -1e-9)
    start = float(_solve_increasing(product, window, 0.0, lambda first, _: _TWO_PI * np.ceil(first / _TWO_PI)))
    theta0 = start + _TWO_PI
    thetas = np.linspace(start, theta0, grid_size)
    raw, _ = _argument(product, thetas)
    return CircleLift(product=product, theta0=theta0, thetas=_read_only(thetas), psi=_read_only(raw - raw[0]))


def branch_inverse(lift: CircleLift, k: int, t):
    """The k-th inverse branch ``sigma_k(t) = psi^(-1)(t + 2 (k-1) pi)``, for a scalar or an array t.

    ``e^(i sigma_k(t))`` is a preimage of ``e^(i t)``; over k = 1..n the
    branches enumerate the full preimage set.  ``psi`` is the argument ``A``
    less its value at ``lift.thetas[0]``, so the bracketed Newton of
    :func:`blaschke._solve_increasing` solves ``A`` on the lift's revolution at
    the levels ``A(lift.thetas[0]) + t + 2 pi (k - 1)``, every element of t at once.
    """
    n = lift.degree
    if not 1 <= k <= n:
        raise ValueError("branch index must lie in 1..degree")
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= _TWO_PI)):
        raise ValueError("branch parameter must lie in [0, 2 pi]")
    window = _window(lift.product, lift.thetas[0])
    root = _solve_increasing(lift.product, window, 0.0, lambda first, _: first + t + _TWO_PI * (k - 1))
    return root if root.ndim else float(root)


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


def _fixed_point(product: BlaschkeProduct) -> complex:
    # R(e^(i theta)) = e^(i A(theta)), so A(theta) - theta is a multiple of 2 pi
    # exactly at a fixed point; it rises by 2 pi (n - 1) >= 2 pi over [0, 2 pi],
    # so it meets the first multiple at or above its first sample (0 for z^n, so p = 1).
    theta = _solve_increasing(product, _window(product, 0.0), 1.0, lambda first, _: _TWO_PI * np.ceil(first / _TWO_PI))
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
    ``phi o R = phi^n``.  ``grid_size`` caps N; the depth K is the largest
    whose points stay separated.  For ``R(z) = z^n`` ``phi`` is the identity.
    """
    p = _fixed_point(product)
    points, offsets, levels, min_gap = _preimage_tree(product, p, grid_size)
    return ConjugacyMap(
        thetas=_read_only(np.angle(p) % _TWO_PI + offsets),
        values=_read_only(_TWO_PI * np.arange(len(points)) / len(points)),
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
