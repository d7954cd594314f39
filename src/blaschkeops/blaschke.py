"""Finite Blaschke products fixing the origin, and their circle geometry.

A degree-n product ``lambda * prod_k (z - z_k)/(1 - conj(z_k) z)`` with
``z_0 = 0`` maps the closed unit disk to itself and the unit circle onto
itself n-to-1.  This module provides evaluation, differentiation, the
logarithmic derivative on the circle (a strictly positive real quantity),
the normalised expansion weight ``h = n / (z R'/R)`` and a simultaneous
root solver for the n circle preimages of a circle point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |phase| has to sit this close to 1 at construction time.
_UNIT_TOL = 1e-12
# Aberth stopping threshold on the largest root move, and iteration cap.
_ROOT_STEP_TOL = 1e-13
_ROOT_MAX_ITER = 60
_NEWTON_POLISH_STEPS = 2
# Post-hoc acceptance thresholds for a preimage solve.
_RESIDUAL_TOL = 1e-9
_CIRCLE_TOL = 1e-9
_SEPARATION_TOL = 1e-12
# Target must sit this close to the circle before we attempt a solve.
_TARGET_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


@dataclass(frozen=True)
class PreimageSet:
    """The n circle solutions of ``R(z) = target``, sorted by principal argument.

    ``residuals[i]`` records ``|R(points[i]) - target|`` as solved;
    :func:`preimage_grid` has already rejected a solve whose points leave the
    circle or collide.
    """

    target: complex
    points: tuple[complex, ...]
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with ``zeros[0] = 0`` and degree >= 2.

    The phase is renormalised to exact unit modulus at construction.  All
    methods accept scalars or numpy arrays of complex arguments and are pure,
    so instances can be shared freely between threads.
    """

    phase: complex
    zeros: tuple[complex, ...]

    def __post_init__(self):
        zeros = tuple(complex(z) for z in self.zeros)
        if len(zeros) < 2:
            raise ValueError("degree must be at least 2 (need two or more zeros)")
        if zeros[0] != 0:
            raise ValueError("zeros[0] must be exactly 0")
        if not all(abs(z) < 1.0 for z in zeros):  # also false for a non-finite zero
            raise ValueError("every zero must lie strictly inside the unit circle")
        mod = abs(complex(self.phase))
        if not abs(mod - 1.0) <= _UNIT_TOL:  # also false for a non-finite phase
            raise ValueError(f"phase must be unimodular within {_UNIT_TOL:g}")
        object.__setattr__(self, "phase", complex(self.phase) / mod)
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def evaluate(self, z):
        """Value of the product; unimodular whenever ``|z| = 1``."""
        z = np.asarray(z, dtype=complex)
        # 1 - conj(z_k) z rounds to zero only where |z_k z| = 1 up to rounding,
        # at the pole |z| = 1/|z_k| > 1, so one screen spares the test per factor
        if np.any(np.abs(z) * max(map(abs, self.zeros)) > 1.0 - 1e-12) and any(
            np.any(1.0 - np.conj(zk) * z == 0) for zk in self.zeros
        ):
            raise ValueError("evaluation at a pole of the product")
        out = np.full(z.shape, self.phase, dtype=complex)
        for zk in self.zeros:
            out = out * (z - zk) / (1.0 - np.conj(zk) * z)
        return out if out.ndim else complex(out)

    def derivative(self, z):
        """Complex derivative by the product rule, exact in the closed disk, zeros of R included.

        One factor ``f_k = (z - z_k)/(1 - conj(z_k) z)`` at a time, with
        ``f_k' = (1 - |z_k|^2)/(1 - conj(z_k) z)^2``: the partial product P and
        its derivative D become ``P f_k`` and ``D f_k + P f_k'``.  Nothing divides
        by R, and the work is O(n) per point with two arrays of the shape of z.
        """
        z = np.asarray(z, dtype=complex)
        value = np.full(z.shape, self.phase, dtype=complex)
        slope = np.zeros(z.shape, dtype=complex)
        for zk in self.zeros:
            den = 1.0 - np.conj(zk) * z
            if np.any(den == 0):
                raise ValueError("evaluation at a pole of the product")
            factor = (z - zk) / den
            slope = slope * factor + value * (1.0 - abs(zk) ** 2) / den**2
            value = value * factor
        return slope if slope.ndim else complex(slope)

    def log_derivative(self, theta):
        """Real value of ``z R'(z)/R(z)`` at ``z = e^(i theta)``.

        Computed from the positive sum ``1 + sum_k (1-|z_k|^2)/|z-z_k|^2``;
        the ``derivative_identity`` check of ``verify`` compares it with the
        quotient of R' (product rule) and R.
        """
        theta = np.asarray(theta, dtype=float)
        value = self._log_derivative_at(np.exp(1j * theta))
        return value if value.ndim else float(value)

    def _log_derivative_at(self, z):
        # ``z R'/R`` on |z| = 1 as the positive sum.
        total = np.ones(np.shape(z), dtype=float)
        for zk in self.zeros[1:]:
            total = total + (1.0 - abs(zk) ** 2) / np.abs(z - zk) ** 2
        return total

    def weight(self, theta):
        """Transfer weight ``h(e^(i theta)) = n / (z R'/R)``; strictly positive."""
        return self.degree / self.log_derivative(theta)

    def preimages(self, w: complex) -> PreimageSet:
        """All n circle solutions of ``R(z) = w`` for ``|w| = 1``."""
        pts, res = preimage_grid(self, np.asarray([w], dtype=complex))
        return PreimageSet(
            target=complex(w),
            points=tuple(complex(p) for p in pts[0]),
            residuals=tuple(float(r) for r in res[0]),
        )


def make_blaschke(lam: complex, zeros) -> BlaschkeProduct:
    """Validated constructor; see :class:`BlaschkeProduct` for the invariants."""
    return BlaschkeProduct(phase=complex(lam), zeros=tuple(complex(z) for z in zeros))


def _polynomial_pair(product: BlaschkeProduct):
    # R = num/den with num(z) = phase * prod (z - z_k), den(z) = prod (1 - conj(z_k) z).
    # Coefficients are stored lowest order first.
    num = np.array([product.phase], dtype=complex)
    den = np.array([1.0 + 0j])
    for zk in product.zeros:
        num = np.convolve(num, np.array([-zk, 1.0]))
        den = np.convolve(den, np.array([1.0, -np.conj(zk)]))
    return num, den


def preimage_grid(product: BlaschkeProduct, targets: np.ndarray):
    """Circle preimages of many unit-circle targets at once.

    Runs the Aberth--Ehrlich simultaneous iteration on the degree-n
    polynomial ``num(z) - w * den(z)`` for every target w, starting from the
    n-th roots of ``w / phase`` (exact for monomial products); a sweep moves
    only the rows whose own largest step is still above ``_ROOT_STEP_TOL``.
    A fixed number of Newton steps on the product form,
    ``z <- z - z (R(z) - w) / (R(z) psi'(z))`` with the circle log-derivative
    ``psi' >= 1``, then polish every root and keep its digits when zeros
    approach the circle.  Returns a pair of arrays of shape
    ``(len(targets), n)``: the roots of each row sorted by principal
    argument, and the direct residuals ``|R(root) - w|``.

    Raises :class:`ConvergenceError` when a root ends up off the circle, a
    residual exceeds tolerance, or two roots collide - all of which signal a
    numerical breakdown rather than a valid state.
    """
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim != 1:
        raise ValueError("targets must be a one-dimensional array")
    if np.max(np.abs(np.abs(targets) - 1.0)) > _TARGET_TOL:
        raise ValueError("preimage targets must lie on the unit circle")
    n = product.degree
    num, den = _polynomial_pair(product)
    w_col = targets[:, None]
    coeffs = num[None, :] - w_col * den[None, :]

    phases = np.exp(2j * np.pi * np.arange(n) / n)
    roots = (w_col / product.phase) ** (1.0 / n) * phases[None, :]

    diag = np.arange(n)
    active = np.arange(len(targets))
    for _ in range(_ROOT_MAX_ITER):
        live = roots[active]
        # value and derivative of each row's polynomial in one Horner pass
        value = np.repeat(coeffs[active, -1:], n, axis=1)
        slope = np.zeros_like(live)
        for c in coeffs[active, -2::-1].T:
            slope = slope * live + value
            value = value * live + c[:, None]
        newton = value / slope
        diff = live[:, :, None] - live[:, None, :]
        diff[:, diag, diag] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            repulsion = (1.0 / diff).sum(axis=2)
        step = newton / (1.0 - newton * repulsion)
        roots[active] = live - step
        active = active[np.max(np.abs(step), axis=1) >= _ROOT_STEP_TOL]
        if not active.size:
            break
    for _ in range(_NEWTON_POLISH_STEPS):
        value = product.evaluate(roots)
        roots = roots - roots * (value - w_col) / (value * product._log_derivative_at(roots))

    order = np.argsort(np.angle(roots), axis=1)
    roots = np.take_along_axis(roots, order, axis=1)

    residuals = np.abs(product.evaluate(roots) - w_col)
    worst = float(np.max(residuals))
    if worst > _RESIDUAL_TOL:
        raise ConvergenceError(f"preimage solve residual {worst:.3e} exceeds {_RESIDUAL_TOL:g}")
    off_circle = float(np.max(np.abs(np.abs(roots) - 1.0)))
    if off_circle > _CIRCLE_TOL:
        raise ConvergenceError(f"preimage root left the circle by {off_circle:.3e}")
    diff = roots[:, :, None] - roots[:, None, :]
    diff[:, diag, diag] = 1.0
    closest = float(np.min(np.abs(diff)))
    if closest <= _SEPARATION_TOL:
        raise ConvergenceError(f"preimage roots collided (separation {closest:.3e})")
    return roots, residuals
