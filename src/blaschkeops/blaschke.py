"""Finite Blaschke products fixing the origin, and their circle geometry.

A degree-n product ``lambda * prod_k (z - z_k)/(1 - conj(z_k) z)`` with
``z_0 = 0`` maps the closed unit disk to itself and the unit circle onto
itself n-to-1.  This module provides evaluation, differentiation, the
logarithmic derivative on the circle (a strictly positive real quantity),
the closed-form continuous argument on the circle, and the one sampled,
bracketed Newton that inverts it: for the n circle preimages of circle points,
the branch inverses of the lift and the fixed point behind the conjugacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import _read_only

# |phase| has to sit this close to 1 at construction time.
_UNIT_TOL = 1e-12
_TWO_PI = 2.0 * np.pi
# Newton on the continuous argument stops one step past this excess, within this many steps.
_LEVEL_TOL = 1e-11
_LEVEL_MAX_ITER = 64
# Post-hoc acceptance thresholds for a preimage solve.
_RESIDUAL_TOL = 1e-9
_SEPARATION_TOL = 1e-12
# Target must sit this close to the circle before we attempt a solve.
_TARGET_TOL = 1e-8
# The factor arrays (one row per nonzero zero) take points in blocks of at most this many elements.
_BLOCK_ELEMENTS = 1 << 14
# Every preimage solve of a product starts from one table of A and psi' on this many angles of [-pi, pi].
_TABLE_ANGLES = 4096


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


@dataclass(frozen=True)
class PreimageSet:
    """The n circle solutions of ``R(z) = target``, sorted by principal argument.

    ``residuals[i]`` records ``|R(points[i]) - target|`` as solved;
    :func:`preimage_grid` has already rejected a solve whose points collide.
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
        # ``z R'/R`` on |z| = 1 as the positive sum, all zeros at once.
        z = np.asarray(z, dtype=complex)
        zeros, gains = _factor_constants(self)
        flat = z.ravel()
        total = np.empty(flat.shape)
        for part in _blocks(self, flat.size):
            total[part] = (gains / np.abs(flat[part] - zeros) ** 2).sum(axis=0)
        return 1.0 + total.reshape(z.shape)

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


def _factor_constants(product: BlaschkeProduct):
    """The nonzero zeros ``z_k`` and their gains ``1 - |z_k|^2``, as ``(n - 1, 1)`` columns."""
    zeros = np.asarray(product.zeros[1:])[:, None]
    return zeros, 1.0 - np.abs(zeros) ** 2


def _blocks(product: BlaschkeProduct, size: int):
    """Slices of ``size`` points, ``_BLOCK_ELEMENTS // (n - 1)`` (at least one) to a block."""
    step = max(1, _BLOCK_ELEMENTS // (product.degree - 1))
    return (slice(start, start + step) for start in range(0, size, step))


def _argument(product: BlaschkeProduct, theta):
    """Continuous argument ``A`` of ``R(e^(i theta))`` in closed form, and its derivative ``psi'``.

    On the circle a factor ``(z - a)/(1 - conj(a) z)`` is ``z conj(u)/u`` with
    ``u = 1 - conj(a) z``, and ``Re u >= 1 - |a| > 0``, so its argument is
    ``theta - 2 arg u`` with the principal ``arg u`` continuous in theta.
    Since ``|z - a| = |u|`` there, the same ``u`` gives the factor's share
    ``(1 - |a|^2)/|u|^2`` of ``psi' = z R'/R``.  Every zero is one row of a
    ``(n - 1, block)`` array, and the points pass in blocks, so a temporary
    holds at most ``max(_BLOCK_ELEMENTS, n - 1)`` entries.
    """
    theta = np.asarray(theta, dtype=float)
    zeros, gains = _factor_constants(product)
    flat = theta.ravel()
    angles, slope = np.empty(flat.shape), np.empty(flat.shape)
    for part in _blocks(product, flat.size):
        u = 1.0 - zeros.conj() * np.exp(1j * flat[part])
        angles[part] = np.angle(u).sum(axis=0)
        slope[part] = (gains / np.abs(u) ** 2).sum(axis=0)
    total = np.angle(product.phase) + product.degree * theta - 2.0 * angles.reshape(theta.shape)
    return total, 1.0 + slope.reshape(theta.shape)


@lru_cache(maxsize=16)
def _argument_table(product: BlaschkeProduct):
    """Angles, ``A`` and ``psi'`` on ``_TABLE_ANGLES`` angles of ``[-pi, pi]``, read-only and built once per product."""
    grid = np.linspace(-np.pi, np.pi, _TABLE_ANGLES)
    return tuple(_read_only(a) for a in (grid, *_argument(product, grid)))


def _solve_increasing(product: BlaschkeProduct, c: float, levels):
    """The angles where ``f = A - c theta`` meets each of the levels, every level at once.

    ``A`` is the continuous argument of :func:`_argument`, ``c`` is 0 or 1, and ``f``
    increases (``psi' > 1``) by ``2 pi (n - c)`` per revolution.  Every solve reads the
    product's one table (:func:`_argument_table`) of ``f`` and its exact slope ``psi' - c``
    on ``[-pi, pi]``: a level outside it is moved into it by whole turns, and its cell
    back by ``2 pi`` per turn, so a caller states any levels and none samples ``A``
    again.  The cell whose samples straddle a level brackets its root.  The seed is the
    inverse cubic Hermite interpolant of the cell, the cubic in the level that takes the
    cell's end angles with derivatives ``1/slopes``, clipped to the cell.  Newton then
    runs each level in its own bracket, bisecting whenever a step leaves it (a steep
    ``f`` can throw Newton out of its basin on a coarse grid), and takes one step past
    ``_LEVEL_TOL``, so the answer keeps every digit ``f`` has; the seed only sets how
    many steps that takes.  Returns an array shaped like the levels.
    """
    grid, samples, slopes = _argument_table(product)
    samples, slopes = samples - c * grid, slopes - c
    levels = np.asarray(levels, dtype=float)
    flat, period = levels.ravel(), _TWO_PI * (product.degree - c)
    turns = np.ceil((flat - samples[-1]) / period)
    moved = flat - period * turns
    i = np.clip(np.searchsorted(samples, moved), 1, len(samples) - 1)
    lo, hi = grid[i - 1] + _TWO_PI * turns, grid[i] + _TWO_PI * turns
    rise = samples[i] - samples[i - 1]
    s = (moved - samples[i - 1]) / rise
    # Hermite basis on [0, 1]: s^2 (3 - 2s) weights the upper angle, s (1 - s)^2 and
    # -s^2 (1 - s) the scaled inverse slopes at the two ends
    seed = lo + (hi - lo) * s * s * (3.0 - 2.0 * s)
    seed += rise * s * (1.0 - s) * ((1.0 - s) / slopes[i - 1] - s / slopes[i])
    theta = np.clip(seed, lo, hi)
    root = np.empty_like(flat)
    live = np.arange(flat.size)  # the levels still iterating
    for _ in range(_LEVEL_MAX_ITER):
        value, slope = _argument(product, theta)
        excess = value - c * theta - flat[live]
        step = theta - excess / (slope - c)
        settled = np.abs(excess) <= _LEVEL_TOL
        root[live[settled]] = step[settled]
        keep = ~settled
        live, theta, step, excess, lo, hi = (a[keep] for a in (live, theta, step, excess, lo, hi))
        if not live.size:
            return root.reshape(levels.shape)
        lo, hi = np.where(excess > 0, lo, theta), np.where(excess > 0, theta, hi)
        theta = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    raise ConvergenceError("argument inversion did not converge")


def preimage_grid(product: BlaschkeProduct, targets: np.ndarray):
    """Circle preimages of many unit-circle targets at once.

    The continuous argument ``A`` of ``R(e^(i theta))`` climbs by ``2 pi n`` over
    ``[-pi, pi]``, so the preimages of ``w`` sit at the n angles where ``A`` meets the
    levels ``A(pi) - ((A(pi) - arg w) mod 2 pi) - 2 pi k``, ``k < n``; these lie in
    ``(A(-pi), A(pi)]``, so the angles are principal arguments.  ``A`` and its exact
    slope ``psi'`` are sampled once per product, on the ``_TABLE_ANGLES`` angles of
    :func:`_argument_table`, whose last sample gives ``A(pi)``, and the levels of every
    target are solved together by the bracketed Newton of :func:`_solve_increasing`,
    seeded by inverse cubic Hermite interpolation of those samples and slopes.  A root is
    carried as its angle, so its residual floor is about ``psi' ulp(theta) / 2``, and a
    principal angle keeps that ulp at most ``ulp(pi)``.  Returns a pair of arrays of
    shape ``(len(targets), n)``: the roots of each row sorted by principal argument, and
    the direct residuals ``|R(root) - w|``.

    Raises :class:`ConvergenceError` when a residual exceeds tolerance or two
    roots collide - either signals a numerical breakdown rather than a valid
    state.
    """
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim != 1:
        raise ValueError("targets must be a one-dimensional array")
    if not np.all(np.abs(np.abs(targets) - 1.0) <= _TARGET_TOL):  # also false for a non-finite target
        raise ValueError("preimage targets must be finite and lie on the unit circle")

    last = _argument_table(product)[1][-1]
    levels = (last - (last - np.angle(targets)) % _TWO_PI)[:, None] - _TWO_PI * np.arange(product.degree)
    roots = np.exp(1j * _solve_increasing(product, 0.0, levels))
    roots = np.take_along_axis(roots, np.argsort(np.angle(roots), axis=1), axis=1)

    residuals = np.abs(product.evaluate(roots) - targets[:, None])
    worst = float(np.max(residuals))
    if worst > _RESIDUAL_TOL:
        raise ConvergenceError(f"preimage solve residual {worst:.3e} exceeds {_RESIDUAL_TOL:g}")
    # sorted by angle, each root's nearest is a neighbour (the last and first included)
    closest = float(np.min(np.abs(roots - np.roll(roots, 1, axis=1))))
    if closest <= _SEPARATION_TOL:
        raise ConvergenceError(f"preimage roots collided (separation {closest:.3e})")
    return roots, residuals
