"""Construction, evaluation and circle geometry of the products."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschkeops import CircleGrid, ConvergenceError, make_blaschke, partial_fraction_weights
from blaschkeops import blaschke
from blaschkeops.blaschke import _BLOCK_ELEMENTS, _argument, preimage_grid
from conftest import blaschke_products, polynomial_roots, random_product


def _near_circle_product(degree):
    # seeded zeros of modulus up to 0.98, the largest pushed out to exactly 0.98
    b = random_product(degree, degree=degree, max_radius=0.98)
    zeros = list(b.zeros)
    far = max(range(1, degree), key=lambda k: abs(zeros[k]))
    zeros[far] = 0.98 * zeros[far] / abs(zeros[far])
    return make_blaschke(b.phase, zeros)


def _argument_by_factor(product, theta):
    # reference for blaschke._argument: one zero at a time, summed in order
    theta = np.asarray(theta, dtype=float)
    z = np.exp(1j * theta)
    total = np.angle(product.phase) + product.degree * theta
    slope = np.ones(theta.shape)
    for zk in product.zeros[1:]:
        u = 1.0 - np.conj(zk) * z
        total = total - 2.0 * np.angle(u)
        slope = slope + (1.0 - abs(zk) ** 2) / np.abs(u) ** 2
    return total, slope


def _log_derivative_by_factor(product, z):
    # reference for BlaschkeProduct._log_derivative_at: the positive sum, one zero at a time
    total = np.ones(np.shape(z))
    for zk in product.zeros[1:]:
        total = total + (1.0 - abs(zk) ** 2) / np.abs(z - zk) ** 2
    return total


class TestConstruction:
    def test_monomial_is_valid(self):
        b = make_blaschke(1.0, [0, 0])
        assert b.degree == 2
        assert b.evaluate(1j) == pytest.approx(-1.0)

    def test_generic_degree_two(self):
        b = make_blaschke(1.0, [0, 0.5])
        assert b.degree == 2

    def test_first_zero_must_vanish(self):
        with pytest.raises(ValueError, match="zeros\\[0\\]"):
            make_blaschke(1.0, [0.5, 0])

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            make_blaschke(1.0, [0])

    def test_zero_on_circle_rejected(self):
        with pytest.raises(ValueError, match="inside the unit circle"):
            make_blaschke(1.0, [0, 1.0])

    def test_phase_off_circle_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            make_blaschke(1.5, [0, 0.5])

    @pytest.mark.parametrize("zero", [complex("nan"), complex("nan+nanj"), complex("inf"), complex(0.5, np.inf)])
    def test_nonfinite_zero_rejected(self, zero):
        with pytest.raises(ValueError, match="inside the unit circle"):
            make_blaschke(1.0, [0, zero])

    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
    def test_nonfinite_phase_rejected(self, lam):
        with pytest.raises(ValueError, match="unimodular"):
            make_blaschke(lam, [0, 0.5])

    def test_phase_renormalized_exactly(self):
        lam = np.exp(0.3j) * (1 + 5e-13)
        b = make_blaschke(lam, [0, 0.5])
        assert abs(abs(b.phase) - 1.0) == 0.0


class TestEvaluation:
    def test_square_at_i(self, square):
        assert square.evaluate(1j) == pytest.approx(-1.0)

    def test_half_at_i_matches_direct_arithmetic(self, half):
        # oracle: i(i - 0.5)/(1 - 0.5i) evaluated by plain complex arithmetic
        expected = 1j * (1j - 0.5) / (1 - 0.5j)
        assert half.evaluate(1j) == pytest.approx(expected)
        assert expected == pytest.approx(-0.6 - 0.8j)

    def test_origin_is_fixed(self, half, spiral):
        assert half.evaluate(0.0) == 0.0
        assert spiral.evaluate(0.0) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_unimodular_on_circle(self, seed):
        b = random_product(seed, degree=2 + seed % 4 + (0 if seed % 4 < 3 else 1), max_radius=0.8)
        theta = 2 * np.pi * np.arange(1024) / 1024
        values = b.evaluate(np.exp(1j * theta))
        assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-12

    def test_pole_rejected(self, half):
        with pytest.raises(ValueError, match="pole"):
            half.evaluate(2.0)
        with pytest.raises(ValueError, match="pole"):
            half.derivative(2.0)

    def test_derivative_matches_finite_differences(self, spiral):
        # central finite-difference oracle, step tuned for ~1e-8 truth
        z = 0.4 + 0.2j
        step = 1e-5
        fd = (spiral.evaluate(z + step) - spiral.evaluate(z - step)) / (2 * step)
        assert spiral.derivative(z) == pytest.approx(fd, abs=1e-8)

    def test_derivative_at_zero_of_product(self, half):
        # the product rule needs no division by R, so a zero of R is an ordinary point
        fd = (half.evaluate(0.5 + 1e-6) - half.evaluate(0.5 - 1e-6)) / 2e-6
        assert half.derivative(0.5) == pytest.approx(fd, abs=1e-6)

    @staticmethod
    def _central_difference(b, z, step=1e-5):
        return (b.evaluate(z + step) - b.evaluate(z - step)) / (2 * step)

    def test_derivative_at_every_zero_of_a_seeded_product(self):
        b = random_product(5, degree=4, max_radius=0.8)
        for zk in b.zeros:
            assert b.derivative(zk) == pytest.approx(self._central_difference(b, zk), abs=1e-8)

    def test_derivative_at_the_origin_of_a_cube(self, cube):
        # R' = 3 z^2 vanishes at the triple zero; the difference quotient reads step^2
        assert cube.derivative(0.0) == 0.0
        assert abs(self._central_difference(cube, 0.0)) <= 1e-9

    def test_derivative_next_to_a_zero(self, spiral):
        # |R| is about 1e-11 here, and the product rule serves this point like any other
        z = 0.3 + 0.4j + 1e-11 * np.exp(0.7j)
        assert abs(spiral.evaluate(z)) < 1e-10
        assert spiral.derivative(z) == pytest.approx(self._central_difference(spiral, z), abs=1e-8)


class TestLogDerivative:
    def test_monomial_constant(self, square, cube):
        theta = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(square.log_derivative(theta), 2.0, atol=1e-12)
        assert np.allclose(cube.log_derivative(theta), 3.0, atol=1e-12)

    def test_half_at_zero_and_pi(self, half):
        # 1 + 0.75/|1 - 0.5|^2 = 4 and 1 + 0.75/|-1 - 0.5|^2 = 4/3
        assert half.log_derivative(0.0) == pytest.approx(4.0, abs=1e-12)
        assert half.log_derivative(np.pi) == pytest.approx(4.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_against_quotient(self, seed):
        b = random_product(seed, degree=4, max_radius=0.8)
        theta = 2 * np.pi * np.arange(1024) / 1024
        z = np.exp(1j * theta)
        closed = b.log_derivative(theta)
        quotient = z * b.derivative(z) / b.evaluate(z)
        assert np.max(np.abs(quotient - closed)) <= 1e-10
        assert np.min(closed) > 0


class TestFactorBroadcast:
    """The all-zeros broadcast agrees with the per-factor loop up to the order of the sum."""

    @staticmethod
    def _compare(product, theta):
        value, slope = _argument(product, theta)
        ref_value, ref_slope = _argument_by_factor(product, theta)
        assert np.shape(value) == np.shape(slope) == np.shape(theta)
        # A sums n - 1 angles below pi/2 each to a value of size up to 2 pi n
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-13 * product.degree)
        np.testing.assert_allclose(slope, ref_slope, rtol=1e-13)
        z = np.exp(1j * np.asarray(theta))
        log_derivative = product._log_derivative_at(z)
        assert np.shape(log_derivative) == np.shape(theta)
        np.testing.assert_allclose(log_derivative, _log_derivative_by_factor(product, z), rtol=1e-13)

    @pytest.mark.parametrize(
        "theta", [0.7, np.linspace(-np.pi, np.pi, 33), np.linspace(-3.0, 3.0, 40).reshape(5, 8)]
    )
    def test_scalar_vector_and_matrix_input(self, theta):
        self._compare(random_product(5, degree=6, max_radius=0.95), theta)

    def test_degree_64_across_blocks(self):
        b = random_product(64, degree=64, max_radius=0.98)
        size = 2 * (_BLOCK_ELEMENTS // (b.degree - 1)) + 7  # two full blocks and a partial one
        self._compare(b, np.random.default_rng(0).uniform(-np.pi, np.pi, size))


class TestWeight:
    """The transfer weight ``h = n / (z R'/R)``, read as ``degree / log_derivative``."""

    def test_monomial_weight_is_one(self, cube):
        theta = np.linspace(0, 2 * np.pi, 64)
        assert np.max(np.abs(cube.degree / cube.log_derivative(theta) - 1.0)) <= 1e-12

    def test_half_values(self, half):
        assert half.degree / half.log_derivative(0.0) == pytest.approx(0.5)
        assert half.degree / half.log_derivative(np.pi) == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_positive_everywhere(self, seed):
        b = random_product(seed, degree=3, max_radius=0.8)
        theta = 2 * np.pi * np.arange(256) / 256
        assert np.min(b.degree / b.log_derivative(theta)) > 0


class TestPreimages:
    def test_square_roots_of_unity(self, square):
        points = np.sort_complex(np.asarray(square.preimages(1.0 + 0j).points))
        assert np.allclose(points, [-1.0, 1.0], atol=1e-12)

    def test_half_preimages_of_one(self, half):
        # z(z-0.5)/(1-0.5z) = 1  <=>  z^2 = 1
        points = np.sort_complex(np.asarray(half.preimages(1.0 + 0j).points))
        assert np.allclose(points, [-1.0, 1.0], atol=1e-12)

    def test_cube_roots_of_unity(self, cube):
        points = np.asarray(cube.preimages(1.0 + 0j).points)
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        dist = np.abs(points[:, None] - expected[None, :])
        assert np.max(np.min(dist, axis=1)) <= 1e-12

    def test_sorted_by_principal_argument(self, half):
        points = np.asarray(half.preimages(np.exp(0.3j)).points)
        assert np.all(np.diff(np.angle(points)) > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_solver_quality_on_target_grid(self, seed):
        b = random_product(seed, degree=3, max_radius=0.6)
        targets = np.exp(2j * np.pi * np.arange(256) / 256)
        points, residuals = preimage_grid(b, targets)
        assert np.max(residuals) <= 1e-9
        assert np.max(np.abs(np.abs(points) - 1.0)) <= 1e-9
        diff = points[:, :, None] - points[:, None, :]
        diff[:, np.arange(3), np.arange(3)] = 1.0
        assert np.min(np.abs(diff)) > 1e-6
        # evaluation closes the loop
        assert np.max(np.abs(b.evaluate(points) - targets[:, None])) <= 1e-9

    @pytest.mark.parametrize("degree", range(2, 17))
    def test_roots_match_companion_matrix(self, degree):
        # np.roots itself is off by up to 5.3e-13 here (the largest distance
        # measured over these products); the solver's residuals stay below
        # 7.8e-14, so 1e-11 separates a wrong root from oracle noise.
        b = _near_circle_product(degree)
        targets = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        points, residuals = preimage_grid(b, targets)
        assert points.shape == (64, degree)
        assert np.max(residuals) <= 1e-12
        for w, row in zip(targets, points):
            dist = np.abs(row[:, None] - polynomial_roots(b, w)[None, :])
            assert np.max(np.min(dist, axis=1)) <= 1e-11
            assert len(set(np.argmin(dist, axis=1))) == degree

    def test_argument_solve_keeps_digits_near_the_circle(self):
        # degree 14 with |z_k| up to 0.9785: a Newton polish of the polynomial
        # form once left one of these 1024 rows at residual 1.077e-9 and raised;
        # the continuous argument keeps the digits of R itself
        zeros = [
            0,
            0.5884891338420678 - 0.7251259713776401j,
            0.5932759519985427 - 0.6622796129020441j,
            -0.4131607053736564 + 0.18094413120992175j,
            0.6997682334829188 - 0.3459896029399791j,
            0.03738257734156053 + 0.20907768484991826j,
            0.739577442206342 - 0.6136643868411837j,
            0.7343870762314985 + 0.6166187398210219j,
            -0.1856112318175715 + 0.6951474933559695j,
            0.040635944835412836 + 0.07036853564309076j,
            0.713793238858448 - 0.581442680360177j,
            0.6764074323005258 - 0.5754400947695956j,
            0.5984180563496169 + 0.7741878495957459j,
            0.32658312027445496 - 0.32215501847520683j,
        ]
        b = make_blaschke(0.8676864114422235 + 0.49711195056900065j, zeros)
        _, residuals = preimage_grid(b, CircleGrid(1024).points)
        assert np.max(residuals) <= 1e-12

    def test_off_circle_target_rejected(self, half):
        with pytest.raises(ValueError, match="unit circle"):
            half.preimages(1.5 + 0j)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0)])
    def test_nonfinite_target_rejected(self, half, bad):
        # NaN compares false with the tolerance, so it is rejected as an input, never solved
        with pytest.raises(ValueError, match="finite"):
            preimage_grid(half, np.array([1.0, bad]))


def test_degree_64_solve_memory_is_bounded():
    # 1024 targets of a degree-64 product are 65536 levels; one unblocked (63, 65536)
    # factor array would take 33 MB real or 66 MB complex, the blocked solve about 11 MB
    b = random_product(64, degree=64, max_radius=0.9)
    tracemalloc.start()
    try:
        preimage_grid(b, CircleGrid(1024).points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6


@pytest.fixture
def counted_argument(monkeypatch):
    """Sizes of the angle arrays passed to ``blaschke._argument``; the argument table is cleared on
    both sides, so no table built before the patch hides it and none built under it leaks out."""
    counted = []
    argument = blaschke._argument

    def counting(product, theta):
        counted.append(np.size(theta))
        return argument(product, theta)

    blaschke._argument_table.cache_clear()
    monkeypatch.setattr(blaschke, "_argument", counting)
    yield counted
    blaschke._argument_table.cache_clear()


def test_hermite_seed_saves_newton_evaluations(counted_argument):
    # the linear-interpolation seed that preceded the Hermite seed passed 18477 points to
    # the argument's Newton steps in preimage_grid on this product; the Hermite seed on
    # 64 samples of the window needed 15524, samples included.  The 4096-angle table
    # seeds closer, so its 4096 samples and the Newton steps take 10975
    b = make_blaschke(1.0, [0, 0.99, 0.95j, -0.9])
    _, residuals = preimage_grid(b, CircleGrid(1024).points)
    assert np.max(residuals) <= 1e-13
    assert sum(counted_argument) < 0.8 * 15524


def test_argument_table_is_built_once_per_product(counted_argument):
    # the 1024-target solve builds the read-only table; the scalar solves after it read the
    # same table, so they pass only their Newton steps, never the table's angles, to _argument
    b = make_blaschke(1.0, [0, 0.99, 0.95j, -0.9])
    preimage_grid(b, CircleGrid(1024).points)
    del counted_argument[:]
    for k in range(8):
        b.preimages(np.exp(0.3j * k))
    assert blaschke._argument_table.cache_info().misses == 1
    assert counted_argument and blaschke._TABLE_ANGLES not in counted_argument
    assert sum(counted_argument) < 100
    grid, values, slopes = blaschke._argument_table(b)
    assert blaschke._argument_table(make_blaschke(1.0, b.zeros)) is blaschke._argument_table(b)
    assert not any(a.flags.writeable for a in (grid, values, slopes))
    assert grid[0] == -np.pi and grid[-1] == np.pi and grid.size == blaschke._TABLE_ANGLES


def test_near_degenerate_zero_still_solves():
    b = make_blaschke(1.0, [0, 0.97])
    result = b.preimages(np.exp(0.5j))
    assert max(result.residuals) <= 1e-9


def test_convergence_error_is_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


@st.composite
def _products_and_targets(draw):
    return draw(blaschke_products()), np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))


@given(blaschke_products(max_degree=64), st.floats(0.0, 1.0))
def test_grid_solve_properties_up_to_degree_64(b, turn):
    # never raises, residuals within the solver's tolerance, n distinct roots per
    # target; up to degree 32 the roots match np.roots (within 7.7e-12 on these
    # examples), which misses by 1.5e-7 at degree 64
    n = b.degree
    targets = np.exp(2j * np.pi * (turn + np.arange(4) / 4))
    points, residuals = preimage_grid(b, targets)
    assert points.shape == (4, n)
    assert np.max(residuals) <= 1e-9
    gaps = np.abs(points[:, :, None] - points[:, None, :]) + np.eye(n)
    assert np.min(gaps) > 1e-12
    if n <= 32:
        for w, row in zip(targets, points):
            dist = np.abs(row[:, None] - polynomial_roots(b, w)[None, :])
            assert np.max(np.min(dist, axis=1)) <= 1e-10
            assert len(set(np.argmin(dist, axis=1))) == n


@given(_products_and_targets())
def test_preimage_properties(case):
    b, w = case
    n = b.degree
    result = b.preimages(w)
    points = np.asarray(result.points)
    assert points.shape == (n,)
    assert np.max(np.abs(np.abs(points) - 1.0)) <= 1e-12
    assert np.max(np.abs(b.evaluate(points) - w)) <= 1e-12
    gaps = np.abs(points[:, None] - points[None, :]) + np.eye(n)
    assert np.min(gaps) > 1e-12
    weights = partial_fraction_weights(b, w)
    assert np.min(weights) > 0
    assert abs(np.sum(weights) - 1.0) <= 1e-12
