"""Lift, branch inverses, conjugacy to the monomial map, and K-groups."""

import numpy as np
import pytest
from hypothesis import given, settings

from blaschkeops import branch_inverse, build_lift, conjugacy_to_power, k_groups, make_blaschke
from blaschkeops.dynamics import _fixed_point, _power_certificate, _preimage_tree
from blaschkeops.verify import DEFAULT_TOLERANCES
from conftest import blaschke_products, polynomial_roots, random_product

TWO_PI = 2.0 * np.pi


class TestLift:
    def test_monomial_lift_is_linear(self, square):
        lift = build_lift(square, 1024)
        assert lift.theta0 == pytest.approx(TWO_PI)
        np.testing.assert_allclose(lift.psi, 2.0 * lift.thetas, atol=1e-12)
        np.testing.assert_allclose(square.log_derivative(lift.thetas), 2.0)

    def test_half_derivative_samples(self, half):
        # psi'(0) = 4 and psi'(pi) = 4/3 from the closed-form log-derivative
        lift = build_lift(half, 2049)
        idx0 = np.argmin(np.abs(lift.thetas - 0.0))
        idx_pi = np.argmin(np.abs(lift.thetas - np.pi))
        dpsi = half.log_derivative(lift.thetas)
        assert dpsi[idx0] == pytest.approx(4.0, abs=1e-9)
        assert dpsi[idx_pi] == pytest.approx(4.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_total_increase_is_winding_number(self, seed):
        product = random_product(seed, degree=3)
        lift = build_lift(product, 2048)
        total = lift.psi[-1] - lift.psi[0]
        assert total == pytest.approx(TWO_PI * 3, abs=1e-8)

    def test_strictly_increasing_and_expanding(self, spiral):
        lift = build_lift(spiral, 1024)
        assert np.all(np.diff(lift.psi) > 0)
        assert np.min(spiral.log_derivative(lift.thetas)) > 1.0

    def test_small_grid_rejected(self, half):
        with pytest.raises(ValueError):
            build_lift(half, 100)

    def test_steep_product_on_the_smallest_grid(self):
        # five zeros at 0.98 give max psi' = 496, a winding of 12 radians per
        # step of 2 pi / 255; the closed-form lift needs no finer grid.  The
        # five-fold zero costs np.roots 6e-9, so the oracle takes two Newton steps on R
        product = make_blaschke(1.0, [0, 0.98, 0.98, 0.98, 0.98, 0.98])
        lift = build_lift(product, 256)
        assert product.log_derivative(lift.thetas).max() == pytest.approx(496.0)
        for t in TWO_PI * np.arange(64) / 64:
            branch = np.exp(1j * np.array([branch_inverse(lift, k, float(t)) for k in range(1, 7)]))
            dist = np.abs(branch[:, None] - polynomial_roots(product, np.exp(1j * t), polish=2)[None, :])
            assert np.max(np.min(dist, axis=1)) <= 1e-12
            assert np.max(np.min(dist, axis=0)) <= 1e-12
        assert conjugacy_to_power(product, 256).residual <= 1e-12

    def test_newton_stays_in_the_bracketing_cell(self):
        # max psi' = 1999 at grid 256: a plain Newton step from the
        # interpolated seed leaves the cell and diverges, so it bisects
        product = make_blaschke(np.exp(0.7j), [0, 0.999])
        lift = build_lift(product, 256)
        for t in TWO_PI * np.arange(64) / 64:
            branch = np.exp(1j * np.array([branch_inverse(lift, k, float(t)) for k in (1, 2)]))
            dist = np.abs(branch[:, None] - polynomial_roots(product, np.exp(1j * t))[None, :])
            assert np.max(np.min(dist, axis=1)) <= 1e-12
        assert conjugacy_to_power(product, 256).residual <= 1e-12


class TestBranchInverse:
    def test_monomial_branches_are_affine(self, cube):
        lift = build_lift(cube, 1024)
        for k in (1, 2, 3):
            for t in (0.0, 1.0, 2 * np.pi):
                expected = (t + TWO_PI * (k - 1)) / 3.0
                assert branch_inverse(lift, k, t) == pytest.approx(expected, abs=1e-11)

    def test_square_branches_at_zero(self, square):
        lift = build_lift(square, 1024)
        points = {np.round(np.exp(1j * branch_inverse(lift, k, 0.0)), 9) for k in (1, 2)}
        assert points == {1 + 0j, -1 + 0j}

    def test_half_branches_recover_preimages(self, half):
        lift = build_lift(half, 2048)
        points = np.array([np.exp(1j * branch_inverse(lift, k, 0.0)) for k in (1, 2)])
        expected = np.array([1.0, -1.0])
        dist = np.abs(points[:, None] - expected[None, :])
        assert np.max(np.min(dist, axis=1)) <= 1e-8

    @pytest.mark.parametrize("seed", range(2))
    def test_branches_match_polynomial_solver(self, seed):
        product = random_product(seed, degree=3)
        lift = build_lift(product, 2048)
        for t in TWO_PI * np.arange(64) / 64:
            branch = np.array(
                [np.exp(1j * branch_inverse(lift, k, float(t))) for k in (1, 2, 3)]
            )
            dist = np.abs(branch[:, None] - polynomial_roots(product, np.exp(1j * t))[None, :])
            assert np.max(np.min(dist, axis=1)) <= 1e-8
            assert np.max(np.min(dist, axis=0)) <= 1e-8

    def test_parameter_range_enforced(self, half):
        lift = build_lift(half, 1024)
        with pytest.raises(ValueError):
            branch_inverse(lift, 3, 0.0)
        with pytest.raises(ValueError):
            branch_inverse(lift, 1, 7.0)


class TestConjugacy:
    def test_monomial_converges_immediately_to_identity(self, square):
        result = conjugacy_to_power(square, 1024)
        np.testing.assert_allclose(result.values, result.thetas, atol=1e-12)
        assert result.residual <= 1e-12

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_higher_monomials_are_conjugate_by_the_identity(self, degree):
        # the fixed point behind phi is 1 for every degree, so phi is the identity
        result = conjugacy_to_power(make_blaschke(1.0, [0] * degree), 1024)
        np.testing.assert_allclose(result.values, result.thetas, atol=1e-12)
        assert result.residual <= 1e-12

    def test_half_functional_equation(self, half):
        result = conjugacy_to_power(half, 4096)
        assert result.residual <= 1e-6

    def test_monotone_samples(self, spiral):
        result = conjugacy_to_power(spiral, 2048)
        assert np.all(np.diff(result.values) > 0)

    def test_degree_one_periodicity(self, half):
        result = conjugacy_to_power(half, 2048)
        # the samples start at the fixed point, which phi sends to 1; the
        # periodic continuation phi(theta + 2 pi) = phi(theta) + 2 pi must
        # stay above the last sample
        assert result.values[0] == 0.0
        assert 0.0 <= result.thetas[0] < TWO_PI
        assert result.thetas[-1] < result.thetas[0] + TWO_PI
        assert result.values[-1] < TWO_PI

    def test_depth_from_grid_and_separation(self, half):
        # n^K <= grid_size caps the tree; [0, 0.95] stops earlier, where the
        # next level's points near the repelling fixed point would collide
        result = conjugacy_to_power(half, 4096)
        assert (result.levels, len(result.thetas)) == (12, 4096)
        crowded = conjugacy_to_power(make_blaschke(np.exp(1.3j), [0, 0.95]), 16384)
        assert len(crowded.thetas) == 2**crowded.levels < 16384
        assert crowded.min_gap > 1e-12
        assert crowded.residual <= 1e-13

    def test_copy_of_fixed_point_is_anchored_first(self, half):
        # p's own copy in the tree can round to just below angle 2 pi from p;
        # turning p by 1e-13 forces that side, and the anchor keeps it first
        p = np.exp(1j * conjugacy_to_power(half, 4096).thetas[0])
        points, offsets, levels, _ = _preimage_tree(half, p * np.exp(1e-13j), 4096)
        assert levels == 12 and offsets[0] == 0.0
        assert _power_certificate(half, points) <= 1e-12

    def test_conjugates_circle_dynamics(self, half):
        # independent spot check of phi(R(e^(i t))) = phi(e^(i t))^n at
        # off-grid points.  The conjugacy is only Hoelder continuous (the
        # periodic multipliers of R and z^2 differ), so linear interpolation
        # between samples is accurate only to ~ 1e-3 at this grid; the sharp
        # residual lives on the tree and is certified by the constructor.
        result = conjugacy_to_power(half, 4096)
        assert result.residual <= 1e-6
        start = result.thetas[0]
        thetas = np.concatenate([result.thetas, [start + TWO_PI]])
        values = np.concatenate([result.values, [TWO_PI]])

        def phi(t):  # samples start at the fixed point, so unwrap from there
            return np.interp(start + (t - start) % TWO_PI, thetas, values)

        for t in np.linspace(0.1, 5.9, 23):
            image = np.angle(half.evaluate(np.exp(1j * t)))
            lhs = np.exp(1j * phi(image))
            rhs = np.exp(2j * phi(t))
            assert abs(lhs - rhs) <= 5e-3

    def test_turned_phase_fails_certificate(self, half):
        # negative control: the tree of R certified against R with its phase
        # turned by 1e-3 must read above the power_conjugacy tolerance
        result = conjugacy_to_power(half, 4096)
        points = np.exp(1j * result.thetas)
        turned = make_blaschke(half.phase * np.exp(1e-3j), half.zeros)
        assert _power_certificate(half, points) <= 1e-13
        assert _power_certificate(turned, points) > DEFAULT_TOLERANCES["power_conjugacy"]


@given(blaschke_products())
@settings(max_examples=50)
def test_lift_and_conjugacy_properties(product):
    n = product.degree
    lift = build_lift(product, 4096)
    assert lift.psi[-1] - lift.psi[0] == pytest.approx(TWO_PI * n, abs=1e-8)
    assert not lift.thetas.flags.writeable and not lift.psi.flags.writeable
    p = _fixed_point(product)
    assert abs(product.evaluate(p) - p) <= 1e-12
    result = conjugacy_to_power(product, 4096)
    assert not result.thetas.flags.writeable and not result.values.flags.writeable
    assert np.all(np.diff(result.thetas) > 0)
    assert result.min_gap > 1e-12
    assert result.residual <= 1e-12


def _assert_array_solve_matches_scalar_loop(lift):
    # each branch k at 16 targets in one array, against one scalar solve per target
    ts = TWO_PI * np.arange(16) / 16
    for k in range(1, lift.degree + 1):
        batch = branch_inverse(lift, k, ts)
        assert batch.shape == ts.shape
        scalar = np.array([branch_inverse(lift, k, float(t)) for t in ts])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-13)


@given(blaschke_products())
@settings(max_examples=25)
def test_array_lift_solve_matches_scalar_loop(product):
    _assert_array_solve_matches_scalar_loop(build_lift(product, 256))


@pytest.mark.parametrize("zeros", [[0, 0.999], [0, 0.9999, -0.9999]])
def test_array_lift_solve_bisects_per_level(zeros):
    # max psi' reaches 2e3-4e4 on the 64 samples of the solve, so Newton leaves
    # its cell at some levels and not at others: each level must keep its own bracket
    _assert_array_solve_matches_scalar_loop(build_lift(make_blaschke(np.exp(0.7j), zeros), 256))


class TestKGroups:
    @pytest.mark.parametrize(
        "n,expected0",
        [(2, "Z"), (3, "Z ⊕ Z/2Z"), (5, "Z ⊕ Z/4Z")],
    )
    def test_formula(self, n, expected0):
        k0, k1 = k_groups(n)
        assert k0 == expected0
        assert k1 == "Z"

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            k_groups(1)
