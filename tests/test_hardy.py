"""Truncated Toeplitz/composition matrices and their residual checks."""

import numpy as np
import pytest

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    TruncatedOperator,
    commutation_residual,
    composition_matrix,
    covariance_residual,
    fourier_coefficients,
    isometry_residual,
    operator_norm,
    sample,
    tail_compactness_profile,
    toeplitz_matrix,
)
from blaschkeops.hardy import _matrix_norm
from blaschkeops.transfer import TransferOperator
from conftest import random_product


class TestToeplitz:
    def test_unit_symbol_gives_identity(self):
        matrix = toeplitz_matrix(FourierSymbol({0: 1.0}), 6)
        np.testing.assert_allclose(matrix.entries, np.eye(6))

    def test_shift(self):
        matrix = toeplitz_matrix(FourierSymbol({1: 1.0}), 5)
        np.testing.assert_allclose(matrix.entries, np.eye(5, k=-1))

    def test_two_cosine_tridiagonal(self):
        matrix = toeplitz_matrix(FourierSymbol({1: 1.0, -1: 1.0}), 5)
        expected = np.eye(5, k=-1) + np.eye(5, k=1)
        np.testing.assert_allclose(matrix.entries, expected)


class TestCompositionMatrix:
    def test_square_pattern(self, square):
        comp = composition_matrix(square, 8, CircleGrid(64))
        expected = np.zeros((8, 8))
        for m in range(4):
            expected[2 * m, m] = 1.0
        np.testing.assert_allclose(comp.entries, expected, atol=1e-13)

    def test_monomial_pattern(self, cube):
        comp = composition_matrix(cube, 8, CircleGrid(64))
        for i in range(8):
            for j in range(8):
                expected = 1.0 if i == 3 * j else 0.0
                assert abs(comp.entries[i, j] - expected) <= 1e-13

    def test_half_column_one_is_geometric(self, half, grid_small):
        comp = composition_matrix(half, 8, grid_small)
        np.testing.assert_allclose(
            comp.entries[:5, 1].real, [0.0, -0.5, 0.75, 0.375, 0.1875], atol=1e-12
        )

    def test_columns_have_unit_norm(self, half, grid_big):
        # inner functions have unit Hardy norm; truncation keeps the columns
        # whose band edge (4j for this product) sits well inside N = 256
        comp = composition_matrix(half, 256, grid_big)
        norms = np.linalg.norm(comp.entries[:, :48], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_grid_margin_enforced(self, half):
        with pytest.raises(ValueError):
            composition_matrix(half, 128, CircleGrid(256))


class TestIsometry:
    def test_square_exact(self, square):
        comp = composition_matrix(square, 64, CircleGrid(1024))
        assert isometry_residual(comp, 16) <= 1e-14

    def test_shift_block_is_isometric(self):
        shift = toeplitz_matrix(FourierSymbol({1: 1.0}), 64)
        assert isometry_residual(shift, 16) <= 1e-14

    def test_half_guarded_corner(self, half, grid_big):
        comp = composition_matrix(half, 256, grid_big)
        assert isometry_residual(comp, 32) <= 1e-8
        assert isometry_residual(comp, 48) <= 1e-8

    def test_band_edge_limits_the_corner(self, half, grid_big):
        # column j of C carries frequencies up to ~ j * max(psi') = 4j, so at
        # m = 64 the truncation at N = 256 visibly clips column mass; the
        # residual is genuinely large there, not a solver artifact.
        comp = composition_matrix(half, 256, grid_big)
        assert isometry_residual(comp, 64) > 1e-4

    def test_corner_guard_enforced(self, half, grid_big):
        comp = composition_matrix(half, 256, grid_big)
        with pytest.raises(ValueError):
            isometry_residual(comp, 200)


class TestCovarianceResidual:
    def test_unit_symbol_matches_isometry(self, half, grid_big):
        res = covariance_residual(half, FourierSymbol({0: 1.0}), 256, 32, grid_big)
        iso = isometry_residual(composition_matrix(half, 256, grid_big), 32)
        assert res == pytest.approx(iso, abs=1e-12)

    def test_square_with_square_symbol_vanishes(self, square, grid_big):
        # index chase: m -> 2m -> 2m+2 -> m+1 against L(z^2) = w
        res = covariance_residual(square, FourierSymbol({2: 1.0}), 256, 32, grid_big)
        assert res <= 1e-13

    def test_half_with_linear_symbol(self, half, grid_big):
        res = covariance_residual(half, FourierSymbol({1: 1.0}), 256, 32, grid_big)
        assert res <= 1e-6

    def test_antianalytic_via_adjoint_symmetry(self, half, grid_big):
        # conjugate symbol residual equals the analytic one by T_a* = T_conj(a)
        res_plus = covariance_residual(half, FourierSymbol({2: 1.0}), 256, 32, grid_big)
        res_minus = covariance_residual(half, FourierSymbol({-2: 1.0}), 256, 32, grid_big)
        assert res_minus == pytest.approx(res_plus, abs=1e-9)

    def test_seeded_symbols(self, spiral, grid_big):
        rng = np.random.default_rng(5)
        for _ in range(3):
            coeffs = {
                k: complex(rng.standard_normal(), rng.standard_normal()) / (1 + abs(k))
                for k in range(-8, 9)
            }
            res = covariance_residual(spiral, FourierSymbol(coeffs), 256, 32, grid_big)
            assert res <= 1e-6

    def test_corner_guard(self, half, grid_big):
        with pytest.raises(ValueError):
            covariance_residual(half, FourierSymbol({0: 1.0}), 256, 100, grid_big)


class TestCommutationResidual:
    def test_unit_symbol(self, half, grid_big):
        assert commutation_residual(half, FourierSymbol({0: 1.0}), 256, 32, grid_big) <= 1e-13

    def test_square_with_shift(self, square, grid_big):
        # both routes send e_m to e_(2m+2)
        assert commutation_residual(square, FourierSymbol({1: 1.0}), 256, 32, grid_big) <= 1e-13

    def test_half_with_shift(self, half, grid_big):
        assert commutation_residual(half, FourierSymbol({1: 1.0}), 256, 32, grid_big) <= 1e-8

    def test_rejects_antianalytic_symbol(self, half, grid_big):
        with pytest.raises(ValueError, match="analytic"):
            commutation_residual(half, FourierSymbol({-1: 1.0}), 256, 32, grid_big)


class TestTailProfile:
    def test_zero_matrix(self):
        zero = TruncatedOperator(np.zeros((128, 128)), "0")
        assert tail_compactness_profile(zero, [8, 16, 32, 64]) == [0.0, 0.0, 0.0, 0.0]

    def test_identity_is_a_non_compact_witness(self):
        eye = TruncatedOperator.identity(256)
        profile = tail_compactness_profile(eye, [8, 16, 32, 64])
        np.testing.assert_allclose(profile, 1.0)

    def test_monotone_by_nesting(self, half, grid_big):
        comp = composition_matrix(half, 256, grid_big)
        gram = comp.adjoint() @ comp
        residual = gram - TruncatedOperator.identity(256)
        profile = tail_compactness_profile(residual, [8, 16, 32, 64], window=64)
        assert all(b <= a + 1e-12 for a, b in zip(profile, profile[1:]))

    def test_empty_corner_has_zero_norm(self):
        eye = TruncatedOperator.identity(64)
        assert tail_compactness_profile(eye, [16, 32], window=32) == [pytest.approx(1.0), 0.0]
        past_window = tail_compactness_profile(eye, [16, 32, 64], window=32)
        assert past_window == [pytest.approx(1.0), 0.0, 0.0]

    def test_cut_bounds_validated(self):
        eye = TruncatedOperator.identity(64)
        with pytest.raises(ValueError):
            tail_compactness_profile(eye, [8, 48])
        with pytest.raises(ValueError):
            tail_compactness_profile(eye, [16, 8])


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(TruncatedOperator.identity(16)) == pytest.approx(1.0)

    def test_shift(self):
        shift = toeplitz_matrix(FourierSymbol({1: 1.0}), 16)
        assert operator_norm(shift) == pytest.approx(1.0)

    def test_scaled_diagonal(self):
        diag = TruncatedOperator(3.0 * np.eye(8), "3I")
        assert operator_norm(diag) == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        ours = operator_norm(TruncatedOperator(matrix, "X"))
        reference = np.linalg.svd(matrix, compute_uv=False)[0]
        assert ours == pytest.approx(reference, rel=1e-9)


class TestTruncatedOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedOperator(np.zeros((3, 4)), "bad")
        with pytest.raises(ValueError):
            TruncatedOperator(np.zeros((4, 4)), "")
        with pytest.raises(ValueError):
            TruncatedOperator(np.full((4, 4), np.nan), "nan")

    def test_algebra_and_labels(self):
        eye = TruncatedOperator.identity(4)
        shift = toeplitz_matrix(FourierSymbol({1: 1.0}), 4, label="S")
        prod = shift @ shift
        assert prod.label == "S·S"
        np.testing.assert_allclose((prod - prod).entries, 0.0)
        assert shift.adjoint().label == "(S)*"
        np.testing.assert_allclose((2.0 * eye).entries, 2.0 * np.eye(4))

    def test_composition_vs_sampled_product(self, half, grid_small):
        # oracle: column m of C holds coefficients of R^m obtained separately
        comp = composition_matrix(half, 16, grid_small)
        power = sample(lambda z: half.evaluate(z) ** 3, grid_small)
        coeffs = fourier_coefficients(power)
        np.testing.assert_allclose(
            comp.entries[:16, 3], [coeffs.coefficient(i) for i in range(16)], atol=1e-12
        )


class TestSlicedCorners:
    """The residuals assemble only the m x m corner, from slices; the dense
    TruncatedOperator products read at the corner are the reference."""

    N_TRUNC, CORNER = 64, 16

    @pytest.fixture(params=["half", "random"])
    def setup(self, request, half):
        product = half if request.param == "half" else random_product(0)
        grid = CircleGrid(1024)
        return product, grid, composition_matrix(product, self.N_TRUNC, grid)

    def _symbol(self, seed, low, band):
        rng = np.random.default_rng(seed)
        return FourierSymbol(
            {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(low, band + 1)}
        )

    def test_isometry(self, setup):
        _, _, comp = setup
        dense = comp.adjoint() @ comp - TruncatedOperator.identity(self.N_TRUNC)
        sliced = isometry_residual(comp, self.CORNER)
        assert sliced == pytest.approx(_matrix_norm(dense.corner(self.CORNER)), abs=1e-14)

    def test_covariance(self, setup):
        product, grid, comp = setup
        a = self._symbol(1, -8, 8)
        image = TransferOperator(product).symbol_image(a.evaluate, grid)
        t_a = toeplitz_matrix(a, self.N_TRUNC)
        dense = comp.adjoint() @ t_a @ comp - toeplitz_matrix(image, self.N_TRUNC)
        sliced = covariance_residual(product, a, self.N_TRUNC, self.CORNER, grid)
        assert sliced == pytest.approx(_matrix_norm(dense.corner(self.CORNER)), abs=1e-14)

    def test_commutation(self, setup):
        product, grid, comp = setup
        b = self._symbol(2, 0, 4)
        pullback = fourier_coefficients(b.evaluate(product.evaluate(grid.points)))
        t_b = toeplitz_matrix(b, self.N_TRUNC)
        dense = comp @ t_b - toeplitz_matrix(pullback, self.N_TRUNC) @ comp
        sliced = commutation_residual(product, b, self.N_TRUNC, self.CORNER, grid)
        assert sliced == pytest.approx(_matrix_norm(dense.corner(self.CORNER)), abs=1e-14)
