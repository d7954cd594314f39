"""Truncated Toeplitz/composition matrices and their residual checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    TMBasis,
    TruncatedOperator,
    commutation_residual,
    composition_matrix,
    covariance_residual,
    factor_parts,
    fourier_coefficients,
    inner_product_residual,
    isometry_residual,
    make_blaschke,
    operator_norm,
    sample,
    tail_compactness_profile,
    toeplitz_matrix,
)
from blaschkeops.hardy import (
    _matrix_norm,
    _power_iteration,
    _power_spectra,
    _symbol_sup_bound,
    _toeplitz_apply,
    _toeplitz_block,
)
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


    @pytest.mark.parametrize(
        "coeffs, n",
        [
            ({-3: 1 + 1j, 0: 2.0, 2: -0.5j, 5: 0.25}, 6),  # gaps and negative indices
            ({k: 1.0 / (1 + k * k) + 1j * k for k in range(-9, 10)}, 5),  # wider than N
            ({1: 3.0, 2: -1j}, 8),  # narrower than N
            ({}, 4),
        ],
    )
    def test_matches_coefficient_double_loop(self, coeffs, n):
        a = FourierSymbol(coeffs)
        expected = np.array([[a.coefficient(i - j) for j in range(n)] for i in range(n)])
        entries = toeplitz_matrix(a, n).entries
        assert np.array_equal(entries, expected)
        # the residuals read rectangular leading blocks of the same matrix
        assert np.array_equal(_toeplitz_block(a, n, 2), expected[:, :2])
        assert np.array_equal(_toeplitz_block(a, 2, n), expected[:2])
        assert _toeplitz_block(a, 0, n).shape == (0, n) and _toeplitz_block(a, n, 0).shape == (n, 0)
        # the column route applies the same section as one FFT convolution
        x = np.random.default_rng(n).standard_normal((n, 3)) + 0j
        np.testing.assert_allclose(_toeplitz_apply(a, x), expected @ x, rtol=0, atol=1e-13)


class TestCompositionMatrix:
    def test_square_pattern(self, square):
        comp = composition_matrix(square, 8)
        expected = np.zeros((8, 8))
        for m in range(4):
            expected[2 * m, m] = 1.0
        np.testing.assert_allclose(comp.entries, expected, atol=1e-13)

    def test_monomial_pattern(self, cube):
        comp = composition_matrix(cube, 8)
        for i in range(8):
            for j in range(8):
                expected = 1.0 if i == 3 * j else 0.0
                assert abs(comp.entries[i, j] - expected) <= 1e-13

    @pytest.mark.parametrize("which", ["half", "degree3"])
    def test_corner_is_the_smaller_truncation(self, half, which):
        # column j holds the first Taylor coefficients of R^j, each computed
        # from earlier coefficients only, so the leading block does not depend on N
        product = half if which == "half" else random_product(0)
        corner = composition_matrix(product, 256).entries[:16, :16]
        assert np.array_equal(composition_matrix(product, 16).entries, corner)

    @pytest.mark.parametrize(
        "zeros",
        [[0, 0.5], [0, 0.3, -0.4 + 0.2j, 0.5j], [0, 0.95], [0, 0.99j]],
        ids=["half", "degree4", "0.95", "0.99i"],
    )
    def test_columns_match_a_fine_fft_reference(self, zeros):
        # reference: the first N Fourier coefficients of R^j on 2^18 points,
        # where the tail that aliases back is below rounding
        product = make_blaschke(np.exp(1.3j), zeros)
        n_trunc, cols = 256, 16
        block = _power_spectra(product, n_trunc, cols)
        assert block.shape == (n_trunc, cols)
        assert not block.flags.writeable
        assert np.all(np.triu(block[:cols], 1) == 0)
        fine = CircleGrid(2**18)
        values = product.evaluate(fine.points)
        power = np.ones(fine.size, dtype=complex)
        for j in range(cols):
            oracle = np.fft.fft(power)[:n_trunc] / fine.size
            np.testing.assert_allclose(block[:, j], oracle, rtol=0, atol=1e-13)
            power = power * values

    def test_half_column_one_is_geometric(self, half):
        comp = composition_matrix(half, 8)
        np.testing.assert_allclose(
            comp.entries[:5, 1].real, [0.0, -0.5, 0.75, 0.375, 0.1875], atol=1e-12
        )

    def test_columns_have_unit_norm(self, half):
        # inner functions have unit Hardy norm; truncation keeps the columns
        # whose band edge (4j for this product) sits well inside N = 256
        comp = composition_matrix(half, 256)
        norms = np.linalg.norm(comp.entries[:, :48], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


class TestIsometry:
    def test_square_exact(self, square):
        comp = composition_matrix(square, 64)
        assert isometry_residual(comp, 16) <= 1e-14

    def test_shift_block_is_isometric(self):
        shift = toeplitz_matrix(FourierSymbol({1: 1.0}), 64)
        assert isometry_residual(shift, 16) <= 1e-14

    def test_half_guarded_corner(self, half):
        comp = composition_matrix(half, 256)
        assert isometry_residual(comp, 32) <= 1e-8
        assert isometry_residual(comp, 48) <= 1e-8

    def test_band_edge_limits_the_corner(self, half):
        # column j of C carries frequencies up to ~ j * max(psi') = 4j, so at
        # m = 64 the truncation at N = 256 visibly clips column mass; the
        # residual is genuinely large there, not a solver artifact.
        comp = composition_matrix(half, 256)
        assert isometry_residual(comp, 64) > 1e-4

    def test_corner_guard_enforced(self, half):
        comp = composition_matrix(half, 256)
        with pytest.raises(ValueError):
            isometry_residual(comp, 200)


class TestCovarianceResidual:
    def test_unit_symbol_matches_isometry(self, half, grid_big):
        res = covariance_residual(half, FourierSymbol({0: 1.0}), 256, 32, grid_big)
        iso = isometry_residual(composition_matrix(half, 256), 32)
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
    """Trailing corners of the N x N section of ``T_d``, read as leading sections of d."""

    CUTS = [8, 16, 32, 64]

    def test_zero_matrix(self):
        assert tail_compactness_profile(FourierSymbol({}), 128, self.CUTS) == [0.0, 0.0, 0.0, 0.0]

    def test_identity_is_a_non_compact_witness(self):
        profile = tail_compactness_profile(FourierSymbol({0: 1.0}), 256, self.CUTS)
        np.testing.assert_allclose(profile, 1.0)

    def test_monotone_by_nesting(self, half):
        # a frame-pair residual on a coarse grid: the quadrature error fills
        # its leading corner, and every deeper cut reads a sub-block of the one
        # before; the power iteration's jitter on tiny blocks is below 1e-12
        basis, grid = TMBasis(half), CircleGrid(256)

        def frame(z):
            q, r = factor_parts(basis, 1, z)
            return q * r

        residual = inner_product_residual(half, frame, frame, 64, grid)
        profile = tail_compactness_profile(residual, 64, range(0, 65, 4))
        assert profile[0] > 1e-2 and profile[8] < 1e-10 and profile[-1] == 0.0
        assert all(b <= a + 1e-12 for a, b in zip(profile, profile[1:]))

    def test_empty_corner_has_zero_norm(self):
        eye = FourierSymbol({0: 1.0})
        assert tail_compactness_profile(eye, 32, [16, 32]) == [pytest.approx(1.0), 0.0]
        assert tail_compactness_profile(eye, 32, [16, 32, 64]) == [pytest.approx(1.0), 0.0, 0.0]

    def test_cut_bounds_validated(self):
        eye = FourierSymbol({0: 1.0})
        for cuts in ([16, 8], [8, 8], [-1, 8], []):
            with pytest.raises(ValueError):
                tail_compactness_profile(eye, 64, cuts)


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
        assert ours == _matrix_norm(matrix) == np.linalg.svd(matrix, compute_uv=False)[0]

    def test_small_and_empty_blocks(self):
        # the power iteration's absolute stopping rule read this block as
        # 1.67e-6, 17% below its largest singular value
        rng = np.random.default_rng(0)
        block = 1e-7 * (rng.standard_normal((64, 48)) + 1j * rng.standard_normal((64, 48)))
        assert _matrix_norm(block) == np.linalg.svd(block, compute_uv=False)[0]
        assert _matrix_norm(np.zeros((0, 5))) == 0.0

    def test_block_that_stalls_the_power_iteration(self):
        # the v2,v2 module-tail corner of [0,0.99i] at cut 64: clustered top
        # singular values keep the iteration from settling in 10 000 steps
        from blaschkeops.verify import _frame_functions

        product = make_blaschke(np.exp(1.3j), [0, 0.99j])
        v2 = _frame_functions(product)[1]
        residual = inner_product_residual(product, v2, v2, 256, CircleGrid(16384))
        block = _toeplitz_block(residual, 192, 192)
        assert _power_iteration(block, 1e-12, 10_000)[1] is False
        assert _matrix_norm(block) == np.linalg.svd(block, compute_uv=False)[0]
        assert _matrix_norm(block) == pytest.approx(3.98, abs=5e-3)


def _check_sup_bound(d: FourierSymbol, n: int) -> float:
    """Asserts that the bound holds every section and stays within 1.25x of its samples."""
    bound = _symbol_sup_bound(d)
    for k in (1, n // 2, n):
        assert np.linalg.norm(_toeplitz_block(d, k, k), 2) <= bound
    samples = np.abs(np.fft.fft(d.values, 1 << (16 * n - 1).bit_length()))  # L >= 16 N points
    assert bound <= 1.25 * np.max(samples)
    return bound


class TestSymbolSupBound:
    """One FFT and Bernstein's inequality bound sup |d|, so every section of T_d."""

    @given(st.integers(16, 256), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
    def test_bounds_every_section(self, n, seed, decay):
        rng = np.random.default_rng(seed)
        k = np.arange(1 - n, n)
        values = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) * np.exp(-decay * np.abs(k))
        _check_sup_bound(FourierSymbol._dense(1 - n, values), n)

    @pytest.mark.parametrize("n", [16, 100, 256])
    def test_peak_between_samples(self, n):
        # a Dirichlet kernel peaking at 2n - 1 halfway between two of the samples
        length = 1 << (16 * n - 1).bit_length()
        k = np.arange(1 - n, n)
        d = FourierSymbol._dense(1 - n, np.exp(-1j * np.pi * k / length))
        assert np.max(np.abs(np.fft.fft(d.values, length))) < 2 * n - 1 <= _check_sup_bound(d, n)

    def test_empty_symbol(self):
        assert _symbol_sup_bound(FourierSymbol({})) == 0.0


def _gram_power_iteration(block, tol, max_iter):
    """Reference: the power iteration on an up-front Gram matrix ``A* A``.

    Same start vector and stopping rule as ``_power_iteration``; also returns
    the number of steps taken.
    """
    gram = block.conj().T @ block
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(gram.shape[0]) + 1j * rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    previous = current = 0.0
    for step in range(1, max_iter + 1):
        w = gram @ v
        current = float(np.linalg.norm(w))
        v = w / current
        if abs(current - previous) <= tol * max(current, 1.0):
            return float(np.sqrt(current)), True, step
        previous = current
    return float(np.sqrt(current)), False, max_iter


def _clustered_block(rows=60, cols=40):
    # top singular values 1, 0.998, 0.996, ...: the iteration runs for
    # thousands of steps, far past the cols // 2 switch to the Gram matrix
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    w, _ = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))
    return (u * (1.0 - 0.002 * np.arange(cols))) @ w.conj().T


class TestPowerIteration:
    """Matrix-vector steps, with the Gram matrix formed only for long runs,
    give what the up-front Gram iteration gives."""

    def test_one_step_block(self):
        rng = np.random.default_rng(0)
        block = 1e-8 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        value, converged, steps = _gram_power_iteration(block, 1e-12, 10_000)
        assert steps == 1
        ours = _power_iteration(block, 1e-12, 10_000)
        assert ours[1] is converged is True
        assert ours[0] == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("max_iter", [10_000, 40])
    def test_long_run_past_the_switch(self, max_iter):
        block = _clustered_block()
        value, converged, steps = _gram_power_iteration(block, 1e-12, max_iter)
        assert steps > block.shape[1] // 2
        assert converged is (max_iter == 10_000)
        ours = _power_iteration(block, 1e-12, max_iter)
        assert ours[1] is converged
        assert ours[0] == pytest.approx(value, rel=1e-14)


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
        np.testing.assert_allclose(eye.entries, np.eye(4))

    def test_composition_vs_sampled_product(self, half, grid_small):
        # oracle: column m of C holds coefficients of R^m obtained separately
        comp = composition_matrix(half, 16)
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
        return product, grid, composition_matrix(product, self.N_TRUNC)

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
