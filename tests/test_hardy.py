"""Truncated Toeplitz/composition matrices and their residual checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    TruncatedOperator,
    commutation_residual,
    composition_matrix,
    covariance_residual,
    fourier_coefficients,
    isometry_residual,
    make_blaschke,
    operator_norm,
    toeplitz_matrix,
)
from blaschkeops import tmbasis
from blaschkeops.hardy import (
    _certified_norms,
    _left_symbols,
    _matrix_norm,
    _power_iteration,
    _power_spectra,
    _toeplitz_block,
)
from conftest import random_product, wide_product


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
        # to rounding: the FFT products round differently at another length (4e-16 and 6e-16
        # here), while the zeros above the diagonal stay exact
        product = half if which == "half" else random_product(0)
        corner = composition_matrix(product, 256).entries[:16, :16]
        small = composition_matrix(product, 16).entries
        np.testing.assert_allclose(small, corner, rtol=0, atol=2e-15)
        assert np.all(np.triu(small, 1) == 0) and np.all(np.triu(corner, 1) == 0)

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
        assert isometry_residual(comp.entries, 16) <= 1e-14

    def test_shift_block_is_isometric(self):
        shift = toeplitz_matrix(FourierSymbol({1: 1.0}), 64)
        assert isometry_residual(shift.entries, 16) <= 1e-14

    def test_half_guarded_corner(self, half):
        comp = composition_matrix(half, 256)
        assert isometry_residual(comp.entries, 32) <= 1e-8
        assert isometry_residual(comp.entries, 48) <= 1e-8

    def test_band_edge_limits_the_corner(self, half):
        # column j of C carries frequencies up to ~ j * max(psi') = 4j, so at
        # m = 64 the truncation at N = 256 visibly clips column mass; the
        # residual is genuinely large there, not a solver artifact.
        comp = composition_matrix(half, 256)
        assert isometry_residual(comp.entries, 64) > 1e-4

    def test_corner_guard_enforced(self, half):
        comp = composition_matrix(half, 256)
        with pytest.raises(ValueError):
            isometry_residual(comp.entries, 200)


class TestCovarianceResidual:
    def test_unit_symbol_matches_isometry(self, half):
        # a = 1: C* C = I on H^2, so the symbol route and the resolved corner both read rounding
        res = covariance_residual(half, [FourierSymbol({0: 1.0})])[0]
        iso = isometry_residual(composition_matrix(half, 256).entries, 32)
        assert res == pytest.approx(iso, abs=1e-12) and res <= 1e-14

    def test_square_with_square_symbol_vanishes(self, square):
        # index chase: m -> 2m -> 2m+2 -> m+1 against L(z^2) = w
        res = covariance_residual(square, [FourierSymbol({2: 1.0})])[0]
        assert res <= 1e-13

    def test_half_with_linear_symbol(self, half):
        res = covariance_residual(half, [FourierSymbol({1: 1.0})])[0]
        assert res <= 1e-6

    def test_antianalytic_via_adjoint_symmetry(self, half):
        # conjugate symbol residual equals the analytic one by T_a* = T_conj(a)
        res_plus = covariance_residual(half, [FourierSymbol({2: 1.0})])[0]
        res_minus = covariance_residual(half, [FourierSymbol({-2: 1.0})])[0]
        assert res_minus == pytest.approx(res_plus, abs=1e-9)

    def test_seeded_symbols(self, spiral):
        rng = np.random.default_rng(5)
        for _ in range(3):
            coeffs = {
                k: complex(rng.standard_normal(), rng.standard_normal()) / (1 + abs(k))
                for k in range(-8, 9)
            }
            res = covariance_residual(spiral, [FourierSymbol(coeffs)])[0]
            assert res <= 1e-6

    def test_bound_above_tolerance_takes_the_peak(self, half):
        # a symbol the identity leaves at rounding passes on its bound, whatever the tolerance
        # above it; below its peak, the value is the largest of the bound's samples, a lower bound;
        # between the two, denser samples give a tighter bound, still above the peak
        a = FourierSymbol({-3: 0.5, 0: 1.0, 2: 0.25j})
        [bound] = covariance_residual(half, [a])
        [peak] = covariance_residual(half, [a], tol=0.0)
        assert bound == covariance_residual(half, [a], tol=bound)[0]
        assert 0.0 < peak < bound <= 1.25 * peak and bound <= 1e-14
        [tighter] = covariance_residual(half, [a], tol=np.nextafter(bound, 0.0))
        assert peak < tighter < bound


class TestLeftSymbols:
    PRODUCTS = {"[0,0.99i]": make_blaschke(np.exp(1.3j), [0, 0.99j]), "degree-16": wide_product(10)}

    @staticmethod
    def _check(product, below, width):
        # the streamed columns against one dense product with the K x width block, kept out of the cache;
        # the two sum K terms in different orders, so they agree to 1e-15 of the largest sum of |terms|
        block = _power_spectra.__wrapped__(product, below.shape[-1], width)
        got, reference = _left_symbols(product, below, width), below @ block
        assert got.shape == reference.shape
        assert np.max(np.abs(got - reference)) <= 1e-15 * np.max(np.abs(below) @ np.abs(block))

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_covariance_rows_match_the_dense_block(self, name):
        # covariance's call: 10 rows a_hat(-t) and 10 rows conj(a_hat(t)) of band-8 symbols, K = width = 9
        rng = np.random.default_rng(1)
        coeffs = (rng.standard_normal((10, 17)) + 1j * rng.standard_normal((10, 17))) / (2 + np.abs(np.arange(-8, 9)))
        self._check(self.PRODUCTS[name], np.concatenate((coeffs[:, 8::-1], coeffs[:, 8:].conj())), 9)

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_frame_pair_rows_match_the_dense_block(self, name):
        # inner_product_residual's call: the (P, P, K) rows of a = n conj(v_i) v_j, width min(256, K)
        product = self.PRODUCTS[name]
        size = tmbasis._needed_length(product, 1, product.degree, np.inf)
        vals = tmbasis.frame(product)(CircleGrid(2 * size).points)
        below = np.array([np.fft.ifft(product.degree * np.conj(v) * vals)[:, :size] for v in vals])
        assert below.shape == (product.degree, product.degree, size)
        self._check(product, below, min(256, size))


class TestCommutationResidual:
    def test_unit_symbol(self, half, grid_big):
        assert commutation_residual(half, [FourierSymbol({0: 1.0})], 32, grid_big)[0] <= 1e-13

    def test_square_with_shift(self, square, grid_big):
        # both routes send e_m to e_(2m+2)
        assert commutation_residual(square, [FourierSymbol({1: 1.0})], 32, grid_big)[0] <= 1e-13

    def test_half_with_shift(self, half, grid_big):
        assert commutation_residual(half, [FourierSymbol({1: 1.0})], 32, grid_big)[0] <= 1e-8

    def test_rejects_antianalytic_symbol(self, half, grid_big):
        with pytest.raises(ValueError, match="analytic"):
            commutation_residual(half, [FourierSymbol({-1: 1.0})], 32, grid_big)

    def test_reads_only_the_analytic_coefficients_of_b_o_r(self):
        # the sized grid for [0,0.9] at m = 256 is G = 2m: there bin G - d holds coefficient
        # G - d of b o R, not -d; reading it into the upper triangle of T_(b o R) would give 2.9e-8
        product = make_blaschke(1.0, [0, 0.9])
        symbols = [FourierSymbol({4: 1.0}), FourierSymbol({0: 0.5, 1: 1.0, 4: -0.25j})]
        assert tmbasis._needed_length(product, 4, 256) == 512
        sized = commutation_residual(product, symbols, 256, CircleGrid(512))
        assert max(sized) <= 1e-13
        assert sized == pytest.approx(commutation_residual(product, symbols, 256, CircleGrid(16384)), abs=1e-14)
        with pytest.raises(ValueError, match="m points"):
            commutation_residual(product, symbols, 256, CircleGrid(128))


def _trailing_corners(d: FourierSymbol, n_trunc: int, cuts) -> list:
    # the trailing (N - m) x (N - m) corner of the N x N section of T_d is the leading section of
    # the same symbol (Boettcher-Silbermann), so each norm reads that section; past N it is empty
    return [_matrix_norm(_toeplitz_block(d, max(n_trunc - m, 0), max(n_trunc - m, 0))) for m in cuts]


class TestTailProfile:
    """Trailing corners of the N x N section of ``T_d``, read as leading sections of d."""

    CUTS = [8, 16, 32, 64]

    def test_zero_matrix(self):
        assert _trailing_corners(FourierSymbol({}), 128, self.CUTS) == [0.0, 0.0, 0.0, 0.0]

    def test_identity_is_a_non_compact_witness(self):
        profile = _trailing_corners(FourierSymbol({0: 1.0}), 256, self.CUTS)
        np.testing.assert_allclose(profile, 1.0)

    def test_monotone_by_nesting(self):
        # a symbol carried by 32 <= |k| < 64 fills the leading corner of its 64 x 64
        # section, while a trailing corner of size 32 or less reads only its zero
        # coefficients |k| < 32; every deeper cut reads a sub-block of the one before
        rng = np.random.default_rng(0)
        band = [k for k in range(-63, 64) if abs(k) >= 32]
        symbol = FourierSymbol({k: complex(*rng.standard_normal(2)) / abs(k) for k in band})
        profile = _trailing_corners(symbol, 64, range(0, 65, 4))
        assert profile[0] > 1e-2 and profile[8] < 1e-10 and profile[-1] == 0.0
        assert all(b <= a + 1e-12 for a, b in zip(profile, profile[1:]))

    def test_empty_corner_has_zero_norm(self):
        eye = FourierSymbol({0: 1.0})
        assert _trailing_corners(eye, 32, [16, 32]) == [pytest.approx(1.0), 0.0]
        assert _trailing_corners(eye, 32, [16, 32, 64]) == [pytest.approx(1.0), 0.0, 0.0]


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(TruncatedOperator(np.eye(16), "I")) == pytest.approx(1.0)

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
        # top singular values 1, 1 - 1e-6, 1 - 2e-6, ...: so clustered that the
        # iteration cannot settle in 10 000 steps, while the SVD reads the top one
        block = _clustered_block(192, 192, gap=1e-6)
        assert _power_iteration(block, 1e-12, 10_000)[1] is False
        assert _matrix_norm(block) == np.linalg.svd(block, compute_uv=False)[0]
        assert _matrix_norm(block) == pytest.approx(1.0, abs=1e-12)


def _check_sup_bound(d: FourierSymbol, n: int) -> float:
    """Asserts that the bound holds every section and stays within 1.25x of its samples."""
    bound = _certified_norms(d.values, np.inf)[0]
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

    def test_rows_take_their_own_bounds(self):
        # a stack of rows, as module_inner_tails passes them, is bounded row by row
        rng = np.random.default_rng(5)
        rows = (rng.standard_normal((3, 4, 63)) + 1j * rng.standard_normal((3, 4, 63))) * np.arange(1, 5)[:, None]
        bounds = np.array(_certified_norms(rows, np.inf)[0])
        assert bounds.shape == (3, 4)
        for bound, values in zip(bounds.ravel(), rows.reshape(-1, 63)):
            assert bound == pytest.approx(_certified_norms(values, np.inf)[0], rel=1e-14)

    def test_empty_symbol(self):
        assert _certified_norms(FourierSymbol({}).values, np.inf) == (0.0, 0.0)

    def test_values_above_tolerance_take_the_peak(self):
        # a row whose bound exceeds the tolerance reads its largest sample, which lies below
        # sup |d| (here read on 2^16 points) and within 1.25x of it, so its FAIL holds no slack
        rng = np.random.default_rng(7)
        rows = (rng.standard_normal((4, 33)) + 1j * rng.standard_normal((4, 33))) * np.array([[1e-9], [1e-3], [1.0], [0.0]])
        bounds, _ = _certified_norms(rows, np.inf)
        _, values = _certified_norms(rows, 1e-6)
        sups = np.max(np.abs(np.fft.fft(rows, 1 << 16, axis=-1)), axis=-1)
        assert values[0] == bounds[0] and values[3] == bounds[3] == 0.0
        for value, bound, sup in zip(values[1:3], bounds[1:3], sups[1:3]):
            assert value < bound and value <= sup <= bound <= 1.25 * value

    @pytest.mark.parametrize("h", [1, 8, 100])
    def test_peak_just_under_tolerance_is_resampled_until_certified(self, h):
        # 0.99 tol cos(h theta) peaks at 0.99 tol on the 16 (h + 1) points, where its bound is
        # past tol; denser samples bound it within tol, so it PASSes on a bound, not on a peak
        tol = 1e-6
        row = np.zeros(2 * h + 1)
        row[0] = row[-1] = 0.495 * tol
        length = 1 << (16 * (h + 1) - 1).bit_length()
        assert np.max(np.abs(np.fft.fft(row, length))) / (1.0 - np.pi * h / length) > tol
        bounds, values = _certified_norms(row, tol)
        assert values == bounds and 0.99 * tol <= bounds <= tol

    def test_uncertified_peak_past_the_doublings_fails_on_its_bound(self):
        # a peak 1e-9 below tol needs a bound within 1e-9 of sup |d|, which no capped doubling
        # reaches, so the row reads its bound, above tol: a FAIL, not an uncertified PASS
        tol = 1e-6
        row = np.array([0.5, 0.0, 0.0, 0.0, 0.5]) * tol * (1.0 - 1e-9)
        bounds, values = _certified_norms(row, tol)
        assert values == bounds > tol


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


def _clustered_block(rows=60, cols=40, gap=0.002):
    # top singular values 1, 1 - gap, 1 - 2 gap, ...: at the default gap the iteration
    # runs for thousands of steps, far past the cols // 2 switch to the Gram matrix
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    w, _ = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))
    return (u * (1.0 - gap * np.arange(cols))) @ w.conj().T


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
        shift = toeplitz_matrix(FourierSymbol({1: 1.0}), 4, label="S")
        prod = shift @ shift
        assert prod.label == "S·S"
        np.testing.assert_allclose(prod.entries, np.eye(4, k=-2))
        assert not prod.entries.flags.writeable

    def test_composition_vs_sampled_product(self, half, grid_small):
        # oracle: column m of C holds coefficients of R^m obtained separately
        comp = composition_matrix(half, 16)
        power = half.evaluate(grid_small.points) ** 3
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
        dense = comp.entries.conj().T @ comp.entries - np.eye(self.N_TRUNC)
        sliced = isometry_residual(comp.entries, self.CORNER)
        assert sliced == pytest.approx(_matrix_norm(dense[: self.CORNER, : self.CORNER]), abs=1e-14)

    def _left_sections(self, product, symbols):
        # the m x m sections of the symbols s of C* T_a C, built here from the batch's rows over its union
        # band |k| <= B, as covariance_residual passes them to _left_symbols: the rows a_hat(-t) give
        # s_hat(-d), and the rows conj(a_hat(t)) give conj(s_hat(d))
        band = max(max(-a.low, a.low + a.values.size - 1) for a in symbols)
        coeffs = np.array([[a.coefficient(k) for k in range(-band, band + 1)] for a in symbols])
        rows = np.concatenate((coeffs[:, band::-1], coeffs[:, band:].conj()))
        below, above = np.split(_left_symbols(product, rows, band + 1), 2)
        left = [FourierSymbol._dense(-band, np.concatenate((b[:0:-1], c.conj()))) for b, c in zip(below, above)]
        return [_matrix_norm(_toeplitz_block(s, self.CORNER, self.CORNER)) for s in left]

    def _dense_left_norms(self, product, symbols):
        # reference: the m x m sections of C* T_a C from 256-row columns of C and a 256-row T_a,
        # which hold them to rounding for these products and bands below 256 - m
        comp = composition_matrix(product, 256).entries[:, : self.CORNER]
        return [_matrix_norm(comp.conj().T @ toeplitz_matrix(a, 256).entries @ comp) for a in symbols]

    def test_covariance(self, setup):
        # the symbol s of C* T_a C from C[:9, :9]: its sections are those of the dense product,
        # and s - (L a)^ is at rounding on H^2
        product, _, _ = setup
        a = self._symbol(1, -8, 8)
        assert covariance_residual(product, [a])[0] <= 1e-13
        exact = self._left_sections(product, [a])
        assert exact == pytest.approx(self._dense_left_norms(product, [a]), abs=1e-13)

    def test_commutation(self, setup):
        product, grid, comp = setup
        b = self._symbol(2, 0, 4)
        pullback = fourier_coefficients(b.evaluate(product.evaluate(grid.points)))
        t_b = toeplitz_matrix(b, self.N_TRUNC)
        dense = (comp @ t_b).entries - (toeplitz_matrix(pullback, self.N_TRUNC) @ comp).entries
        sliced = commutation_residual(product, [b], self.CORNER, grid)[0]
        assert sliced == pytest.approx(_matrix_norm(dense[: self.CORNER, : self.CORNER]), abs=1e-14)

    def test_covariance_batch_matches_per_symbol_references(self, setup):
        # the batch shares L(z^k) and the block of C over the union of the bands; each
        # entry must be the per-symbol value, and its left side the dense section, whatever its band
        product, _, _ = setup
        symbols = [self._symbol(3, -8, 8), self._symbol(4, 0, 3), self._symbol(5, -5, -2), FourierSymbol({})]
        batch = covariance_residual(product, symbols)
        assert len(batch) == len(symbols) and max(batch) <= 1e-13
        for a, value in zip(symbols, batch):
            assert covariance_residual(product, [a]) == [pytest.approx(value, abs=1e-14)]
        exact = self._left_sections(product, symbols)
        assert exact == pytest.approx(self._dense_left_norms(product, symbols), abs=1e-13)

    @pytest.mark.parametrize(
        "batch",
        [
            [FourierSymbol({N_TRUNC - 1: 1.0, 1 - N_TRUNC: 0.5j})],  # the last shifts that meet the section
            [FourierSymbol({N_TRUNC: 1.0, -N_TRUNC: -0.5j})],  # the first shifts past it: T_a vanishes there
            [FourierSymbol({N_TRUNC + 3: 1.0}), FourierSymbol({-N_TRUNC - 3: 1.0, 2: 0.25})],
            [FourierSymbol({k: 1.0 / (1 + k * k) + 1j / (1 - k) for k in range(-7, 0)})],  # anti-analytic
            [FourierSymbol({-8: 1.0, -3: 0.5j}), FourierSymbol({2: -1.0, 9: 0.25}), FourierSymbol({0: 1.0})],
        ],
        ids=["N-1", "N", "N+3", "antianalytic", "union-wider-than-members"],
    )
    def test_covariance_at_section_edges(self, setup, batch):
        # bands that reach the N = 64 of the setup and past it: the symbol reads C[:B+1, :B+1] for B up
        # to N + 3, whatever N is, and still holds the identity on H^2; its m x m sections, built here,
        # are those of the dense product
        product, _, _ = setup
        assert max(covariance_residual(product, batch)) <= 1e-12
        exact = self._left_sections(product, batch)
        assert exact == pytest.approx(self._dense_left_norms(product, batch), abs=1e-13)

    def test_commutation_batch_matches_per_symbol_references(self, setup):
        product, grid, comp = setup
        symbols = [self._symbol(6, 0, 4), FourierSymbol({0: 1.0}), self._symbol(7, 2, 6)]
        batch = commutation_residual(product, symbols, self.CORNER, grid)
        for b, value in zip(symbols, batch):
            pullback = fourier_coefficients(b.evaluate(product.evaluate(grid.points)))
            t_b, t_pullback = toeplitz_matrix(b, self.N_TRUNC), toeplitz_matrix(pullback, self.N_TRUNC)
            dense = (comp @ t_b).entries - (t_pullback @ comp).entries
            assert value == pytest.approx(_matrix_norm(dense[: self.CORNER, : self.CORNER]), abs=1e-14)
        with pytest.raises(ValueError):
            commutation_residual(product, symbols + [FourierSymbol({-1: 1.0})], self.CORNER, grid)
