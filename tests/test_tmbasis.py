"""Adapted rational basis, its factorization, and the Cuntz isometry family."""

import numpy as np
import pytest

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    TMBasis,
    cons_residual,
    cuntz_family,
    factor_parts,
    factorization_residual,
    fourier_coefficients,
    gram_residual,
    inner_product_residual,
    l2_inner,
    make_blaschke,
    operator_norm,
    sample,
    tail_compactness_profile,
    tm_element,
)
from blaschkeops.hardy import TruncatedOperator, _matrix_norm, composition_matrix, toeplitz_matrix
from blaschkeops.tmbasis import _factor_symbol
from blaschkeops.transfer import TransferOperator, bimodule_inner_samples
from blaschkeops.verify import RunConfig, _check_cuntz_relations
from conftest import random_product


class TestElements:
    def test_first_element_is_constant_one(self, half, spiral):
        for product in (half, spiral):
            basis = TMBasis(product)
            z = np.array([0.2 + 0.1j, 1j, -1.0])
            np.testing.assert_allclose(tm_element(basis, 0, z), 1.0)

    def test_monomial_basis_is_monomials(self, cube):
        basis = TMBasis(cube)
        z = np.exp(1j * np.linspace(0, 2, 9))
        for l in (0, 1, 4, 7):
            np.testing.assert_allclose(tm_element(basis, l, z), z**l, atol=1e-13)

    def test_half_second_element_formula(self, half):
        # alpha_1 = 1, beta_1 = 0.5: e_1 = sqrt(0.75) z / (1 - 0.5 z)
        basis = TMBasis(half)
        z = np.array([0.3, 1j, np.exp(2.1j)])
        expected = np.sqrt(0.75) * z / (1 - 0.5 * z)
        np.testing.assert_allclose(tm_element(basis, 1, z), expected, atol=1e-14)

    def test_negative_index_rejected(self, half):
        with pytest.raises(ValueError):
            tm_element(TMBasis(half), -1, 0.0)


class TestFactorParts:
    def test_l_zero(self, half):
        q, r = factor_parts(TMBasis(half), 0, 0.7j)
        assert q == pytest.approx(1.0)
        assert r == pytest.approx(1.0)

    def test_half_at_one(self, half):
        # Q_1(1) = sqrt(0.75)/0.5 = sqrt(3), R_1(1) = 1
        q, r = factor_parts(TMBasis(half), 1, 1.0 + 0j)
        assert q == pytest.approx(np.sqrt(3.0))
        assert r == pytest.approx(1.0)

    def test_monomial_parts(self, cube):
        basis = TMBasis(cube)
        z = np.exp(0.8j)
        for l in range(3):
            q, r = factor_parts(basis, l, z)
            assert q == pytest.approx(1.0)
            assert r == pytest.approx(z**l)

    def test_index_range_enforced(self, half):
        with pytest.raises(ValueError):
            factor_parts(TMBasis(half), 2, 0.0)


class TestFactorization:
    def test_monomial_exact(self, cube, grid_small):
        basis = TMBasis(cube, count=40)
        for k, l in [(0, 0), (2, 1), (5, 2)]:
            assert factorization_residual(basis, k, l, grid_small) <= 1e-13

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (4, 0), (8, 1)])
    def test_half_identity(self, half, grid_small, k, l):
        basis = TMBasis(half, count=32)
        assert factorization_residual(basis, k, l, grid_small) <= 1e-10

    def test_spiral_identity(self, spiral, grid_small):
        basis = TMBasis(spiral, count=32)
        worst = max(
            factorization_residual(basis, k, l, grid_small) for k in range(9) for l in range(2)
        )
        assert worst <= 1e-10


class TestGram:
    def test_monomial_orthonormality(self, cube, grid_big):
        assert gram_residual(TMBasis(cube), 16, grid_big) <= 1e-12

    def test_half_orthonormality(self, half, grid_big):
        assert gram_residual(TMBasis(half), 32, grid_big) <= 1e-8

    def test_single_element(self, half, grid_big):
        assert gram_residual(TMBasis(half), 1, grid_big) <= 1e-12

    @pytest.mark.parametrize("size", [128, 1024])
    @pytest.mark.parametrize("count", [1, 32])
    def test_matches_gram_of_element_rows(self, size, count):
        # reference: one tm_element call per row; on 128 points the count-32
        # Gram is aliased (residual ~1e-4), so it depends on every row
        basis = TMBasis(random_product(0, degree=5, max_radius=0.9), count=count)
        grid = CircleGrid(size)
        rows = np.array([tm_element(basis, l, grid.points) for l in range(count)])
        gram = rows @ rows.conj().T / grid.size
        expected = float(np.max(np.abs(gram - np.eye(count))))
        assert abs(gram_residual(basis, count, grid) - expected) <= 1e-14

    def test_count_cap(self, half, grid_big):
        with pytest.raises(ValueError):
            gram_residual(TMBasis(half), 65, grid_big)


class TestCuntzFamily:
    def test_square_shift_split(self, square):
        w1, w2 = cuntz_family(square, 64, CircleGrid(1024))
        for m in range(16):
            col1 = np.zeros(64)
            col1[2 * m] = 1.0
            col2 = np.zeros(64)
            col2[2 * m + 1] = 1.0
            np.testing.assert_allclose(w1.entries[:, m], col1, atol=1e-12)
            np.testing.assert_allclose(w2.entries[:, m], col2, atol=1e-12)

    def test_columns_match_basis_elements(self, half, grid_big):
        # column l of W_k holds the coefficients of e_(2l + k - 1)
        basis = TMBasis(half)
        family = cuntz_family(half, 256, grid_big)
        for k, w in enumerate(family, start=1):
            for l in (0, 3, 10):
                element = fourier_coefficients(sample(lambda z: tm_element(basis, 2 * l + k - 1, z), grid_big))
                expected = np.array([element.coefficient(i) for i in range(256)])
                np.testing.assert_allclose(w.entries[:, l], expected, atol=1e-8)

    def test_relations_monomial_exact(self, cube, grid_big):
        family = cuntz_family(cube, 256, grid_big)
        result = cons_residual(family, 32)
        assert result.worst <= 1e-12

    def test_relations_half(self, half, grid_big):
        family = cuntz_family(half, 256, grid_big)
        result = cons_residual(family, 32)
        assert result.completeness <= 1e-6
        assert result.isometry <= 1e-6
        assert result.orthogonality <= 1e-6

    def test_corner_guard(self, half, grid_big):
        family = cuntz_family(half, 256, grid_big)
        with pytest.raises(ValueError):
            cons_residual(family, 100)

    @pytest.mark.parametrize("seed", [None, 0])
    def test_sliced_corners_match_dense_products(self, half, seed):
        # cons_residual reads W_k rows and columns only; the dense products
        # read at the m x m corner are the reference
        product = half if seed is None else random_product(seed)
        family = cuntz_family(product, 64, CircleGrid(1024))
        eye = TruncatedOperator.identity(64)
        total = family[0] @ family[0].adjoint()
        for w in family[1:]:
            total = TruncatedOperator(total.entries + (w @ w.adjoint()).entries, "sum W W*")
        completeness = _matrix_norm((total - eye).corner(16))
        isometry = max(_matrix_norm((w.adjoint() @ w - eye).corner(16)) for w in family)
        orthogonality = max(
            _matrix_norm((wi.adjoint() @ wj).corner(16))
            for i, wi in enumerate(family)
            for j, wj in enumerate(family)
            if i != j
        )
        result = cons_residual(family, 16)
        assert result.completeness == pytest.approx(completeness, abs=1e-14)
        assert result.isometry == pytest.approx(isometry, abs=1e-14)
        assert result.orthogonality == pytest.approx(orthogonality, abs=1e-14)


    @pytest.mark.parametrize("seed", [None, 0])
    def test_verify_column_route_matches_the_family(self, half, seed):
        # verify forms only W_k[:, :m] = T_(Q R) C[:, :m]; the references are
        # cons_residual of the full family and the corners of dense products
        # T_(Q R) C of N x N sections, with full rows for the completeness term
        product = half if seed is None else random_product(seed)
        cfg, grid = RunConfig(truncation=64, corner=16, grid=1024), CircleGrid(1024)
        _, details = _check_cuntz_relations(cfg, product, grid, None)
        family = cons_residual(cuntz_family(product, 64, grid), 16)
        basis, comp = TMBasis(product), composition_matrix(product, 64).entries
        dense = [toeplitz_matrix(_factor_symbol(basis, k, grid), 64).entries @ comp for k in range(product.degree)]
        gram = [[(wi.conj().T @ wj)[:16, :16] for wj in dense] for wi in dense]
        eye = np.eye(16)
        expected = {
            "completeness": _matrix_norm(sum(w @ w.conj().T for w in dense)[:16, :16] - eye),
            "isometry": max(_matrix_norm(gram[k][k] - eye) for k in range(len(dense))),
            "orthogonality": max(
                _matrix_norm(gram[i][j]) for i in range(len(dense)) for j in range(len(dense)) if i != j
            ),
        }
        for name, value in expected.items():
            assert details[name] == pytest.approx(getattr(family, name), abs=1e-14)
            assert details[name] == pytest.approx(value, abs=1e-14)


class TestRangeSplit:
    def test_complement_of_composition_range(self, half, grid_big):
        # elements e_(kn+l) with l >= 1 are orthogonal to every column R^j
        basis = TMBasis(half)
        powers = [sample(lambda z, j=j: half.evaluate(z) ** j, grid_big) for j in range(8)]
        worst = 0.0
        for k in range(4):
            element = sample(lambda z: tm_element(basis, 2 * k + 1, z), grid_big)
            worst = max(worst, max(abs(l2_inner(element, p)) for p in powers))
        assert worst <= 1e-8


class TestQuotientGenerators:
    def test_monomial_shift_relations_exact(self, cube, grid_big):
        u = toeplitz_matrix(FourierSymbol({1: 1.0}), 256)
        family = cuntz_family(cube, 256, grid_big)
        for k in range(2):
            diff = (u @ family[k]) - family[k + 1]
            assert _matrix_norm(diff.entries) <= 1e-12
        wrap = (u @ family[-1]) - (family[0] @ u)
        assert _matrix_norm(wrap.entries) <= 1e-12


class TestInnerProductResidual:
    def _frame_function(self, product, k):
        basis = TMBasis(product)

        def func(z):
            q, r = factor_parts(basis, k, z)
            return q * r

        return func

    def test_half_frame_pairs_have_tiny_tails(self, half, grid_big):
        cuts = [8, 16, 32, 64]
        for i in range(2):
            for j in range(2):
                residual = inner_product_residual(
                    half, self._frame_function(half, i), self._frame_function(half, j), 256, grid_big
                )
                profile = tail_compactness_profile(residual, 256, cuts)
                assert profile[-1] <= 1e-6
                assert all(b <= a + 1e-11 for a, b in zip(profile, profile[1:]))

    def test_unit_pair_recovers_isometry_identity(self, square, grid_big):
        # p = q = 1: V* V = n C* C and <1,1> = n, so the residual is ~ 0
        one = lambda z: np.ones_like(z)
        residual = inner_product_residual(square, one, one, 256, grid_big)
        assert operator_norm(toeplitz_matrix(residual, 256)) <= 1e-10

    def test_truncation_past_half_the_grid_rejected(self, half):
        # the symbol reads the pairing coefficients |k| < N, which a grid of M points holds only for N <= M/2
        one = lambda z: np.ones_like(z)
        assert inner_product_residual(half, one, one, 128, CircleGrid(256)).values.size == 255
        with pytest.raises(ValueError, match="half the grid"):
            inner_product_residual(half, one, one, 129, CircleGrid(256))

    def test_pairing_symbol_route_is_independent(self, half, grid_big):
        # cross-check the Toeplitz side against a direct pointwise evaluation
        # of the weighted pairing: <v_k, v_k> = n (the isometry normalisation)
        from blaschkeops import TransferOperator, bimodule_inner

        func = self._frame_function(half, 1)
        op = TransferOperator(half)
        value = bimodule_inner(op, func, func, 1.0 + 0j)
        assert value == pytest.approx(half.degree, abs=1e-10)

    @pytest.mark.parametrize("case", ["half", "near-circle", "degree-4"])
    def test_toeplitz_gram_matches_dense_quadrature(self, half, case):
        # reference: the (N x M) quadrature route n (left^H right) / M, with
        # left[:, j] = p R^j and right[:, j] = q R^j; its trailing corners are
        # what the profile reads as leading sections of the residual symbol
        product = {
            "half": half,
            "near-circle": make_blaschke(np.exp(1.3j), [0, 0.9]),
            "degree-4": random_product(4, degree=4),
        }[case]
        grid, n_trunc = CircleGrid(1024), 64
        pts = grid.points
        powers = product.evaluate(pts)[:, None] ** np.arange(n_trunc)
        op = TransferOperator(product)
        for i in range(product.degree):
            for j in range(product.degree):
                p, q = self._frame_function(product, i), self._frame_function(product, j)
                left, right = p(pts)[:, None] * powers, q(pts)[:, None] * powers
                gram = product.degree * (left.conj().T @ right) / grid.size
                pairing = fourier_coefficients(bimodule_inner_samples(op, p, q, grid))
                dense = gram - toeplitz_matrix(pairing, n_trunc).entries
                residual = inner_product_residual(product, p, q, n_trunc, grid)
                assert (residual.low, residual.values.size) == (1 - n_trunc, 2 * n_trunc - 1)
                section = toeplitz_matrix(residual, n_trunc).entries
                np.testing.assert_allclose(section, dense, rtol=0, atol=1e-13)
                cuts = range(0, n_trunc + 1, 4)
                profile = tail_compactness_profile(residual, n_trunc, cuts)
                for m, value in zip(cuts, profile):
                    # Weyl: two corners' norms differ by at most the norm of their difference
                    gap = _matrix_norm(section[m:, m:] - dense[m:, m:])
                    assert abs(value - _matrix_norm(dense[m:, m:])) <= gap
