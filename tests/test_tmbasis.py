"""Adapted rational basis, its factorization, and the Cuntz isometry family."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    TMBasis,
    cons_residual,
    cuntz_family,
    factorization_residual,
    fourier_coefficients,
    gram_residual,
    inner_product_residual,
    make_blaschke,
    operator_norm,
    tm_element,
)
from blaschkeops.hardy import _matrix_norm, _toeplitz_block, composition_matrix, toeplitz_matrix
from blaschkeops import tmbasis, verify
from blaschkeops.tmbasis import frame
from blaschkeops.transfer import TransferOperator, bimodule_inner_samples
from blaschkeops.verify import MANIFEST, RunConfig, _check_cuntz_relations, _run_one
from conftest import closed_form_element, random_product


def _taylor_length(product):
    # the frame pairs' K: the routine's length for the poles of R, at least the degree
    return tmbasis._needed_length(product, 1, product.degree, np.inf)


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
    # the frame member v_l = Q_l R_l: Q_l the normalised kernel factor at the l-th zero,
    # R_l the partial product over the earlier zeros

    def test_l_zero(self, half):
        # Q_0 = R_0 = 1
        assert frame(half)(0.7j)[0] == pytest.approx(1.0)

    def test_half_at_one(self, half):
        # Q_1(1) = sqrt(0.75)/0.5 = sqrt(3), R_1(1) = 1
        assert frame(half)(1.0 + 0j)[1] == pytest.approx(np.sqrt(3.0))

    def test_monomial_parts(self, cube):
        # Q_l = 1 and R_l = z^l
        z = np.exp(0.8j)
        np.testing.assert_allclose(frame(cube)(z), z ** np.arange(3), atol=1e-15)

    def test_index_range_enforced(self, half):
        # one member per zero
        assert frame(half)(np.zeros(5)).shape == (2, 5)
        with pytest.raises(IndexError):
            frame(half)(0.0)[2]


class TestFactorization:
    def test_monomial_exact(self, cube, grid_small):
        # row k - 1 holds the power k = 1..6
        residuals = factorization_residual(TMBasis(cube, count=40), 6, grid_small)
        assert residuals.shape == (6, 3)
        for k, l in [(1, 0), (3, 1), (6, 2)]:
            assert residuals[k - 1, l] <= 1e-13

    @pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (4, 0), (8, 1)])
    def test_half_identity(self, half, grid_small, k, l):
        # the last row holds the power k + 1, the index (k + 1) n + l
        basis = TMBasis(half, count=32)
        assert factorization_residual(basis, k + 1, grid_small)[k, l] <= 1e-10

    def test_spiral_identity(self, spiral, grid_small):
        basis = TMBasis(spiral, count=32)
        assert np.max(factorization_residual(basis, 9, grid_small)) <= 1e-10


    def test_batch_matches_per_index_reference(self, spiral, grid_small):
        # the zero of index 5 moved by 0.1: from there on the direct side no
        # longer factors, so entries carry O(1) values that the per-index
        # route, closed-form products for e_(2k+l) and Q_l R_l R^k, must reproduce
        @dataclass(frozen=True)
        class MovedZero(TMBasis):
            def beta(self, l):
                return super().beta(l) + (0.1 if l == 5 else 0.0)

        basis, pts = MovedZero(spiral, count=32), grid_small.points
        batch = factorization_residual(basis, 8, grid_small)
        assert batch.shape == (8, 2) and np.max(batch[:1]) <= 1e-13 and np.min(batch[2:]) > 1e-3
        for k in range(1, 9):
            for l in range(2):
                factored = closed_form_element(TMBasis(spiral), l, pts) * spiral.evaluate(pts) ** k
                per_index = np.max(np.abs(closed_form_element(basis, 2 * k + l, pts) - factored))
                assert batch[k - 1, l] == pytest.approx(per_index, rel=1e-12, abs=1e-14)

    def test_count_enforced(self, half, grid_small):
        # powers 1..8 read the indices up to 9 n - 1 = 17, so the basis must realize 18 elements
        for count in (16, 17):
            with pytest.raises(ValueError, match="basis count"):
                factorization_residual(TMBasis(half, count=count), 8, grid_small)
        assert factorization_residual(TMBasis(half, count=18), 8, grid_small).shape == (8, 2)


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
        # reference: each row its closed-form product; on 128 points the count-32
        # Gram is aliased (residual ~1e-4), so it depends on every row
        basis = TMBasis(random_product(0, degree=5, max_radius=0.9), count=count)
        grid = CircleGrid(size)
        rows = np.array([closed_form_element(basis, l, grid.points) for l in range(count)])
        gram = rows @ rows.conj().T / grid.size
        expected = float(np.max(np.abs(gram - np.eye(count))))
        assert abs(gram_residual(basis, count, grid) - expected) <= 1e-14

    @pytest.mark.parametrize("size,tolerance", [(1024, 0.0), (4096, 1e-15), (16384, 1e-15)])
    def test_blocks_add_up_to_the_dense_gram(self, size, tolerance):
        # M = 1024 is one block of points, so the residual is the dense one bit for bit;
        # M = 4096 and 16384 are four and sixteen blocks, whose Gram products add up to the dense one
        basis = TMBasis(random_product(0, degree=5, max_radius=0.9), count=32)
        grid = CircleGrid(size)
        rows = np.array(list(tmbasis._elements(basis, 32, grid.points)))
        gram = rows @ rows.conj().T / grid.size
        assert abs(gram_residual(basis, 32, grid) - float(np.max(np.abs(gram - np.eye(32))))) <= tolerance

    def test_blocked_rows_bound_memory(self):
        # the (32, 16384) rows and the conjugate copy the dense Gram made took about 17 MB;
        # one (32, 1024) block and its copy take about 1 MB
        basis = TMBasis(random_product(0, degree=5, max_radius=0.9), count=32)
        grid = CircleGrid(16384)
        tracemalloc.start()
        try:
            gram_residual(basis, 32, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_count_cap(self, half, grid_big):
        with pytest.raises(ValueError, match="gram count"):
            gram_residual(TMBasis(half, count=65), 65, grid_big)

    def test_count_enforced(self, half, grid_small):
        # the Gram reads the first `count` elements, so the basis must realize them
        with pytest.raises(ValueError, match="basis count"):
            gram_residual(TMBasis(half, count=1), 2, grid_small)
        assert gram_residual(TMBasis(half, count=2), 2, grid_small) <= 1e-12


class TestCuntzFamily:
    def test_square_shift_split(self, square):
        w1, w2 = cuntz_family(square, 64)
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
        family = cuntz_family(half, 256)
        for k, w in enumerate(family, start=1):
            for l in (0, 3, 10):
                element = fourier_coefficients(tm_element(basis, 2 * l + k - 1, grid_big.points))
                expected = np.array([element.coefficient(i) for i in range(256)])
                np.testing.assert_allclose(w.entries[:, l], expected, atol=1e-8)

    def test_relations_monomial_exact(self, cube):
        assert max(_cons_of_family(cube, 256, 32).values()) <= 1e-12

    def test_relations_half(self, half):
        result = _cons_of_family(half, 256, 32)
        assert result["completeness"] <= 1e-6
        assert result["isometry"] <= 1e-6
        assert result["orthogonality"] <= 1e-6

    @pytest.mark.parametrize("seed", [None, 0])
    def test_sliced_corners_match_dense_products(self, half, seed):
        # the family T_(v_k z^k) C is not orthogonal, since conj(v_i z^i) v_j z^j carries z^(j - i):
        # the 16 x 16 sections of its left-side symbols, built here, and the corners of its first 16
        # rows are those of the dense products of 256 x 256 sections, which resolve them; the values
        # on H^2 bound those sections
        product = half if seed is None else random_product(seed)
        n = product.degree
        stack = lambda z: frame(product)(z) * np.asarray(z) ** np.arange(n).reshape((n,) + (1,) * np.ndim(z))
        comp = composition_matrix(product, 256).entries
        samples = stack(CircleGrid(4096).points)
        dense = [toeplitz_matrix(fourier_coefficients(v), 256).entries @ comp for v in samples]
        gram, *_ = inner_product_residual(product, stack, 256)
        result = cons_residual([w[:16, :16] for w in dense], gram)
        low, eye = 1 - (gram.shape[-1] + 1) // 2, np.eye(16)
        sections = [[_toeplitz_block(FourierSymbol._dense(low, gram[i, j] / n), 16, 16) for j in range(n)] for i in range(n)]
        completeness = _matrix_norm(sum(w[:16] @ w[:16].conj().T for w in dense) - eye)
        grams = [[(wi.conj().T @ wj)[:16, :16] for wj in dense] for wi in dense]
        isometry = max(_matrix_norm(grams[k][k] - eye) for k in range(n))
        orthogonality = max(_matrix_norm(grams[i][j]) for i in range(n) for j in range(n) if i != j)
        assert orthogonality > 0.1 and isometry <= 1e-13
        assert result["completeness"] == pytest.approx(completeness, abs=1e-13)
        assert max(_matrix_norm(sections[k][k] - eye) for k in range(n)) == pytest.approx(isometry, abs=1e-13)
        off = max(_matrix_norm(sections[i][j]) for i in range(n) for j in range(n) if i != j)
        assert off == pytest.approx(orthogonality, abs=1e-13)
        assert result["isometry"] <= 1e-13 and result["orthogonality"] >= orthogonality - 1e-13

    @pytest.mark.parametrize("seed", [None, 0])
    def test_verify_column_route_matches_the_family(self, half, seed):
        # verify forms only W_k[:m, :m] = (T_(Q R) C)[:m, :m] and the frame's left side at N; the
        # references are cons_residual of the full family and the dense products T_(Q R) C of
        # 256 x 256 sections, which resolve the 16 x 16 corners that N = 64 cuts
        product = half if seed is None else random_product(seed)
        cfg, grid = RunConfig(truncation=64, corner=16, grid=1024), CircleGrid(1024)
        _, details = _check_cuntz_relations(cfg, product, None)
        family = _cons_of_family(product, 64, 16)
        comp = composition_matrix(product, 256).entries
        dense = [toeplitz_matrix(fourier_coefficients(v), 256).entries @ comp for v in frame(product)(grid.points)]
        eye = np.eye(16)
        completeness = _matrix_norm(sum(w @ w.conj().T for w in dense)[:16, :16] - eye)
        corners = [(wi.conj().T @ wj)[:16, :16] - (wi is wj) * eye for wi in dense for wj in dense]
        for name in ("completeness", "isometry", "orthogonality"):
            assert details[name] == pytest.approx(family[name], abs=1e-14) and details[name] <= 1e-13
        assert details["completeness"] == pytest.approx(completeness, abs=1e-14)
        # the bounds hold on H^2, so they bound every corner of the dense products
        assert max(_matrix_norm(c) for c in corners) <= max(details["isometry"], details["orthogonality"]) + 1e-14

    @pytest.mark.parametrize(
        "angle, zeros, n_trunc",
        [(0.0, (0j, 0.98, 0.98, 0.98, 0.98, 0.98), 64), (1.3, (0j, 0.99j), 256)],
        ids=["steep", "[0,0.99i]"],
    )
    def test_columns_match_a_fine_frame_reference(self, angle, zeros, n_trunc):
        # reference: C convolved with the frame's coefficients from 2^18 samples, where
        # no aliasing reaches rounding; 256 samples of steep's frame alias, and a frame
        # series left untruncated at N wraps onto the low rows of a length-2N convolution
        product = make_blaschke(np.exp(1j * angle), zeros)
        comp = composition_matrix(product, n_trunc).entries
        samples = frame(product)(CircleGrid(1 << 18).points)
        for w, v in zip(tmbasis.cuntz_columns(product, comp), samples):
            series = np.fft.fft(v)[:n_trunc] / v.size  # Taylor coefficients t < N of v
            expected = np.stack([np.convolve(series, c)[:n_trunc] for c in comp.T], axis=1)
            np.testing.assert_allclose(w, expected, rtol=0, atol=1e-13)
        cfg = RunConfig(lambda_angle=angle, zeros=zeros, truncation=n_trunc, corner=4, grid=4 * n_trunc)
        _, details = _check_cuntz_relations(cfg, product, None)
        assert details["completeness"] <= 1e-12


class TestRangeSplit:
    def test_complement_of_composition_range(self, half, grid_big):
        # elements e_(kn+l) with l >= 1 are orthogonal to every column R^j
        basis = TMBasis(half)
        powers = [half.evaluate(grid_big.points) ** j for j in range(8)]
        worst = 0.0
        for k in range(4):
            element = tm_element(basis, 2 * k + 1, grid_big.points)
            worst = max(worst, max(abs(np.vdot(p, element)) / p.size for p in powers))
        assert worst <= 1e-8


class TestQuotientGenerators:
    def test_monomial_shift_relations_exact(self, cube):
        u = toeplitz_matrix(FourierSymbol({1: 1.0}), 256)
        family = cuntz_family(cube, 256)
        for k in range(2):
            diff = (u @ family[k]).entries - family[k + 1].entries
            assert _matrix_norm(diff) <= 1e-12
        wrap = (u @ family[-1]).entries - (family[0] @ u).entries
        assert _matrix_norm(wrap) <= 1e-12


def _cons_of_family(product, n_trunc, m):
    """``cons_residual`` of the full family: the m x m corners of its N x N sections and the
    frame's left side at N."""
    gram, *_ = inner_product_residual(product, frame(product), n_trunc)
    return cons_residual([w.entries[:m, :m] for w in cuntz_family(product, n_trunc)], gram)


def _pair_symbols(sides):
    """The pairs' residual symbols ``[i][j]`` from the two ``(P, P, 2w - 1)`` sides, whose middle
    entry is coefficient 0."""
    residuals = sides[0] - sides[1]
    low = -(residuals.shape[-1] // 2)
    return [[FourierSymbol._dense(low, values) for values in row] for row in residuals]


class TestInnerProductResidual:
    def _frame_function(self, product, k):
        # v_k = Q_k R_k, written out as the closed-form product of the k-th basis element
        return lambda z: closed_form_element(TMBasis(product), k, z)

    def test_half_frame_pairs_have_tiny_tails(self, half):
        cuts = [8, 16, 32, 64]
        for row in _pair_symbols(inner_product_residual(half, frame(half), 256)):
            for residual in row:
                # the trailing corner past each cut is the leading section of size 256 - cut
                profile = [_matrix_norm(_toeplitz_block(residual, 256 - m, 256 - m)) for m in cuts]
                assert profile[-1] <= 1e-6
                assert all(b <= a + 1e-11 for a, b in zip(profile, profile[1:]))

    def test_unit_pair_recovers_isometry_identity(self, square):
        # p = q = 1: V* V = n C* C and <1,1> = n, so the residual is ~ 0
        one = lambda z: np.ones((1,) + np.shape(z), dtype=complex)
        [[residual]] = _pair_symbols(inner_product_residual(square, one, 256))
        assert operator_norm(toeplitz_matrix(residual, 256)) <= 1e-10

    @pytest.mark.parametrize(
        "zeros,n_trunc,width",
        [([0, 0.5], 32, 32), ([0, 0.5], 128, 64), ([0, 0.5], 4096, 64), ([0, 0.99j], 256, 256)],
        ids=["half-N", "half-K", "half-past-any-grid", "0.99i-N"],
    )
    def test_symbols_hold_the_shorter_of_n_and_k(self, zeros, n_trunc, width):
        # both sides stop at |k| < min(N, K), K the frame pairs' _needed_length, so a pair holds 2 min(N, K) - 1
        # coefficients; the pairing is sampled on max(256, 2K) points, so no N is refused; K comes back with the sides
        product = make_blaschke(1.0, zeros)
        *sides, size = inner_product_residual(product, frame(product), n_trunc)
        assert size == _taylor_length(product) and min(n_trunc, size) == width
        for side in sides:
            assert side.shape == (product.degree, product.degree, 2 * width - 1)
            assert not side.flags.writeable

    def test_pairing_symbol_route_is_independent(self, half):
        # cross-check the Toeplitz side against a direct pointwise evaluation
        # of the weighted pairing: <v_k, v_k> = n (the isometry normalisation)
        func = self._frame_function(half, 1)
        op = TransferOperator(half)
        value = op.degree * op.apply(lambda z: np.conj(func(z)) * func(z), 1.0 + 0j)
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
        # on 1024 points the near-circle reference aliases (0.44 from the exact Taylor route)
        grid, n_trunc = CircleGrid(4096 if case == "near-circle" else 1024), 64
        pts = grid.points
        powers = product.evaluate(pts)[:, None] ** np.arange(n_trunc)
        op = TransferOperator(product)
        for i in range(product.degree):
            for j in range(product.degree):
                p, q = self._frame_function(product, i), self._frame_function(product, j)
                pair = lambda z: np.array([p(z), q(z)])  # the pair (p, q) is entry [0][1] of its stack
                left, right = p(pts)[:, None] * powers, q(pts)[:, None] * powers
                gram = product.degree * (left.conj().T @ right) / grid.size
                pairing = fourier_coefficients(bimodule_inner_samples(op, pair, grid)[0, 1])
                dense = gram - toeplitz_matrix(pairing, n_trunc).entries
                residual = _pair_symbols(inner_product_residual(product, pair, n_trunc))[0][1]
                width = min(n_trunc, _taylor_length(product))
                assert (residual.low, residual.values.size) == (1 - width, 2 * width - 1)
                section = toeplitz_matrix(residual, n_trunc).entries
                np.testing.assert_allclose(section, dense, rtol=0, atol=1e-13)
                cuts = range(0, n_trunc + 1, 4)
                for m in cuts:
                    value = _matrix_norm(_toeplitz_block(residual, n_trunc - m, n_trunc - m))
                    # Weyl: two corners' norms differ by at most the norm of their difference
                    gap = _matrix_norm(section[m:, m:] - dense[m:, m:])
                    assert abs(value - _matrix_norm(dense[m:, m:])) <= gap

    @pytest.mark.parametrize("case", ["half", "near-circle", "degree-4"])
    def test_frame_stack_matches_per_pair_quadrature(self, half, case):
        # one call on the stacked frame gives the n x n symbols at once; each
        # must be the section of its own pair's dense quadrature, with the
        # pairing taken pointwise through apply_samples
        product = {
            "half": half,
            "near-circle": make_blaschke(np.exp(1.3j), [0, 0.9]),
            "degree-4": random_product(4, degree=4),
        }[case]
        grid, n_trunc, n = CircleGrid(4096 if case == "near-circle" else 1024), 64, product.degree
        pts = grid.points
        powers = product.evaluate(pts)[:, None] ** np.arange(n_trunc)
        op = TransferOperator(product)
        stack = frame(product)
        symbols = _pair_symbols(inner_product_residual(product, stack, n_trunc))
        assert [len(row) for row in symbols] == [n] * n
        for i in range(n):
            for j in range(n):
                p, q = self._frame_function(product, i), self._frame_function(product, j)
                gram = n * ((p(pts)[:, None] * powers).conj().T @ (q(pts)[:, None] * powers)) / grid.size
                pairing = fourier_coefficients(op.apply_samples(lambda z: n * np.conj(p(z)) * q(z), grid))
                dense = gram - toeplitz_matrix(pairing, n_trunc).entries
                section = toeplitz_matrix(symbols[i][j], n_trunc).entries
                np.testing.assert_allclose(section, dense, rtol=0, atol=1e-13)
        # a stack of one is the first member paired with itself
        first = _pair_symbols(inner_product_residual(product, lambda z: stack(z)[:1], n_trunc))
        assert len(first) == 1 and len(first[0]) == 1
        np.testing.assert_allclose(first[0][0].values, symbols[0][0].values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "zeros,length",
        [([0, 0, 0], 4), ([0, 0.5], 64), ([0, 0.98], 2048), ([0, 0.99j], 4096), ([0] + [0.98] * 5, 4096)],
        ids=["z^3", "half", "0.98", "0.99i", "steep"],
    )
    def test_taylor_length_counts_repeated_zeros(self, zeros, length):
        # |z|^K below 1e-16 for a simple zero; the five-fold zero at 0.98 also pays
        # binom(K + 4, 4), which K = 2048 leaves at 8e-7; K is never below the degree
        assert _taylor_length(make_blaschke(1.0, zeros)) == length

    @pytest.mark.parametrize("zeros", [[0, 0.5], [0, 0.98], [0, 0.99j, -0.7]], ids=["half", "0.98", "0.99i"])
    def test_decay_length_with_a_factor_is_that_of_the_power(self, zeros):
        # every multiplicity times f is the rule of the product whose zeros repeat f times
        product = make_blaschke(1.0, zeros)
        for factor in (1, 2, 4):
            power = make_blaschke(1.0, zeros * factor)
            assert tmbasis._needed_length(product, factor, power.degree) == _taylor_length(power)

    def test_taylor_length_past_memory_is_refused(self, monkeypatch):
        # |z|^K reaches 1e-16 only at K = 2^22 for 0.99999, so the frame pairs' working set of
        # 64 K coefficients would pass the cap of 2^23: both checks that read the frame pairs FAIL
        # and name K, and nothing is sampled (a sample would raise, and read as an ERROR)
        def refuse(*args):
            raise AssertionError("sampled past the cap")

        monkeypatch.setattr(tmbasis, "bimodule_inner_samples", refuse)
        monkeypatch.setattr(verify, "gram_residual", refuse)
        cfg = RunConfig(zeros=(0j, 0.99999))
        for index, spec in enumerate(MANIFEST):
            if spec.check_id in ("cuntz_relations", "module_inner_tails"):
                result = _run_one(spec, cfg, cfg.product(), index)
                assert (result.residual, result.passed, result.errored) == (1.0, False, False)
                assert result.details == {"taylor_length_needed": 1 << 22}
        with pytest.raises(ValueError, match="taylor_length_needed"):
            inner_product_residual(cfg.product(), frame(cfg.product()), 256)
        assert _taylor_length(make_blaschke(1.0, [0, 0.9999])) == 1 << 19

    def test_low_degree_cap_counts_the_column_working_set(self, monkeypatch):
        # the 4 frame pairs of [0,0.9999] hold 4 K = 2^21 coefficients, within 2^23, but the 16 spectra
        # and 16-row block that _taylor_columns keeps on 2K points hold 64 K = 2^25: K = 2^19 is
        # refused, and nothing is formed (it took 15 s and 1.2 GB); from degree 8 on, n^2 K is the larger count
        def refuse(*args):
            raise AssertionError("formed past the cap")

        for name in ("bimodule_inner_samples", "_left_symbols"):
            monkeypatch.setattr(tmbasis, name, refuse)
        monkeypatch.setattr(verify, "gram_residual", refuse)
        cfg = RunConfig(zeros=(0j, 0.9999))
        for index, spec in enumerate(MANIFEST):
            if spec.check_id in ("cuntz_relations", "module_inner_tails"):
                result = _run_one(spec, cfg, cfg.product(), index)
                assert (result.residual, result.passed, result.errored) == (1.0, False, False)
                assert result.details == {"taylor_length_needed": 1 << 19}

    @pytest.mark.parametrize(
        "zeros,n_trunc",
        [([0, 0.99j], 256), ([0] + [0.98] * 5, 64)],
        ids=["0.99i", "steep"],
    )
    def test_doubling_the_taylor_length_moves_no_coefficient(self, zeros, n_trunc, monkeypatch):
        # past K the frame pairs' coefficients are below rounding, so twice as many
        # Taylor rows, and a pairing grid twice as fine, change each coefficient only by rounding
        product = make_blaschke(np.exp(1.3j), zeros)
        at_k = _pair_symbols(inner_product_residual(product, frame(product), n_trunc))
        exact = tmbasis._needed_length
        monkeypatch.setattr(tmbasis, "_needed_length", lambda *args: 2 * exact(*args))
        at_2k = _pair_symbols(inner_product_residual(product, frame(product), n_trunc))
        for row, row_2k in zip(at_k, at_2k):
            for residual, residual_2k in zip(row, row_2k):
                assert residual.low == residual_2k.low
                np.testing.assert_allclose(residual.values, residual_2k.values, rtol=0, atol=1e-13)
