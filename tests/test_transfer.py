"""Preimage-sum operator: pointwise identities and the truncated matrix."""

import numpy as np
import pytest

from blaschkeops import (
    CircleGrid,
    TransferOperator,
    composition_matrix,
    fourier_coefficients,
    make_blaschke,
    partial_fraction_weights,
    transfer_matrix,
)
from blaschkeops.blaschke import preimage_grid
from blaschkeops.tmbasis import frame
from blaschkeops.transfer import _preimage_table, bimodule_inner_samples
from conftest import random_product


def ones(z):
    return np.ones_like(z)


def weighted_pairing(op, p, q, w):
    """``sum_z h(z) conj(p(z)) q(z) = n L(conj(p) q)(w)`` over the preimages of w."""
    return op.degree * op.apply(lambda z: np.conj(p(z)) * q(z), w)


class TestPointwise:
    @pytest.mark.parametrize("angle", [0.0, 0.7, 2.9, -1.3])
    def test_fixes_constants(self, half, angle):
        op = TransferOperator(half)
        w = np.exp(1j * angle)
        assert op.apply(ones, w) == pytest.approx(1.0, abs=1e-12)

    def test_square_kills_odd_powers(self, square):
        # branches +/- sqrt(w) cancel: L(z)(w) = (sqrt(w) - sqrt(w))/2 = 0
        op = TransferOperator(square)
        assert abs(op.apply(lambda z: z, np.exp(0.4j))) <= 1e-13

    def test_composed_powers_come_back(self, half):
        # L(R^l)(w) = w^l since L fixes constants
        op = TransferOperator(half)
        w = np.exp(1.1j)
        for power in (1, 2, 5):
            got = op.apply(lambda z, p=power: half.evaluate(z) ** p, w)
            assert got == pytest.approx(w**power, abs=1e-11)

    def test_apply_samples_matches_apply(self, spiral):
        op = TransferOperator(spiral)
        grid = CircleGrid(16)
        bulk = op.apply_samples(lambda z: z**3, grid)
        single = np.array([op.apply(lambda z: z**3, w) for w in grid.points])
        np.testing.assert_allclose(bulk, single, atol=1e-12)

    def test_preserves_analyticity(self, half, grid_big):
        # negative coefficients of L(f) vanish for analytic f
        op = TransferOperator(half)
        image = op.symbol_image(lambda z: z**3 + 0.5 * z, grid_big)
        negative = [abs(image.coefficient(k)) for k in range(-64, 0)]
        assert max(negative) <= 1e-10

    def test_symbol_image_is_coefficients_of_samples(self, spiral, grid_small):
        op = TransferOperator(spiral)
        f = lambda z: z**3 + 0.5 / z  # noqa: E731
        image = op.symbol_image(f, grid_small)
        expected = fourier_coefficients(op.apply_samples(f, grid_small))
        assert image.low == expected.low
        assert np.array_equal(image.values, expected.values)

    def test_positivity(self, spiral):
        op = TransferOperator(spiral)
        grid = CircleGrid(64)
        values = op.apply_samples(lambda z: np.abs(z - 0.3) ** 2, grid)
        assert np.min(values.real) >= -1e-12
        assert np.max(np.abs(values.imag)) <= 1e-12


class TestWeights:
    def test_square_equal_branches(self, square):
        np.testing.assert_allclose(partial_fraction_weights(square, 1.0 + 0j), [0.5, 0.5])

    def test_monomial_uniform(self, cube):
        np.testing.assert_allclose(partial_fraction_weights(cube, np.exp(0.2j)), [1 / 3] * 3)

    def test_half_at_one(self, half):
        # preimages {1, -1} sorted by principal argument; weights h/2
        weights = partial_fraction_weights(half, 1.0 + 0j)
        np.testing.assert_allclose(weights, [0.25, 0.75], atol=1e-12)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_sum_to_one_on_grid(self, seed):
        b = random_product(seed, degree=3)
        targets = np.exp(2j * np.pi * np.arange(256) / 256)
        for w in targets[::16]:
            weights = partial_fraction_weights(b, w)
            assert np.all(weights > 0)
            assert np.sum(weights) == pytest.approx(1.0, abs=1e-10)


class TestCovariance:
    """``L((a o R) b)(w) = a(w) L(b)(w)`` through two calls of ``TransferOperator.apply``."""

    @staticmethod
    def covariance_gap(op, a, b, w):
        lhs = op.apply(lambda z: a(op.product.evaluate(z)) * b(z), w)
        return abs(lhs - complex(a(np.asarray(w, dtype=complex))) * op.apply(b, w))

    def test_unit_symbol_exact(self, half):
        op = TransferOperator(half)
        assert self.covariance_gap(op, ones, lambda z: z, np.exp(0.3j)) <= 1e-13

    def test_square_linear_symbol(self, square):
        op = TransferOperator(square)
        assert self.covariance_gap(op, lambda z: z, ones, np.exp(0.9j)) <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_random_degree_three(self, seed):
        b = random_product(seed, degree=3)
        op = TransferOperator(b)
        rng = np.random.default_rng(seed + 100)
        for _ in range(4):
            w = np.exp(1j * rng.uniform(0, 2 * np.pi))
            res = self.covariance_gap(op, lambda z: z**2, lambda z: z, w)
            assert res <= 1e-10

    def test_trig_polynomials_up_to_degree_eight(self, half):
        op = TransferOperator(half)
        targets = np.exp(2j * np.pi * np.arange(16) / 16)
        for p in range(-8, 9, 2):
            for q in range(-8, 9, 2):
                worst = max(
                    self.covariance_gap(op, lambda z, p=p: z**p, lambda z, q=q: z**q, w)
                    for w in targets
                )
                assert worst <= 1e-10


class TestBimoduleInner:
    def test_normalized_constant(self, half):
        op = TransferOperator(half)
        scale = 1.0 / np.sqrt(half.degree)
        value = weighted_pairing(op, lambda z: scale * np.ones_like(z), lambda z: scale * np.ones_like(z), 1j)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_square_branch_cancellation(self, square):
        op = TransferOperator(square)
        value = weighted_pairing(op, ones, lambda z: z, np.exp(0.7j))
        assert abs(value) <= 1e-13

    def test_frame_elements_normalized(self, half):
        # T_(Q_k R_k) C is an isometry, so L(|Q_k R_k|^2) = 1 and the weighted
        # pairing of the frame element with itself is n; dividing by sqrt(n)
        # normalises the family.
        op = TransferOperator(half)
        n = half.degree
        for k in range(n):
            func = lambda z, k=k: frame(half)(z)[k]
            value = weighted_pairing(op, func, func, np.exp(0.25j))
            assert value == pytest.approx(n, abs=1e-10)
            unit = op.apply(lambda z: np.abs(func(z)) ** 2, np.exp(0.25j))
            assert unit == pytest.approx(1.0, abs=1e-10)


class TestPreimageTable:
    def test_branch_major_layout(self, spiral, grid_small):
        # row b holds the b-th preimage of every target, contiguously; the
        # solver's (targets, n) rows are its columns
        points, weights = _preimage_table(spiral, grid_small)
        solved, _ = preimage_grid(spiral, grid_small.points)
        assert points.shape == weights.shape == (2, grid_small.size)
        assert points.flags.c_contiguous and not points.flags.writeable
        assert np.array_equal(points, solved.T)
        np.testing.assert_allclose(np.sum(weights, axis=0), 1.0, rtol=0, atol=1e-13)

    def test_monomial_samples_are_images_of_powers(self, spiral, grid_small):
        op = TransferOperator(spiral)
        rows = op.monomial_samples(-3, 4, grid_small)
        assert rows.shape == (7, grid_small.size)
        for k, row in zip(range(-3, 4), rows):
            np.testing.assert_allclose(row, op.apply_samples(lambda z: z**k, grid_small), rtol=0, atol=1e-14)

    def test_monomial_passes_leave_the_cached_table_untouched(self, spiral, grid_small):
        # the power sums update a weighted array in place; it must never be the cached table
        op = TransferOperator(spiral)
        table = _preimage_table(spiral, grid_small)
        before = [array.copy() for array in table]
        rows = op.monomial_samples(-3, 4, grid_small)
        matrix = transfer_matrix(op, 32, grid_small)
        for array, copy in zip(_preimage_table(spiral, grid_small), before):
            assert np.array_equal(array, copy) and not array.flags.writeable
        assert np.array_equal(op.monomial_samples(-3, 4, grid_small), rows)
        assert np.array_equal(transfer_matrix(op, 32, grid_small), matrix)

    def test_stacked_pairing_matches_each_pair(self, spiral, grid_small):
        op = TransferOperator(spiral)
        funcs = [ones, lambda z: z, lambda z: np.conj(z) + 0.5 * z**2]
        stack = lambda z: np.array([f(z) for f in funcs])
        pairing = bimodule_inner_samples(op, stack, grid_small)
        assert pairing.shape == (3, 3, grid_small.size)
        for i, p in enumerate(funcs):
            for j, q in enumerate(funcs):
                single = op.degree * op.apply_samples(lambda z: np.conj(p(z)) * q(z), grid_small)
                np.testing.assert_allclose(pairing[i, j], single, rtol=0, atol=1e-14)
                w = grid_small.points[5]
                assert pairing[i, j, 5] == pytest.approx(weighted_pairing(op, p, q, w), abs=1e-13)


class TestTransferMatrix:
    def test_square_selection_pattern(self, square):
        matrix = transfer_matrix(TransferOperator(square), 4, CircleGrid(64))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        expected[1, 2] = 1.0
        np.testing.assert_allclose(matrix, expected, atol=1e-13)

    def test_monomial_selection(self, cube):
        matrix = transfer_matrix(TransferOperator(cube), 8, CircleGrid(64))
        for i in range(8):
            for j in range(8):
                expected = 1.0 if j == 3 * i else 0.0
                assert abs(matrix[i, j] - expected) <= 1e-12

    def test_equals_adjoint_of_composition(self, half, grid_small):
        lmat = transfer_matrix(TransferOperator(half), 32, grid_small)
        comp = composition_matrix(half, 32)
        diff = lmat - comp.entries.conj().T
        assert np.max(np.abs(diff)) <= 1e-8

    @pytest.mark.parametrize("which", ["half", "degree3"])
    def test_corner_is_the_smaller_truncation(self, half, which):
        # column j holds the first coefficients of L(z^j), so the m x m corner
        # of the N x N truncation is the m x m truncation, bit for bit
        op = TransferOperator(half if which == "half" else random_product(0))
        grid = CircleGrid(1024)
        corner = transfer_matrix(op, 256, grid)[:16, :16]
        assert np.array_equal(transfer_matrix(op, 16, grid), corner)

    @pytest.mark.parametrize(
        "phase,zeros",
        [(np.exp(1.3j), [0, 0.99j]), (1.0, [0, 0.5, -0.5, 0.5j, -0.5j, 0.4 + 0.4j, -0.4 + 0.4j, 0.3 - 0.5j])],
        ids=["0.99i", "deg8"],
    )
    def test_small_grid_holds_the_polynomial_images(self, phase, zeros):
        # C is lower triangular, so L(z^j) is a polynomial of degree at most j: the truncation is upper
        # triangular, and 4N points give it as exactly as 16384 do
        op = TransferOperator(make_blaschke(phase, zeros))
        small = transfer_matrix(op, 64, CircleGrid(256))
        assert np.max(np.abs(np.tril(small, -1))) <= 1e-13
        np.testing.assert_allclose(small, transfer_matrix(op, 64, CircleGrid(16384)), rtol=0, atol=1e-13)

    def test_truncation_requires_margin(self, half):
        with pytest.raises(ValueError):
            transfer_matrix(TransferOperator(half), 128, CircleGrid(256))
