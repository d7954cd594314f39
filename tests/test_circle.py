"""Grids, the power-of-two transform, symbols and the Poisson extension."""

import numpy as np
import pytest

from blaschkeops import (
    CircleGrid,
    FourierSymbol,
    fft,
    fourier_coefficients,
    ifft,
    l2_inner,
    poisson_extension,
    sample,
    synthesize,
)


class TestGrid:
    def test_nodes(self):
        grid = CircleGrid(4)
        assert np.allclose(grid.nodes, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert np.allclose(grid.points, [1, 1j, -1, -1j])

    def test_points_computed_once_and_read_only(self):
        grid = CircleGrid(64)
        assert grid.points is grid.points and grid.nodes is grid.nodes
        assert not grid.points.flags.writeable and not grid.nodes.flags.writeable
        assert grid == CircleGrid(64) and hash(grid) == hash(CircleGrid(64))

    @pytest.mark.parametrize("size", [3, 0, 12, 2])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(ValueError):
            CircleGrid(size)


class TestTransform:
    def _brute_force(self, x):
        # O(M^2) reference transform
        m = len(x)
        k = np.arange(m)
        return np.array([np.sum(x * np.exp(-2j * np.pi * k * j / m)) for j in range(m)])

    @pytest.mark.parametrize("size", [4, 16, 128])
    def test_matches_brute_force(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        np.testing.assert_allclose(fft(x), self._brute_force(x), atol=1e-11)

    def test_matches_dft_matrix_on_batch(self):
        # fft delegates to numpy, so the oracle is the explicit DFT matrix
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 256)) + 1j * rng.standard_normal((5, 256))
        k = np.arange(256)
        dft = np.exp(-2j * np.pi * (np.outer(k, k) % 256) / 256)
        np.testing.assert_allclose(fft(x), x @ dft.T, atol=1e-11)

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-13)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft(np.ones(12))

    def test_inverse_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ifft(np.ones(12))


class TestSampling:
    def test_constant(self):
        assert np.allclose(sample(lambda z: np.ones_like(z), CircleGrid(4)), 1.0)

    def test_identity_function(self):
        values = sample(lambda z: z, CircleGrid(4))
        assert np.allclose(values, [1, 1j, -1, -1j])

    def test_scalar_only_callable(self):
        values = sample(lambda z: complex(z) ** 2, CircleGrid(8))
        assert np.allclose(values, CircleGrid(8).points ** 2)

    def test_blaschke_samples_match_direct_evaluation(self, half):
        grid = CircleGrid(8)
        np.testing.assert_allclose(sample(half.evaluate, grid), half.evaluate(grid.points))


class TestCoefficients:
    def test_pure_power(self):
        grid = CircleGrid(8)
        symbol = fourier_coefficients(grid.points**2)
        assert symbol.coefficient(2) == pytest.approx(1.0)
        others = [symbol.coefficient(k) for k in symbol.indices() if k != 2]
        assert np.max(np.abs(others)) <= 1e-14

    def test_cosine(self):
        grid = CircleGrid(8)
        symbol = fourier_coefficients(2 * np.cos(grid.nodes))
        assert symbol.coefficient(1) == pytest.approx(1.0)
        assert symbol.coefficient(-1) == pytest.approx(1.0)

    def test_blaschke_coefficients_match_geometric_series(self, half, grid_big):
        # R(z) = z(z - 0.5) sum_m (0.5 z)^m; the oracle builds the series directly
        oracle = np.zeros(80)
        for m in range(78):
            oracle[m + 1] += -0.5 * 0.5**m
            oracle[m + 2] += 0.5**m
        oracle = oracle[:32]
        symbol = fourier_coefficients(sample(half.evaluate, grid_big))
        got = np.array([symbol.coefficient(k).real for k in range(32)])
        np.testing.assert_allclose(got, oracle, atol=1e-12)
        assert symbol.coefficient(1) == pytest.approx(-0.5)
        assert symbol.coefficient(2) == pytest.approx(0.75)
        assert symbol.coefficient(3) == pytest.approx(0.375)

    @pytest.mark.parametrize("m", [8, 16384])
    def test_wrap_matches_dict_loop(self, m):
        # oracle: the per-bin frequency wrap k -> k or k - m onto (-m/2, m/2]
        samples = np.array([1.0, 1j]) @ np.random.default_rng(m).standard_normal((2, m))
        spectrum = np.fft.fft(samples) / m
        oracle = {(k if k <= m // 2 else k - m): complex(spectrum[k]) for k in range(m)}
        symbol = fourier_coefficients(samples)
        assert (symbol.low, symbol.values.size) == (1 - m // 2, m)
        assert symbol.band_limit == m // 2
        assert [symbol.coefficient(k) for k in sorted(oracle)] == [oracle[k] for k in sorted(oracle)]
        assert symbol.coefficient(m // 2 + 1) == 0j and symbol.coefficient(-m // 2) == 0j

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ValueError):
            fourier_coefficients(np.ones((2, 8)))

    def test_dense_storage(self):
        symbol = FourierSymbol({5: -2.0, -3: 0.5j, 0: 0.0})
        assert symbol.low == -3 and symbol.values.size == 9
        assert not symbol.values.flags.writeable
        assert symbol.indices() == [-3, 5]
        assert symbol.band_limit == 5
        assert symbol.truncated(1.0).indices() == [5]
        assert symbol.evaluate(2.0) == pytest.approx(0.5j / 8 - 2.0 * 32)

    def test_evaluate_matches_term_by_term_powers(self):
        # reference: one complex power per term, the sum the Horner pass reorders
        rng = np.random.default_rng(0)
        symbol = FourierSymbol({k: complex(*rng.standard_normal(2)) for k in range(-8, 9)})
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(64, 2)))
        reference = sum(symbol.coefficient(k) * z**k for k in range(-8, 9))
        np.testing.assert_allclose(symbol.evaluate(z), reference, rtol=0, atol=1e-13)
        assert isinstance(symbol.evaluate(1j), complex)

    def test_empty_symbol(self):
        empty = FourierSymbol({})
        assert empty.values.size == 0 and empty.band_limit == 0 and empty.indices() == []
        assert empty.coefficient(0) == 0j and empty.evaluate(0.5) == 0j
        assert empty.is_analytic() and empty.conjugate().values.size == 0
        np.testing.assert_array_equal(synthesize(empty, CircleGrid(8)), np.zeros(8))

    def test_roundtrip_below_nyquist(self):
        grid = CircleGrid(16)
        symbol = FourierSymbol({-3: 0.5j, 0: 1.0, 5: -2.0})
        recovered = fourier_coefficients(synthesize(symbol, grid))
        for k in range(-7, 8):
            assert recovered.coefficient(k) == pytest.approx(symbol.coefficient(k), abs=1e-13)

    def test_analyticity_flag(self):
        assert FourierSymbol({0: 1.0, 3: 2.0}).is_analytic()
        assert not FourierSymbol({-1: 1.0}).is_analytic()

    def test_conjugate_symbol(self):
        symbol = FourierSymbol({1: 1 + 2j, -2: 3.0})
        conj = symbol.conjugate()
        assert conj.coefficient(-1) == 1 - 2j
        assert conj.coefficient(2) == 3.0


class TestInnerProduct:
    def test_constants(self):
        assert l2_inner(np.ones(8), np.ones(8)) == pytest.approx(1.0)

    def test_orthogonal_powers(self):
        grid = CircleGrid(8)
        assert abs(l2_inner(grid.points, grid.points**2)) <= 1e-15

    def test_linear_in_first_argument(self):
        grid = CircleGrid(8)
        f, g = grid.points, grid.points + 1j
        lhs = l2_inner(2j * f, g)
        assert lhs == pytest.approx(2j * l2_inner(f, g))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l2_inner(np.ones(4), np.ones(8))

    def test_parseval(self, half, grid_big):
        values = sample(half.evaluate, grid_big)
        symbol = fourier_coefficients(values)
        power = np.sum(np.abs(symbol.values) ** 2)
        assert l2_inner(values, values) == pytest.approx(power, abs=1e-12)

    def test_basis_element_has_unit_norm(self, half, grid_big):
        # quadrature oracle: e_1 = sqrt(0.75) z/(1 - 0.5 z) is normalised
        e1 = sample(lambda z: np.sqrt(0.75) * z / (1 - 0.5 * z), grid_big)
        assert l2_inner(e1, e1) == pytest.approx(1.0, abs=1e-10)


class TestPoisson:
    def test_identity_symbol(self):
        symbol = FourierSymbol({1: 1.0})
        assert poisson_extension(symbol, 0.5, 0.0) == pytest.approx(0.5)

    def test_constant(self):
        symbol = FourierSymbol({0: 1.0})
        assert poisson_extension(symbol, 0.7, 1.3) == pytest.approx(1.0)

    def test_extends_blaschke_analytically(self, half, grid_big):
        # Fatou/Poisson identification: the coefficient sum at radius r
        # reproduces the direct evaluation inside the disk
        symbol = fourier_coefficients(sample(half.evaluate, grid_big))
        for r, theta in [(0.9, np.pi / 3), (0.95, 2.0), (0.5, 0.1)]:
            direct = half.evaluate(r * np.exp(1j * theta))
            assert poisson_extension(symbol, r, theta) == pytest.approx(direct, abs=1e-8)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            poisson_extension(FourierSymbol({0: 1.0}), 1.0, 0.0)
