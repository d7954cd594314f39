"""Verification runs: configuration, determinism, report formats."""

import importlib.util
import json
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from blaschkeops import (
    BlaschkeProduct,
    CircleGrid,
    TransferOperator,
    composition_matrix,
    fourier_coefficients,
    make_blaschke,
    transfer_matrix,
)
from blaschkeops import dynamics, hardy, tmbasis, transfer, verify
from blaschkeops.blaschke import preimage_grid
from blaschkeops.cli import main
from blaschkeops.hardy import _matrix_norm, _power_spectra
from blaschkeops.verify import (
    DEFAULT_TOLERANCES,
    MANIFEST,
    CheckResult,
    CheckSpec,
    ConfigError,
    RunConfig,
    emit_report,
    run_verify,
)
from conftest import wide_product

# Modest sizes keep the full-run tests quick.  The corner must respect the
# band edge: column j of C carries frequencies up to j * max(psi'), so for
# the default product (max psi' = 4) a corner of 16 needs N well above 64.
FAST = dict(truncation=128, corner=16, grid=1024, basis_count=16)


def enabled_ids(cfg):
    return [spec.check_id for spec in MANIFEST if spec.enabled_for(cfg)]


@pytest.fixture
def fresh_frame_sides():
    # the frame's two sides are cached per product and N; a control that patches their route
    # clears the cache before the patched sides enter it and after they leave
    tmbasis._frame_sides.cache_clear()
    yield
    tmbasis._frame_sides.cache_clear()


@pytest.fixture
def fresh_power_spectra():
    # the columns of C are cached per product and size; a control that patches their source
    # clears the cache before the patched columns enter it and after they leave
    hardy._power_spectra.cache_clear()
    yield
    hardy._power_spectra.cache_clear()


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.truncation == 256 and cfg.corner == 32 and cfg.grid == 4096

    def test_corner_guard_enforced(self):
        with pytest.raises(ConfigError, match="corner"):
            RunConfig(truncation=256, corner=100)

    @pytest.mark.parametrize("corner", [0, -4])
    def test_nonpositive_corner_rejected(self, corner):
        with pytest.raises(ConfigError, match="corner must be at least 1"):
            RunConfig(**{**FAST, "corner": corner})

    def test_truncation_past_a_quarter_of_the_grid_passes(self):
        # no check reads an N-row block off the M grid, so N = 16 M is a valid run and every check PASSes
        report = run_verify(RunConfig(truncation=4096, corner=32, grid=256))
        assert report.overall_pass and len(report.checks) == 18

    def test_grid_below_the_lift_floor_rejected(self):
        # the lift checks sample at least 256 points; a smaller grid is a configuration limit
        with pytest.raises(ConfigError, match="at least 256"):
            RunConfig(truncation=32, corner=8, grid=128)

    def test_bad_product_is_config_error(self):
        with pytest.raises(ConfigError, match="product"):
            RunConfig(zeros=(0.5 + 0j, 0j))

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="unknown check"):
            RunConfig(tolerances={"no_such_check": 1e-6})

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            RunConfig(tolerances={"weight_sum": 0.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_tolerance_rejected(self, value):
        # a NaN tolerance would make every comparison, so every check, FAIL
        with pytest.raises(ConfigError, match="finite and positive"):
            RunConfig(tolerances={"weight_sum": value})

    @pytest.mark.parametrize("name", ["truncation", "corner", "grid", "basis_count", "seed"])
    @pytest.mark.parametrize("value", [8.0, 8.5, "8", True, None])
    def test_sizes_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            RunConfig(**{**FAST, name: value})

    def test_dict_roundtrip(self):
        cfg = RunConfig(zeros=(0j, 0.3 + 0.4j), seed=7, **FAST)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            RunConfig.from_dict({"bogus": 1})


class TestManifest:
    def test_check_ids_unique(self):
        ids = [spec.check_id for spec in MANIFEST]
        assert len(ids) == len(set(ids))

    def test_monomial_enables_shift_relations(self):
        monomial = RunConfig(zeros=(0j, 0j), **FAST)
        generic = RunConfig(**FAST)
        assert "monomial_shift_relations" in enabled_ids(monomial)
        assert "monomial_shift_relations" not in enabled_ids(generic)

    def test_report_covers_exactly_the_enabled_checks(self):
        cfg = RunConfig(**FAST)
        report = run_verify(cfg)
        assert [c.check_id for c in report.checks] == enabled_ids(cfg)


class TestRun:
    def test_square_all_residuals_tiny(self):
        report = run_verify(RunConfig(zeros=(0j, 0j), **FAST))
        assert report.overall_pass
        for check in report.checks:
            assert check.residual <= 1e-10, check.check_id

    def test_default_product_passes(self):
        report = run_verify(RunConfig(**FAST))
        assert report.overall_pass
        assert not report.any_errored

    def test_forced_failure_is_reported_not_raised(self):
        cfg = RunConfig(tolerances={"weight_sum": 1e-30}, **FAST)
        report = run_verify(cfg)
        assert not report.overall_pass
        failed = {c.check_id for c in report.checks if not c.passed}
        assert failed == {"weight_sum"}

    def test_unconvertible_residual_is_an_error(self):
        # the conversion of the residual runs inside the check's capture, so it
        # yields an ERROR result instead of aborting the run
        spec = CheckSpec("weight_sum", "residual that is not a number", 1.0, lambda *args: (None, {}))
        cfg = RunConfig(**FAST)
        result = verify._run_one(spec, cfg, cfg.product(), 0)
        assert result.errored and not result.passed and result.residual is None
        assert result.error.startswith("TypeError:")

    @pytest.mark.parametrize("check_id", ["transfer_unit", "adjoint_transfer"])
    def test_scaled_weights_fail(self, check_id, monkeypatch):
        # negative control: weights scaled by 1 + 1e-6 sum to 1 + 1e-6 over every
        # preimage set and scale the transfer truncation, whose norm is 1, by as much;
        # the preimage table is cached, so it is cleared before the scaled weights
        # enter it and after they leave (weight_sum reads R', not these weights)
        exact = transfer.preimage_weights
        spec = next(s for s in MANIFEST if s.check_id == check_id)
        cfg = RunConfig(**FAST)
        transfer._preimage_table.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(transfer, "preimage_weights", lambda *args: exact(*args) * (1.0 + 1e-6))
                residual, _ = spec.runner(cfg, cfg.product(), None)
        finally:
            transfer._preimage_table.cache_clear()
        assert residual > spec.tolerance
        assert residual == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize(
        "zeros,sizes,largest",
        [((0j, 0.5), dict(truncation=1024, corner=64), 256), ((0j, 0.99j), dict(truncation=256, corner=4), 8192)],
        ids=["large", "0.99i"],
    )
    def test_no_table_spans_the_run_grid(self, zeros, sizes, largest, monkeypatch):
        # the transfer route reads polynomials of low degree and pairings that K coefficients hold,
        # so a run at M = 16384 solves only the shared 256-point table and, near the circle, 2K points
        targets = []
        solve = transfer.preimage_grid
        monkeypatch.setattr(transfer, "preimage_grid", lambda p, w: targets.append(np.size(w)) or solve(p, w))
        transfer._preimage_table.cache_clear()
        try:
            report = run_verify(RunConfig(zeros=zeros, grid=16384, basis_count=32, **sizes))
        finally:
            transfer._preimage_table.cache_clear()
        assert not report.any_errored
        assert 256 in targets and max(targets) == largest

    def test_scaled_log_derivative_fails_derivative_identity(self, monkeypatch):
        # negative control: the closed-form sum scaled by 1 + 1e-6 disagrees
        # with the quotient of R' (product rule) and R
        exact = BlaschkeProduct._log_derivative_at
        monkeypatch.setattr(
            BlaschkeProduct, "_log_derivative_at", lambda self, z: exact(self, z) * (1.0 + 1e-6)
        )
        spec = next(s for s in MANIFEST if s.check_id == "derivative_identity")
        cfg = RunConfig(**FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance

    def test_scaled_derivative_fails_weight_sum_not_transfer_unit(self, monkeypatch):
        # negative control: R' scaled by 1 + 1e-6 shrinks every residue R/(z R'), so the
        # residues sum to 1/(1 + 1e-6); transfer_unit sums the closed-form weights and passes
        exact = BlaschkeProduct.derivative
        monkeypatch.setattr(BlaschkeProduct, "derivative", lambda self, z: exact(self, z) * (1.0 + 1e-6))
        cfg = RunConfig(**FAST)
        residuals = {
            spec.check_id: spec.runner(cfg, cfg.product(), None)[0]
            for spec in MANIFEST
            if spec.check_id in ("weight_sum", "derivative_identity", "transfer_unit")
        }
        assert residuals["weight_sum"] == pytest.approx(1e-6, rel=1e-5)
        assert residuals["derivative_identity"] > DEFAULT_TOLERANCES["derivative_identity"]
        assert residuals["transfer_unit"] <= DEFAULT_TOLERANCES["transfer_unit"]

    def test_rotated_derivative_fails_weight_positivity(self, monkeypatch):
        # negative control: R' turned by e^(2i) turns h = n R/(z R') by e^(-2i), and
        # cos(2) < 0 makes its real part negative everywhere
        exact = BlaschkeProduct.derivative
        monkeypatch.setattr(BlaschkeProduct, "derivative", lambda self, z: exact(self, z) * np.exp(2j))
        spec = next(s for s in MANIFEST if s.check_id == "weight_positivity")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert details["max_weight"] < 0

    def test_halved_derivative_fails_lift_expanding(self, monkeypatch):
        # negative control: half of |R'| = psi' >= 4/3 on [0, 0.5] dips to 2/3 below one
        exact = BlaschkeProduct.derivative
        monkeypatch.setattr(BlaschkeProduct, "derivative", lambda self, z: exact(self, z) / 2.0)
        spec = next(s for s in MANIFEST if s.check_id == "lift_expanding")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert details["margin"] == pytest.approx(2.0 / 3.0 - 1.0, abs=1e-6)

    def test_weight_sum_reports_the_preimage_residual(self):
        # the largest |R(z) - w| over the 256-target table is the solver's own worst residual
        spec = next(s for s in MANIFEST if s.check_id == "weight_sum")
        cfg = RunConfig(**FAST)
        product = cfg.product()
        _, details = spec.runner(cfg, product, None)
        _, residuals = preimage_grid(product, CircleGrid(256).points)
        assert details["preimage_residual"] == float(np.max(residuals))
        assert 0.0 < details["preimage_residual"] <= 1e-13

    def test_module_inner_tails_fails_on_rounding_peaks_at_a_small_truncation(self):
        # N = 32 keeps 32 coefficients of each pair's residual symbol: the bound passes each pair
        # at the default tolerance, and a tolerance no bound meets reads every pair's peak, at
        # rounding but not zero, so the check FAILs; a section behind a cut at 64, empty at this
        # N, would read 0.0 and pass
        def tails(**tolerances):
            cfg = RunConfig(truncation=32, corner=8, grid=256, basis_count=8, tolerances=tolerances)
            return next(c for c in run_verify(cfg).checks if c.check_id == "module_inner_tails")

        on_bound, peaks = tails(), tails(module_inner_tails=1e-300)
        assert on_bound.passed and on_bound.details["peaks"] == {} and "cut" not in on_bound.details
        assert on_bound.residual == max(on_bound.details["sup_bounds"].values())
        assert not peaks.passed and peaks.details["sup_bounds"] == on_bound.details["sup_bounds"]
        assert set(peaks.details["peaks"]) == set(peaks.details["sup_bounds"])
        assert 0.0 < peaks.residual == max(peaks.details["peaks"].values()) <= 1e-14

    def test_scaled_pairings_fail_module_inner_tails_at_every_truncation(self, monkeypatch, fresh_frame_sides):
        # negative control: pairings scaled by 1 + 1e-3 leave n * 1e-3 = 2e-3 on the diagonal pairs'
        # residual symbols, whatever N is (N = 32 keeps 32 of their 64 coefficients, which moves
        # the rounding only); a section behind a cut at 64 is empty at N = 32 and 64 and would pass
        exact = tmbasis.bimodule_inner_samples
        monkeypatch.setattr(tmbasis, "bimodule_inner_samples", lambda *args: exact(*args) * (1.0 + 1e-3))
        spec = next(s for s in MANIFEST if s.check_id == "module_inner_tails")
        residuals = []
        for n_trunc in (32, 64, 256):
            cfg = RunConfig(truncation=n_trunc, corner=4, grid=256, basis_count=8)
            residual, details = spec.runner(cfg, cfg.product(), None)
            assert set(details["peaks"]) == {"v1,v1", "v2,v2"} and residual == max(details["peaks"].values())
            residuals.append(residual)
        assert residuals == pytest.approx([2.0e-3] * 3, rel=1e-9) and np.ptp(residuals) <= 1e-15

    def test_scaled_pairing_fails_module_inner_tails(self, monkeypatch, fresh_frame_sides):
        # negative control: a pairing scaled by 1 + 1e-5 leaves n * 1e-5 on the
        # diagonal of the residual symbol
        exact = tmbasis.bimodule_inner_samples
        monkeypatch.setattr(
            tmbasis, "bimodule_inner_samples", lambda *args: exact(*args) * (1.0 + 1e-5)
        )
        spec = next(s for s in MANIFEST if s.check_id == "module_inner_tails")
        cfg = RunConfig(**FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance

    def test_scaled_column_fails_module_inner_tails(self, monkeypatch, fresh_frame_sides):
        # negative control on the left side: column 0 of C (R^0 = 1) scaled by 1 + 1e-5 moves
        # coefficient 0 of each pair by n <v_j, v_i> 1e-5, so only the diagonal pairs carry
        # n * 1e-5, a constant symbol, and their peaks read it; the columns reach the left
        # side through hardy._left_symbols
        exact = hardy._taylor_columns

        def scaled(*args):
            columns = exact(*args)
            yield next(columns) * (1.0 + 1e-5)
            yield from columns

        monkeypatch.setattr(hardy, "_taylor_columns", scaled)
        spec = next(s for s in MANIFEST if s.check_id == "module_inner_tails")
        cfg = RunConfig(**FAST)
        product = cfg.product()
        residual, details = spec.runner(cfg, product, None)
        assert residual > spec.tolerance
        assert residual == pytest.approx(product.degree * 1e-5, rel=1e-6)
        assert set(details["peaks"]) == {"v1,v1", "v2,v2"}
        assert residual == max(details["peaks"].values())

    @pytest.mark.parametrize("index,degree", [(10, 16), (29, 15)])
    def test_wide_products_pass_module_inner_tails_on_the_bound(self, index, degree):
        # the left side is read in coefficient space, so no grid aliases it: every
        # pair's residual symbol sits at rounding and no pair reads its peak
        product = wide_product(index)
        assert product.degree == degree
        cfg = RunConfig(lambda_angle=float(np.angle(product.phase)), zeros=product.zeros)
        spec = next(s for s in MANIFEST if s.check_id == "module_inner_tails")
        residual, details = spec.runner(cfg, product, None)
        assert residual <= 1e-12 and details["peaks"] == {}
        assert residual == max(details["sup_bounds"].values())
        assert len(details["sup_bounds"]) == degree**2 and details["taylor_length"] == 1024

    def test_turned_column_fails_toeplitz_covariance_and_analytic_commutation(self, monkeypatch, fresh_power_spectra):
        # negative control: column 3 of C turned by e^(1e-4 i) is still a unit vector orthogonal
        # to the others, so composition_isometry passes; but the symbol of C* T_a C, whose
        # streamed columns d <= 8 hold it, and T_(b o R) C turn with it while T_(L a) and C T_b
        # for b = z do not (2.5e-5 and 1.0e-4 here); the turn enters at the one column source
        exact = hardy._taylor_columns

        def turned(*args):
            for j, column in enumerate(exact(*args)):
                yield column * np.exp(1e-4j) if j == 3 else column

        monkeypatch.setattr(hardy, "_taylor_columns", turned)
        cfg = RunConfig(**FAST)
        residuals = {
            spec.check_id: spec.runner(cfg, cfg.product(), np.random.default_rng(0))[0]
            for spec in MANIFEST
            if spec.check_id in ("composition_isometry", "toeplitz_covariance", "analytic_commutation")
        }
        assert residuals["composition_isometry"] <= DEFAULT_TOLERANCES["composition_isometry"]
        assert residuals["toeplitz_covariance"] > DEFAULT_TOLERANCES["toeplitz_covariance"]
        assert residuals["analytic_commutation"] > DEFAULT_TOLERANCES["analytic_commutation"]
        assert residuals["analytic_commutation"] >= 0.99 * abs(np.exp(1e-4j) - 1.0)  # C T_z - T_R C, column 2

    def test_perturbed_argument_fails_lift_winding(self, monkeypatch):
        # negative control: 1e-6 sin(theta) leaves the winding at 2 pi n but
        # turns e^(i psi) away from R on the circle
        exact = dynamics._argument

        def perturbed(product, theta):
            value, slope = exact(product, theta)
            return value + 1e-6 * np.sin(theta), slope + 1e-6 * np.cos(theta)

        monkeypatch.setattr(dynamics, "_argument", perturbed)
        spec = next(s for s in MANIFEST if s.check_id == "lift_winding")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert details["follow_defect"] > spec.tolerance

    def test_drifted_argument_fails_lift_winding_without_errors(self, monkeypatch):
        # negative control: an argument drifting by 1e-6 theta climbs 2 pi 1e-6 too far; the lift
        # is plain data, so the drift reads as a FAIL of the checks that see it, never as an ERROR
        exact = dynamics._argument

        def drifted(product, theta):
            value, slope = exact(product, theta)
            return value + 1e-6 * theta, slope + 1e-6

        monkeypatch.setattr(dynamics, "_argument", drifted)
        report = run_verify(RunConfig(**FAST))
        winding = next(c for c in report.checks if c.check_id == "lift_winding")
        assert not winding.passed and winding.residual == pytest.approx(2e-6 * np.pi, rel=1e-3)
        assert not report.any_errored

    def test_rolled_column_fails_composition_isometry_and_cuntz_relations(self, monkeypatch):
        # negative control: column 3 of C moved down one row, z R^3, stays a unit vector but
        # meets R^4 in |<z, R>| = |R'(0)| = 1/2; the first m rows of W_k = T_(Q R) C inherit
        # the moved column, and their ranges no longer sum to the identity (completeness 0.999)
        exact = verify._power_spectra

        def rolled(*args):
            cols = np.array(exact(*args))
            cols[:, 3] = np.roll(cols[:, 3], 1)
            return cols

        monkeypatch.setattr(verify, "_power_spectra", rolled)
        cfg = RunConfig(**FAST)
        residuals = {
            spec.check_id: spec.runner(cfg, cfg.product(), None)[0]
            for spec in MANIFEST
            if spec.check_id in ("composition_isometry", "cuntz_relations")
        }
        assert residuals["composition_isometry"] == pytest.approx(0.5, rel=1e-9)
        assert residuals["cuntz_relations"] > DEFAULT_TOLERANCES["cuntz_relations"]

    def test_scaled_tail_fails_composition_isometry(self, monkeypatch, fresh_power_spectra):
        # negative control that no cut at N can see: on [0,0.93] the columns j < 4 hold 6.4e-12 of their
        # mass past N = 256, under tolerance, so columns cut there PASS; the check reads 1024 rows, sized
        # for R^3, and the coefficients past row 256 scaled by 1e3 make C* C - I = (1e6 - 1) T* T, T = C[256:, :4]
        exact = hardy._taylor_columns
        product = make_blaschke(1.0, [0, 0.93])
        tail = np.stack(list(islice(exact(product, 1024), 4)), axis=1)[256:]

        def scaled(*args):
            for column in exact(*args):
                yield np.concatenate((column[:256], 1e3 * column[256:]))

        monkeypatch.setattr(hardy, "_taylor_columns", scaled)
        spec = next(s for s in MANIFEST if s.check_id == "composition_isometry")
        cfg = RunConfig(zeros=(0j, 0.93), truncation=256, corner=4, grid=256)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert details["column_length"] == 1024 and 1e-13 < _matrix_norm(tail) ** 2 < spec.tolerance
        assert residual > spec.tolerance
        assert residual == pytest.approx((1e6 - 1.0) * _matrix_norm(tail) ** 2, rel=1e-6)

    def test_scaled_frame_fails_cuntz_relations(self, monkeypatch, fresh_frame_sides):
        # negative control on the frame side: v_1 = Q_1 R_1 scaled by 1 + 1e-6 where the symbols
        # of n W_i* W_j take the frame scales W_2 = T_(v_1) C, so W_2* W_2 - I is the constant
        # (1 + 1e-6)^2 - 1; its bound exceeds the tolerance, so the value is its peak, that constant
        exact = tmbasis.frame

        def scaled(product):
            stack = exact(product)
            return lambda z: stack(z) * np.array([1.0, 1.0 + 1e-6]).reshape((2,) + (1,) * np.ndim(z))

        monkeypatch.setattr(tmbasis, "frame", scaled)
        spec = next(s for s in MANIFEST if s.check_id == "cuntz_relations")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert details["isometry"] == pytest.approx(2e-6 + 1e-12, rel=1e-6)

    def test_scaled_images_fail_toeplitz_covariance_on_the_peak(self, monkeypatch):
        # negative control on the transfer side: every L(z^q) scaled by 1 + 1e-4 leaves the
        # residual symbol -1e-4 (L a)^; its bound exceeds the tolerance, so each symbol reports
        # its peak, 1e-4 max |L a| over the 256 points that sample a band-8 symbol, with L a
        # taken pointwise here
        exact = TransferOperator.monomial_samples
        monkeypatch.setattr(TransferOperator, "monomial_samples", lambda *args: exact(*args) * (1.0 + 1e-4))
        spec = next(s for s in MANIFEST if s.check_id == "toeplitz_covariance")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), np.random.default_rng(3))
        rng = np.random.default_rng(3)
        symbols = [verify._random_symbol(rng, band=8, analytic=False) for _ in range(10)]
        op, grid = TransferOperator(cfg.product()), CircleGrid(256)
        peaks = [1e-4 * np.max(np.abs(op.apply_samples(a.evaluate, grid))) for a in symbols]
        assert residual > spec.tolerance and residual == max(details["per_symbol"])
        assert details["per_symbol"] == pytest.approx(peaks, rel=1e-8)

    def test_scaled_band_edge_images_fail_toeplitz_covariance_at_every_truncation(self, monkeypatch):
        # negative control: on z^2, L(z^8) = z^4 and L(z^-8) = z^-4 scaled by 1 + 1e-3 leave
        # 1e-3 (a_hat(8) z^4 + a_hat(-8) z^-4) in the residual symbol, read the same at every N;
        # the 4 x 4 section at N = 4 holds no z^(+-4) and would pass, and the 8 x 8 one reads less
        exact = TransferOperator.monomial_samples

        def scaled(op, low, high, grid):
            edge = np.abs(np.arange(low, high)) == 8
            return exact(op, low, high, grid) * np.where(edge, 1.0 + 1e-3, 1.0)[:, None]

        monkeypatch.setattr(TransferOperator, "monomial_samples", scaled)
        spec = next(s for s in MANIFEST if s.check_id == "toeplitz_covariance")
        residuals = []
        for n_trunc in (4, 8, 256):
            cfg = RunConfig(zeros=(0j, 0j), truncation=n_trunc, corner=1, grid=256)
            residual, details = spec.runner(cfg, cfg.product(), np.random.default_rng([cfg.seed, MANIFEST.index(spec)]))
            assert residual == max(details["per_symbol"])
            residuals.append(residual)
        assert residuals[0] == pytest.approx(2.56e-4, abs=5e-7) and residuals == [residuals[0]] * 3

    def test_failing_symbol_checks_take_no_section_norm(self, monkeypatch, fresh_frame_sides):
        # the three symbol checks value a residual above tolerance by its sampled peak: at N = 4096
        # and a tolerance no residual meets, each FAILs and none forms a section for an SVD
        def refuse(block):
            raise AssertionError("a symbol check took a section norm")

        monkeypatch.setattr(hardy, "_matrix_norm", refuse)
        tolerances = dict.fromkeys(("toeplitz_covariance", "cuntz_relations", "module_inner_tails"), 1e-300)
        cfg = RunConfig(truncation=4096, corner=4, grid=256, basis_count=8, tolerances=tolerances)
        for check_id in tolerances:
            spec = next(s for s in MANIFEST if s.check_id == check_id)
            residual, _ = spec.runner(cfg, cfg.product(), np.random.default_rng(0))
            assert residual > 1e-300, check_id

    def test_scaled_element_fails_basis_factorization(self, monkeypatch):
        # negative control: e_(n+1) scaled by 1 + 1e-6 no longer factors as Q_1 R_1 R, by
        # 1e-6 sup|e_(n+1)| = 1e-6 sqrt(3) for the zero 0.5, and has norm 1 + 1e-6; the
        # frame, the first n elements, is unchanged
        exact = tmbasis._elements

        def scaled(basis, count, z):
            for l, element in enumerate(exact(basis, count, z)):
                yield element * (1.0 + 1e-6) if l == basis.product.degree + 1 else element

        monkeypatch.setattr(tmbasis, "_elements", scaled)
        report = run_verify(RunConfig(zeros=(0j, 0.5, 0.3 + 0.4j), **FAST))
        failed = {c.check_id: c.residual for c in report.checks if not c.passed}
        assert set(failed) == {"basis_factorization", "basis_orthonormality"}
        assert failed["basis_factorization"] == pytest.approx(np.sqrt(3.0) * 1e-6, rel=1e-6)

    def test_repeated_branch_fails_branch_inverses(self, monkeypatch):
        # negative control: branch n answered by branch 1 misses one preimage
        exact = verify.branch_inverse
        monkeypatch.setattr(
            verify, "branch_inverse", lambda lift, k, t: exact(lift, 1 if k == lift.degree else k, t)
        )
        spec = next(s for s in MANIFEST if s.check_id == "branch_inverses")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert details["min_gap"] == 0.0

    def test_turned_branches_fail_branch_inverses(self, monkeypatch):
        # negative control: every branch angle turned by 1e-6 stays distinct, but
        # misses R(z) = e^(it) by about 1e-6 psi', which the certificate reads through R
        exact = verify.branch_inverse
        monkeypatch.setattr(verify, "branch_inverse", lambda lift, k, t: exact(lift, k, t) + 1e-6)
        spec = next(s for s in MANIFEST if s.check_id == "branch_inverses")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert details["min_gap"] > 1e-12

    def test_rotated_preimages_fail_transfer_covariance(self, monkeypatch):
        # negative control: points turned by e^(1e-6 i) are no longer preimages, so
        # a o R no longer leaves the preimage sum as a(w); scaled weights could not
        # show this, because the identity holds for any weights on true preimages
        exact = verify._preimage_table

        def rotated(product, grid):
            points, weights = exact(product, grid)
            return points * np.exp(1e-6j), weights

        monkeypatch.setattr(verify, "_preimage_table", rotated)
        spec = next(s for s in MANIFEST if s.check_id == "transfer_covariance")
        cfg = RunConfig(**FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance

    @pytest.mark.parametrize(
        "check_id, zeros", [("cuntz_relations", (0j, 0.5)), ("monomial_shift_relations", (0j,) * 3)], ids=["[0,0.5]", "z^3"]
    )
    def test_cuntz_checks_read_no_grid(self, check_id, zeros):
        # the Cuntz family comes from factor series, so the run grid changes nothing
        spec = next(s for s in MANIFEST if s.check_id == check_id)
        cfg = RunConfig(zeros=zeros, **FAST)
        finer = replace(cfg, grid=4 * cfg.grid)
        assert spec.runner(cfg, cfg.product(), None) == spec.runner(finer, finer.product(), None)

    def test_moved_entry_fails_monomial_shift_relations(self, monkeypatch):
        # negative control: W_2[5, 3] moved by 1e-9 breaks U W_1 = W_2 and
        # U W_2 = W_3; each of the three relations takes one exact norm of its
        # first m columns, and the residual is the exact norm of the dense
        # U W_k - W_(k+1), built here independently
        exact = verify.cuntz_columns

        def moved(product, cols):
            family = [np.array(w) for w in exact(product, cols)]
            # C[:, 3] = e_9 for z^3: W_2[:, 3] is the column whose row 9 of C holds the 1;
            # the FFT products leave rounding noise of 1e-17 in the other entries of that row
            for j in np.flatnonzero(np.abs(cols[9]) > 0.5):
                family[1][5, j] += 1e-9
            return family

        exact_norms = []
        monkeypatch.setattr(verify, "cuntz_columns", moved)
        monkeypatch.setattr(verify, "_matrix_norm", lambda block: exact_norms.append(_matrix_norm(block)) or exact_norms[-1])
        spec = next(s for s in MANIFEST if s.check_id == "monomial_shift_relations")
        cfg = RunConfig(zeros=(0j, 0j, 0j), **FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None)
        comp = _power_spectra(cfg.product(), cfg.truncation, cfg.truncation)
        family = moved(cfg.product(), comp)
        shift = np.eye(cfg.truncation, k=-1)
        differences = [shift @ w - w_next for w, w_next in zip(family, family[1:])]
        assert residual > spec.tolerance and len(exact_norms) == 3
        # to rounding: past column m the dense differences hold the FFT products'
        # rounding noise, not exact zeros, and it moves their SVD by 4e-25 here
        assert residual == pytest.approx(max(np.linalg.svd(d, compute_uv=False)[0] for d in differences), rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 1.0])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_phased_monomial_passes_shift_relations(self, degree, angle):
        # for R = lambda z^n, W_k e_j = lambda^j z^(jn+k-1), so U W_n = conj(lambda) W_1 U
        cfg = RunConfig(lambda_angle=angle, zeros=(0j,) * degree, **FAST)
        report = run_verify(cfg)
        check = next(c for c in report.checks if c.check_id == "monomial_shift_relations")
        assert check.passed and check.residual <= 1e-14
        assert report.overall_pass

    def test_dropped_phase_factor_fails_shift_relations(self, monkeypatch):
        # negative control: the family of lambda z^2 checked against the wrap relation
        # U W_n = W_1 U, without conj(lambda), reads |1 - lambda| (0.9589 at angle 1)
        lam = np.exp(1j)
        exact = verify._power_spectra
        phased = RunConfig(lambda_angle=1.0, zeros=(0j, 0j), **FAST).product()
        monkeypatch.setattr(verify, "_power_spectra", lambda product, *args: exact(phased, *args))
        spec = next(s for s in MANIFEST if s.check_id == "monomial_shift_relations")
        cfg = RunConfig(zeros=(0j, 0j), **FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance
        assert residual == pytest.approx(abs(1.0 - lam), rel=1e-12)

    def test_shifted_column_fails_adjoint_transfer(self, monkeypatch):
        # negative control: column 1 of C moved down one row is no longer the
        # adjoint of the transfer truncation's row
        exact = verify._power_spectra

        def shifted(*args):
            cols = np.array(exact(*args))
            cols[:, 1] = np.roll(cols[:, 1], 1)
            return cols

        monkeypatch.setattr(verify, "_power_spectra", shifted)
        spec = next(s for s in MANIFEST if s.check_id == "adjoint_transfer")
        cfg = RunConfig(**FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None)
        assert residual > spec.tolerance

    def test_corner_one_adjoint_transfer(self):
        # the check builds the 1 x 1 transfer truncation; its residual is the
        # one the full N x N truncations give at that corner
        cfg = RunConfig(**{**FAST, "corner": 1})
        report = run_verify(cfg)
        assert report.overall_pass
        check = next(c for c in report.checks if c.check_id == "adjoint_transfer")
        product, grid = cfg.product(), CircleGrid(cfg.grid)
        lmat = transfer_matrix(TransferOperator(product), cfg.truncation, grid)
        comp = composition_matrix(product, cfg.truncation).entries
        assert check.residual == _matrix_norm((lmat - comp.conj().T)[:1, :1])

    def test_parallel_matches_serial(self):
        cfg = RunConfig(**FAST)
        serial = emit_report(run_verify(cfg, parallel=False), "canonical")
        concurrent = emit_report(run_verify(cfg, parallel=True), "canonical")
        assert serial == concurrent

    def test_determinism_bytes(self):
        cfg = RunConfig(seed=3, **FAST)
        first = emit_report(run_verify(cfg), "canonical")
        second = emit_report(run_verify(cfg), "canonical")
        assert first == second

    def test_seed_changes_randomized_checks(self):
        base = run_verify(RunConfig(seed=0, **FAST))
        other = run_verify(RunConfig(seed=1, **FAST))
        pick = {c.check_id: c.residual for c in base.checks}["toeplitz_covariance"]
        pick_other = {c.check_id: c.residual for c in other.checks}["toeplitz_covariance"]
        assert pick != pick_other


def _per_pair_residuals(product, stack, n_trunc):
    """Reference for ``inner_product_residual``: each pair's pairing through its own
    ``fourier_coefficients`` and its left side column by column, regrouped into ``[i, j, w - 1 + k]``."""
    size = tmbasis._needed_length(product, 1, product.degree, np.inf)
    width = min(n_trunc, size)
    vals = stack(CircleGrid(2 * size).points)
    count = len(vals)
    columns = list(islice(hardy._taylor_columns(product, size), width))
    lower = np.empty((count, count, width), dtype=complex)  # [i, j, d]: coefficient -d of the pair
    for i in range(count):
        for j in range(count):
            a_hat = np.fft.ifft(product.degree * np.conj(vals[i]) * vals[j])[:size]
            lower[i, j] = [a_hat[d:] @ column[d:] for d, column in enumerate(columns)]
    grid = transfer.transfer_grid(2 * size)
    pairings = transfer.bimodule_inner_samples(TransferOperator(product), stack, grid)
    out = np.empty((count, count, 2 * width - 1), dtype=complex)
    for i in range(count):
        for j in range(count):
            pairing = fourier_coefficients(pairings[i, j])
            band = np.concatenate((lower[i, j, :0:-1], np.conj(lower[j, i])))
            out[i, j] = band - pairing.values[1 - width - pairing.low : width - pairing.low]
    return out


@pytest.mark.parametrize("shifted", [False, True], ids=["frame", "frame-times-z^i"])
def test_module_tails_array_matches_the_per_pair_route(shifted):
    # the 256 pairs of a degree-16 product at N = 256: one FFT of all the pairings and the
    # streamed columns give, entry by entry, what each pair's own transform and loop give.
    # The frame's residuals sit at rounding, where a misplaced band would not show; the pairs
    # of v_i z^i leave coefficients up to about 11, and no pair's band is its own conjugate reverse
    product = wide_product(10)
    frame = tmbasis.frame(product)
    stack = (lambda z: frame(z) * np.asarray(z) ** np.arange(16)[:, None]) if shifted else frame
    left, right, _ = tmbasis.inner_product_residual(product, stack, 256)
    assert left.shape == right.shape == (16, 16, 511) and not left.flags.writeable and not right.flags.writeable
    residuals = left - right
    reference = _per_pair_residuals(product, stack, 256)
    np.testing.assert_allclose(residuals, reference, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "zeros,failing",
    [
        ((0j, 0.95), set()),
        ((0j, 0.99j), set()),
    ],
)
def test_near_circle_fail_sets(zeros, failing):
    # at the near-circle benchmark sizes every check PASSes: composition_isometry reads its columns at
    # the length sized for R^3, 1024 and 8192 rows, not cut at N = 256, where their tails read 4.7e-8 and
    # 4.0e-3; toeplitz_covariance and cuntz_relations read Toeplitz symbols on H^2
    cfg = RunConfig(lambda_angle=1.3, zeros=zeros, truncation=256, corner=4, grid=16384, seed=11)
    report = run_verify(cfg)
    assert not report.any_errored
    assert {c.check_id for c in report.checks if not c.passed} == failing
    isometry = next(c for c in report.checks if c.check_id == "composition_isometry")
    assert isometry.details["column_length"] == (1024 if zeros[1] == 0.95 else 8192)


SYMBOLS = ("toeplitz_covariance", "cuntz_relations")


def _symbol_route_residuals(product, n_trunc, corner):
    sizes = dict(truncation=n_trunc, corner=corner, grid=max(4096, 4 * n_trunc))
    cfg = RunConfig(lambda_angle=float(np.angle(product.phase)), zeros=product.zeros, **sizes)
    out = {}
    for check_id in SYMBOLS:
        spec = next(s for s in MANIFEST if s.check_id == check_id)
        out[check_id] = spec.runner(cfg, product, np.random.default_rng([cfg.seed, MANIFEST.index(spec)]))[0]
    return out


def test_symbol_route_reads_no_truncation():
    # on [0,0.99i], whose N = 256 corners read 9.6e-2 and 0.97, both checks read their symbols
    # on H^2, so N plays no part in a PASS: the covariance symbol reads C[:9, :9] whatever N is;
    # the Cuntz symbols keep min(N, K) coefficients, and the rounding of the 2047 that N = 1024
    # keeps moves the bound by 7e-15 against the 127 of N = 64
    product = make_blaschke(np.exp(1.3j), [0, 0.99j])
    small, large = _symbol_route_residuals(product, 64, 4), _symbol_route_residuals(product, 1024, 4)
    assert max(small.values()) <= 1e-13 and max(large.values()) <= 1e-13
    assert small["toeplitz_covariance"] == large["toeplitz_covariance"]
    assert small["cuntz_relations"] == pytest.approx(large["cuntz_relations"], abs=1e-14)


@pytest.mark.parametrize("zeros", [(0j, 0.5), (0j, 0.99j), (0j, 0j, 0j)], ids=["[0,0.5]", "[0,0.99i]", "z^3"])
def test_column_reads_take_no_cut_at_the_truncation(zeros):
    # composition_isometry reads rows sized from the zeros, N only their floor, adjoint_transfer the m x m
    # corner and monomial_shift_relations n (m + 1) rows, so from N = 64 to 4096 every verdict is a PASS
    # and no residual moves past rounding; [0,0.99i] FAILed the isometry at N = 64 and 256 when it cut C at N
    readings = {}
    for n_trunc in (64, 256, 1024, 4096):
        cfg = RunConfig(lambda_angle=1.3, zeros=zeros, truncation=n_trunc, corner=4, grid=256)
        for index, spec in enumerate(MANIFEST):
            if spec.check_id in ("composition_isometry", "adjoint_transfer", "monomial_shift_relations") and (
                spec.enabled_for(cfg)
            ):
                readings.setdefault(spec.check_id, []).append(verify._run_one(spec, cfg, cfg.product(), index))
    assert len(readings) == (3 if zeros == (0j, 0j, 0j) else 2)
    for results in readings.values():
        residuals = [r.residual for r in results]
        assert all(r.passed for r in results) and max(residuals) - min(residuals) <= 1e-13


@pytest.mark.parametrize("seed,degree", [(0, 8), (1, 10), (2, 12), (3, 16)])
def test_wide_products_pass_the_symbol_route(seed, degree):
    # seeded products of degree 8-16 with |z_k| <= 0.98 at the default sizes, where N = 256
    # under-resolved the corners these checks read before
    rng = np.random.default_rng(seed)
    radius = 0.98 * np.sqrt(rng.uniform(size=degree - 1))
    product = make_blaschke(1.0, [0j, *(radius * np.exp(2j * np.pi * rng.uniform(size=degree - 1)))])
    residuals = _symbol_route_residuals(product, 256, 32)
    assert max(residuals.values()) <= 1e-12, residuals


SIZED = ("analytic_commutation", "basis_orthonormality")


def _sized_residual(zeros, check_id):
    # no run grid is passed: neither check reads M
    spec = next(s for s in MANIFEST if s.check_id == check_id)
    cfg = RunConfig(lambda_angle=1.3, zeros=zeros)
    return spec.runner(cfg, cfg.product(), np.random.default_rng([cfg.seed, MANIFEST.index(spec)]))


@pytest.mark.parametrize(
    "zeros,grids",
    [((0j, 0.5), (256, 256)), ((0j, 0.99j), (8192, 16384)), ((0j, 0.995), (16384, 65536))],
    ids=["[0,0.5]", "[0,0.99i]", "[0,0.995]"],
)
def test_sized_checks_sample_grids_from_the_zeros(zeros, grids):
    # b o R is sampled where the poles of R^4 have decayed, and the Gram where those of element
    # count - 1, each zero ceil(32 / 2) = 16 times, have; [0,0.995] read 1.8e-6 and 0.35 at M = 4096
    for check_id, size in zip(SIZED, grids):
        residual, details = _sized_residual(zeros, check_id)
        assert details["grid"] == size and "grid_needed" not in details
        assert residual <= 1e-12


def test_sizing_reaches_the_largest_grid_without_sampling_it():
    # 0.9999 needs 2^20 points for R^4 and 2^22 for 16-fold poles, past the largest grid of 2^18;
    # only sizes are computed here
    product = make_blaschke(1.0, [0, 0.9999])
    for power, needed in ((4, 1 << 20), (16, 1 << 22)):
        with pytest.raises(tmbasis._Unresolved) as refused:
            tmbasis._needed_length(product, power, 256)
        assert refused.value.args[0] == {"grid_needed": needed}
    assert tmbasis._needed_length(make_blaschke(1.0, [0, 0]), 16, 256) == 256


def test_capped_grid_reads_as_under_resolved(monkeypatch):
    # a product that needs more than the largest grid is never sampled: each sized check FAILs
    # with residual 1.0 and the size it needs, whatever its tolerance (a sample would raise, an ERROR)
    def refuse(*args):
        raise AssertionError("sampled past the cap")

    for module, name in ((verify, "gram_residual"), (verify, "commutation_residual"), (tmbasis, "bimodule_inner_samples")):
        monkeypatch.setattr(module, name, refuse)
    cfg = RunConfig(zeros=(0j, 0.9999), tolerances=dict.fromkeys(SIZED, 10.0))
    for check_id, needed in zip(SIZED, (1 << 20, 1 << 22)):
        spec = next(s for s in MANIFEST if s.check_id == check_id)
        result = verify._run_one(spec, cfg, cfg.product(), MANIFEST.index(spec))
        assert (result.residual, result.passed, result.errored) == (1.0, False, False)
        assert result.details == {"grid_needed": needed}


def test_degree_64_near_the_circle_fails_without_an_error():
    # 0 and 63 zeros of modulus up to 0.995 need K = 4096 Taylor coefficients for each of the 4096
    # frame pairs, past the memory cap of 2^23: the two checks that read them FAIL and name K, no check ERRORs
    rng = np.random.default_rng(64)
    radius, angle = 0.995 * np.sqrt(rng.uniform(size=63)), rng.uniform(0.0, 2.0 * np.pi, size=63)
    report = run_verify(RunConfig(zeros=(0j, *(radius * np.exp(1j * angle)))))
    assert not report.any_errored and not report.overall_pass
    for check in report.checks:
        if check.check_id in ("cuntz_relations", "module_inner_tails"):
            assert not check.passed and check.details == {"taylor_length_needed": 4096}


@pytest.mark.xfail(strict=True, reason="tmbasis._needed_length picks 512 points, where the coefficients of R^4 alias")
def test_degree_64_passes_analytic_commutation():
    # 0 and 63 zeros uniform in the disk of radius 0.9: _needed_length picks 512 points, where z^4 alone reads
    # 1.1e-5 (1.4e-14 on 1024 points); summing the 63 poles' envelopes picks 512 points too
    rng = np.random.default_rng(64)
    radius, angle = 0.9 * np.sqrt(rng.uniform(size=63)), rng.uniform(0.0, 2.0 * np.pi, size=63)
    residual, _ = _sized_residual((0j, *(radius * np.exp(1j * angle))), "analytic_commutation")
    assert residual <= DEFAULT_TOLERANCES["analytic_commutation"]


@pytest.mark.xfail(strict=True, reason="tmbasis._needed_length leaves out the residues, so it undersizes high powers")
def test_length_for_a_high_power_holds_its_mass():
    # the rule picks 512 rows for R^127 on [0,0.5], and the coefficients past them hold 3.3e-3 of its unit mass
    # (1.1e-27 past 1024); composition_isometry at m = 128 reads those columns, so N = 1024 stays its floor
    product = make_blaschke(1.0, [0, 0.5])
    size = tmbasis._needed_length(product, 127, 256)
    column = next(islice(hardy._taylor_columns(product, 8 * size), 127, None))
    assert float(np.sum(np.abs(column[size:]) ** 2)) <= 1e-16


@pytest.fixture(scope="module")
def report():
    return run_verify(RunConfig(**FAST))


class TestReports:
    def test_canonical_checks_hold_the_compared_fields(self, report):
        # each check renders exactly the CheckResult fields that take part in
        # equality (not the runtime), with their values
        data = json.loads(emit_report(report, "canonical"))
        compared = [f.name for f in fields(CheckResult) if f.compare]
        assert "runtime" not in compared
        assert data["checks"] == [{name: getattr(c, name) for name in compared} for c in report.checks]
        assert RunConfig.from_dict(data["config"]) == report.config
        assert data["metadata"] == report.metadata
        assert data["overall_pass"] is report.overall_pass

    def test_table_has_one_row_per_check(self, report):
        lines = emit_report(report, "table").strip().splitlines()
        assert lines[0].startswith("check_id,")
        assert len(lines) == 1 + len(report.checks)

    def test_human_mentions_overall(self, report):
        text = emit_report(report, "human")
        assert "overall: PASS" in text

    def test_write_to_path(self, report, tmp_path, capsys):
        # reports reach a file through the CLI's one writer, byte for byte
        config = tmp_path / "config.json"
        config.write_text(json.dumps(FAST))
        target = tmp_path / "report.json"
        assert main(["verify", "--config", str(config), "--format", "canonical", "--report", str(target)]) == 0
        assert target.read_text() == emit_report(report, "canonical")

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ConfigError):
            emit_report(report, "yaml")


def test_benchmark_entry_points_resolve():
    # the traced benchmark wraps every ENTRY_POINTS name and stops on a missing one, and it keeps
    # one runtime metric per manifest check: removing or renaming a pinned name fails here too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    for _, module, attribute, _ in spans.ENTRY_POINTS:
        target = importlib.import_module(f"blaschkeops.{module}")
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module}.{attribute}"
    assert spans.CHECK_IDS == tuple(spec.check_id for spec in MANIFEST)
