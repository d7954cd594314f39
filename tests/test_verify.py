"""Verification runs: configuration, determinism, report formats."""

import numpy as np
import pytest

from blaschkeops import (
    BlaschkeProduct,
    CircleGrid,
    TransferOperator,
    composition_matrix,
    transfer_matrix,
)
from blaschkeops import dynamics, tmbasis, verify
from blaschkeops.hardy import _matrix_norm
from blaschkeops.verify import (
    MANIFEST,
    ConfigError,
    RunConfig,
    emit_report,
    enabled_check_ids,
    parse_report,
    run_verify,
)

# Modest sizes keep the full-run tests quick.  The corner must respect the
# band edge: column j of C carries frequencies up to j * max(psi'), so for
# the default product (max psi' = 4) a corner of 16 needs N well above 64.
FAST = dict(truncation=128, corner=16, grid=1024, basis_count=16)


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

    def test_truncation_grid_ratio_enforced(self):
        with pytest.raises(ConfigError, match="grid"):
            RunConfig(truncation=2048, corner=16, grid=4096)

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
        assert "monomial_shift_relations" in enabled_check_ids(monomial)
        assert "monomial_shift_relations" not in enabled_check_ids(generic)

    def test_report_covers_exactly_the_enabled_checks(self):
        cfg = RunConfig(**FAST)
        report = run_verify(cfg)
        assert [c.check_id for c in report.checks] == enabled_check_ids(cfg)


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

    def test_scaled_log_derivative_fails_derivative_identity(self, monkeypatch):
        # negative control: the closed-form sum scaled by 1 + 1e-6 disagrees
        # with the quotient of R' and R along both derivative routes
        exact = BlaschkeProduct._log_derivative_at
        monkeypatch.setattr(
            BlaschkeProduct, "_log_derivative_at", lambda self, z: exact(self, z) * (1.0 + 1e-6)
        )
        spec = next(s for s in MANIFEST if s.check_id == "derivative_identity")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None, None)
        assert residual > spec.tolerance
        assert details["log_sum_deviation"] > spec.tolerance
        assert details["product_rule_deviation"] > spec.tolerance

    def test_tail_profile_cuts_past_a_small_truncation(self):
        # N = 32 is below the cut (64), so every corner is empty: the bound
        # passes each pair without an SVD, and a tolerance no bound meets
        # hands every pair to the exact route, which reads 0.0
        def tails(**tolerances):
            cfg = RunConfig(truncation=32, corner=8, grid=256, basis_count=8, tolerances=tolerances)
            return next(c for c in run_verify(cfg).checks if c.check_id == "module_inner_tails")

        on_bound, exact = tails(), tails(module_inner_tails=1e-300)
        assert on_bound.passed and on_bound.details["cut"] == 64
        assert on_bound.details["corner_norms"] == {}
        assert on_bound.residual == max(on_bound.details["sup_bounds"].values())
        assert exact.passed and exact.residual == 0.0
        assert exact.details["corner_norms"] == {pair: 0.0 for pair in exact.details["sup_bounds"]}

    def test_scaled_pairing_fails_module_inner_tails(self, monkeypatch):
        # negative control: a pairing scaled by 1 + 1e-5 leaves n * 1e-5 on the
        # diagonal of the residual symbol, a non-compact tail no cut removes
        exact = tmbasis.bimodule_inner_samples
        monkeypatch.setattr(
            tmbasis, "bimodule_inner_samples", lambda *args: exact(*args) * (1.0 + 1e-5)
        )
        spec = next(s for s in MANIFEST if s.check_id == "module_inner_tails")
        cfg = RunConfig(**FAST)
        residual, _ = spec.runner(cfg, cfg.product(), CircleGrid(cfg.grid), None)
        assert residual > spec.tolerance

    def test_perturbed_argument_fails_lift_winding(self, monkeypatch):
        # negative control: 1e-6 sin(theta) leaves the winding at 2 pi n but
        # turns e^(i psi) away from R on the circle
        exact = dynamics._argument
        monkeypatch.setattr(
            dynamics, "_argument", lambda product, theta: exact(product, theta) + 1e-6 * np.sin(theta)
        )
        spec = next(s for s in MANIFEST if s.check_id == "lift_winding")
        cfg = RunConfig(**FAST)
        residual, details = spec.runner(cfg, cfg.product(), None, None)
        assert residual > spec.tolerance
        assert details["follow_defect"] > spec.tolerance

    def test_repeated_branch_fails_branch_inverses(self, monkeypatch):
        # negative control: branch n answered by branch 1 misses one preimage
        exact = verify.branch_inverse
        monkeypatch.setattr(
            verify, "branch_inverse", lambda lift, k, t: exact(lift, 1 if k == lift.degree else k, t)
        )
        spec = next(s for s in MANIFEST if s.check_id == "branch_inverses")
        cfg = RunConfig(**FAST)
        residual, _ = spec.runner(cfg, cfg.product(), None, None)
        assert residual > spec.tolerance

    def test_moved_entry_fails_monomial_shift_relations(self, monkeypatch):
        # negative control: W_2[5, 3] moved by 1e-9 breaks U W_1 = W_2 and
        # U W_2 = W_3; their Frobenius bounds exceed 1e-12, so those two blocks,
        # and only those, take the SVD, and the residual is the exact norm of
        # the dense U W_k - W_(k+1), built here independently
        exact = verify.cuntz_columns

        def moved(*args):
            family = [np.array(w) for w in exact(*args)]
            family[1][5, 3] += 1e-9
            return family

        exact_norms = []
        monkeypatch.setattr(verify, "cuntz_columns", moved)
        monkeypatch.setattr(verify, "_matrix_norm", lambda block: exact_norms.append(_matrix_norm(block)) or exact_norms[-1])
        spec = next(s for s in MANIFEST if s.check_id == "monomial_shift_relations")
        cfg = RunConfig(zeros=(0j, 0j, 0j), **FAST)
        residual, _ = spec.runner(cfg, cfg.product(), CircleGrid(cfg.grid), None)
        family = moved(cfg.product(), cfg.truncation, cfg.truncation, CircleGrid(cfg.grid))
        shift = np.eye(cfg.truncation, k=-1)
        differences = [shift @ w - w_next for w, w_next in zip(family, family[1:])]
        assert residual > spec.tolerance and len(exact_norms) == 2
        assert residual == max(np.linalg.svd(d, compute_uv=False)[0] for d in differences)

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
        residual, _ = spec.runner(cfg, cfg.product(), CircleGrid(cfg.grid), None)
        assert residual > spec.tolerance

    def test_corner_one_adjoint_transfer(self):
        # the 1 x 1 corner is below the smallest TruncatedOperator; its
        # residual is the one the full N x N truncations give at that corner
        cfg = RunConfig(**{**FAST, "corner": 1})
        report = run_verify(cfg)
        assert report.overall_pass
        check = next(c for c in report.checks if c.check_id == "adjoint_transfer")
        product, grid = cfg.product(), CircleGrid(cfg.grid)
        lmat = transfer_matrix(TransferOperator(product), cfg.truncation, grid).entries
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


@pytest.fixture(scope="module")
def report():
    return run_verify(RunConfig(**FAST))


class TestReports:
    def test_canonical_roundtrip(self, report):
        text = emit_report(report, "canonical")
        assert parse_report(text) == report

    def test_table_has_one_row_per_check(self, report):
        lines = emit_report(report, "table").strip().splitlines()
        assert lines[0].startswith("check_id,")
        assert len(lines) == 1 + len(report.checks)

    def test_human_mentions_overall(self, report):
        text = emit_report(report, "human")
        assert "overall: PASS" in text

    def test_write_to_path(self, report, tmp_path):
        target = tmp_path / "report.json"
        emit_report(report, "canonical", str(target))
        assert parse_report(target.read_text()) == report

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ConfigError):
            emit_report(report, "yaml")
