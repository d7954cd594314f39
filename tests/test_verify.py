"""Verification runs: configuration, determinism, report formats."""

import numpy as np
import pytest

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

    def test_truncation_grid_ratio_enforced(self):
        with pytest.raises(ConfigError, match="grid"):
            RunConfig(truncation=2048, corner=16, grid=4096)

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

    def test_tail_profile_cuts_past_a_small_truncation(self):
        # N = 32 is below the largest cut (64): those cuts read as empty corners
        cfg = RunConfig(truncation=32, corner=8, grid=128, basis_count=8)
        check = next(c for c in run_verify(cfg).checks if c.check_id == "module_inner_tails")
        assert not check.errored
        assert check.details["profiles"]["v1,v1"][2:] == [0.0, 0.0]

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
