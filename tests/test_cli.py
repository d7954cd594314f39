"""Command-line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from blaschkeops import blaschke
from blaschkeops.cli import main

FAST_FLAGS = ["--truncation", "128", "--corner", "16", "--grid", "1024"]


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        assert main(["verify", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_failure_exit_code(self, capsys):
        code = main(["verify", *FAST_FLAGS, "--tol-override", "weight_sum=1e-30"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        assert main(["verify", "--truncation", "64", "--corner", "32"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_grid_below_the_lift_floor_exit_code(self, capsys):
        assert main(["verify", "--truncation", "32", "--corner", "8", "--grid", "128"]) == 2
        assert "at least 256" in capsys.readouterr().err

    def test_steep_product_on_the_smallest_grid_has_no_error(self, tmp_path, capsys):
        # max psi' = 496 winds 12 radians per grid step; the closed-form lift
        # still serves, and composition_isometry reads 8192 rows, not N = 64, so every check PASSes (exit 0)
        config = write_config(
            tmp_path, zeros=[[0, 0]] + [[0.98, 0]] * 5, truncation=64, corner=4, grid=256
        )
        assert main(["verify", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "ERROR" not in out
        for check_id in ("lift_expanding", "lift_winding", "branch_inverses", "power_conjugacy"):
            assert f"[PASS] {check_id}" in out

    @pytest.mark.parametrize("corner", ["0", "-4"])
    def test_nonpositive_corner_exit_code(self, corner, capsys):
        assert main(["verify", "--truncation", "128", "--corner", corner, "--grid", "1024"]) == 2
        assert "corner must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": "x"},
            {"seed": 1.5},
            {"truncation": 64.0},
            {"truncation": 64.5},
            {"corner": 8.0},
            {"basis_count": 8.0},
            {"grid": "4096"},
            {"tolerances": {"weight_sum": float("nan")}},
            {"tolerances": {"weight_sum": "x"}},
            {"lambda_angle": float("nan")},
            {"lambda_angle": "x"},
            {"zeros": [[0, 0], [float("nan"), 0]]},
        ],
    )
    def test_invalid_config_values_exit_code(self, tmp_path, fields, capsys):
        # JSON carries NaN as a bare literal, which json.dumps writes and json.load reads
        assert main(["verify", "--config", write_config(tmp_path, **fields)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "basis"])
    def test_negative_seed_exit_code(self, command, capsys):
        # numpy seeds its generators from non-negative integers only; -1 is a configuration
        # error (exit 2), not a traceback from the first check's generator
        assert main([command, *FAST_FLAGS, "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["verify", "--config", "/no/such/file.json"]) == 2

    def test_malformed_tol_override(self, capsys):
        assert main(["verify", *FAST_FLAGS, "--tol-override", "weight_sum"]) == 2

    def test_report_file_and_canonical_format(self, tmp_path, capsys):
        # the report file holds exactly the text the same run prints to stdout
        assert main(["verify", *FAST_FLAGS, "--format", "canonical"]) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "out.json"
        code = main(["verify", *FAST_FLAGS, "--format", "canonical", "--report", str(target)])
        assert code == 0
        assert target.read_text() == printed
        assert json.loads(printed)["overall_pass"] is True
        assert "report written" in capsys.readouterr().out

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        config = write_config(tmp_path, zeros=[[0, 0], [0, 0]], truncation=256, corner=32, grid=4096)
        code = main(["verify", "--config", config, *FAST_FLAGS, "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "monomial_shift_relations" in out

    def test_parallel_flag(self, capsys):
        assert main(["verify", *FAST_FLAGS, "--parallel"]) == 0


class TestQueryCommands:
    def test_preimage(self, capsys):
        assert main(["preimage", "--angle", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "weight sum = 1" in out

    def test_preimage_solves_once(self, capsys, monkeypatch):
        # the weights come from the points already solved, not from a second solve
        calls = []
        solve = blaschke.preimage_grid
        monkeypatch.setattr(blaschke, "preimage_grid", lambda *args: calls.append(1) or solve(*args))
        assert main(["preimage", "--angle", "0.7"]) == 0
        assert len(calls) == 1
        assert "weight sum = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("angle", ["nan", "inf", "--angle=-inf"])
    def test_preimage_rejects_nonfinite_angle(self, angle, capsys):
        # a configuration error (exit 2), not a numerical breakdown (exit 3)
        args = [angle] if angle.startswith("--") else ["--angle", angle]
        assert main(["preimage", *args]) == 2
        assert "--angle must be finite" in capsys.readouterr().err

    def test_transfer_default_symbol(self, capsys):
        # L(z) for zeros [0, 0.5] is analytic with small coefficients
        assert main(["transfer", *FAST_FLAGS]) == 0
        assert "coefficients" in capsys.readouterr().out

    def test_transfer_symbol_validation(self, capsys):
        assert main(["transfer", "--symbol", "not json"]) == 2

    @pytest.mark.parametrize(
        "symbol",
        [
            "[1, 2]",  # a JSON array, not a map
            '{"1": [1e400, 0]}',  # parses as inf
            '{"5000": [1, 0]}',  # past the Nyquist frequency 512 of the 1024-point grid
            '{"-513": [1, 0]}',
            '{"1000000000000": [1, 0]}',  # would allocate a vector of that length
            '{"1": [1, 0, 7]}',  # not exactly two numbers
            '{"1": [true, 0]}',
        ],
    )
    def test_transfer_rejects_bad_symbol(self, symbol, capsys):
        assert main(["transfer", *FAST_FLAGS, "--symbol", symbol]) == 2
        assert "--symbol must map each index |k| <= 512" in capsys.readouterr().err

    def test_transfer_accepts_nyquist_index(self, capsys):
        assert main(["transfer", *FAST_FLAGS, "--symbol", '{"-512": [1, 0], "512": [0, 1]}']) == 0

    def test_basis_table(self, capsys):
        assert main(["basis", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "e_0" in out and "gram residual" in out

    def test_basis_gram_reads_the_grid_sized_from_the_zeros(self, tmp_path, capsys):
        # the Gram grid is basis_orthonormality's, 65536 points for [0,0.995]; M = 4096 aliases it to 3.5e-1
        config = write_config(tmp_path, zeros=[[0, 0], [0.995, 0]])
        assert main(["basis", "--config", config]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("gram residual (count 32): ") and float(line.split()[-1]) <= 1e-12

    def test_basis_gram_past_the_largest_grid_is_under_resolved(self, tmp_path, capsys):
        # [0,0.9999] needs 2^22 points for the Gram, past the largest grid: it is not sampled, and
        # the basis command prints verify's FAIL, residual 1.0, and the size it needs, and exits 1
        config = write_config(tmp_path, zeros=[[0, 0], [0.9999, 0]])
        assert main(["basis", "--config", config]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "gram residual (count 32): 1.000e+00",
            "under-resolved: the Gram needs a grid of 4194304 points",
        ]

    def test_lift_export_row_count(self, tmp_path):
        target = tmp_path / "lift.tsv"
        assert main(["lift", "--grid", "1024", "--report", str(target)]) == 0
        rows = target.read_text().strip().splitlines()
        assert len(rows) == 1024
        theta, psi = map(float, rows[0].split("\t"))
        assert psi == pytest.approx(0.0, abs=1e-12)

    def test_kgroups_output(self, tmp_path, capsys):
        config = write_config(tmp_path, zeros=[[0, 0], [0, 0], [0, 0]])
        assert main(["kgroups", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "K0 = Z ⊕ Z/2Z" in out
        assert "K1 = Z" in out
