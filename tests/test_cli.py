"""End-to-end tests of the sendov-lab command line (in-process)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_values as ref
import sendov_lab
from sendov_lab.cli import build_parser, main

# Digests of `verify --format json` output per seed, kept with the benchmark.
VERIFY_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "verify_golden.json"

BREAKDOWN_FIELDS = [
    "a", "q_prime", "p_prime", "gamma", "c",
    "n0", "n1", "n2", "mu1", "mu2", "k1", "k2", "k_prime",
    "r", "r_prime", "alpha", "alpha_prime",
    "n3_exact", "n3_estimate", "final_n", "small_bound",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_text_lists_every_field(self, capsys):
        code, out, _ = run(capsys, "bound", "--a", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert [line.split()[0] for line in lines] == BREAKDOWN_FIELDS
        assert "4.25984e+07" in out

    def test_json_full_precision(self, capsys):
        code, out, _ = run(capsys, "bound", "--a", "0.5", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert list(record) == BREAKDOWN_FIELDS
        assert np.allclose(record["final_n"], ref.FINAL_05, rtol=1e-13, atol=0)
        assert np.allclose(record["mu2"], ref.MU2_05, rtol=1e-13, atol=0)

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "bound", "--a", "0.8", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == ",".join(BREAKDOWN_FIELDS)
        final_n = float(row.split(",")[BREAKDOWN_FIELDS.index("final_n")])
        assert np.allclose(final_n, ref.FINAL_BOUND_TABLE[0.8], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bad", ["1.5", "0", "1", "-0.1", "nan"])
    def test_domain_error_exit_two(self, capsys, bad):
        code, _, err = run(capsys, "bound", "--a", bad)
        assert code == 2
        assert "error" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "bound.json"
        code, out, _ = run(capsys, "bound", "--a", "0.5", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        code, out, _ = run(capsys, "bound", "--a", "0.5", "--format", "json")
        assert target.read_text() == out


class TestTableCommand:
    def test_only_smallest_a_flagged(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,degot_n,computed_n,printed_n,flag"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        assert [row[0] for row in rows] == [str(round(0.1 * k, 1)) for k in range(1, 10)]
        assert rows[0][-1] == "true"
        assert all(row[-1] == "false" for row in rows[1:])

    def test_computed_column_matches_reference(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 0
        for line in out.strip().split("\n"):
            record = json.loads(line)
            assert np.allclose(
                record["computed_n"], ref.FINAL_BOUND_TABLE[record["a"]], rtol=1e-13, atol=0
            )
            assert record["degot_n"] in (15064, 3587, 1654, 1004, 718, 563, 560, 616, 1006)

    def test_text_bytes_stable(self, capsys):
        _, first, _ = run(capsys, "table")
        _, second, _ = run(capsys, "table")
        assert first == second
        assert first.count("*") == 1


class TestVerifyCommand:
    def test_jsonl_report_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid-step", "0.01", "--format", "json")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 25
        for line in lines:
            record = json.loads(line)
            assert record["passed"] is True
            assert record["worst_margin"] > 0.0

    def test_text_report_one_line_per_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid-step", "0.01")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 25
        assert all(line.startswith("PASS") for line in lines)

    def test_bad_grid_step_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--grid-step", "0.5")
        assert code == 2
        assert "grid_step" in err

    # 1, 2, 5, 6, 13, 14 and 15 are the seeds with distinct golden digests.
    @pytest.mark.parametrize("seed", ["1", "2", "5", "6", "13", "14", "15"])
    def test_json_bytes_match_golden_digests(self, capsys, seed):
        golden = json.loads(VERIFY_GOLDEN.read_text())
        argv = [seed if arg == "<seed>" else arg for arg in golden["argv"]]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == golden["checks"]
        assert hashlib.sha256(out.encode()).hexdigest() == golden["digests"][seed]


class TestFuzzCommand:
    def test_clean_cell_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--a", "0.5", "--degree", "8", "--trials", "50", "--seed", "42"
        )
        assert code == 0
        record = dict(line.split(None, 1) for line in out.strip().split("\n"))
        assert record["violations"] == "0"
        assert record["seed"] == "42"

    def test_csv_deterministic(self, capsys):
        args = ("fuzz", "--a", "0.4", "--degree", "6", "--trials", "30", "--format", "csv")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.startswith("a,degree,trials,violations,max_distance,non_converged,seed\n")

    def test_env_seed_equivalent_to_flag(self, capsys, monkeypatch):
        _, flagged, _ = run(
            capsys, "fuzz", "--a", "0.5", "--degree", "4", "--trials", "20",
            "--seed", "123", "--format", "csv",
        )
        monkeypatch.setenv("SENDOV_LAB_SEED", "123")
        _, from_env, _ = run(
            capsys, "fuzz", "--a", "0.5", "--degree", "4", "--trials", "20", "--format", "csv"
        )
        assert flagged == from_env

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SENDOV_LAB_SEED", "not-an-int")
        code, out, _ = run(
            capsys, "fuzz", "--a", "0.5", "--degree", "4", "--trials", "5",
            "--seed", "9", "--format", "csv",
        )
        assert code == 0
        assert out.strip().endswith(",9")

    def test_garbage_env_seed_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SENDOV_LAB_SEED", "not-an-int")
        code, _, err = run(capsys, "fuzz", "--a", "0.5", "--degree", "4", "--trials", "5")
        assert code == 2
        assert "SENDOV_LAB_SEED" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--grid-step", "0.01"),
        ("fuzz", "--a", "0.5", "--degree", "4", "--trials", "5"),
    ])
    @pytest.mark.parametrize("via_env", [False, True])
    def test_negative_seed_exit_two(self, capsys, monkeypatch, argv, via_env):
        if via_env:
            monkeypatch.setenv("SENDOV_LAB_SEED", "-3")
        else:
            argv += ("--seed", "-1")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: seed must be a non-negative integer")

    def test_bad_degree_exit_two(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--a", "0.5", "--degree", "1", "--trials", "5")
        assert code == 2


class TestCheckCommand:
    def test_star_instance_passes(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"a": 0.5, "zeros": [[0,0],[0,0],[0,0],[0,0]]}')
        code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "sendov_distance  0.1" in out

    def test_midpoint_instance_json(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"a": 0.9, "zeros": [[-1, 0]]}')
        code, out, _ = run(capsys, "check", "--instance", str(path), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "PASS"
        assert np.allclose(record["sendov_distance"], 0.95, rtol=1e-15, atol=0)
        assert record["converged"] is True

    def test_json_carries_radii_and_distance_bracket(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"a": 0.5, "zeros": [[0,0],[0,0],[0,0],[0,0]]}')
        code, out, _ = run(capsys, "check", "--instance", str(path), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert "residuals" not in record
        assert record["radii"][:3] == [0.0, 0.0, 0.0]
        assert 0.0 < record["radii"][3] <= 1e-15
        assert 0.0 < record["distance_radius"] <= 1e-15

    def test_invariant_violation_exit_two(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"a": 0.5, "zeros": [[1.5, 0]]}')
        code, _, err = run(capsys, "check", "--instance", str(path))
        assert code == 2
        assert "modulus" in err

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "check", "--instance", str(path))
        assert code == 2

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", "--instance", str(tmp_path / "absent.json"))
        assert code == 2


class TestMeanBoundCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "mean-bound", "--a", "0.5", "--n", "650", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert np.allclose(record["bound_at_quarter"], ref.MEAN_QUARTER_05_650, rtol=1e-13, atol=0)
        assert np.allclose(record["bound_inf"], ref.MEAN_INF_05_650, rtol=1e-13, atol=0)

    def test_bad_n_exit_two(self, capsys):
        code, _, _ = run(capsys, "mean-bound", "--a", "0.5", "--n", "1")
        assert code == 2


class TestUsage:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_format_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "--a", "0.5", "--format", "yaml"])
        assert excinfo.value.code == 2


class TestOneProcess:
    def test_repeated_calls_match_fresh_interpreters(self, capsys, monkeypatch, tmp_path):
        # main builds its parser once per process; every call must still
        # print exactly what a fresh `python -m sendov_lab` prints.
        path = tmp_path / "inst.json"
        path.write_text('{"a": 0.6, "zeros": [[0.5, 0.5], [-0.9, 0.1], [0, -1]]}')
        fuzz = ["fuzz", "--a", "0.4", "--degree", "9", "--trials", "30", "--format", "json"]
        calls = [
            fuzz,
            ["check", "--instance", str(path)],
            ["verify", "--grid-step", "0.01", "--format", "json"],
            ["fuzz", "--a", "0.5"],
            fuzz,
        ]
        monkeypatch.setenv("COLUMNS", "80")
        env = {k: v for k, v in os.environ.items() if k != "SENDOV_LAB_SEED"}
        env["PYTHONPATH"] = str(Path(sendov_lab.__file__).resolve().parents[1])
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "sendov_lab", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert (code, captured.out, captured.err) \
                == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == 0

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()
