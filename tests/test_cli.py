"""End-to-end tests of the sendov-lab command line (in-process)."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import exact
import sendov_lab
from sendov_lab.cli import build_parser, main

# Digests of `verify --format json` output per seed, kept with the benchmark.
VERIFY_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "verify_golden.json"

# The committed instance `check` is pinned on: a = 0.6 and three other zeros.
THREE_ZEROS = '{"a": 0.6, "zeros": [[0.5, 0.5], [-0.9, 0.1], [0.0, -1.0]]}'

# Two repeated zeros, signed -0.0: check's exact critical point -0 - 0i, radius 0.
REPEATED_ZEROS = '{"a": 0.6, "zeros": [[-0.0, -0.0], [-0.0, -0.0], [0.0, 0.5]]}'

# The file each instance placeholder of PINNED_ARGV stands for holds this text.
PINNED_INSTANCES = {"<instance>": THREE_ZEROS, "<repeated>": REPEATED_ZEROS}

# One small call per command, and check on each pinned instance.
PINNED_ARGV = {
    "bound": ["bound", "--a", "0.5"],
    "table": ["table"],
    "mean-bound": ["mean-bound", "--a", "0.5", "--n", "650"],
    "fuzz": ["fuzz", "--a", "0.5", "--degree", "6", "--trials", "20", "--seed", "7"],
    "verify": ["verify", "--grid-step", "0.01", "--seed", "3"],
    "check": ["check", "--instance", "<instance>"],
    "check-repeated": ["check", "--instance", "<repeated>"],
}

# SHA-256 of the stdout of each PINNED_ARGV call per --format, on x86-64
# Linux with numpy 2.4.  Every command's output goes through the same
# renderer, so these pin the bytes of each layout, not only the values.
STDOUT_DIGESTS = {
    ("bound", "text"): "42a679e0dfb315d493d1d32604d2f4b9bd404fb707f0370d43df762906f9f426",
    ("bound", "json"): "8600e82c6a3605ee884ad5e829709aef989c7b3071b88d2c65f2786413a43494",
    ("bound", "csv"): "8644a36cbe9bffb3e3f0b6e5d13c766e8e8dfb1c2a75600a32f4236cd283b2b6",
    ("table", "text"): "8114f6cf769d2f1cebc02340b464019e6ab7f2bb22fe9903fda2f199755da0f0",
    ("table", "json"): "16eda91bf7394065587bdb7bd77bc6f89c68269a399add478f1671c33243efcf",
    ("table", "csv"): "0f94e2c9ead531eca78e19cc60f75b9d10e0bed99bf2edd2c265bbb9bd8ff107",
    ("mean-bound", "text"): "be75cf4bb52dfd046d978f1897333c2ca5a5a0e9104571c331a604b51ce98e8b",
    ("mean-bound", "json"): "846c4f6437205eea17f5d16fd79254792cb5e027bd111b33f29054ad6b657db4",
    ("mean-bound", "csv"): "833af997b8a6089c95e413cd2bcc72d6b2354fe6ba4a858a583741417a429513",
    ("fuzz", "text"): "3a1acae1e95ad2ea6ca8482140ed28eeea52ebe3038024789ccdb36327267caf",
    ("fuzz", "json"): "e2e939378f1815b0e115ff1272bca1c56e0cf0359511dbd48a19d04cba5b3c1c",
    ("fuzz", "csv"): "cfd5fb7ffdef578ee25c0b8909185e71bce3691c0515c17fe90819eb7f6488f6",
    ("verify", "text"): "449d0485194dd4ad0c8e0d6b2f25d75ae7643674ae674764d97be755ba4d10e6",
    ("verify", "json"): "473c6dd4099c9aa6ebc9dde28c3ea046422f2f1db16f97911f677278a1097485",
    ("verify", "csv"): "3cc015ff1154e7c5557ffc8aef09f327dbf417404990c88db531be88cc1c7ff0",
    ("check", "text"): "8695a81cd09297a87e89a26009fd523fa9331ef609201e64b45471a88adee5a0",
    ("check", "json"): "91447583d720e181c12f5489246f14042788aeedd0f911d0237b3eb0243320b4",
    ("check-repeated", "text"): "1a6c868f020eef5e55d72e94f41397018e89e2872f1bd0e3a3ec670dc7fa7fa0",
    ("check-repeated", "json"): "5b6a57590b7a1a6f6045d34096aade9b5dd18e408e133feeee69f5849030fa25",
}

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
        expected = exact.breakdown(0.5)
        assert list(record) == list(expected) == BREAKDOWN_FIELDS
        with mpmath.workdps(exact.DPS):
            assert all(abs(record[k] - v) <= 1e-13 * abs(v) for k, v in expected.items())

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "bound", "--a", "0.8", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == ",".join(BREAKDOWN_FIELDS)
        final_n = float(row.split(",")[BREAKDOWN_FIELDS.index("final_n")])
        assert np.allclose(final_n, float(exact.breakdown(0.8)["final_n"]), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bad", ["1.5", "0", "1", "-0.1", "nan"])
    def test_domain_error_exit_two(self, capsys, bad):
        code, _, err = run(capsys, "bound", "--a", bad)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("target", ["absent/bound.txt", "."])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "bound", "--a", "0.5", "--out", str(tmp_path / target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out file: ")

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
            final_n = float(exact.breakdown(record["a"])["final_n"])
            assert np.allclose(record["computed_n"], final_n, rtol=1e-13, atol=0)
            assert record["degot_n"] in (15064, 3587, 1654, 1004, 718, 563, 560, 616, 1006)


class TestVerifyCommand:
    def test_bad_grid_step_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--grid-step", "0.5")
        assert code == 2
        assert "grid_step" in err

    @pytest.mark.parametrize("step", ["5e-324", "1e-12"])
    def test_grid_step_below_floor_exit_two(self, capsys, step):
        code, out, err = run(capsys, "verify", "--grid-step", step)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: grid_step must lie in [1e-05")

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

    def test_every_zero_at_a_passes(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"a": 0.5, "zeros": [[0.5, 0.0]]}')
        code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "sendov_distance  0\n" in out

    @pytest.mark.parametrize("zeros", [
        "[[0, 0], [0.5, 2.2250738585e-313]]",
        "[[1e-310, 0], [2e-310, 0]]",
        "[[5e-324, 0], [1e-323, 0]]",
        "[[1e-310, 0], [2e-310, 0], [3e-310, 0], [4e-310, 0], [5e-310, 0], [6e-310, 0]]",
    ], ids=["2.2e-313", "1e-310", "5e-324", "k-1e-310"])
    def test_subnormal_gap_instance_passes(self, capsys, tmp_path, zeros):
        # Zeros a subnormal distance apart, the contract rows subnormal-gap-*
        # of tests/test_polynomial.py: no warning of any kind, and a PASS.
        path = tmp_path / "inst.json"
        path.write_text(f'{{"a": 0.5, "zeros": {zeros}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", "--instance", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize("payload, fragment", [
        (b'{"a": 1' + b"0" * 400 + b', "zeros": [[0, 0]]}', "must lie in (0, 1)"),
        (b"[" * 100_000, "not valid JSON"),
        (b'{"a": 0.5, "zeros": [[0, 0]], "note": "\xe9"}', "cannot read instance file"),
        (b'{"a": 0.5}', "'zeros'"),
        (b'{"a": "0.5", "zeros": [[0, 0]]}', "must be a real number"),
        (b'{"a": 0.5, "zeros": [[true, false]]}', "rows of numbers"),
        (b'{"a": 0.5, "zeros": [[1.5, 0]]}', "modulus"),
        (b"{not json", "not valid JSON"),
        (b'[0.5, [[0.5, 0.0]]]', "must be an object"),
    ], ids=["past_float_range", "nested_too_deep", "not_utf8", "no_zeros", "string_a",
            "bool_zero", "invariant_violation", "malformed_json", "array_instance"])
    def test_bad_instance_file_exit_two(self, capsys, tmp_path, payload, fragment):
        path = tmp_path / "inst.json"
        path.write_bytes(payload)
        code, out, err = run(capsys, "check", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err and "malformed instance" not in err

    def test_csv_is_not_a_check_format(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--instance", "inst.json", "--format", "csv"])
        assert excinfo.value.code == 2


class TestMeanBoundCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "mean-bound", "--a", "0.5", "--n", "650", "--format", "json")
        assert code == 0
        record = json.loads(out)
        expected = exact.mean_bound(0.5, 650)
        for field in ("bound_at_quarter", "bound_inf"):
            assert np.allclose(record[field], float(expected[field]), rtol=1e-13, atol=0)

    def test_bad_n_exit_two(self, capsys):
        code, _, _ = run(capsys, "mean-bound", "--a", "0.5", "--n", "1")
        assert code == 2

    def test_n_past_binary64_range_exits_two(self, capsys):
        # delta * n would overflow: a domain error, not a traceback.
        code, out, err = run(capsys, "mean-bound", "--a", "0.5", "--n", str(10**400))
        assert (code, out) == (2, "")
        assert err == (
            "error: n must be at most the largest float, 1.7976931348623157e+308, "
            "got an integer of 1329 bits\n"
        )


# Values of a in (0, 1) past what binary64 carries through a command: each
# exits 2 naming a, except mean-bound near 1, whose objective never forms c.
EXTREME_A = [5e-324, 3e-323, 4e-323, 1e-200, 1e-20, 1e-17, 1 - 2 ** -53]


class TestExtremeA:
    @pytest.mark.parametrize("a", EXTREME_A)
    @pytest.mark.parametrize("argv", [["bound"], ["mean-bound", "--n", "5"]],
                             ids=["bound", "mean-bound"])
    def test_exit_two_naming_a_or_finite(self, capsys, argv, a):
        code, out, err = run(capsys, *argv, "--a", repr(a), "--format", "json")
        if argv[0] == "mean-bound" and a > 0.5:
            assert (code, err) == (0, "")
            assert all(math.isfinite(v) for v in json.loads(out).values())
        else:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: a={a!r} ") and err.count("\n") == 1


class TestPinnedBytes:
    @pytest.mark.parametrize("command, fmt", list(STDOUT_DIGESTS))
    def test_stdout_matches_digest(self, capsys, tmp_path, command, fmt):
        path = tmp_path / "inst.json"
        argv = PINNED_ARGV[command]
        if argv[-1] in PINNED_INSTANCES:
            path.write_text(PINNED_INSTANCES[argv[-1]])
        argv = [str(path) if arg in PINNED_INSTANCES else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command, fmt]


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

    def test_no_command_imports_scipy_or_mpmath(self, tmp_path):
        # No module of the package imports mpmath, and match_roots' scipy
        # assignment imports lazily; importing scipy.optimize alone costs a
        # large share of a command's start-up.  Each group of commands runs
        # in a fresh interpreter, which then holds _arguments and cli and
        # only the package modules those commands run: no command loads
        # roots, verify never loads polynomial, and check and fuzz load
        # neither verify nor bounds.  `import sendov_lab.roots` loads the
        # finder with _eft and polynomial but not bounds.  In one more
        # interpreter a bare `import sendov_lab` resolves every public name
        # and submodule; then the root finder, which refines with error-free
        # transformations of binary64 alone, loads neither scipy nor mpmath,
        # and match_roots loads scipy but still no mpmath.
        path = tmp_path / "inst.json"
        path.write_text(THREE_ZEROS)
        groups = [
            ([PINNED_ARGV["bound"], PINNED_ARGV["table"], PINNED_ARGV["mean-bound"]],
             ["_eft", "bounds"]),
            ([PINNED_ARGV["verify"]], ["_eft", "bounds", "verify"]),
            ([["check", "--instance", str(path)]], ["polynomial"]),
            ([["fuzz", "--a", "0.5", "--degree", "64", "--trials", "20"]], ["polynomial"]),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(sendov_lab.__file__).resolve().parents[1]))
        env.pop("SENDOV_LAB_SEED", None)
        scripts = [
            "import sys\n"
            "from sendov_lab.cli import main\n"
            "for argv in " + repr(commands) + ":\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sendov_lab'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n"
            for commands, _ in groups
        ] + [
            "import sys\n"
            "import sendov_lab.roots\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sendov_lab'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n",
            "import sys\n"
            "import sendov_lab\n"
            "for name in sendov_lab.__all__ + ['bounds', 'cli', 'polynomial', 'roots', 'verify']:\n"
            "    getattr(sendov_lab, name)\n"
            "assert sendov_lab.cli.critical_report is sendov_lab.polynomial.critical_report\n"
            "from sendov_lab.roots import find_roots, from_roots, match_roots\n"
            "roots = (0.5, -0.5, 0.3j, -0.3j)\n"
            "found = find_roots(from_roots(roots)).roots\n"
            "print('scipy' in sys.modules, 'mpmath' in sys.modules)\n"
            "match_roots(found, roots)\n"
            "print('scipy' in sys.modules, 'mpmath' in sys.modules)\n"
        ]
        # The interpreters share nothing, so they run side by side.
        running = [
            subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=env)
            for script in scripts
        ]
        outputs = []
        for process in running:
            out, err = process.communicate(timeout=300)
            assert (process.returncode, err) == (0, "")
            outputs.append(out.splitlines()[-2:])
        for (commands, runs), loaded in zip(groups, outputs):
            package = ["sendov_lab"] + [f"sendov_lab.{m}" for m in ("_arguments", "cli", *runs)]
            assert loaded == [repr(sorted(package)), "[]"], commands
        finder = ["sendov_lab"] + [f"sendov_lab.{m}" for m in ("_arguments", "_eft", "polynomial",
                                                              "roots")]
        assert outputs[-2] == [repr(finder), "[]"]
        assert outputs[-1] == ["False False", "True False"]

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()
