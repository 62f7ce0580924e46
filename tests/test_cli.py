"""Command-line surface: argument handling, output contracts, exit codes.

Every command runs through click's in-process runner. Numerical claims are
covered by the module tests, so these focus on row counts, reproducibility,
header metadata, and the documented exit codes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qkdpost import cli


@pytest.fixture()
def runner():
    return CliRunner()


def data_lines(text: str) -> list[str]:
    return [ln for ln in text.strip().split("\n") if ln and not ln.startswith("#")]


def comment_lines(text: str) -> list[str]:
    return [ln for ln in text.strip().split("\n") if ln.startswith("#")]


def test_keyrate_sixstate_row_count(runner):
    result = runner.invoke(cli.main, [
        "keyrate", "--protocol", "six-state", "--emin", "0", "--emax", "0.35",
        "--step", "0.001", "--curves", "proposed,vollbrecht,bstep,oneway",
    ])
    assert result.exit_code == 0
    rows = data_lines(result.output)
    assert rows[0] == "e,proposed,vollbrecht,bstep,oneway,first_arg_raw,second_arg_raw"
    assert len(rows) == 1 + 351
    comments = comment_lines(result.output)
    assert any("seed" in c for c in comments)
    assert any("keyrate" in c for c in comments)


def test_keyrate_bb84_p11_column(runner):
    result = runner.invoke(cli.main, [
        "keyrate", "--protocol", "bb84", "--emax", "0.02", "--step", "0.01",
    ])
    assert result.exit_code == 0
    rows = data_lines(result.output)
    assert rows[0].endswith(",p11_star")
    assert len(rows) == 1 + 3


def test_keyrate_deterministic(runner):
    args = ["keyrate", "--protocol", "six-state", "--emax", "0.1", "--step", "0.02"]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_keyrate_json_envelope(runner):
    result = runner.invoke(cli.main, [
        "keyrate", "--protocol", "six-state", "--emax", "0.1", "--step", "0.05",
        "--format", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["command"] == "keyrate"
    assert payload["seed"] == 0
    assert "version" in payload
    assert len(payload["rows"]) == 3
    assert set(payload["rows"][0]) >= {"e", "proposed", "first_arg_raw"}


def test_keyrate_usage_errors(runner):
    unknown_curve = runner.invoke(cli.main, [
        "keyrate", "--protocol", "six-state", "--emax", "0.1", "--curves", "proposed,magic",
    ])
    assert unknown_curve.exit_code == 2
    bad_range = runner.invoke(cli.main, [
        "keyrate", "--protocol", "six-state", "--emin", "0.2", "--emax", "0.1",
    ])
    assert bad_range.exit_code == 2
    nan_range = runner.invoke(cli.main, ["keyrate", "--protocol", "six-state", "--emax", "nan"])
    assert nan_range.exit_code == 2
    assert "emax=nan" in nan_range.output
    # Each bad grid is refused by name before any row is built.
    for args, named in (
        (["--emax", "inf"], "emax=inf"),
        (["--emax", "0.1", "--step", "inf"], "step=inf"),
        (["--emax", "1e6"], "emax=1000000.0"),
        (["--emax", "0.5", "--step", "1e-9"], "step=1e-09"),
    ):
        result = runner.invoke(cli.main, ["keyrate", "--protocol", "six-state", *args])
        assert result.exit_code == 2, args
        assert named in result.output, args
    missing = runner.invoke(cli.main, ["keyrate", "--protocol", "six-state"])
    assert missing.exit_code == 2


def test_keyrate_out_file(runner, tmp_path):
    target = tmp_path / "rates.csv"
    result = runner.invoke(cli.main, [
        "keyrate", "--protocol", "six-state", "--emax", "0.1", "--step", "0.05",
        "--out", str(target),
    ])
    assert result.exit_code == 0
    text = target.read_text()
    assert text.startswith("#")
    assert len(data_lines(text)) == 1 + 3


def test_keyrate_out_io_error(runner, tmp_path):
    target = tmp_path / "missing-dir" / "rates.csv"
    result = runner.invoke(cli.main, [
        "keyrate", "--protocol", "six-state", "--emax", "0.1", "--step", "0.05",
        "--out", str(target),
    ])
    assert result.exit_code == 1


def test_simulate_noiseless_summary(runner):
    result = runner.invoke(cli.main, [
        "simulate", "--e", "0", "--n", "1000", "--m", "2000",
        "--trials", "2", "--seed", "5",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    summary = payload["summary"]
    assert summary["trials"] == 2
    assert summary["aborted"] == 0
    assert summary["success_fraction"] == 1.0
    assert summary["key_match_fraction"] == 1.0
    assert abs(summary["mean_empirical_key_rate"] - 1.0) <= 1.0 / 2000
    assert len(payload["reports"]) == 2
    first = payload["reports"][0]
    assert first["trial"] == 0
    assert not first["aborted"]
    assert first["key_bits"] == 2000


def test_simulate_deterministic(runner):
    args = ["simulate", "--e", "0", "--n", "500", "--m", "2000", "--trials", "1", "--seed", "9"]
    assert runner.invoke(cli.main, args).output == runner.invoke(cli.main, args).output


def test_simulate_csv(runner):
    result = runner.invoke(cli.main, [
        "simulate", "--e", "0", "--n", "500", "--m", "2000",
        "--trials", "2", "--seed", "4", "--format", "csv",
    ])
    assert result.exit_code == 0
    rows = data_lines(result.output)
    assert rows[0].startswith("trial,trial_seed,aborted,")
    assert len(rows) == 1 + 2
    assert any("success_fraction" in c for c in comment_lines(result.output))


def test_simulate_usage_error(runner):
    result = runner.invoke(cli.main, [
        "simulate", "--e", "0.9", "--n", "100", "--m", "2000",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("option,name", [
    ("--e", "error rate nan"),
    ("--delta", "delta=nan"),
    ("--tolerance", "abort_tolerance=nan"),
    ("--margin", "finite_size_margin=nan"),
])
def test_simulate_nan_is_usage_error(runner, option, name):
    # NaN fails every range check, so no session runs.
    args = ["simulate", "--e", "0.05", "--n", "100", "--m", "2000"]
    result = runner.invoke(cli.main, args + [option, "nan"])
    assert result.exit_code == 2
    assert name in result.output


@pytest.mark.parametrize("option,value,name", [
    ("--delta", "inf", "delta=inf"),
    ("--delta", "1e308", "delta=1e+308"),
    ("--tolerance", "inf", "abort_tolerance=inf"),
    ("--margin", "inf", "finite_size_margin=inf"),
])
def test_simulate_unbounded_is_usage_error(runner, option, value, name):
    # Infinity, or a delta whose survivor window overflows, fails the range
    # checks too, so no session runs: no overflow traceback, and no report
    # with a non-JSON Infinity in it.
    args = ["simulate", "--e", "0.05", "--n", "1000", "--m", "2000", "--trials", "1"]
    result = runner.invoke(cli.main, args + [option, value])
    assert result.exit_code == 2
    assert name in result.output
    assert "Traceback" not in result.output
    assert "Infinity" not in result.output


def test_simulate_code_rate_out_of_range(runner):
    # At e = 0.3 the round-one code rate exceeds 1: a usage error, no traceback.
    result = runner.invoke(cli.main, [
        "simulate", "--e", "0.3", "--n", "2000", "--m", "1000",
    ])
    assert result.exit_code == 2
    assert "target rate 1.036" in result.output
    assert "not in (0, 1)" in result.output


@pytest.mark.parametrize("protocol,expected", [
    ("six-state", "470b26c32f7230817f28385400220dfe160a34d8907de47e564288c3cb0e0c50"),
    ("bb84", "0d34ccbd6954eb30ff4da16f47db2fc82d99022ba89097d4aba12726786ccb49"),
])
def test_simulate_stdout_pinned(runner, protocol, expected):
    # Seeded campaigns on staircase codes are a fixed byte stream; a change
    # to code construction, decoding or hashing that moves it shows here.
    result = runner.invoke(cli.main, [
        "simulate", "--e", "0.05", "--n", "5000", "--m", "2000",
        "--trials", "3", "--seed", "7", "--protocol", protocol,
    ])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == expected


@pytest.mark.parametrize("args,expected", [
    (["keyrate", "--protocol", "six-state", "--emax", "0.35"],
     "455962557fb01a602b204480d89997c1defd424b955a4cedd25cd6d5ce46f0cb"),
    (["keyrate", "--protocol", "six-state", "--emax", "0.35", "--format", "json"],
     "2d0e020ae5f13c5943b7e8d62d6ade1b0bf4f9de200303bbb5225fdf0395ff4d"),
    (["keyrate", "--protocol", "bb84", "--emax", "0.25", "--curves", " proposed, oneway"],
     "318c813576466f0a7f358f313303b3783f9711323af847ac747063545b2bf1b2"),
    (["simulate", "--e", "0.05", "--n", "3000", "--m", "2000", "--trials", "2", "--seed", "3", "--format", "csv"],
     "aa233d3695634269ce5dae3ea83973a7fc125daf7eb0a27180dd52c1014e113b"),
    # Every trial aborts: the summary notes and a table of aborted sessions.
    (["simulate", "--e", "0.3", "--n", "3000", "--m", "2000", "--trials", "2", "--tolerance", "0.001",
      "--format", "csv"],
     "ae837c6338caae1143b51fa2babf13ac927a8e724aed4505411598d35e405d70"),
    (["verify", "--suite", "coset", "--samples", "3"],
     "bfbb8d1de4462a9cbd746343c8304d29132487ed96e6719529f9760dfa53ced2"),
    (["verify", "--suite", "coset", "--samples", "3", "--format", "json"],
     "a5fbff24d552c5dc4f0c59e443b84e1dc6e02b9c9b69704457b9753b9a469b55"),
    # The oracle's suites: any change to its numerics moves these bytes.
    (["verify", "--suite", "theorem3", "--samples", "20", "--format", "json"],
     "552687f31aee81235bc4cddd58cf2d301f54be0d8097e902960ea5042e6db1db"),
    (["verify", "--suite", "twirl", "--samples", "20", "--format", "json"],
     "9bf07ab3e7c1ec3eeb781ee8bc4b119635a1472922bddd2714c921b4f71a8764"),
    (["verify", "--suite", "lemmas", "--samples", "20", "--format", "json"],
     "4112f82b27ce71a898ad4dc0d475aa3cb50cbef8c7ec37bdf3475997d8b6801b"),
    # Every BB84 curve to 1/2: the grid, the polish and the p11 argmin.
    (["keyrate", "--protocol", "bb84", "--emax", "0.5", "--curves",
      "proposed,first_arg,second_arg,vollbrecht,bstep,oneway", "--format", "json"],
     "b7ee0fcaafba7c5dfb67fd393a346bb17cb35fa384f2c6cd9fde767adb170d84"),
    # The hash suite's collision statistics; the types suite's bound at m = 20 000.
    (["verify", "--suite", "hash", "--samples", "200", "--format", "json"],
     "3f7b21a66a5d4a84d5f7131b0d108c5b085dc68d4d9c880b73b6c052f51dd42f"),
    (["verify", "--suite", "types", "--samples", "20", "--format", "json"],
     "fa4a80824e47b070975b56c7b9ba098790cf0da02ca28c6250855bf2e0cd2bf2"),
])
def test_output_pinned(runner, args, expected):
    # Each command's CSV and JSON layout is a fixed byte stream: the header
    # lines, the canonical args, the cell formats and the column order.
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == expected


@pytest.mark.parametrize("args,name", [
    (["simulate", "--e", "0.05", "--trials", "10000000000000"], "--trials"),
    (["simulate", "--e", "0.05", "--trials", "1000001"], "--trials"),
    (["simulate", "--e", "0.05", "--trials", "0"], "--trials"),
    (["simulate", "--e", "0.05", "--n", "100000000000"], "n=100000000000"),
    (["simulate", "--e", "0.05", "--m", "100000000000"], "m=100000000000"),
    (["verify", "--suite", "hash", "--samples", "100000000000"], "--samples"),
    (["verify", "--suite", "hash", "--samples", "0"], "--samples"),
])
def test_sizes_out_of_range_are_usage_errors(runner, args, name):
    # A size past its cap is refused before any array is allocated, not
    # met with an out-of-memory traceback and the I/O-failure exit code.
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert name in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("suite,samples", [
    ("theorem3", 15),
    ("lemmas", 15),
    ("twirl", 10),
    ("coset", 5),
    ("types", 5),
    ("hash", 200),
])
def test_verify_suites_pass(runner, suite, samples):
    result = runner.invoke(cli.main, [
        "verify", "--suite", suite, "--samples", str(samples),
    ])
    assert result.exit_code == 0, result.output
    rows = data_lines(result.output)
    assert rows[0] == "name,deviation,bound,status"
    assert all(row.endswith(",PASS") for row in rows[1:])


def test_types_suite_can_fail():
    # An abort fraction never exceeds 1, so a bound of 1 would pass every run.
    (check,) = cli.SUITES["types"](1, np.random.default_rng(0))
    assert check["bound"] < 1.0


@pytest.mark.parametrize("samples", ["1", "2", "3", "4"])
def test_hash_suite_refuses_a_bound_of_one(runner, samples):
    # Below 5 samples the collision bound is 1, so the check could never
    # fail; the refusal names the fewest samples that work.
    result = runner.invoke(cli.main, ["verify", "--suite", "hash", "--samples", samples])
    assert result.exit_code == 2
    assert "use --samples 5 or more" in result.output
    assert "Traceback" not in result.output
    (collisions, _) = cli.SUITES["hash"](5, np.random.default_rng(0))
    assert collisions["bound"] < 1.0


@pytest.mark.parametrize("samples", [5, 6, 8, 10, 15])
def test_hash_suite_holds_its_false_failure_rate(samples):
    # An honest Toeplitz family fails a run with probability below 1e-3,
    # so 40 seeded runs at small sample counts, where the tail is coarsest,
    # all pass.
    for seed in range(40):
        for check in cli.SUITES["hash"](samples, np.random.default_rng(seed)):
            assert check["deviation"] <= check["bound"], (seed, check)


class _ZeroSeeds:
    """A generator stub whose Toeplitz seeds are all zero."""

    def integers(self, low, high, size, dtype):
        return np.zeros(size, dtype=dtype)


@pytest.mark.parametrize("samples", [5, 20, 200])
def test_hash_suite_fails_a_degenerate_hash(samples):
    # The all-zero matrix maps every difference to zero, so every pair
    # collides in every sample: the bound must catch it.
    (collisions, convention) = cli.SUITES["hash"](samples, _ZeroSeeds())
    assert collisions["deviation"] == 1.0 > collisions["bound"]
    assert convention["deviation"] <= convention["bound"]


def test_verify_json(runner):
    result = runner.invoke(cli.main, [
        "verify", "--suite", "coset", "--samples", "3", "--format", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert all(check["pass"] for check in payload["checks"])


def test_verify_unknown_suite(runner):
    result = runner.invoke(cli.main, ["verify", "--suite", "bell"])
    assert result.exit_code == 2


def test_verify_failure_exit_code(runner, monkeypatch):
    monkeypatch.setitem(
        cli.SUITES, "coset",
        lambda samples, rng: [{"name": "forced", "deviation": 1.0, "bound": 1e-9}],
    )
    result = runner.invoke(cli.main, ["verify", "--suite", "coset"])
    assert result.exit_code == 3
    assert "FAIL" in result.output


def test_version_flag(runner):
    result = runner.invoke(cli.main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_python_m_entry_point():
    result = _run_python("-m", "qkdpost", "--version")
    assert result.returncode == 0, result.stderr
    assert "0.1.0" in result.stdout


@pytest.mark.parametrize("imports,absent", [
    ("qkdpost, qkdpost.cli", ("scipy.signal", "scipy.stats")),
    ("qkdpost.keyrate, qkdpost.oracle", ("scipy.fft", "qkdpost.protocol", "qkdpost.codes")),
], ids=["cli", "keyrate-oracle"])
def test_import_does_not_load_scipy_signal(imports, absent):
    # Hashing needs only scipy.fft; scipy.signal would add about a second
    # to every cold start of the command line, and so would scipy.stats,
    # which only the hash suite loads. The rate closed forms and the oracle
    # load neither the session code nor the FFT.
    code = f"import sys, {imports}; print([name for name in {absent!r} if name in sys.modules])"
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
