import argparse
import importlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oacf
from oacf import (
    MAX_N,
    MAX_P,
    BinarySequence,
    ValueMultiset,
    construct,
    oacf_distribution,
    oacf_profile,
    pacf_profile,
)
from oacf.cli import _APPLY_OPS, _COMMANDS, main

import goldens
import oracle
from test_cli_corpus import run
from test_properties import bit_lists, units


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOacfCommand:
    def test_profile(self, capsys):
        code, out, _ = run_cli(capsys, "oacf", goldens.PAIR10_A)
        assert code == 0
        assert out.strip() == "10 0 -2 -4 2 0 -2 4 2 0"

    def test_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "oacf", "0000")
        assert code == 0
        assert out.strip() == "4 2 0 -2"

    def test_pacf_flag(self, capsys):
        code, out, _ = run_cli(capsys, "oacf", "01", "--pacf")
        assert code == 0
        assert out.strip() == "2 -2"

    def test_distribution(self, capsys):
        code, out, _ = run_cli(capsys, "oacf", goldens.SEQ31, "--distribution")
        assert code == 0
        assert out.strip() == (
            "{* (-9)^2, (-7)^3, (-5)^3, -3, (-1)^6, 1^6, 3, 5^3, 7^3, 9^2, 31 *}"
        )

    def test_json_matches_text(self, capsys):
        code, out, _ = run_cli(capsys, "oacf", goldens.PAIR10_A, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "OACF"
        assert payload["period"] == 10
        assert payload["values"] == list(goldens.PAIR10_A_OACF)

    def test_json_distribution(self, capsys):
        code, out, _ = run_cli(capsys, "oacf", "00", "--distribution", "--json")
        payload = json.loads(out)
        assert payload["distribution"] == [[0, 1], [2, 1]]

    def test_every_mode_prints_the_plain_join(self, capsys):
        # the text line against " ".join(map(str, values)) and the JSON
        # document against the payload with its values as a list
        rng = random.Random(29)
        for n in [*range(1, 301), 1176, 8192]:
            s = goldens.random_sequence(rng, n)
            for flags, profile in (((), oacf_profile(s)), (("--pacf",), pacf_profile(s))):
                values = profile.values
                dist = ValueMultiset(values)
                head = {"kind": profile.kind, "period": n}
                expected = {
                    (): " ".join(map(str, values)),
                    ("--json",): json.dumps({**head, "values": list(values)}, sort_keys=True),
                    ("--distribution",): dist.multiset_notation(),
                    ("--distribution", "--json"): json.dumps(
                        {**head, "distribution": [[v, m] for v, m in dist.entries.items()]},
                        sort_keys=True),
                }
                for extra, text in expected.items():
                    reply = run_cli(capsys, "oacf", str(s), *flags, *extra)
                    assert reply == (0, text + "\n", ""), (n, flags, extra)

    def test_json_renders_no_text_line(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a --json request rendered its text line")

        monkeypatch.setattr("oacf.cli._values_line", refuse)
        monkeypatch.setattr(ValueMultiset, "multiset_notation", refuse)
        for extra in ((), ("--pacf",), ("--distribution",), ("--pacf", "--distribution")):
            code, out, _ = run_cli(capsys, "oacf", goldens.PAIR10_A, "--json", *extra)
            assert code == 0 and json.loads(out)["period"] == 10
            # the same request without --json reaches the renderer
            with pytest.raises(AssertionError, match="rendered its text line"):
                main(["oacf", goldens.PAIR10_A, *extra])

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oacf", "01x0")
        assert code == 2
        assert "position 2" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1, 10\n"))
        code, out, _ = run_cli(capsys, "oacf", "-", "--pacf")
        assert code == 0
        assert out.strip() == "4 0 -4 0"


class TestApplyCommand:
    def test_negate(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "negate", "01")
        assert code == 0 and out.strip() == "10"

    def test_decimate(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "decimate", goldens.PAIR10_A, "3")
        assert code == 0 and out.strip() == goldens.PAIR10_B

    def test_negadecimate_period31(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "negadecimate", goldens.SEQ31, "3")
        assert code == 0 and out.strip() == goldens.SEQ31_NEGADEC3

    def test_shift_and_negashift(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "shift", "0110", "1")
        assert code == 0 and out.strip() == "1100"
        code, out, _ = run_cli(capsys, "apply", "negashift", "01", "1")
        assert code == 0 and out.strip() == "11"

    def test_missing_param_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "apply", "decimate", "0101")
        assert code == 2
        assert "parameter" in err

    def test_gcd_violation_named(self, capsys):
        code, _, err = run_cli(capsys, "apply", "decimate", "0101", "2")
        assert code == 2
        assert "gcd(d=2, N=4)" in err
        code, _, err = run_cli(capsys, "apply", "negadecimate", "010", "3")
        assert code == 2
        assert "gcd(d=3, 2N=6)" in err

    def test_negate_rejects_param(self, capsys):
        code, _, err = run_cli(capsys, "apply", "negate", "01", "1")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "negate", "01", "--json")
        payload = json.loads(out)
        assert payload == {"op": "negate", "input": "01", "param": None, "result": "10"}

    def test_roundtrip_distributions(self, capsys):
        # preserved by negate / negashift / negadecimate, broken by the
        # plain decimation on the period-10 pair
        base = oacf_distribution(BinarySequence.from_string(goldens.PAIR10_A))
        for op, param in (("negate", None), ("negashift", "4"), ("negadecimate", "7")):
            args = ["apply", op, goldens.PAIR10_A] + ([param] if param else [])
            _, out, _ = run_cli(capsys, *args)
            result = BinarySequence.from_string(out.strip())
            assert oacf_distribution(result) == base
        _, out, _ = run_cli(capsys, "apply", "decimate", goldens.PAIR10_A, "3")
        result = BinarySequence.from_string(out.strip())
        assert oacf_distribution(result) != base


class TestConstructCommand:
    def test_even_row(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "1", "17")
        assert code == 0
        s = BinarySequence.from_string(out.strip())
        assert s.period == 68
        values = set(oacf_profile(s).values[1:])
        assert values == {0, 2, -2, 4, -4, 10, -10}

    def test_parity_mismatch_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "construct", "1", "13")
        assert code == 3
        assert "requires f even" in err

    def test_emit_u(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "9", "13", "--emit-u")
        assert code == 0
        s_line, u_line = out.strip().splitlines()
        assert len(s_line) == 52 and len(u_line) == 104
        s = BinarySequence.from_string(s_line)
        u = BinarySequence.from_string(u_line)
        assert u_line[:52] == s_line
        expected_s, expected_u = construct(9, 13)
        assert (s, u) == (expected_s, expected_u)

    def test_bad_prime_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "1", "15")
        assert code == 2

    def test_alpha_override(self, capsys):
        # 7 = 2^11 relabels the classes (exponent 3 mod 4), giving a
        # different sequence; 6 = 2^5 would reproduce the default layout
        code, out, _ = run_cli(capsys, "construct", "9", "13", "--alpha", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 7
        assert payload["s"] != str(construct(9, 13)[0])


class TestVerifyCommand:
    def test_tables_all_primes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--tables", "--primes", "17,41,5,13,29,37"
        )
        assert code == 0
        assert "tables: 56/56 rows passed" in out
        assert "verify: PASS" in out

    def test_table4(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--table4", "--primes", "17,13")
        assert code == 0
        assert "table4: 8/8 relations confirmed" in out

    def test_skip_notice(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tables", "--primes", "7")
        assert code == 0
        assert "skipped" in out

    def test_default_runs_both(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "tables:" in out and "table4:" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--table4", "--primes", "17,13", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["table4"]["rows"][0]["pass"] is True

    @pytest.mark.parametrize("primes", ["1,,2", "13,", "", "13,13", "13,17,13"])
    def test_empty_or_repeated_prime_is_a_usage_error(self, capsys, primes):
        code, out, err = run_cli(capsys, "verify", "--primes", primes)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --primes: bad prime list {primes!r}\n")

    def test_tables_at_the_largest_usable_prime(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tables", "--primes", "9973")
        assert code == 0
        assert out.splitlines()[-2:] == ["tables: 12/12 rows passed", "verify: PASS"]

    def test_failed_row(self, capsys, monkeypatch):
        # row 9 built as construction 5, whose values miss row 9's template
        construct_s = oacf.constructions._construct_s
        monkeypatch.setattr(oacf.constructions, "_construct_s",
                            lambda system, index: construct_s(system, 5 if index == 9 else index))
        computed, expected = [-10, -4, -2, 0, 2, 4, 10], [-12, -4, -2, 0, 2, 4, 12]
        code, out, _ = run_cli(capsys, "verify", "--tables", "--primes", "13")
        assert code == 4
        lines = out.splitlines()
        assert lines[4] == (
            "c09 p=13: FAIL computed={-10, -4, -2, 0, 2, 4, 10} expected={-12, -4, -2, 0, 2, 4, 12}"
        )
        assert lines[-2:] == ["tables: 11/12 rows passed", "verify: FAIL"]
        code, out, _ = run_cli(capsys, "verify", "--tables", "--primes", "13", "--json")
        assert code == 4
        payload = json.loads(out)
        row = payload["tables"][4]
        assert (row["index"], row["matched"], row["branch"]) == (9, False, None)
        assert (row["computed"], row["expected"]) == (computed, expected)
        assert payload["pass"] is False

    def test_alpha_needs_single_prime(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tables", "--alpha", "2")
        assert code == 2


class TestClassifyCommand:
    def test_parker_even(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--parker", "17")
        assert code == 0
        assert "classes: 2" in out
        assert "members=s1,s4" in out and "members=s2,s3" in out

    def test_explicit_sequences(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", f"a={goldens.PAIR10_A}", f"b={goldens.PAIR10_B}",
            "c=0001011100",  # negation of a: same class as a
        )
        assert code == 0
        assert "classes: 2" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a=01", "b=10", "--json")
        payload = json.loads(out)
        assert payload == [
            {
                "class": 1,
                "members": ["a", "b"],
                "representative": "a",
                "witnesses": [
                    {"member": "a", "d": 1, "t": 0},
                    {"member": "b", "d": 1, "t": 2},  # negation = (1, N)
                ],
            }
        ]

    def test_stdin_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x=0110\n1001\n"))
        code, out, _ = run_cli(capsys, "classify", "-")
        assert code == 0
        assert "classes: 1" in out  # 1001 = negate(0110)

    def test_duplicate_label(self, capsys):
        code, _, err = run_cli(capsys, "classify", "a=01", "a=10")
        assert code == 2

    def test_no_sequences(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == 2


class TestEquivCommand:
    def test_found(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", goldens.SEQ31, goldens.SEQ31_NEGADEC3)
        assert code == 0
        assert out.strip() == "witness d=3 t=0"

    def test_not_found_exit_4(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", goldens.PAIR10_A, goldens.PAIR10_B)
        assert code == 4
        assert out.strip() == "no witness"

    def test_restricted_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "equiv", goldens.SEQ31, goldens.SEQ31_NEGADEC3,
            "--without-negadecimation",
        )
        assert code == 4
        assert "not reachable" in out
        code, out, _ = run_cli(capsys, "equiv", "01", "10", "--without-negadecimation")
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "equiv", goldens.SEQ31, goldens.SEQ31_NEGADEC3, "--json"
        )
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert payload["witness"] == {"d": 3, "t": 0}


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_op(self, capsys, monkeypatch):
        stdin = io.StringIO("0110\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, _ = run_cli(capsys, "apply", "frobnicate", "-")
        assert code == 2
        assert stdin.read() == "0110\n"


# (argv, exit code, message, the argument or label that a sequence error names)
ERROR_CASES = [
    (["oacf", "01x0"], 2, "invalid character 'x' at position 2", "sequence"),
    (["apply", "negate", "0a"], 2, "invalid character 'a' at position 1", "sequence"),
    (["equiv", "01", "0b1"], 2, "invalid character 'b' at position 1", "second"),
    (["classify", "a=01", "b=2"], 2, "invalid character '2' at position 0", "b"),
    (["apply", "decimate", "0101", "2"], 2,
     "gcd(d=2, N=4) = 2; decimation requires gcd(d, N) = 1", None),
    (["apply", "negadecimate", "010", "3"], 2,
     "gcd(d=3, 2N=6) = 3; nega-decimation requires gcd(d, 2N) = 1", None),
    (["apply", "decimate", "0101"], 2, "operation 'decimate' requires an integer parameter", None),
    (["apply", "negate", "01", "1"], 2, "operation 'negate' takes no parameter", None),
    (["equiv", "0101", "010"], 2, "periods differ: 4 != 3", None),
    (["construct", "1", "13"], 3, "construction 1 requires f even (p=13 has f=3)", None),
    (["construct", "1", "15"], 2, "p must be a prime with p = 1 (mod 4), got 15", None),
    (["construct", "9", "13", "--alpha", "4"], 2, "4 is not a primitive root mod 13", None),
    (["verify", "--primes", "13", "--alpha", "4"], 2, "4 is not a primitive root mod 13", None),
    (["verify", "--alpha", "2"], 2, "--alpha requires exactly one prime", None),
    (["classify", "a=01", "a=10"], 2, "duplicate label 'a'", None),
    (["classify"], 2, "no sequences given (pass literals, label=literal, or '-')", None),
    (["classify", "--parker", "15"], 2, "p must be a prime with p = 1 (mod 4), got 15", None),
    (["construct", "1", str(MAX_P + 1)], 2, f"p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}", None),
    (["verify", "--primes", f"13,{MAX_P + 1}"], 2,
     f"p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}", None),
    (["classify", "--parker", str(MAX_P + 1)], 2,
     f"p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}", None),
    (["classify", "0110", "1001", "--parker", "13"], 2,
     "give either sequences or --parker P, not both", None),
    (["oacf", "0" * (MAX_N + 1)], 2, f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}", "sequence"),
    (["apply", "negate", "0" * (MAX_N + 1)], 2,
     f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}", "sequence"),
    (["equiv", "0" * (MAX_N + 1), "01"], 2,
     f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}", "first"),
    (["classify", "a=01", "b=" + "0" * (MAX_N + 1)], 2,
     f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}", "b"),
    (["classify", "a=0110", "b=1001", "--alpha", "999999"], 2, "--alpha applies only with --parker P", None),
    (["classify", "seq2=0110", "0101"], 2, "duplicate label 'seq2' (generated for entry 2)", None),
    (["classify", "0101", "seq1=0110"], 2, "duplicate label 'seq1' (generated for entry 1)", None),
    (["apply", "rotate", "01", "1"], 2,
     "unknown operation 'rotate' (choose from decimate, negadecimate, negashift, negate, shift)", None),
    (["verify", "--table4", "--primes", "13", "--alpha", "4"], 2,
     "--alpha applies only to the value-set checks", None),
]


@pytest.mark.parametrize("argv, code, message, name", ERROR_CASES)
def test_error_prints_one_line_and_nothing_on_stdout(capsys, argv, code, message, name):
    expected = message if name is None else f"{name}: {message}"
    assert run_cli(capsys, *argv) == (code, "", f"error: {expected}\n")


def test_period_at_limit_is_accepted(capsys):
    assert run_cli(capsys, "apply", "negate", "0" * MAX_N) == (0, "1" * MAX_N + "\n", "")


@pytest.mark.parametrize("command", ["oacf", "classify"])
def test_period_above_limit_on_stdin_exits_2(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("1" * (MAX_N + 1) + "\n"))
    name = {"oacf": "sequence", "classify": "seq1"}[command]
    assert run_cli(capsys, command, "-") == (
        2, "", f"error: {name}: period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}\n"
    )


@pytest.mark.parametrize("command", ["equiv", "classify"])
def test_second_stdin_dash_exits_2_before_reading(capsys, monkeypatch, command):
    stdin = io.StringIO("0110\n")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run_cli(capsys, command, "-", "-") == (
        2, "", "error: '-' (stdin) may be given at most once\n"
    )
    assert stdin.read() == "0110\n"


def test_python_m_runs_the_cli(capsys):
    def run_module(*args):
        env = dict(os.environ, PYTHONPATH=str(Path(oacf.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "oacf.cli", *args], env=env,
                              capture_output=True, text=True)

    out = run_module("oacf", "1110100011")
    assert (out.returncode, out.stdout, out.stderr) == run_cli(capsys, "oacf", "1110100011")
    assert out.stdout == "10 0 -2 -4 2 0 -2 4 2 0\n"
    assert run_module("equiv", goldens.PAIR10_A, goldens.PAIR10_B).returncode == 4


def test_console_script_names_main():
    # an installed `oacf` script runs sys.exit(main()) with what this names
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["oacf"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_undecodable_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff01"), encoding="utf-8"))
    assert run_cli(capsys, "oacf", "-") == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize("argv, usage", [
    ([], "usage: oacf [-h] {oacf,apply,construct,verify,classify,equiv} ..."),
    (["oacf"], "usage: oacf oacf [-h] [--json] [--pacf] [--distribution] sequence"),
    (["apply"], "usage: oacf apply [-h] [--json] "
                "{decimate,negadecimate,negashift,negate,shift} sequence [param]"),
    (["construct"], "usage: oacf construct [-h] [--json] [--alpha ALPHA] [--emit-u] index p"),
    (["verify"], "usage: oacf verify [-h] [--json] [--alpha ALPHA] [--tables] [--table4] "
                 "[--primes PRIMES]"),
    (["classify"], "usage: oacf classify [-h] [--json] [--alpha ALPHA] [--parker P] "
                   "[sequences ...]"),
    (["equiv"], "usage: oacf equiv [-h] [--json] [--without-negadecimation] first second"),
])
def test_help_usage_line(capsys, monkeypatch, argv, usage):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = run_cli(capsys, *argv, "--help")
    assert code == 0
    assert out.splitlines()[0] == usage


_ALPHA_HELP = "--alpha ALPHA override the generator of GF(p)* (default: smallest primitive root)"


@pytest.mark.parametrize("command, alpha_help", [
    ("construct", f"{_ALPHA_HELP} --emit-u"),
    ("verify", f"{_ALPHA_HELP}; value-set checks only; needs exactly one prime in --primes --tables"),
    ("classify", f"{_ALPHA_HELP}; needs --parker P --parker P"),
])
def test_alpha_help_names_its_condition(capsys, monkeypatch, command, alpha_help):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert alpha_help in " ".join(out.split())


def test_help_follows_the_width_of_each_call(capsys, monkeypatch):
    outputs = []
    for columns in ("60", "120", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0
        outputs.append(out)
    narrow, wide, narrow_again = outputs
    assert narrow == narrow_again != wide
    assert max(map(len, narrow.splitlines())) <= 58


def test_no_option_value_leaks_into_the_next_call(capsys):
    # each invocation sets an option that the one after it omits
    invocations = [
        ("classify", "--parker", "13", "--alpha", "6", "--json"),
        ("classify", "--parker", "13"),
        ("oacf", goldens.PAIR10_A, "--pacf", "--distribution"),
        ("oacf", goldens.PAIR10_A),
        ("verify", "--tables", "--primes", "13"),
        ("verify", "--primes", "13"),
        ("apply", "shift", goldens.PAIR10_A, "3"),
        ("apply", "negate", goldens.PAIR10_A),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(oacf.__file__).parents[1]))
    for argv in invocations:
        alone = subprocess.run([sys.executable, "-m", "oacf.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert run_cli(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr), argv


def test_argument_count_per_call(capsys, monkeypatch):
    # only the parser of the subcommand that argv's first word names is
    # built, with its -h and its arguments; any other argv builds the help
    # listing: the top level with its -h, and the six names as bare parsers.
    # Every call, an error's included, reads the terminal's size once.
    calls, parsers, queries = [], [], []
    real_add, real_init = argparse._ActionsContainer.add_argument, argparse.ArgumentParser.__init__
    real_size = shutil.get_terminal_size

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real_add(self, *args, **kwargs)

    def constructing(self, *args, **kwargs):
        parsers.append(args)
        real_init(self, *args, **kwargs)

    def querying(*args, **kwargs):
        queries.append(args)
        return real_size(*args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", constructing)
    monkeypatch.setattr(shutil, "get_terminal_size", querying)
    named = (1, 1)  # the subcommand's -h and its parser, and no top level
    listing = (1, 7)  # the top level's -h; it and the six bare names are parsers
    for argv, code, count, (helps, built) in [
        (("oacf", "0110"), 0, 5, named), (("apply", "negate", "0110"), 0, 5, named),
        (("construct", "5", "13"), 0, 6, named), (("verify", "--primes", "13"), 0, 6, named),
        (("classify", "0110"), 0, 5, named), (("equiv", "0110", "1001"), 0, 5, named),
        (("verify", "--help"), 0, 6, named), (("equiv", "0110", "--bogus"), 2, 5, named),
        (("verify", "-hx"), 2, 6, named), (("apply", "shift", "0110"), 2, 5, named),
        (("-h",), 0, 1, listing), ((), 2, 1, listing),
        (("--json", "equiv", "0110", "1001"), 2, 1, listing), (("-h", "verify"), 0, 1, listing),
    ]:
        calls.clear()
        parsers.clear()
        queries.clear()
        assert run_cli(capsys, *argv)[0] == code
        counts = (len(calls), sum(args[:1] == ("-h",) for args in calls), len(parsers), len(queries))
        assert counts == (count, helps, built, 1), argv


_USAGE = "usage: oacf [-h] {oacf,apply,construct,verify,classify,equiv} ...\n"
_CHOICES = "'oacf', 'apply', 'construct', 'verify', 'classify', 'equiv'"


def _asks_for_help(word):
    return word == "-h" or (len(word) >= 3 and "--help".startswith(word))


def _assert_invalid_choice(word, rest):
    # the first word alone decides: the words after it are never parsed
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        result = run([word, *rest])
    assert result == {
        "exit": 2, "stdout": "", "argparse": True,
        "stderr": f"{_USAGE}oacf: error: argument command: invalid choice: {word!r} (choose from {_CHOICES})\n",
    }


_RESTS = [[], ["equiv", "0110", "1001"], ["-h"], ["--help"], ["verify", "--json"]]


@pytest.mark.parametrize("word", ["", "-", "--", "-1", "--json", "-x", "--help=x"])
@pytest.mark.parametrize("rest", _RESTS)
def test_a_first_word_that_names_no_subcommand_is_an_invalid_choice(word, rest):
    _assert_invalid_choice(word, rest)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(word=st.one_of(st.text(), st.text().map("-".__add__), st.text().map("--".__add__))
       .filter(lambda word: word not in _COMMANDS and not _asks_for_help(word)),
       rest=st.sampled_from(_RESTS))
def test_any_first_word_that_names_no_subcommand_is_an_invalid_choice(word, rest):
    _assert_invalid_choice(word, rest)


# The argv grammar, drawn: each subcommand with its options, valid and invalid
# literals, '-', labels, and integers that are negative, zero or past a limit;
# primes stay at most 61 and sequences at most 64 bits, so each call is cheap
_integers = st.one_of(st.integers(-5, 61), st.sampled_from([MAX_P + 1, 10**22])).map(str)
_primes = st.one_of(st.sampled_from(["5", "13", "17", "29", "37", "41", "53", "61"]), _integers)
_literals = st.one_of(st.text("01", min_size=1, max_size=64), st.text("01x2 ,", max_size=6), st.just("-"))
_labels = st.sampled_from(["", "", "a=", "b=", "c=", "d="])


def _same_period(count):
    # literals that get past the period checks, so that equiv and classify search
    return st.integers(1, 64).flatmap(
        lambda n: st.lists(st.text("01", min_size=n, max_size=n), min_size=count, max_size=count))


def _labelled(literals):
    # each literal of a drawn list with or without a label
    return literals.flatmap(lambda items: st.lists(_labels, min_size=len(items), max_size=len(items))
                            .map(lambda labels: list(map(str.__add__, labels, items))))


def _options(values):
    # each option given or not, in any order: flag -> value strategy, or None for a flag
    return st.tuples(*(
        st.one_of(st.just(()), st.just((flag,)) if value is None else value.map(lambda v, f=flag: (f, v)))
        for flag, value in values.items()
    )).flatmap(st.permutations).map(lambda groups: [word for group in groups for word in group])


_ARGVS = {
    "oacf": st.tuples(st.tuples(_literals).map(list), _options({"--pacf": None, "--distribution": None})),
    "apply": st.tuples(
        st.tuples(st.sampled_from(sorted(_APPLY_OPS) + ["rotate"]), _literals, st.lists(_integers, max_size=1))
        .map(lambda words: [words[0], words[1], *words[2]]), _options({})),
    "construct": st.tuples(st.tuples(st.one_of(st.integers(1, 16).map(str), _integers), _primes).map(list),
                           _options({"--alpha": _integers, "--emit-u": None})),
    "verify": st.tuples(st.just([]), _options({
        "--tables": None, "--table4": None, "--alpha": _integers,
        "--primes": st.lists(_primes, min_size=1, max_size=3).map(",".join)})),
    "classify": st.one_of(
        st.tuples(_labelled(st.one_of(_same_period(4), st.lists(_literals, max_size=4))), _options({})),
        st.tuples(st.just([]), _options({"--parker": _primes, "--alpha": _integers})),
        st.tuples(st.lists(_literals, max_size=2), _options({"--parker": _primes, "--alpha": _integers}))),
    "equiv": st.tuples(st.one_of(_same_period(2), st.lists(_literals, min_size=2, max_size=2)),
                       _options({"--without-negadecimation": None})),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(_ARGVS)), data=st.data(), json_flag=st.booleans(),
       extra=st.sampled_from([[]] * 6 + [["--bogus"], ["--help"], ["0110"]]),
       stdin=st.lists(st.tuples(_labels, _literals).map("".join), max_size=3).map("\n".join))
def test_any_argv_exits_with_a_documented_code(command, data, json_flag, extra, stdin):
    positionals, options = data.draw(_ARGVS[command])
    argv = [command, *positionals, *options, *(["--json"] if json_flag else []), *extra]
    result = run(argv, stdin)
    if result["argparse"]:
        assert result["exit"] in (0, 2), argv
        if result["exit"] == 2:  # the subcommand's own parser rejects the words after it
            lines = result["stderr"].splitlines()
            assert result["stdout"] == "" and lines[0].startswith(f"usage: oacf {command} "), argv
            assert lines[-1].startswith(f"oacf {command}: error: "), argv
    elif result["exit"] in (2, 3):
        assert result["stdout"] == "" and re.fullmatch(r"error: [^\n]*\n", result["stderr"]), argv
    else:
        assert result["exit"] in (0, 4) and result["stderr"] == "", argv
        if json_flag:
            assert result["stdout"].count("\n") == 1, argv
            json.loads(result["stdout"])


# Text and --json replies of one argv, and oacf/apply replies against the
# elementwise oracle.  The text reader turns a text reply back into the JSON
# fields it prints, so each assert compares numbers and not renderings.
_PARKER_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61)


def _text_of(bits):
    return "".join(map(str, bits))


def _multiset_item(item):
    # v, v^m or (v)^m, as multiset_notation writes them
    value, mult = re.fullmatch(r"\(?(-?\d+)\)?(?:\^(\d+))?", item).groups()
    return [int(value), int(mult or 1)]


def _read_text(command, out):
    """The JSON fields that a text reply prints, read back from it."""
    lines = out.splitlines()
    if command == "oacf":
        if lines[0].startswith("{* "):
            distribution = [_multiset_item(item) for item in lines[0][3:-3].split(", ")]
            return {"distribution": distribution, "period": sum(m for _, m in distribution)}
        values = [int(v) for v in lines[0].split()]
        return {"values": values, "period": len(values)}
    if command == "apply":
        return {"result": lines[0]}
    if command == "construct":
        return dict(zip(("s", "u"), lines))
    if command == "equiv":
        found = re.fullmatch(r"witness d=(\d+) t=(\d+)", lines[0])
        return {
            "equivalent": bool(found) or lines[0] == "reachable without nega-decimation",
            "witness": {"d": int(found[1]), "t": int(found[2])} if found else None,
        }
    classes = []
    for line in lines[:-1]:
        k, representative, members, pairs = re.fullmatch(
            r"class (\d+): representative=(\S+) members=(\S+) witnesses: (.*)", line).groups()
        classes.append({
            "class": int(k), "representative": representative, "members": members.split(","),
            "witnesses": [{"member": m, "d": int(d), "t": int(t)}
                          for m, d, t in re.findall(r"(\S+)=\(d=(\d+),t=(\d+)\)", pairs)],
        })
    assert lines[-1] == f"classes: {len(classes)}"
    return classes


@st.composite
def _replying_argvs(draw):
    # an argv of each subcommand that replies (exit 0 or 4), with its options
    command = draw(st.sampled_from(["oacf", "apply", "construct", "equiv", "classify"]))
    bits = draw(bit_lists(64))
    n = len(bits)
    if command == "oacf":
        options = draw(_options({"--pacf": None, "--distribution": None}))
        return command, ["oacf", _text_of(bits), *options]
    if command == "apply":
        op = draw(st.sampled_from(sorted(_APPLY_OPS)))
        if op == "negate":
            params = []
        elif op.endswith("shift"):
            params = [draw(st.integers(0, n - 1))]
        else:
            params = [draw(units(n if op == "decimate" else 2 * n))]
        return command, ["apply", op, _text_of(bits), *map(str, params)]
    if command == "construct":
        p = draw(st.sampled_from(_PARKER_PRIMES))
        index = draw(st.sampled_from([i for i in range(1, 17) if oacf.is_applicable(i, p)]))
        return command, ["construct", str(index), str(p), *draw(_options({"--emit-u": None}))]
    # a drawn witness image of the first sequence, or any sequence of its period
    others = st.one_of(
        st.tuples(units(2 * n), st.integers(0, 2 * n - 1)).map(lambda w: _text_of(oracle.apply_witness_naive(bits, *w))),
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(_text_of))
    if command == "equiv":
        options = draw(_options({"--without-negadecimation": None}))
        return command, ["equiv", _text_of(bits), draw(others), *options]
    if draw(st.booleans()):
        return command, ["classify", "--parker", str(draw(st.sampled_from(_PARKER_PRIMES)))]
    literals = [_text_of(bits), *draw(st.lists(others, max_size=3))]
    # distinct labels; an entry without one is labelled seqK
    labels = draw(st.lists(st.sampled_from(["", "a=", "b=", "c=", "d="]), min_size=len(literals),
                           max_size=len(literals), unique_by=lambda label: label or object()))
    return command, ["classify", *map(str.__add__, labels, literals)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(drawn=_replying_argvs())
def test_json_carries_the_numbers_of_the_text(drawn):
    command, argv = drawn
    text, document = run(argv), run([*argv, "--json"])
    assert text["exit"] == document["exit"] in (0, 4), argv
    payload = json.loads(document["stdout"])
    read = _read_text(command, text["stdout"])
    if command != "classify":
        payload = {key: payload[key] for key in read}
    assert read == payload, argv


@settings(derandomize=True, max_examples=150, deadline=None)
@given(bits=bit_lists(64), data=st.data(), json_flag=st.booleans())
def test_oacf_and_apply_replies_equal_the_oracle(bits, data, json_flag):
    n = len(bits)
    command = data.draw(st.sampled_from(["oacf", "apply"]))
    if command == "oacf":
        options = data.draw(_options({"--pacf": None, "--distribution": None}))
        naive = oracle.pacf_naive if "--pacf" in options else oracle.oacf_naive
        values = [naive(bits, tau) for tau in range(n)]
        if "--distribution" in options:
            expected = {"distribution": [list(item) for item in sorted(Counter(values).items())]}
        else:
            expected = {"values": values}
        argv = ["oacf", _text_of(bits), *options]
    else:
        op = data.draw(st.sampled_from(sorted(_APPLY_OPS)))
        params = [] if op == "negate" else [data.draw(st.integers(-2 * n, 3 * n))]
        if op.endswith("shift"):
            valid = 0 <= params[0] < n
        else:
            valid = not params or math.gcd(params[0], n if op == "decimate" else 2 * n) == 1
        naive = {"negate": oracle.negate_naive, "shift": oracle.cyclic_shift_naive,
                 "negashift": oracle.nega_cyclic_shift_naive, "decimate": oracle.decimate_naive,
                 "negadecimate": oracle.nega_decimate_naive}[op]
        expected = {"result": _text_of(naive(bits, *params))} if valid else None
        argv = ["apply", op, _text_of(bits), *map(str, params)]
    result = run([*argv, *(["--json"] if json_flag else [])])
    if expected is None:
        assert (result["exit"], result["stdout"]) == (2, ""), argv
        return
    assert result["exit"] == 0, argv
    reply = json.loads(result["stdout"]) if json_flag else _read_text(command, result["stdout"])
    assert {key: reply[key] for key in expected} == expected, argv
