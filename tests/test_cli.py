import argparse
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oacf
from oacf import MAX_N, MAX_P, BinarySequence, construct, oacf_distribution, oacf_profile
from oacf.cli import build_parser, main

import goldens


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

    @pytest.mark.parametrize("primes", ["1,,2", "13,", ""])
    def test_empty_prime_item_is_a_usage_error(self, capsys, primes):
        code, out, err = run_cli(capsys, "verify", "--primes", primes)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --primes: bad prime list {primes!r}\n")

    def test_tables_at_the_largest_usable_prime(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tables", "--primes", "9973")
        assert code == 0
        assert out.splitlines()[-2:] == ["tables: 12/12 rows passed", "verify: PASS"]

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

    def test_unknown_op(self, capsys):
        code, _, _ = run_cli(capsys, "apply", "frobnicate", "01")
        assert code == 2


ERROR_CASES = [
    (["oacf", "01x0"], 2, "invalid character 'x' at position 2"),
    (["apply", "negate", "0a"], 2, "invalid character 'a' at position 1"),
    (["equiv", "01", "0b1"], 2, "invalid character 'b' at position 1"),
    (["classify", "a=01", "b=2"], 2, "invalid character '2' at position 0"),
    (["apply", "decimate", "0101", "2"], 2,
     "gcd(d=2, N=4) = 2; decimation requires gcd(d, N) = 1"),
    (["apply", "negadecimate", "010", "3"], 2,
     "gcd(d=3, 2N=6) = 3; nega-decimation requires gcd(d, 2N) = 1"),
    (["apply", "decimate", "0101"], 2, "operation 'decimate' requires an integer parameter"),
    (["apply", "negate", "01", "1"], 2, "operation 'negate' takes no parameter"),
    (["equiv", "0101", "010"], 2, "periods differ: 4 != 3"),
    (["construct", "1", "13"], 3, "construction 1 requires f even (p=13 has f=3)"),
    (["construct", "1", "15"], 2, "p must be a prime with p = 1 (mod 4), got 15"),
    (["construct", "9", "13", "--alpha", "4"], 2, "4 is not a primitive root mod 13"),
    (["verify", "--primes", "13", "--alpha", "4"], 2, "4 is not a primitive root mod 13"),
    (["verify", "--alpha", "2"], 2, "--alpha requires exactly one prime"),
    (["classify", "a=01", "a=10"], 2, "duplicate label 'a'"),
    (["classify"], 2, "no sequences given (pass literals, label=literal, or '-')"),
    (["classify", "--parker", "15"], 2, "p must be a prime with p = 1 (mod 4), got 15"),
    (["construct", "1", str(MAX_P + 1)], 2, f"p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}"),
    (["verify", "--primes", f"13,{MAX_P + 1}"], 2, f"p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}"),
    (["classify", "--parker", str(MAX_P + 1)], 2, f"p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}"),
    (["classify", "0110", "1001", "--parker", "13"], 2, "give either sequences or --parker P, not both"),
    (["oacf", "0" * (MAX_N + 1)], 2, f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}"),
    (["apply", "negate", "0" * (MAX_N + 1)], 2, f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}"),
    (["equiv", "0" * (MAX_N + 1), "01"], 2, f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}"),
    (["classify", "a=01", "b=" + "0" * (MAX_N + 1)], 2,
     f"period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}"),
    (["classify", "a=0110", "b=1001", "--alpha", "999999"], 2, "--alpha applies only with --parker P"),
]


@pytest.mark.parametrize("argv, code, message", ERROR_CASES)
def test_error_prints_one_line_and_nothing_on_stdout(capsys, argv, code, message):
    assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")


def test_period_at_limit_is_accepted(capsys):
    assert run_cli(capsys, "apply", "negate", "0" * MAX_N) == (0, "1" * MAX_N + "\n", "")


@pytest.mark.parametrize("command", ["oacf", "classify"])
def test_period_above_limit_on_stdin_exits_2(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("1" * (MAX_N + 1) + "\n"))
    assert run_cli(capsys, command, "-") == (
        2, "", f"error: period must be at most MAX_N = {MAX_N}, got {MAX_N + 1}\n"
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
    ("verify", f"{_ALPHA_HELP}; needs exactly one prime in --primes --tables"),
    ("classify", f"{_ALPHA_HELP}; needs --parker P --parker P"),
])
def test_alpha_help_names_its_condition(capsys, monkeypatch, command, alpha_help):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert alpha_help in " ".join(out.split())


def test_terminal_size_is_read_once_per_call(capsys, monkeypatch):
    # argparse would read it once per formatter: 34 times for one request
    reads = []
    real = shutil.get_terminal_size

    def counting(*args, **kwargs):
        reads.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    for argv, code in [(("equiv", "0110", "1001"), 0), (("verify", "--help"), 0), (("apply",), 2)]:
        reads.clear()
        assert run_cli(capsys, *argv)[0] == code
        assert len(reads) == 1, argv


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


# per subcommand: a valid call, --help, a missing positional, a bad type=int
# or choices value, an unknown option, an extra positional and an
# abbreviated option
NAMED_BUILD_ARGVS = {
    "oacf": [["0110"], ["0110", "--pacf", "--json"], ["--help"], [], ["0110", "--bogus"],
             ["0110", "1001"], ["0110", "--dist"], ["0110", "--p"]],
    "apply": [["shift", "0110", "1"], ["--help"], ["shift"], ["rotate", "0110", "1"],
              ["shift", "0110", "x"], ["negate", "0110", "--bogus"], ["shift", "0110", "1", "2"],
              ["negate", "0110", "--js"]],
    "construct": [["5", "13", "--emit-u"], ["--help"], ["5"], ["five", "13"], ["5", "13", "--alpha", "x"],
                  ["5", "13", "--bogus"], ["5", "13", "17"], ["5", "13", "--emit"], ["5", "13", "--al", "6"]],
    "verify": [["--tables", "--primes", "13,17"], [], ["--help"], ["--primes", "13,x"], ["--alpha", "x"],
               ["--bogus"], ["13"], ["--prim", "13"], ["--table", "--json"], ["--primes"]],
    "classify": [["0110", "a=1001"], ["--parker", "13", "--alpha", "6"], ["--help"], ["--parker", "x"],
                 ["--parker"], ["0110", "--bogus"], ["--park", "13"], ["--j", "0110"]],
    "equiv": [["0110", "1001", "--json"], ["--help"], ["0110"], ["0110", "1001", "--bogus"],
              ["0110", "1001", "extra"], ["0110", "1001", "--without"], ["0110", "1001", "--js"]],
}


def _parse(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(NAMED_BUILD_ARGVS))
def test_named_build_parses_like_the_full_build(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")

    def names(parser):
        # the only source of the top-level usage line in an error
        return list(parser._subparsers._group_actions[0].choices)

    assert names(build_parser()) == names(build_parser(command))
    assert sorted(names(build_parser())) == sorted(NAMED_BUILD_ARGVS)
    for rest in NAMED_BUILD_ARGVS[command]:
        argv = [command, *rest]
        named = _parse(build_parser(command), argv, capsys)
        assert named == _parse(build_parser(), argv, capsys), argv


def test_argument_count_per_call(capsys, monkeypatch):
    # only the subparser that argv names is built in full, with its -h; the
    # other five are bare entries.  -h and an empty argv name none, so they
    # build all seven parsers and all 33 arguments
    calls = []
    real = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    for argv, code, count, helps in [
        (("oacf", "0110"), 0, 6, 2), (("apply", "negate", "0110"), 0, 6, 2),
        (("construct", "5", "13"), 0, 7, 2), (("verify", "--primes", "13"), 0, 7, 2),
        (("classify", "0110"), 0, 6, 2), (("equiv", "0110", "1001"), 0, 6, 2),
        (("-h",), 0, 33, 7), ((), 2, 33, 7),
    ]:
        calls.clear()
        assert run_cli(capsys, *argv)[0] == code
        assert (len(calls), sum(args[:1] == ("-h",) for args in calls)) == (count, helps), argv
