"""Golden CLI corpus: every subcommand's text and JSON output, every
``apply`` operation, the error paths and every ``--help``, replayed
in-process through ``oacf.cli.main`` and compared byte for byte (stdout,
stderr and exit code) with ``cli_corpus.json``.

A change that must keep the CLI's output the same leaves the corpus as it
is.  A change that means to alter the output records it again, and the
diff of the JSON file shows what changed:

    PYTHONPATH=src python tests/test_cli_corpus.py

With ``--check`` the same script replays every case against the recorded
corpus instead, with no pytest needed, prints each case that differs and
exits 1 if any does:

    PYTHONPATH=src python tests/test_cli_corpus.py --check

Every case, help text and argparse's usage errors included, is compared
under whichever Python runs the replay, by pytest and by ``--check``
alike; ``COLUMNS`` is pinned to 80 for the recording and for each replay.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from oacf.cli import main

from goldens import PAIR10_A, PAIR10_B, SEQ31, SEQ31_NEGADEC3

CORPUS = Path(__file__).with_name("cli_corpus.json")
COLUMNS = "80"

SEQ31_NEGATED = "1000010101" "1101100011" "11100110100"

# (argv, stdin or None)
INVOCATIONS = [
    (["oacf", PAIR10_A], None),
    (["oacf", PAIR10_A, "--json"], None),
    (["oacf", SEQ31, "--distribution"], None),
    (["oacf", SEQ31, "--distribution", "--json"], None),
    (["oacf", "01", "--pacf"], None),
    (["oacf", "0110101", "--pacf", "--distribution", "--json"], None),
    (["oacf", "-"], PAIR10_A + "\n"),
    (["oacf", "0102"], None),
    (["oacf", ""], None),
    (["apply", "negate", PAIR10_A], None),
    (["apply", "negate", PAIR10_A, "--json"], None),
    (["apply", "shift", PAIR10_A, "3"], None),
    (["apply", "shift", PAIR10_A, "3", "--json"], None),
    (["apply", "negashift", PAIR10_A, "3"], None),
    (["apply", "negashift", PAIR10_A, "3", "--json"], None),
    (["apply", "decimate", PAIR10_A, "3"], None),
    (["apply", "decimate", PAIR10_A, "3", "--json"], None),
    (["apply", "decimate", "0110101", "-3"], None),
    (["apply", "decimate", "0110101", "10"], None),
    (["apply", "negadecimate", SEQ31, "3"], None),
    (["apply", "negadecimate", SEQ31, "3", "--json"], None),
    (["apply", "negadecimate", "0110101", "-3"], None),
    (["apply", "negadecimate", "0110101", "31"], None),
    (["apply", "decimate", PAIR10_A, "2"], None),
    (["apply", "negadecimate", PAIR10_A, "5"], None),
    (["apply", "negadecimate", PAIR10_A, "5", "--json"], None),
    (["apply", "shift", PAIR10_A], None),
    (["apply", "negate", PAIR10_A, "3"], None),
    (["apply", "shift", PAIR10_A, "10"], None),
    (["apply", "negashift", "0110101", "-1"], None),
    (["apply", "rotate", PAIR10_A, "1"], None),
    (["construct", "5", "13"], None),
    (["construct", "5", "13", "--emit-u", "--json"], None),
    (["construct", "1", "17", "--emit-u"], None),
    (["construct", "5", "13", "--alpha", "6"], None),
    (["construct", "1", "13"], None),
    (["construct", "5", "15"], None),
    (["verify"], None),
    (["verify", "--json"], None),
    (["verify", "--tables", "--primes", "1009"], None),
    (["verify", "--table4", "--primes", "17,13"], None),
    (["verify", "--table4", "--primes", "17,13", "--json"], None),
    (["verify", "--table4", "--primes", "29,41", "--json"], None),
    (["verify", "--table4", "--primes", "197,137"], None),
    (["verify", "--tables", "--primes", "13", "--alpha", "6", "--json"], None),
    (["verify", "--primes", "4,13"], None),
    (["verify", "--primes", "13,x"], None),
    (["verify", "--alpha", "2"], None),
    (["classify", "--parker", "13"], None),
    (["classify", "--parker", "13", "--json"], None),
    (["classify", "--parker", "29"], None),
    (["classify", "--parker", "37"], None),
    (["classify", "--parker", "17"], None),
    (["classify", "--parker", "17", "--json"], None),
    (["classify", "--parker", "53"], None),
    (["classify", "a=" + SEQ31, "b=" + SEQ31_NEGADEC3, "c=" + PAIR10_A + "0" * 21], None),
    (["classify", PAIR10_A, PAIR10_B, "--json"], None),
    (["classify", "-"], "x=0110101\n\ny=1011010\n"),
    (["classify"], None),
    (["classify", "--parker", "13", "a=01"], None),
    (["equiv", SEQ31, SEQ31_NEGADEC3], None),
    (["equiv", SEQ31, SEQ31_NEGADEC3, "--json"], None),
    (["equiv", PAIR10_A, PAIR10_B], None),
    (["equiv", PAIR10_A, PAIR10_B, "--json"], None),
    (["equiv", SEQ31, SEQ31_NEGATED, "--without-negadecimation"], None),
    (["equiv", SEQ31, SEQ31_NEGADEC3, "--without-negadecimation", "--json"], None),
    (["equiv", "01", "011"], None),
    (["equiv", "-", "-"], "01\n"),
    ([], None),
    (["--help"], None),
    (["oacf", "--help"], None),
    (["apply", "--help"], None),
    (["construct", "--help"], None),
    (["verify", "--help"], None),
    (["classify", "--help"], None),
    (["equiv", "--help"], None),
    (["equiv", "0110", "1001", "extra"], None),
    (["bogus"], None),
    (["--json", "equiv", "0110", "1001"], None),
    (["-h", "verify"], None),
    (["--", "equiv", "0110", "1001"], None),
    (["verify", "--bogus"], None),
    (["construct", "5"], None),
    (["classify", "--parker"], None),
    (["equiv", "0110", "1001", "--without"], None),
    (["equiv", "0110", "1001", "--js"], None),
    # per subcommand: a valid call, a missing positional, a bad type=int
    # value or apply op, an unknown option, an extra positional and an
    # abbreviated option
    (["oacf", "0110"], None),
    (["oacf", "0110", "--pacf", "--json"], None),
    (["oacf"], None),
    (["oacf", "0110", "--bogus"], None),
    (["oacf", "0110", "1001"], None),
    (["oacf", "0110", "--dist"], None),
    (["oacf", "0110", "--p"], None),
    (["apply", "shift", "0110", "1"], None),
    (["apply", "shift"], None),
    (["apply", "rotate", "0110", "1"], None),
    (["apply", "shift", "0110", "x"], None),
    (["apply", "negate", "0110", "--bogus"], None),
    (["apply", "shift", "0110", "1", "2"], None),
    (["apply", "negate", "0110", "--js"], None),
    (["construct", "5", "13", "--emit-u"], None),
    (["construct", "five", "13"], None),
    (["construct", "5", "13", "--alpha", "x"], None),
    (["construct", "5", "13", "--bogus"], None),
    (["construct", "5", "13", "17"], None),
    (["construct", "5", "13", "--emit"], None),
    (["construct", "5", "13", "--al", "6"], None),
    (["verify", "--tables", "--primes", "13,17"], None),
    (["verify", "--alpha", "x"], None),
    (["verify", "13"], None),
    (["verify", "--prim", "13"], None),
    (["verify", "--table", "--json"], None),
    (["verify", "--primes"], None),
    (["classify", "0110", "a=1001"], None),
    (["classify", "--parker", "13", "--alpha", "6"], None),
    (["classify", "--parker", "x"], None),
    (["classify", "0110", "--bogus"], None),
    (["classify", "--park", "13"], None),
    (["classify", "--j", "0110"], None),
    (["equiv", "0110", "1001", "--json"], None),
    (["equiv", "0110"], None),
    (["equiv", "0110", "1001", "--bogus"], None),
    (["equiv", SEQ31, SEQ31_NEGADEC3, "--without-negadecimation"], None),
    # first words that name no subcommand: an unknown option, a positional,
    # '--', '' and '-', each an invalid choice; a prefix of --help, which
    # prints the help; and a second subcommand name where the first one's
    # arguments go
    (["-x", "classify", "0110"], None),
    (["bogus", "equiv", "0110", "1001"], None),
    (["--", "--", "equiv"], None),
    (["--he"], None),
    (["verify", "-h", "classify"], None),
    (["equiv", "classify", "0110"], None),
    (["-1", "equiv", "0110", "1001"], None),
    (["", "equiv", "0110", "1001"], None),
    (["-", "equiv", "0110", "1001"], None),
    (["--hel"], None),
    (["--h", "verify"], None),
    (["-x", "-h"], None),
]


def run(argv, stdin=None) -> dict:
    """One in-process invocation: its exit code, stdout and stderr, and
    whether argparse ended it (help or a usage error)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, by_argparse = main(list(argv)), False
            except SystemExit as exc:
                code, by_argparse = exc.code, True
    finally:
        sys.stdin = saved_stdin
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "argparse": by_argparse}


def record() -> None:
    os.environ["COLUMNS"] = COLUMNS
    cases = [dict(argv=argv, stdin=stdin, **run(argv, stdin)) for argv, stdin in INVOCATIONS]
    CORPUS.write_text(json.dumps({"cases": cases}, indent=1) + "\n")


def _expected(case) -> dict:
    return {key: case[key] for key in ("exit", "stdout", "stderr", "argparse")}


def check() -> int:
    """Replay every recorded case; 0 when all match, else 1."""
    os.environ["COLUMNS"] = COLUMNS
    cases = _corpus["cases"]
    differ = [" ".join(case["argv"]) or "(none)" for case in cases
              if run(case["argv"], case["stdin"]) != _expected(case)]
    for name in differ:
        print("differs:", name)
    covered = [(case["argv"], case["stdin"]) for case in cases] == INVOCATIONS
    if not covered:
        print("the corpus does not cover INVOCATIONS: record it again")
    print(f"Python {sys.version.split()[0]}: {len(cases) - len(differ)}/{len(cases)} cases match")
    return 0 if covered and not differ else 1


# a missing corpus fails test_corpus_covers_the_invocations rather than the import
_corpus = json.loads(CORPUS.read_text()) if CORPUS.exists() else {"cases": []}


def pytest_generate_tests(metafunc):
    # parametrized here rather than by a decorator, which would need pytest
    # at import
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", _corpus["cases"],
                             ids=lambda case: " ".join(case["argv"])[:60] or "(none)")


def test_cli_output_is_unchanged(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run(case["argv"], case["stdin"]) == _expected(case)


def test_corpus_covers_the_invocations():
    assert [(case["argv"], case["stdin"]) for case in _corpus["cases"]] == INVOCATIONS


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    sys.exit(check() if sys.argv[1:] else record())
