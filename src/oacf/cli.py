"""Command-line interface.

Subcommands: oacf, apply, construct, verify, classify, equiv.  Text output
is line-oriented and stable across runs; --json emits a single JSON
document carrying the same numbers.

Exit codes: 0 success, 2 usage/parse/precondition error, 3 construction
inapplicable, 4 verification failure or no witness found.
"""

import argparse
import functools
import shutil
import sys

from .constructions import (
    ConstructionInapplicableError,
    construct_in,
    is_applicable,
    verify_table,
)
from .cyclotomy import _check_p_limit, build_system, is_prime
from .equivalence import classify, oacf_equivalent, reachable_without_negadecimation, verify_table4
from .sequences import (
    MAX_N,
    BinarySequence,
    ValueMultiset,
    cyclic_shift,
    decimate,
    nega_cyclic_shift,
    nega_decimate,
    negate,
    oacf_profile,
    pacf_profile,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_VERIFY = 4

DEFAULT_PRIMES = (17, 41, 5, 13, 29, 37)


def _parse_sequence(literal: str) -> BinarySequence:
    # checked before any profile, search or gather, whose cost grows as N^2
    seq = BinarySequence.from_string(literal)
    if seq.period > MAX_N:
        raise ValueError(f"period must be at most MAX_N = {MAX_N}, got {seq.period}")
    return seq


def _read_sequence(literal: str) -> BinarySequence:
    return _parse_sequence(sys.stdin.read() if literal == "-" else literal)


def _check_stdin_once(items) -> None:
    # a second '-' would read an already drained stream
    if items.count("-") > 1:
        raise ValueError("'-' (stdin) may be given at most once")


# Each _cmd_* handler returns (exit code, JSON payload, text lines); main prints it.


def _cmd_oacf(args):
    seq = _read_sequence(args.sequence)
    profile = pacf_profile(seq) if args.pacf else oacf_profile(seq)
    payload: dict = {"kind": profile.kind, "period": seq.period}
    if args.distribution:
        dist = ValueMultiset(profile.values)
        payload["distribution"] = [[v, m] for v, m in dist.entries.items()]
        lines = (dist.multiset_notation(),)
    else:
        payload["values"] = list(profile.values)
        lines = (" ".join(map(str, profile.values)),)
    return EXIT_OK, payload, lines


_APPLY_OPS = {
    "negate": (negate, False),
    "shift": (cyclic_shift, True),
    "negashift": (nega_cyclic_shift, True),
    "decimate": (decimate, True),
    "negadecimate": (nega_decimate, True),
}


def _cmd_apply(args):
    op, needs_param = _APPLY_OPS[args.op]
    if needs_param and args.param is None:
        raise ValueError(f"operation {args.op!r} requires an integer parameter")
    if not needs_param and args.param is not None:
        raise ValueError(f"operation {args.op!r} takes no parameter")
    seq = _read_sequence(args.sequence)
    text = str(op(seq, args.param) if needs_param else op(seq))
    payload = {"op": args.op, "input": str(seq), "param": args.param, "result": text}
    return EXIT_OK, payload, (text,)


def _cmd_construct(args):
    system = build_system(args.p, args.alpha)
    s, u = construct_in(system, args.index)
    payload = {
        "index": args.index,
        "p": args.p,
        "alpha": system.alpha,
        "s": str(s),
    }
    lines = [str(s)]
    if args.emit_u:
        payload["u"] = str(u)
        lines.append(str(u))
    return EXIT_OK, payload, lines


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}")


def _cmd_verify(args):
    run_tables = args.tables or not (args.tables or args.table4)
    run_table4 = args.table4 or not (args.tables or args.table4)
    primes = args.primes if args.primes is not None else list(DEFAULT_PRIMES)
    if args.alpha is not None and len(primes) != 1:
        raise ValueError("--alpha requires exactly one prime")

    notices: list[str] = []
    usable: list[int] = []
    for p in primes:
        _check_p_limit(p)
        if is_prime(p) and p % 4 == 1:
            usable.append(p)
        else:
            notices.append(f"notice: {p} is not a prime = 1 (mod 4), skipped")

    lines: list[str] = list(notices)
    payload: dict = {"skipped": [n.removeprefix("notice: ") for n in notices]}
    ok = True

    if run_tables:
        reports = []
        for p in usable:
            for index in range(1, 17):
                if not is_applicable(index, p):
                    continue
                report = verify_table(index, p, args.alpha)
                reports.append(report)
                lines.append(report.text_line())
        passed = sum(r.matched for r in reports)
        lines.append(f"tables: {passed}/{len(reports)} rows passed")
        payload["tables"] = [r.to_json_dict() for r in reports]
        # an all-skipped run is a notice, not a failure
        ok &= passed == len(reports)

    if run_table4:
        p_even = next((p for p in usable if (p - 1) // 4 % 2 == 0), None)
        p_odd = next((p for p in usable if (p - 1) // 4 % 2 == 1), None)
        if p_even is None or p_odd is None:
            lines.append(
                "notice: pairing check needs one prime of each f parity, skipped"
            )
            payload["table4"] = None
        else:
            report = verify_table4(p_even, p_odd)
            for row in report.rows:
                lines.append(row.text_line())
            confirmed = sum(r.passed for r in report.rows)
            lines.append(f"table4: {confirmed}/{len(report.rows)} relations confirmed")
            payload["table4"] = report.to_json_dict()
            ok &= report.all_passed

    lines.append("verify: PASS" if ok else "verify: FAIL")
    payload["pass"] = ok
    return (EXIT_OK if ok else EXIT_VERIFY), payload, lines


def _labeled_from_args(args) -> dict[str, BinarySequence]:
    if args.parker is not None:
        if args.sequences:
            raise ValueError("give either sequences or --parker P, not both")
        system = build_system(args.parker, args.alpha)
        return {
            f"s{i}": construct_in(system, i)[0]
            for i in range(1, 17)
            if is_applicable(i, args.parker)
        }
    if args.alpha is not None:
        raise ValueError("--alpha applies only with --parker P")
    _check_stdin_once(args.sequences)
    entries: list[str] = []
    for item in args.sequences:
        if item == "-":
            entries.extend(line for line in sys.stdin.read().splitlines() if line.strip())
        else:
            entries.append(item)
    if not entries:
        raise ValueError("no sequences given (pass literals, label=literal, or '-')")
    labeled = {}
    for k, item in enumerate(entries, start=1):
        label, _, literal = item.rpartition("=")
        if not label:
            label = f"seq{k}"
        if label in labeled:
            raise ValueError(f"duplicate label {label!r}")
        labeled[label] = _parse_sequence(literal)
    return labeled


def _cmd_classify(args):
    classes = classify(_labeled_from_args(args))
    payload = [cls.to_json_dict(k) for k, cls in enumerate(classes, start=1)]
    lines = []
    for k, cls in enumerate(classes, start=1):
        witnesses = " ".join(
            f"{m}=(d={cls.witnesses[m].d},t={cls.witnesses[m].t})" for m in cls.members
        )
        lines.append(
            f"class {k}: representative={cls.representative} "
            f"members={','.join(cls.members)} witnesses: {witnesses}"
        )
    lines.append(f"classes: {len(classes)}")
    return EXIT_OK, payload, lines


def _cmd_equiv(args):
    _check_stdin_once((args.first, args.second))
    first = _read_sequence(args.first)
    second = _read_sequence(args.second)
    if args.without_negadecimation:
        reachable = reachable_without_negadecimation(first, second)
        witness = None
    else:
        witness = oacf_equivalent(first, second)
        reachable = witness is not None
    payload = {
        "equivalent": reachable,
        "restricted_to_shift_and_negation": args.without_negadecimation,
        "witness": {"d": witness.d, "t": witness.t} if witness else None,
    }
    if args.without_negadecimation:
        lines = ("reachable without nega-decimation" if reachable
                 else "not reachable without nega-decimation",)
    else:
        lines = ((f"witness d={witness.d} t={witness.t}" if witness else "no witness"),)
    return (EXIT_OK if reachable else EXIT_VERIFY), payload, lines


_COMMANDS = ("oacf", "apply", "construct", "verify", "classify", "equiv")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  ``command`` is argv's first word: when it names a
    subcommand, only that subparser is built in full, since the top-level
    parser (no option but -h) can dispatch to no other.  The other five are
    bare entries (no -h, no help line, no arguments), kept only so that the
    top-level usage line of an error lists all six names; dropping them
    waits for a compact benchmark log (ROADMAP item 6).  Any other
    ``command``, None included, builds the full tree."""
    full = command not in _COMMANDS
    # argparse makes a formatter for every add_argument, and each one would
    # read the terminal size; read it once, as HelpFormatter would
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="oacf",
        description="Odd-periodic autocorrelation toolkit for binary sequences.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="oacf")

    alpha_help = "override the generator of GF(p)* (default: smallest primitive root)"

    def add_command(name, handler, summary, alpha=None):
        # alpha: the --alpha help text, or None for a subcommand without it.
        # A subparser that this argv cannot reach is a bare entry, there only
        # for the top-level usage line, and None is returned for it
        if not (full or name == command):
            sub.add_parser(name, add_help=False)
            return None
        p = sub.add_parser(name, help=summary, formatter_class=formatter)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        if alpha is not None:
            p.add_argument("--alpha", type=int, default=None, help=alpha)
        p.set_defaults(handler=handler)
        return p

    if p := add_command("oacf", _cmd_oacf, "correlation profile of a sequence"):
        p.add_argument("sequence", help="0/1 literal, or '-' for stdin")
        p.add_argument("--pacf", action="store_true", help="periodic instead of odd-periodic")
        p.add_argument("--distribution", action="store_true", help="print the value multiset")

    if p := add_command("apply", _cmd_apply, "apply a sequence operation"):
        p.add_argument("op", choices=sorted(_APPLY_OPS))
        p.add_argument("sequence", help="0/1 literal, or '-' for stdin")
        p.add_argument("param", type=int, nargs="?", default=None,
                       help="shift amount or decimation parameter")

    if p := add_command("construct", _cmd_construct,
                        "build one of the sixteen period-4p constructions", alpha=alpha_help):
        p.add_argument("index", type=int, help="construction index in [1, 16]")
        p.add_argument("p", type=int, help="prime with p = 1 (mod 4)")
        p.add_argument("--emit-u", action="store_true",
                       help="also print the doubled characteristic sequence")

    if p := add_command("verify", _cmd_verify,
                        "check constructions against their value sets and pairings",
                        alpha=alpha_help + "; needs exactly one prime in --primes"):
        p.add_argument("--tables", action="store_true", help="only the value-set checks")
        p.add_argument("--table4", action="store_true", help="only the pairing relations")
        p.add_argument("--primes", type=_parse_primes, default=None,
                       help=f"comma-separated primes (default {','.join(map(str, DEFAULT_PRIMES))})")

    if p := add_command("classify", _cmd_classify,
                        "partition sequences into OACF-equivalence classes",
                        alpha=alpha_help + "; needs --parker P"):
        p.add_argument("sequences", nargs="*",
                       help="literals or label=literal entries; '-' reads lines from stdin")
        p.add_argument("--parker", type=int, metavar="P", default=None,
                       help="classify the applicable constructions at prime P instead")

    if p := add_command("equiv", _cmd_equiv, "search for a witness mapping one sequence to another"):
        p.add_argument("first")
        p.add_argument("second")
        p.add_argument("--without-negadecimation", action="store_true",
                       help="search only negation and nega-cyclic shifts (d = 1)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: print its report (JSON with --json, else text
    lines) on stdout and return its exit code; an error prints one
    ``error:`` line on stderr instead."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except ValueError as exc:  # parse, gcd, usage and precondition errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE if isinstance(exc, ConstructionInapplicableError) else EXIT_USAGE
    if args.json:
        import json  # loaded here so that text output, the default, skips its import

        lines = (json.dumps(payload, sort_keys=True),)
    print("\n".join(lines))
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
