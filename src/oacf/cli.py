"""Command-line interface.

Subcommands: oacf, apply, construct, verify, classify, equiv.  Text output
is line-oriented and stable across runs; --json emits a single JSON
document carrying the same numbers.

Exit codes: 0 success, 2 usage/parse/precondition error, 3 construction
inapplicable, 4 verification failure or no witness found.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .constructions import (
    ConstructionInapplicableError,
    construct_in,
    is_applicable,
    verify_table,
)
from .cyclotomy import build_system, is_prime
from .equivalence import classify, oacf_equivalent, reachable_without_negadecimation, verify_table4
from .sequences import (
    BinarySequence,
    NotCoprimeError,
    SequenceParseError,
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


@dataclass
class OutputEnvelope:
    """One invocation's report: stable text lines plus a JSON payload."""

    format: str  # "text" or "json"
    payload: object
    lines: tuple[str, ...]

    def emit(self) -> None:
        if self.format == "json":
            print(json.dumps(self.payload, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_sequence(literal: str) -> BinarySequence:
    if literal == "-":
        literal = sys.stdin.read()
    return BinarySequence.from_string(literal)


def _cmd_oacf(args) -> int:
    try:
        seq = _read_sequence(args.sequence)
    except SequenceParseError as exc:
        return _fail(str(exc), EXIT_USAGE)
    profile = pacf_profile(seq) if args.pacf else oacf_profile(seq)
    payload: dict = {"kind": profile.kind, "period": seq.period}
    if args.distribution:
        dist = ValueMultiset(profile.values)
        payload["distribution"] = [[v, m] for v, m in dist.entries.items()]
        lines = (dist.multiset_notation(),)
    else:
        payload["values"] = list(profile.values)
        lines = (" ".join(map(str, profile.values)),)
    OutputEnvelope("json" if args.json else "text", payload, lines).emit()
    return EXIT_OK


_APPLY_OPS = {
    "negate": (negate, False),
    "shift": (cyclic_shift, True),
    "negashift": (nega_cyclic_shift, True),
    "decimate": (decimate, True),
    "negadecimate": (nega_decimate, True),
}


def _cmd_apply(args) -> int:
    op, needs_param = _APPLY_OPS[args.op]
    if needs_param and args.param is None:
        return _fail(f"operation {args.op!r} requires an integer parameter", EXIT_USAGE)
    if not needs_param and args.param is not None:
        return _fail(f"operation {args.op!r} takes no parameter", EXIT_USAGE)
    try:
        seq = _read_sequence(args.sequence)
        result = op(seq, args.param) if needs_param else op(seq)
    except (SequenceParseError, NotCoprimeError, ValueError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    text = str(result)
    payload = {"op": args.op, "input": str(seq), "param": args.param, "result": text}
    OutputEnvelope("json" if args.json else "text", payload, (text,)).emit()
    return EXIT_OK


def _cmd_construct(args) -> int:
    try:
        system = build_system(args.p, args.alpha)
        s, u = construct_in(system, args.index)
    except ConstructionInapplicableError as exc:
        return _fail(str(exc), EXIT_INAPPLICABLE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
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
    OutputEnvelope("json" if args.json else "text", payload, tuple(lines)).emit()
    return EXIT_OK


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}")


def _cmd_verify(args) -> int:
    run_tables = args.tables or not (args.tables or args.table4)
    run_table4 = args.table4 or not (args.tables or args.table4)
    primes = args.primes if args.primes is not None else list(DEFAULT_PRIMES)
    if args.alpha is not None and len(primes) != 1:
        return _fail("--alpha requires exactly one prime", EXIT_USAGE)

    notices: list[str] = []
    usable: list[int] = []
    for p in primes:
        if is_prime(p) and p % 4 == 1:
            usable.append(p)
        else:
            notices.append(f"notice: {p} is not a prime = 1 (mod 4), skipped")

    lines: list[str] = list(notices)
    payload: dict = {"skipped": [n.removeprefix("notice: ") for n in notices]}
    ok = True

    if run_tables:
        reports = []
        try:
            for p in usable:
                for index in range(1, 17):
                    if not is_applicable(index, p):
                        continue
                    report = verify_table(index, p, args.alpha)
                    reports.append(report)
                    lines.append(report.text_line())
        except ValueError as exc:  # e.g. --alpha is not a generator
            return _fail(str(exc), EXIT_USAGE)
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
    OutputEnvelope("json" if args.json else "text", payload, tuple(lines)).emit()
    return EXIT_OK if ok else EXIT_VERIFY


def _labeled_from_args(args) -> dict[str, BinarySequence]:
    if args.parker is not None:
        system = build_system(args.parker, args.alpha)
        return {
            f"s{i}": construct_in(system, i)[0]
            for i in range(1, 17)
            if is_applicable(i, args.parker)
        }
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
        labeled[label] = BinarySequence.from_string(literal)
    return labeled


def _cmd_classify(args) -> int:
    try:
        labeled = _labeled_from_args(args)
        classes = classify(labeled)
    except ConstructionInapplicableError as exc:
        return _fail(str(exc), EXIT_INAPPLICABLE)
    except (SequenceParseError, ValueError) as exc:
        return _fail(str(exc), EXIT_USAGE)
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
    OutputEnvelope("json" if args.json else "text", payload, tuple(lines)).emit()
    return EXIT_OK


def _cmd_equiv(args) -> int:
    try:
        first = _read_sequence(args.first)
        second = _read_sequence(args.second)
        if args.without_negadecimation:
            reachable = reachable_without_negadecimation(first, second)
            witness = None
        else:
            witness = oacf_equivalent(first, second)
            reachable = witness is not None
    except (SequenceParseError, ValueError) as exc:
        return _fail(str(exc), EXIT_USAGE)
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
    OutputEnvelope("json" if args.json else "text", payload, lines).emit()
    return EXIT_OK if reachable else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oacf",
        description="Odd-periodic autocorrelation toolkit for binary sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument(
        "--alpha", type=int, default=None,
        help="override the generator of GF(p)* (default: smallest primitive root)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oacf", parents=[common], help="correlation profile of a sequence")
    p.add_argument("sequence", help="0/1 literal, or '-' for stdin")
    p.add_argument("--pacf", action="store_true", help="periodic instead of odd-periodic")
    p.add_argument("--distribution", action="store_true", help="print the value multiset")
    p.set_defaults(handler=_cmd_oacf)

    p = sub.add_parser("apply", parents=[common], help="apply a sequence operation")
    p.add_argument("op", choices=sorted(_APPLY_OPS))
    p.add_argument("sequence", help="0/1 literal, or '-' for stdin")
    p.add_argument("param", type=int, nargs="?", default=None,
                   help="shift amount or decimation parameter")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("construct", parents=[common, alpha],
                       help="build one of the sixteen period-4p constructions")
    p.add_argument("index", type=int, help="construction index in [1, 16]")
    p.add_argument("p", type=int, help="prime with p = 1 (mod 4)")
    p.add_argument("--emit-u", action="store_true",
                   help="also print the doubled characteristic sequence")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", parents=[common, alpha],
                       help="check constructions against their value sets and pairings")
    p.add_argument("--tables", action="store_true", help="only the value-set checks")
    p.add_argument("--table4", action="store_true", help="only the pairing relations")
    p.add_argument("--primes", type=_parse_primes, default=None,
                   help=f"comma-separated primes (default {','.join(map(str, DEFAULT_PRIMES))})")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("classify", parents=[common, alpha],
                       help="partition sequences into OACF-equivalence classes")
    p.add_argument("sequences", nargs="*",
                   help="literals or label=literal entries; '-' reads lines from stdin")
    p.add_argument("--parker", type=int, metavar="P", default=None,
                   help="classify the applicable constructions at prime P instead")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("equiv", parents=[common],
                       help="search for a witness mapping one sequence to another")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--without-negadecimation", action="store_true",
                   help="search only negation and nega-cyclic shifts (d = 1)")
    p.set_defaults(handler=_cmd_equiv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def entrypoint() -> None:
    sys.exit(main())
