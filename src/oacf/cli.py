"""Command-line interface.

Subcommands: oacf, apply, construct, verify, classify, equiv, each declared
once, with its handler, help line and arguments, in the ``_COMMANDS`` table.
Text output is line-oriented and stable across runs; --json emits a single
JSON document carrying the same numbers.  This module renders every report:
the library's records carry data only.

Exit codes: 0 success, 2 usage/parse/precondition error, 3 construction
inapplicable, 4 verification failure or no witness found.
"""

import argparse
import functools
import itertools
import shutil
import sys
from importlib import import_module

from .sequences import (
    MAX_N,
    BinarySequence,
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

# The names taken from the library's other modules, by module, until they are
# bound here: ``_load`` binds a module's names when a handler first needs
# them, so that ``oacf`` and ``apply`` import ``sequences`` alone, and
# ``__getattr__`` when they are read from outside (``oacf.cli.construct_in``).
# A name already bound, such as a replacement set by a test, is kept.
_UNBOUND = {
    "cyclotomy": ("_check_p_limit", "build_system", "is_prime"),
    "constructions": ("ConstructionInapplicableError", "construct_in", "is_applicable", "verify_table"),
    "equivalence": ("classify", "oacf_equivalent", "reachable_without_negadecimation", "verify_table4"),
}


def _load(*modules: str) -> None:
    for module in modules:
        names = _UNBOUND.get(module)
        if names:
            imported = import_module(f".{module}", __package__)
            for name in names:
                globals().setdefault(name, getattr(imported, name))
            # dropped only once bound, so that a concurrent call binds them too
            _UNBOUND.pop(module, None)


def __getattr__(name: str):
    for module, names in list(_UNBOUND.items()):
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_VERIFY = 4

DEFAULT_PRIMES = (17, 41, 5, 13, 29, 37)


def _parse_sequence(name: str, literal: str) -> BinarySequence:
    # errors name the argument or label that gave the literal
    try:
        seq = BinarySequence.from_string(literal)
    except SequenceParseError as exc:
        raise ValueError(f"{name}: {exc}") from None
    # checked before any profile, search or gather, whose cost grows as N^2
    if seq.period > MAX_N:
        raise ValueError(f"{name}: period must be at most MAX_N = {MAX_N}, got {seq.period}")
    return seq


def _read_sequence(args, name: str) -> BinarySequence:
    literal = getattr(args, name)
    return _parse_sequence(name, sys.stdin.read() if literal == "-" else literal)


def _check_stdin_once(items) -> None:
    # a second '-' would read an already drained stream
    if items.count("-") > 1:
        raise ValueError("'-' (stdin) may be given at most once")


# Each _cmd_* handler returns (exit code, JSON payload, text lines); main prints
# the payload under --json and the lines otherwise.  _cmd_oacf builds no line
# under --json, which would format N values for nothing.


def _values_line(values: tuple) -> str:
    """``" ".join(map(str, values))`` for a tuple of ints, as one %-format
    of the whole tuple, which takes about half as long at N >= 1000."""
    return ("%d " * len(values))[:-1] % values


def _cmd_oacf(args):
    seq = _read_sequence(args, "sequence")
    profile = pacf_profile(seq) if args.pacf else oacf_profile(seq)
    payload: dict = {"kind": profile.kind, "period": seq.period}
    if args.distribution:
        dist = ValueMultiset(profile.values)
        payload["distribution"] = [[v, m] for v, m in dist.entries.items()]
    else:
        payload["values"] = profile.values  # json writes the tuple as an array
    if args.json:
        return EXIT_OK, payload, ()
    line = dist.multiset_notation() if args.distribution else _values_line(profile.values)
    return EXIT_OK, payload, (line,)


_APPLY_OPS = {
    "negate": (negate, False),
    "shift": (cyclic_shift, True),
    "negashift": (nega_cyclic_shift, True),
    "decimate": (decimate, True),
    "negadecimate": (nega_decimate, True),
}


def _cmd_apply(args):
    if args.op not in _APPLY_OPS:  # checked first, so that it reads no stdin
        raise ValueError(f"unknown operation {args.op!r} (choose from {', '.join(sorted(_APPLY_OPS))})")
    op, needs_param = _APPLY_OPS[args.op]
    if needs_param and args.param is None:
        raise ValueError(f"operation {args.op!r} requires an integer parameter")
    if not needs_param and args.param is not None:
        raise ValueError(f"operation {args.op!r} takes no parameter")
    seq = _read_sequence(args, "sequence")
    text = str(op(seq, args.param) if needs_param else op(seq))
    payload = {"op": args.op, "input": str(seq), "param": args.param, "result": text}
    return EXIT_OK, payload, (text,)


def _cmd_construct(args):
    _load("cyclotomy", "constructions")
    system = build_system(args.p, args.alpha)
    s, u = construct_in(system, args.index)
    texts = {"s": str(s), **({"u": str(u)} if args.emit_u else {})}
    payload = {"index": args.index, "p": args.p, "alpha": system.alpha, **texts}
    return EXIT_OK, payload, list(texts.values())


def _parse_primes(text: str) -> list[int]:
    try:
        primes = [int(part) for part in text.split(",")]
        if len(set(primes)) == len(primes):  # a repeated prime would be checked twice
            return primes
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad prime list {text!r}")


def _braced(values) -> str:
    return "{" + ", ".join(map(str, values)) + "}"


def _table_line(row: dict) -> str:
    """The text line of a verify row, read from its JSON dict: the fields of
    its VerificationReport, whose tuples ``json`` writes as arrays."""
    head = f"c{row['index']:02d} p={row['p']}:"
    if not row["matched"]:
        return f"{head} FAIL computed={_braced(row['computed'])} expected={_braced(row['expected'])}"
    note = " (collapsed)" if row["collapsed"] else ""
    return f"{head} PASS branch={row['branch']} values={_braced(row['computed'])}{note}"


def _table4_row(report) -> dict:
    """The JSON dict of one pairing relation: its Table4RowReport's fields,
    with ``negate_first`` named ``negation``, plus its direction and pass."""
    row = dict(vars(report), direction=report.direction, **{"pass": report.passed})
    row["negation"] = row.pop("negate_first")
    if report.witness:
        row["witness"] = vars(report.witness)
    return row


def _table4_line(row: dict) -> str:
    """The text line of a pairing relation, read from its JSON dict."""
    source = f"negate({row['source']})" if row["negation"] else row["source"]
    w = row["witness"]
    witness = f"(d={w['d']}, t={w['t']})" if w else "none"
    return (
        f"row {row['row']} p={row['p']}: {row['target']} = negadecimate({source}, d) "
        f"{'PASS' if row['pass'] else 'FAIL'} direction={row['direction']} "
        f"d_printed={row['d_printed']} d_inverse={row['d_inverse']} witness={witness}"
    )


def _cmd_verify(args):
    _load("cyclotomy", "constructions")
    run_tables = args.tables or not (args.tables or args.table4)
    run_table4 = args.table4 or not (args.tables or args.table4)
    primes = args.primes if args.primes is not None else list(DEFAULT_PRIMES)
    if args.alpha is not None and not run_tables:  # pairs use each prime's smallest root
        raise ValueError("--alpha applies only to the value-set checks")
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

    systems = {}  # p -> its system, which Table 4 reuses
    if run_tables:
        rows = []
        for p in usable:
            system = systems[p] = build_system(p, args.alpha)
            for index in range(1, 17):
                if not is_applicable(index, p):
                    continue
                row = vars(verify_table(index, system))
                rows.append(row)
                lines.append(_table_line(row))
        passed = sum(row["matched"] for row in rows)
        lines.append(f"tables: {passed}/{len(rows)} rows passed")
        payload["tables"] = rows
        # an all-skipped run is a notice, not a failure
        ok &= passed == len(rows)

    if run_table4:
        # construction 1 is a row for f even, construction 5 one for f odd
        p_even = next((p for p in usable if is_applicable(1, p)), None)
        p_odd = next((p for p in usable if is_applicable(5, p)), None)
        if p_even is None or p_odd is None:
            lines.append(
                "notice: pairing check needs one prime of each f parity, skipped"
            )
            payload["table4"] = None
        else:
            _load("equivalence")
            report = verify_table4(systems.get(p_even, p_even), systems.get(p_odd, p_odd))
            rows = [_table4_row(row) for row in report.rows]
            lines.extend(map(_table4_line, rows))
            confirmed = sum(row["pass"] for row in rows)
            lines.append(f"table4: {confirmed}/{len(rows)} relations confirmed")
            payload["table4"] = dict(vars(report), rows=rows, **{"pass": report.all_passed})
            ok &= report.all_passed

    lines.append("verify: PASS" if ok else "verify: FAIL")
    payload["pass"] = ok
    return (EXIT_OK if ok else EXIT_VERIFY), payload, lines


def _labeled_from_args(args) -> dict[str, BinarySequence]:
    if args.parker is not None:
        if args.sequences:
            raise ValueError("give either sequences or --parker P, not both")
        _load("cyclotomy", "constructions")
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
    labeled, generated = {}, {}  # generated: label -> its entry's number
    for k, item in enumerate(entries, start=1):
        label, _, literal = item.rpartition("=")
        if not label:
            label = f"seq{k}"
            generated[label] = k
        if label in labeled:
            note = f" (generated for entry {generated[label]})" if label in generated else ""
            raise ValueError(f"duplicate label {label!r}{note}")
        labeled[label] = _parse_sequence(label, literal)
    return labeled


def _cmd_classify(args):
    _load("equivalence")
    payload, lines = [], []
    for k, cls in enumerate(classify(_labeled_from_args(args)), start=1):
        witnesses = [dict(member=m, **vars(cls.witnesses[m])) for m in cls.members]
        payload.append({
            "class": k,
            "members": list(cls.members),
            "representative": cls.representative,
            "witnesses": witnesses,
        })
        pairs = " ".join(f"{w['member']}=(d={w['d']},t={w['t']})" for w in witnesses)
        lines.append(
            f"class {k}: representative={cls.representative} "
            f"members={','.join(cls.members)} witnesses: {pairs}"
        )
    lines.append(f"classes: {len(payload)}")
    return EXIT_OK, payload, lines


def _cmd_equiv(args):
    _load("equivalence")
    _check_stdin_once((args.first, args.second))
    first = _read_sequence(args, "first")
    second = _read_sequence(args, "second")
    if args.without_negadecimation:
        reachable = reachable_without_negadecimation(first, second)
        witness = None
        line = ("reachable without nega-decimation" if reachable
                else "not reachable without nega-decimation")
    else:
        witness = oacf_equivalent(first, second)
        reachable = witness is not None
        line = f"witness d={witness.d} t={witness.t}" if witness else "no witness"
    payload = {
        "equivalent": reachable,
        "restricted_to_shift_and_negation": args.without_negadecimation,
        "witness": vars(witness) if witness else None,
    }
    return (EXIT_OK if reachable else EXIT_VERIFY), payload, (line,)


_ALPHA_HELP = "override the generator of GF(p)* (default: smallest primitive root)"

# The one declaration of the subcommands, in help order: name -> (handler,
# help line, the (flags, keywords) of each argument added after --json).  No
# value in it is mutated and no default is a list or dict: calls share nothing
_COMMANDS = {
    "oacf": (_cmd_oacf, "correlation profile of a sequence", (
        (("sequence",), dict(help="0/1 literal, or '-' for stdin")),
        (("--pacf",), dict(action="store_true", help="periodic instead of odd-periodic")),
        (("--distribution",), dict(action="store_true", help="print the value multiset")),
    )),
    "apply": (_cmd_apply, "apply a sequence operation", (
        (("op",), dict(metavar="{" + ",".join(sorted(_APPLY_OPS)) + "}")),
        (("sequence",), dict(help="0/1 literal, or '-' for stdin")),
        (("param",), dict(type=int, nargs="?", default=None,
                          help="shift amount or decimation parameter")),
    )),
    "construct": (_cmd_construct, "build one of the sixteen period-4p constructions", (
        (("--alpha",), dict(type=int, default=None, help=_ALPHA_HELP)),
        (("index",), dict(type=int, help="construction index in [1, 16]")),
        (("p",), dict(type=int, help="prime with p = 1 (mod 4)")),
        (("--emit-u",), dict(action="store_true",
                             help="also print the doubled characteristic sequence")),
    )),
    "verify": (_cmd_verify, "check constructions against their value sets and pairings", (
        (("--alpha",), dict(type=int, default=None, help=_ALPHA_HELP
                            + "; value-set checks only; needs exactly one prime in --primes")),
        (("--tables",), dict(action="store_true", help="only the value-set checks")),
        (("--table4",), dict(action="store_true", help="only the pairing relations")),
        (("--primes",), dict(type=_parse_primes, default=None,
                             help=f"comma-separated primes (default {','.join(map(str, DEFAULT_PRIMES))})")),
    )),
    "classify": (_cmd_classify, "partition sequences into OACF-equivalence classes", (
        (("--alpha",), dict(type=int, default=None, help=_ALPHA_HELP + "; needs --parker P")),
        (("sequences",), dict(nargs="*",
                              help="literals or label=literal entries; '-' reads lines from stdin")),
        (("--parker",), dict(type=int, metavar="P", default=None,
                             help="classify the applicable constructions at prime P instead")),
    )),
    "equiv": (_cmd_equiv, "search for a witness mapping one sequence to another", (
        (("first",), {}),
        (("second",), {}),
        (("--without-negadecimation",), dict(
            action="store_true", help="search only negation and nega-cyclic shifts (d = 1)")),
    )),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser, built from ``_COMMANDS``: with a command, that
    subcommand's own parser, which reads the words after its name; with no
    command, the top level with all six names as bare entries, for its help
    and its first-word errors.  It is built on every call; one built once per
    process waits on the benchmark's replay log (ROADMAP item 6).

    The terminal is read once per build: the parser formats with the width
    that argparse's default formatter would read, the columns of
    ``shutil.get_terminal_size()`` less 2, so that the formatters made by
    each ``add_argument``, the help and the usage do not read it again."""
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    if command:
        parser = argparse.ArgumentParser(prog=f"oacf {command}", formatter_class=formatter)
        parser.add_argument("--json", action="store_true", help="emit a JSON document")
        for flags, keywords in _COMMANDS[command][2]:
            parser.add_argument(*flags, **keywords)
        return parser
    parser = argparse.ArgumentParser(
        prog="oacf", description="Odd-periodic autocorrelation toolkit for binary sequences.",
        formatter_class=formatter)
    sub = parser.add_subparsers(prog="oacf", metavar="{" + ",".join(_COMMANDS) + "}")
    for name, (_, summary, _) in _COMMANDS.items():
        sub.add_parser(name, help=summary, add_help=False)
    return parser


def main(argv=None) -> int:
    """Run the subcommand that argv's first word names: print its report
    (JSON with --json, else text lines) on stdout and return its exit code;
    an error prints one ``error:`` line on stderr instead.  Any other first
    word asks for help (-h, or --help cut to 3+ characters) or is an error."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        parser = build_parser()
        if not argv:
            parser.error("the following arguments are required: command")
        if command == "-h" or (len(command) > 2 and "--help".startswith(command)):
            parser.parse_args(["-h"])  # prints the help and exits
        parser.error(f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(map(repr, _COMMANDS))})")
    parser = build_parser(command)
    # argparse rejects -hARG (-h given ARG) before 3.13 and prints the help
    # from 3.13 on; the program rejects it under every release
    for word in itertools.takewhile("--".__ne__, argv[1:]):
        arg = word[3:] if word.startswith("-h=") else word[2:].lstrip("h")
        if word.startswith("-h") and arg:
            parser.error(f"argument -h/--help: ignored explicit argument {arg!r}")
    args = parser.parse_args(argv[1:])
    try:
        code, payload, lines = _COMMANDS[command][0](args)
    except ValueError as exc:  # parse, gcd, usage and precondition errors
        print(f"error: {exc}", file=sys.stderr)
        # only a handler that has loaded constructions can raise its error
        inapplicable = globals().get("ConstructionInapplicableError", ())
        return EXIT_INAPPLICABLE if isinstance(exc, inapplicable) else EXIT_USAGE
    if args.json:
        import json  # loaded here so that text output, the default, skips its import

        lines = (json.dumps(payload, sort_keys=True),)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
