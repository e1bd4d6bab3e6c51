"""Ladder of the cyclotomy and construction layers of ``oacf``.

    PYTHONPATH=src python3 ladder_constructions.py [--primes 13,101] [--repeat 5] [--out FILE]

Times, at each prime p, ``build_system(p)`` with the smallest primitive
root, ``construct_in`` of one construction over that system, and one
``verify_table`` row of the same construction twice: given the prime, so
that it builds its own system (``verify_table``), and given the system
already built (``verify_table.shared``), as ``oacf verify --tables`` runs
each of a prime's rows. The construction is 1 where f = (p - 1)/4 is even
and 5 where it is odd. Each time is the best of ``--repeat`` rounds, per
call, in ms, from ``ladder_kernels._best_ms``. Next to it stand the work
counts of one call: for ``build_system`` the powers of alpha written into
the class table and the candidate roots tried, for ``construct_in`` the
codes translated and the bits of the doubled word u, and for a row the
codes translated and the correlation shifts evaluated, counted in a
separate untimed pass. ``verify_tables`` records the rows and the
``build_system`` calls of one untimed ``oacf verify --tables --primes p``.

Writes the environment and one record per rung to ``--out``
(``BENCH_ladder_constructions.json`` by default) and prints one line per
rung.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

from ladder_kernels import ROOT, _best_ms

from oacf import build_system, construct_in, verify_table
from oacf import cli, constructions

PRIMES = (13, 101, 401, 1009, 9973)


def _shifts(index: int, p: int) -> int:
    # correlation shifts that one verify_table row evaluates
    counted = []
    correlations_at = constructions._correlations_at

    def counting(s, sign, shifts):
        counted.append(len(shifts))
        return correlations_at(s, sign, shifts)

    constructions._correlations_at = counting
    try:
        verify_table(index, p)
    finally:
        constructions._correlations_at = correlations_at
    return sum(counted)


def _tables_run(p: int) -> dict:
    # rows and build_system calls, through either module's name, of one CLI call
    builds = []
    originals = {module: module.build_system for module in (cli, constructions)}

    def counting(build):
        def build_system(*args):
            builds.append(args)
            return build(*args)
        return build_system

    for module, build in originals.items():
        module.build_system = counting(build)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(["verify", "--tables", "--primes", str(p), "--json"])
    finally:
        for module, build in originals.items():
            module.build_system = build
    return {"rows": len(json.loads(out.getvalue())["tables"]), "builds": len(builds)}


def _rung(p: int, repeat: int) -> dict:
    system = build_system(p)
    index = 1 if system.f % 2 == 0 else 5
    times = _best_ms({
        "build_system": lambda: build_system(p),
        "construct_in": lambda: construct_in(system, index),
        "verify_table": lambda: verify_table(index, p),
        "verify_table.shared": lambda: verify_table(index, system),
    }, repeat)
    shifts = _shifts(index, p)
    return {
        "p": p,
        "index": index,
        "build_system": {"ms": times["build_system"], "powers": p - 1, "candidates": system.alpha - 1},
        "construct_in": {"ms": times["construct_in"], "codes": 4 * p, "bits": 8 * p},
        "verify_table": {"ms": times["verify_table"], "codes": 4 * p, "shifts": shifts},
        "verify_table.shared": {"ms": times["verify_table.shared"], "codes": 4 * p, "shifts": shifts},
        "verify_tables": _tables_run(p),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", default=",".join(map(str, PRIMES)),
                        help="comma-separated primes p = 1 (mod 4) (default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=9, help="timed rounds per call (default: 9)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder_constructions.json")
    args = parser.parse_args(argv)
    rungs = []
    for p in map(int, args.primes.split(",")):
        record = _rung(p, args.repeat)
        rungs.append(record)
        print(f"p={p} c{record['index']:02d}",
              " ".join(f"{k}={v['ms']:.4f}ms" for k, v in record.items() if isinstance(v, dict) and "ms" in v),
              "verify_tables={rows} rows/{builds} builds".format(**record["verify_tables"]))
    report = {
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "repeat": args.repeat,
        },
        "rungs": rungs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
