"""Ladder of the correlation and bit-permutation kernels of ``oacf.sequences``
and of the two formats of an ``oacf S`` report.

    PYTHONPATH=src python3 ladder_kernels.py [--rungs 64,512] [--repeat 5] [--out FILE]

Times ``oacf_profile`` and ``pacf_profile`` at each period N on both sides
of the blocked-profile cutoff (the per-shift path and blocks of
``_BLOCK`` shifts, whatever N is), the two formats that ``oacf S`` prints
of the OACF profile, and ``decimate``, ``nega_decimate`` and
``apply_witness`` over 12 units and offsets; sequences, units and offsets
are drawn from ``SEED``. The formats are the text line (``oacf_text``, the
CLI's ``_values_line``, next to the plain ``" ".join`` it replaced as
``oacf_join``) and the ``--json`` document (``oacf_json``). Each time is
the best of ``--repeat`` rounds, per call, in ms. Next to it stand the
work counts of one call: shifts and blocks for a profile, values and
characters written for a format, and for a gather the mean number of
columns and of strided slice assignments, counted in a separate untimed
pass. The counts depend only on the inputs, so they separate a change in
work from a change in host speed. The cutoff ``_BLOCKED_FROM`` is read off
the ladder as the period from which the blocked path is the faster one.

Writes the environment and one record per rung to ``--out``
(``BENCH_ladder_kernels.json`` by default) and prints one line per rung.
"""

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from oacf import AffineWitness, BinarySequence, apply_witness  # noqa: E402
from oacf import decimate, nega_decimate, oacf_profile, pacf_profile  # noqa: E402
from oacf import sequences  # noqa: E402
from oacf.cli import _values_line  # noqa: E402

RUNGS = (64, 512, 1176, 1625, 4096, 8192)
UNITS = 12
SEED = 1


def _best_ms(calls: dict, repeat: int) -> dict:
    """Best per-call time in ms of each of ``calls`` over ``repeat`` rounds
    of about 20 ms each; every round times each call in turn, so that a
    change in host speed reaches all of them alike."""
    numbers = {}
    for name, call in calls.items():
        number = 1
        while True:
            start = time.perf_counter()
            for _ in range(number):
                call()
            if time.perf_counter() - start > 0.02:
                break
            number *= 2
        numbers[name] = number
    best = dict.fromkeys(calls, math.inf)
    for _ in range(repeat):
        for name, call in calls.items():
            start = time.perf_counter()
            for _ in range(numbers[name]):
                call()
            best[name] = min(best[name], (time.perf_counter() - start) / numbers[name])
    return {name: seconds * 1e3 for name, seconds in best.items()}


class _CountingBytearray(bytearray):
    # a gather's result buffer that counts its slice assignments
    assignments = 0

    def __setitem__(self, index, value):
        _CountingBytearray.assignments += 1
        super().__setitem__(index, value)


def _slices(gather) -> int:
    _CountingBytearray.assignments = 0
    sequences.bytearray = _CountingBytearray
    try:
        gather()
    finally:
        del sequences.bytearray
    return _CountingBytearray.assignments


def _units(rng: random.Random, modulus: int) -> list[int]:
    units = []
    while len(units) < UNITS:
        d = rng.randrange(1, 2 * modulus + 1)
        if math.gcd(d, modulus) == 1:
            units.append(d)
    return units


def _with_cutoff(cutoff, profile):
    # `profile` with _correlations switching to blocks from N = cutoff on
    def call(s):
        saved, sequences._BLOCKED_FROM = sequences._BLOCKED_FROM, cutoff
        try:
            return profile(s)
        finally:
            sequences._BLOCKED_FROM = saved

    return call


def _profile_rung(s: BinarySequence, repeat: int) -> dict:
    shifts = s.period // 2 + 1
    blocks = {"per_shift": 0, "blocked": -(-shifts // sequences._BLOCK)}
    calls = {
        f"{name}.{path}": lambda profile=_with_cutoff(cutoff, profile): profile(s)
        for path, cutoff in (("per_shift", math.inf), ("blocked", 0))
        for name, profile in (("oacf_profile", oacf_profile), ("pacf_profile", pacf_profile))
    }
    return {
        key: {"ms": ms, "shifts": shifts, "blocks": blocks[key.split(".")[1]]}
        for key, ms in _best_ms(calls, repeat).items()
    }


def _format_rung(s: BinarySequence, repeat: int) -> dict:
    values = oacf_profile(s).values
    payload = {"kind": "OACF", "period": s.period, "values": values}
    calls = {
        "oacf_text": lambda: _values_line(values),
        "oacf_join": lambda: " ".join(map(str, values)),
        "oacf_json": lambda: json.dumps(payload, sort_keys=True),
    }
    times = _best_ms(calls, repeat)
    return {name: {"ms": times[name], "values": len(values), "chars": len(call())}
            for name, call in calls.items()}


def _gather_rung(s: BinarySequence, rng: random.Random, repeat: int) -> dict:
    n = s.period
    plain, nega = _units(rng, n), _units(rng, 2 * n)
    witnesses = [AffineWitness(d, rng.randrange(2 * n)) for d in nega]
    gathers = {
        "decimate": ([lambda d=d: decimate(s, d) for d in plain], n, plain),
        "nega_decimate": ([lambda d=d: nega_decimate(s, d) for d in nega], 2 * n, nega),
        "apply_witness": ([lambda w=w: apply_witness(w, s) for w in witnesses], 2 * n, nega),
    }
    times = _best_ms({name: lambda calls=calls: [call() for call in calls]
                      for name, (calls, _, _) in gathers.items()}, repeat)
    return {
        name: {
            "ms": times[name] / UNITS,
            "columns": sum(sequences._columns(n, size, d) for d in units) / UNITS,
            "slices": sum(map(_slices, calls)) / UNITS,
        }
        for name, (calls, size, units) in gathers.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", default=",".join(map(str, RUNGS)),
                        help="comma-separated periods N (default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=9, help="timed rounds per kernel (default: 9)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder_kernels.json")
    args = parser.parse_args(argv)
    rng = random.Random(SEED)
    rungs = []
    for n in map(int, args.rungs.split(",")):
        s = BinarySequence(rng.getrandbits(n), n)
        record = {"n": n, **_profile_rung(s, args.repeat), **_format_rung(s, args.repeat),
                  **_gather_rung(s, rng, args.repeat)}
        rungs.append(record)
        print(f"N={n}", " ".join(f"{k}={v['ms']:.4f}ms" for k, v in record.items() if k != "n"))
    report = {
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "seed": SEED,
            "repeat": args.repeat,
        },
        "blocked_from": sequences._BLOCKED_FROM,
        "block": sequences._BLOCK,
        "rungs": rungs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
