"""Seeded request mixes for the three workloads, each request with its check.

A workload draws a pool of requests from the seed. The pool holds a fixed
number of requests of every kind at fixed sizes, so every run sees the same
mix and only the drawn contents (sequences, parameters, indices, order)
depend on the seed. A run replays its pool (see run.py), and the latency
percentiles of the mix sit in the same place from run to run.

A check gets the exit code and captured stdout of one request and returns
True when both are right. Checks run outside the timed region.
"""

import functools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

from reference import (
    apply_at,
    apply_witness,
    doubled,
    equivalent,
    is_prime,
    oacf_at,
    pacf_at,
    reachable_d1,
    smallest_primitive_root,
    units,
)

Check = Callable[[int, str], bool]


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple[str, ...]  # one small request run before the first timed one
    pool: Callable[[random.Random, bool], list[Request]]  # (rng, smoke) -> requests


PRIMES = [p for p in range(5, 1010) if p % 4 == 1 and is_prime(p)]
TABLE4_ODD_F = [p for p in PRIMES if p <= 200 and (p - 1) // 4 % 2 == 1]
TABLE4_EVEN_F = [p for p in PRIMES if p <= 200 and (p - 1) // 4 % 2 == 0]
TABLE4_PAIRS = tuple(zip(TABLE4_ODD_F[::2], TABLE4_EVEN_F))
# Odd-f primes, whose twelve constructions fall into these four classes (see
# README, "Classification results"). P=53 is left out: one request of about
# 1.4 s would make up a quarter of a pass, and a run would replay it too few
# times for its best time to settle on a shared host (see run.py).
PARKER_MIX = (13, 29, 37)
ODD_F_CLASSES = {
    frozenset({"s5", "s8"}),
    frozenset({"s6", "s7"}),
    frozenset({"s9", "s12", "s13", "s16"}),
    frozenset({"s10", "s11", "s14", "s15"}),
}
# (N, hit) of the pairwise searches of a pool; N = 4p for p = 13, 29, 37, 53.
# Fewer at larger N, where a search costs more, to keep a pass short.
EQUIV_MIX = tuple(
    (n, hit) for n, count in ((52, 24), (116, 16), (148, 10), (212, 6)) for hit in (True, False) for _ in range(count)
)
APPLY_OPS = ("negate", "shift", "negashift", "decimate", "negadecimate")


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _coprime(rng: random.Random, modulus: int) -> int:
    while True:
        d = rng.randrange(1, modulus)
        if math.gcd(d, modulus) == 1:
            return d


@functools.lru_cache(maxsize=None)  # a verify pool checks 162 constructions each pass
def _construction(index: int, p: int) -> str:
    # Reference sequences for the witness checks come from the library, built
    # outside the timed region; every witness is still re-applied here.
    from oacf.constructions import construct

    return str(construct(index, p)[0])


# --- kernels ---------------------------------------------------------------


def _check_oacf_text(s: str, taus: list[int]) -> Check:
    def check(rc, out):
        values = [int(v) for v in out.split()]
        return (
            rc == 0
            and len(values) == len(s)
            and values[0] == len(s)
            and all(values[t] == oacf_at(s, t) for t in taus)
        )

    return check


def _parse_multiset(text: str) -> dict[int, int]:
    body = text.strip().removeprefix("{* ").removesuffix(" *}")
    entries = {}
    for part in body.split(", "):
        value, _, mult = part.partition("^")
        entries[int(value.strip("()"))] = int(mult or 1)
    return entries


def _check_distribution(s: str, taus: list[int]) -> Check:
    def check(rc, out):
        entries = _parse_multiset(out)
        # OACF(tau) = -OACF(N - tau): the values at tau > 0 are symmetric
        rest = dict(entries)
        rest[len(s)] = rest.get(len(s), 0) - 1
        return (
            rc == 0
            and sum(entries.values()) == len(s)
            and rest[len(s)] >= 0
            and all(rest.get(-v, 0) == m for v, m in rest.items())
            and all(oacf_at(s, t) in entries for t in taus)
        )

    return check


def _check_pacf_json(s: str, taus: list[int]) -> Check:
    def check(rc, out):
        doc = json.loads(out)
        values = doc["values"]
        return (
            rc == 0
            and doc["kind"] == "PACF"
            and doc["period"] == len(s)
            and len(values) == len(s)
            and values[0] == len(s)
            and all(values[t] == pacf_at(s, t) for t in taus)
        )

    return check


def _check_apply(op: str, s: str, param: int | None, indices: list[int]) -> Check:
    def check(rc, out):
        result = out.strip()
        return (
            rc == 0
            and len(result) == len(s)
            and set(result) <= {"0", "1"}
            and all(result[i] == apply_at(op, s, param, i) for i in indices)
        )

    return check


def _check_d1(s: str, t: str) -> Check:
    expected = reachable_d1(s, t)
    line = ("reachable" if expected else "not reachable") + " without nega-decimation"

    def check(rc, out):
        return rc == (0 if expected else 4) and out.strip() == line

    return check


def _kernel_requests(rng: random.Random, n: int) -> list[Request]:
    s = _bits(rng, n)
    taus = [0] + rng.sample(range(1, n), 3)
    indices = rng.sample(range(n), 16)
    requests = [
        Request("oacf", ("oacf", s), _check_oacf_text(s, taus)),
        Request("oacf-distribution", ("oacf", s, "--distribution"), _check_distribution(s, taus)),
        Request("pacf-json", ("oacf", s, "--pacf", "--json"), _check_pacf_json(s, taus)),
    ]
    params = {
        "negate": None,
        "shift": rng.randrange(n),
        "negashift": rng.randrange(n),
        "decimate": _coprime(rng, n),
        "negadecimate": _coprime(rng, 2 * n),
    }
    for op in APPLY_OPS:
        param = params[op]
        argv = ("apply", op, s) + (() if param is None else (str(param),))
        requests.append(Request(f"apply-{op}", argv, _check_apply(op, s, param, indices)))
    u = doubled(s)
    # t from the middle fifth of the 2N shifts, which the search scans in
    # order, so a hit costs about half a miss at every seed
    t = rng.randrange(4 * n // 5, 6 * n // 5)
    hit = (u + u)[t:t + n]
    for kind, target in (("d1-hit", hit), ("d1-miss", _bits(rng, n))):
        argv = ("equiv", s, target, "--without-negadecimation")
        requests.append(Request(kind, argv, _check_d1(s, target)))
    return requests


def kernels_pool(rng: random.Random, smoke: bool) -> list[Request]:
    """Ten request kinds at each of sixteen sizes N spaced log-uniformly from
    64 to 8192. The sizes are fixed, so every seed gets the same costs; the
    seed draws the sequences, the parameters and the order."""
    lo, hi, count = (4, 6, 2) if smoke else (6, 13, 16)
    sizes = [round(2 ** (lo + (hi - lo) * k / (count - 1))) for k in range(count)]
    requests = [r for n in sizes for r in _kernel_requests(rng, n)]
    rng.shuffle(requests)
    return requests


# --- verify ----------------------------------------------------------------


_TABLE_ROW = re.compile(r"c(\d\d) p=(\d+): PASS ")
_TABLE4_ROW = re.compile(
    r"row \d p=(\d+): s(\d+) = negadecimate\((?:negate\()?s(\d+)\)?, d\) PASS "
    r".* witness=\(d=(\d+), t=(\d+)\)$"
)


def _check_tables(p: int) -> Check:
    rows = 4 if (p - 1) // 4 % 2 == 0 else 12

    def check(rc, out):
        lines = out.splitlines()
        passed = [m for m in map(_TABLE_ROW.match, lines) if m and int(m[2]) == p]
        return (
            rc == 0
            and len(passed) == rows
            and f"tables: {rows}/{rows} rows passed" in lines
            and lines[-1] == "verify: PASS"
        )

    return check


def _check_table4(rc: int, out: str) -> bool:
    lines = out.splitlines()
    rows = [m for m in map(_TABLE4_ROW.match, lines) if m]
    return (
        rc == 0
        and len(rows) == 8
        and "table4: 8/8 relations confirmed" in lines
        and lines[-1] == "verify: PASS"
        and all(
            apply_witness(int(d), int(t), _construction(int(src), int(p)))
            == _construction(int(tgt), int(p))
            for p, tgt, src, d, t in (m.groups() for m in rows)
        )
    )


def _check_construct(index: int, p: int) -> Check:
    def check(rc, out):
        doc = json.loads(out)
        s = doc.get("s", "")
        return (
            rc == 0
            and set(doc) == {"alpha", "index", "p", "s", "u"}
            and (doc["index"], doc["p"]) == (index, p)
            and doc["alpha"] == smallest_primitive_root(p)
            and len(s) == 4 * p
            and doc["u"] == doubled(s)
            and s == _construction(index, p)
        )

    return check


def verify_pool(rng: random.Random, smoke: bool) -> list[Request]:
    """Value-set checks at every sixth prime = 1 (mod 4) up to 1009, pairing
    checks at seven fixed (odd-f, even-f) pairs of primes up to 200, and
    single constructions at two seeded indices at every prime = 1 (mod 4) up
    to 1009. The seed sets the indices and the order. The primes of the
    checks are fixed, because their costs differ by prime far more than the
    constructions' do (4 or 12 table rows; the larger period of a pair), so
    a seeded choice would move the latency percentiles."""
    tables, pairs, primes = ([13], [(13, 17)], [13]) if smoke else (PRIMES[3::6], TABLE4_PAIRS, PRIMES)
    requests = [Request("tables", ("verify", "--tables", "--primes", str(p)), _check_tables(p)) for p in tables]
    requests += [
        Request("table4", ("verify", "--table4", "--primes", f"{p},{q}"), _check_table4) for p, q in pairs
    ]
    for p in primes:
        for index in rng.sample(range(1, 5) if (p - 1) // 4 % 2 == 0 else range(5, 17), 2):
            argv = ("construct", str(index), str(p), "--emit-u", "--json")
            requests.append(Request("construct", argv, _check_construct(index, p)))
    rng.shuffle(requests)
    return requests


# --- classify --------------------------------------------------------------


_CLASS_LINE = re.compile(r"class \d+: representative=(\S+) members=(\S+) witnesses: (.*)$")
_WITNESS = re.compile(r"(\S+)=\(d=(\d+),t=(\d+)\)")


def _check_parker(p: int) -> Check:
    def check(rc, out):
        lines = out.splitlines()
        classes = [m for m in map(_CLASS_LINE.match, lines) if m]
        if rc != 0 or lines[-1] != f"classes: {len(ODD_F_CLASSES)}":
            return False
        if {frozenset(m[2].split(",")) for m in classes} != ODD_F_CLASSES:
            return False
        for rep, members, witnesses in (m.groups() for m in classes):
            if rep != min(members.split(",")):
                return False
            found = {w[1]: (int(w[2]), int(w[3])) for w in _WITNESS.finditer(witnesses)}
            if set(found) != set(members.split(",")):
                return False
            source = _construction(int(rep[1:]), p)
            for member, (d, t) in found.items():
                if apply_witness(d, t, source) != _construction(int(member[1:]), p):
                    return False
        return True

    return check


def _check_equiv(a: str, b: str, expected: bool) -> Check:
    def check(rc, out):
        if not expected:
            return rc == 4 and out.strip() == "no witness"
        m = re.fullmatch(r"witness d=(\d+) t=(\d+)", out.strip())
        return rc == 0 and m is not None and apply_witness(int(m[1]), int(m[2]), a) == b

    return check


def _equiv_request(rng: random.Random, n: int, hit: bool) -> Request:
    a = _bits(rng, n)
    if not hit:
        b = _bits(rng, n)
        return Request("equiv-miss", ("equiv", a, b), _check_equiv(a, b, equivalent(a, b)))
    # d from the middle tenth of the units in search order, so a hit costs
    # about half a miss and the mix keeps its latency percentiles in place
    candidates = units(2 * n)
    d = rng.choice(candidates[9 * len(candidates) // 20:11 * len(candidates) // 20])
    b = apply_witness(d, rng.randrange(2 * n), a)
    return Request("equiv-hit", ("equiv", a, b), _check_equiv(a, b, True))


def classify_pool(rng: random.Random, smoke: bool) -> list[Request]:
    """Three Parker classifications and 112 pairwise searches, half hits.

    Costs rise with N, hits costing about half a miss, so the median falls
    among the hits at N=116 and p90 among the hits at N=212; the
    classifications are the slowest requests.
    """
    parker = (13,) if smoke else PARKER_MIX
    searches = [(52, True), (52, False)] if smoke else EQUIV_MIX
    requests = [Request("classify-parker", ("classify", "--parker", str(p)), _check_parker(p)) for p in parker]
    requests += [_equiv_request(rng, n, hit) for n, hit in searches]
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernels", ("oacf", "0110" * 16), kernels_pool),
        Workload("verify", ("verify", "--tables", "--primes", "13"), verify_pool),
        Workload("classify", ("classify", "a=0110", "b=1001", "c=0101"), classify_pool),
    )
}
