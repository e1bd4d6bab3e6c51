"""Span tracing of the program's layers, installed from the benchmark's side.

``Tracer.install`` replaces each traced function by a wrapper on every oacf
module namespace that binds it (``oacf.cli.classify``,
``oacf.equivalence.decimate``, ``oacf.constructions.oacf``, ...), and
``uninstall`` puts the originals back. Nothing under ``src/`` is edited.

A span is recorded only while a request is running, and only at a layer
boundary: a call made from inside a span of the same group (``oacf`` from
``oacf_profile``) runs untraced inside its caller's span. Consecutive calls
of one leaf function under the same parent are folded into one record with a
call count and their summed busy time, so a loop of thousands of ``oacf``
calls costs one record. A layer's self time is its busy time minus the busy
time of its child spans.
"""

import functools
import json
import statistics
import sys
import time

# function name -> (module that defines it, group, mergeable leaf)
TRACED = {
    "main": ("oacf.cli", "cli", False),
    "from_string": ("oacf.sequences", "parse", True),
    "__str__": ("oacf.sequences", "format", True),
    "oacf": ("oacf.sequences", "corr", True),
    "pacf": ("oacf.sequences", "corr", True),
    "oacf_profile": ("oacf.sequences", "corr", True),
    "pacf_profile": ("oacf.sequences", "corr", True),
    "oacf_distribution": ("oacf.sequences", "corr", True),
    "peak_oacf": ("oacf.sequences", "corr", True),
    "decimate": ("oacf.sequences", "perm", True),
    "nega_decimate": ("oacf.sequences", "perm", True),
    "negate": ("oacf.sequences", "perm", True),
    "cyclic_shift": ("oacf.sequences", "perm", True),
    "nega_cyclic_shift": ("oacf.sequences", "perm", True),
    "parker_double": ("oacf.sequences", "perm", True),
    "try_parker_split": ("oacf.sequences", "perm", True),
    "apply_witness": ("oacf.equivalence", "perm", True),
    "build_system": ("oacf.cyclotomy", "cyclotomy", False),
    "construct_in": ("oacf.constructions", "constructions", False),
    "verify_table": ("oacf.constructions", "verify_table", False),
    "oacf_equivalent": ("oacf.equivalence", "search", False),
    "reachable_without_negadecimation": ("oacf.equivalence", "d1", False),
    "classify": ("oacf.equivalence", "classify", False),
    "verify_table4": ("oacf.equivalence", "table4", False),
}
METHODS = {"from_string", "__str__"}  # attributes of BinarySequence


def _work(name, args, kwargs) -> int:
    """Shifts evaluated by a correlation call, or bits of the sequence
    argument of a permutation call; computed from the call's arguments."""
    if name in ("oacf", "pacf"):
        return 1
    if name in ("oacf_profile", "pacf_profile"):
        return args[0].period
    if name == "oacf_distribution":
        include_zero = args[1] if len(args) > 1 else kwargs.get("include_zero_shift", True)
        return args[0].period - (0 if include_zero else 1)
    if name == "peak_oacf":
        return args[0].period - 1
    if name == "apply_witness":
        return args[1].period
    return args[0].period


# record fields
NAME, REQ, PARENT, START, END, CALLS, BUSY, CHILD, LAST, TAG, WORK = range(11)


class Tracer:
    """In-memory span store; ``req`` is the id of the running request, or
    None outside requests."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.open_groups: dict[str, int] = {}
        self.req: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "oacf" or name.startswith("oacf.")]
        seq_cls = sys.modules["oacf.sequences"].BinarySequence
        wrappers = {}
        for name, (home, group, leaf) in TRACED.items():
            if name in METHODS:
                original = seq_cls.__dict__[name]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(name, group, leaf, original.__func__))
                else:
                    wrapper = self._wrap(name, group, leaf, original)
                self._replace(seq_cls, name, wrapper)
                continue
            original = getattr(sys.modules[home], name)
            wrappers[original] = self._wrap(name, group, leaf, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._replace(module, attr, wrappers[value])
                elif isinstance(value, dict) and any(
                    isinstance(v, tuple) and any(f in wrappers for f in v if callable(f))
                    for v in value.values()
                ):
                    # dispatch tables such as oacf.cli._APPLY_OPS hold the functions themselves
                    self._replace(module, attr, {
                        k: tuple(wrappers.get(f, f) if callable(f) else f for f in v)
                        if isinstance(v, tuple) else v
                        for k, v in value.items()
                    })

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _replace(self, owner, name, replacement) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, name, group, leaf, func):
        counted = group in ("corr", "perm")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.req is None or group in self.open_groups:
                return func(*args, **kwargs)
            index = self._open(name, group)
            try:
                result = func(*args, **kwargs)
            finally:
                record = self._close(index, group, leaf)
            if group == "search":
                record[TAG] = "hit" if result is not None else "miss"
            elif counted:
                record[WORK] += _work(name, args, kwargs)
            return result

        return wrapper

    def _open(self, name, group) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.records)
        self.records.append([name, self.req, parent, time.perf_counter(), 0.0, 1, 0.0, 0.0, -1, None, 0])
        self.stack.append(index)
        self.open_groups[group] = self.open_groups.get(group, 0) + 1
        return index

    def _close(self, index, group, leaf) -> list:
        """Close the span and return the record that now holds the call."""
        end = time.perf_counter()
        self.stack.pop()
        if self.open_groups[group] == 1:
            del self.open_groups[group]
        else:
            self.open_groups[group] -= 1
        record = self.records[index]
        record[END] = end
        record[BUSY] = end - record[START]
        if record[PARENT] < 0:
            return record
        parent = self.records[record[PARENT]]
        parent[CHILD] += record[BUSY]
        prev = self.records[parent[LAST]] if parent[LAST] >= 0 else None
        if (leaf and prev is not None and prev[NAME] == record[NAME]
                and prev[CHILD] == 0.0 and record[CHILD] == 0.0):
            # fold this call into the previous sibling of the same name
            prev[CALLS] += 1
            prev[BUSY] += record[BUSY]
            prev[END] = end
            self.records.pop()
            return prev
        parent[LAST] = index
        return record

    def dump(self, path, origin: float) -> None:
        """Write one JSON record per line; times are seconds from ``origin``,
        ``parent`` is the line number (from 0) of the parent span or -1, and
        ``busy`` sums the durations of the ``calls`` folded into the record."""
        with open(path, "w") as out:
            for r in self.records:
                out.write(json.dumps({
                    "name": r[NAME], "req": r[REQ], "parent": r[PARENT],
                    "start": r[START] - origin, "end": r[END] - origin,
                    "calls": r[CALLS], "busy": r[BUSY], "tag": r[TAG],
                }) + "\n")


# per-layer metric -> (unit, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "equivalence.search_calls": ("count/req", "throughput_rps, latency_p90_ms on classify; none on kernels"),
    "equivalence.search_hits": ("count/req", "throughput_rps, latency_p90_ms on classify; none on kernels"),
    "equivalence.search_s": ("s/req", "throughput_rps, latency_p90_ms on classify; none on kernels"),
    "equivalence.search_hit_p50_ms": ("ms", "latency_p90_ms on classify and verify"),
    "equivalence.search_miss_p50_ms": ("ms", "latency_p90_ms on classify"),
    "equivalence.d1_calls": ("count/req", "latency_p50_ms on kernels"),
    "equivalence.d1_s": ("s/req", "latency_p50_ms on kernels"),
    "equivalence.classify_pairs": ("count/req", "throughput_rps on classify"),
    "equivalence.classify_hit_ratio": ("ratio", "throughput_rps on classify"),
    "equivalence.classify_self_s": ("s/req", "throughput_rps on classify"),
    "equivalence.table4_self_s": ("s/req", "throughput_rps on verify"),
    "sequences.corr_shifts": ("count/req", "latency_p90_ms on kernels, throughput_rps on verify"),
    "sequences.corr_s": ("s/req", "latency_p90_ms on kernels, throughput_rps on verify"),
    "sequences.perm_bits": ("count/req", "latency_p50_ms on kernels; small share on classify"),
    "sequences.perm_s": ("s/req", "latency_p50_ms on kernels; small share on classify"),
    "sequences.parse_s": ("s/req", "latency_p50_ms on kernels"),
    "sequences.format_s": ("s/req", "latency_p50_ms on kernels"),
    "cli.self_s": ("s/req", "latency_p50_ms on kernels"),
    "cyclotomy.calls": ("count/req", "throughput_rps on verify; zero on kernels"),
    "cyclotomy.s": ("s/req", "throughput_rps on verify"),
    "constructions.calls": ("count/req", "throughput_rps on verify"),
    "constructions.s": ("s/req", "throughput_rps on verify"),
    "constructions.verify_self_s": ("s/req", "throughput_rps on verify"),
    "trace.request_s": ("s/req", "base for the shares above: mean traced request time"),
    "trace.overhead": ("ratio", "traced throughput over untraced throughput"),
}


def _median_ms(values) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def layer_metrics(records: list[list], requests: int) -> dict[str, float]:
    """Per-request layer figures from the records of ``requests`` requests
    (every metric but ``trace.overhead``)."""
    by_group: dict[str, list[list]] = {}
    for r in records:
        by_group.setdefault(TRACED[r[NAME]][1], []).append(r)

    def total(group, field=BUSY):
        return sum(r[field] for r in by_group.get(group, ()))

    def self_s(group):
        return sum(r[BUSY] - r[CHILD] for r in by_group.get(group, ()))

    def calls(group):
        return total(group, CALLS)

    search = by_group.get("search", [])
    in_classify = [r for r in search if r[PARENT] >= 0 and records[r[PARENT]][NAME] == "classify"]
    pairs = len(in_classify)
    figures = {
        "equivalence.search_calls": len(search),
        "equivalence.search_hits": sum(r[TAG] == "hit" for r in search),
        "equivalence.search_s": total("search"),
        "equivalence.d1_calls": calls("d1"),
        "equivalence.d1_s": total("d1"),
        "equivalence.classify_pairs": pairs,
        "equivalence.classify_self_s": self_s("classify"),
        "equivalence.table4_self_s": self_s("table4"),
        "sequences.corr_shifts": total("corr", WORK),
        "sequences.corr_s": total("corr"),
        "sequences.perm_bits": total("perm", WORK),
        "sequences.perm_s": total("perm"),
        "sequences.parse_s": total("parse"),
        "sequences.format_s": total("format"),
        "cli.self_s": self_s("cli"),
        "cyclotomy.calls": calls("cyclotomy"),
        "cyclotomy.s": total("cyclotomy"),
        "constructions.calls": calls("constructions"),
        "constructions.s": total("constructions"),
        "constructions.verify_self_s": self_s("verify_table"),
        "trace.request_s": total("cli"),
    }
    metrics = {name: value / requests for name, value in figures.items()}
    metrics["equivalence.search_hit_p50_ms"] = _median_ms([r[BUSY] for r in search if r[TAG] == "hit"])
    metrics["equivalence.search_miss_p50_ms"] = _median_ms([r[BUSY] for r in search if r[TAG] == "miss"])
    metrics["equivalence.classify_hit_ratio"] = (
        sum(r[TAG] == "hit" for r in in_classify) / pairs if pairs else 0.0
    )
    return metrics
