"""Benchmark of the oacf CLI, driven in-process through ``oacf.cli.main``.

    python3 bench/run.py --workload kernels --seed 1 --seconds 40 --trace 0

One closed-loop client in one thread sends the next request when the
previous one has returned. A run draws a pool of requests from ``--seed``
(see workloads.py) and replays the whole pool, pass after pass, in the same
order, for as long as whole passes fit in ``--seconds`` of summed request
time (at least three passes). Every reply's exit code and output are checked
after it returns, outside the timed region.

A request's latency is the best of its replays, as ``timeit`` reports: on a
shared host the same request runs up to 1.8 times slower while other tenants
are busy, so the slower replays measure the host rather than the program. A
pass takes one to four seconds, so every request is replayed about ten times
or more, spread over the whole run. The percentiles are taken over the pool,
whose sizes put at least ten requests beyond p90, and throughput is the
pool's size over the sum of its best latencies.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced (see spans.py), and prints the per-layer
metrics, each per request, plus ``trace.overhead``. ``--smoke`` runs one
pass over a pool at the smallest sizes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it carries the
environment and the sample count; both are also written, with the spans of
a traced run, under bench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_REPEATS = 15

# Runs in a fresh interpreter: the import a user's first call pays, plus one
# small warm-up request.
_SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
import oacf.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    oacf.cli.main(sys.argv[1:])
print(time.perf_counter() - t0)
"""


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(warmup: tuple[str, ...]) -> float:
    """Seconds a fresh interpreter spends importing oacf.cli and serving one
    warm-up request; interpreter start-up itself is not counted."""
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, *warmup],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


class Client:
    """Closed-loop client: calls ``oacf.cli.main`` with stdout and stderr
    captured and checks each reply."""

    def __init__(self, cli, workload, rng: random.Random, smoke: bool):
        self.cli = cli
        self.pool = workload.pool(rng, smoke)
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.log: list[tuple[str, float]] = []  # (kind, latency) of every request

    def call(self, argv) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the request
                rc = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        finally:
            sys.stdout, sys.stderr = saved
        return rc, out.getvalue(), elapsed

    def replay(self, seconds: float, tracer=None, after_pass=None) -> list[float]:
        """Best latency of each pool request over whole passes, run while the
        next pass, as long as the last one, fits in ``seconds`` of summed
        request time (one pass in smoke mode, at least ``MIN_PASSES``
        otherwise). ``after_pass(busy)`` runs between passes, outside the
        timed region."""
        best = [float("inf")] * len(self.pool)
        busy = last = 0.0
        passes = 0
        while passes < (1 if self.smoke else MIN_PASSES) or (not self.smoke and busy + last <= seconds):
            before = busy
            for i, request in enumerate(self.pool):
                if tracer is not None:
                    tracer.req = self.attempted
                start = time.perf_counter()
                try:
                    rc, out, elapsed = self.call(request.argv)
                except Exception as exc:  # a crash fails this request, not the run
                    rc, out, elapsed = None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
                finally:
                    if tracer is not None:
                        tracer.req = None
                self.attempted += 1
                best[i] = min(best[i], elapsed)
                self.log.append((request.kind, elapsed))
                busy += elapsed
                if rc is None or not self._passes(request, rc, out):
                    self.failed += 1
                    self.failures.append(f"{request.kind}: rc={rc} argv={' '.join(request.argv)[:120]}")
            passes += 1
            last = busy - before
            if after_pass is not None:
                after_pass(busy)
        return best

    @staticmethod
    def _passes(request, rc: int, out: str) -> bool:
        try:
            return bool(request.check(rc, out))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            return False  # malformed output


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "throughput_rps": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": _metric(deciles[8] * 1000, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at the smallest sizes (p=13, N <= 64)")
    args = parser.parse_args(argv)

    if not (SRC / "oacf" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import oacf.cli
    from spans import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    client = Client(oacf.cli, workload, random.Random(args.seed), args.smoke)

    origin = time.perf_counter()
    summary: dict = {"env": env, "workload": workload.name, "trace": args.trace}
    if args.trace == 0:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setups: list[float] = []

        def set_up(busy: float) -> None:
            # spread over the run, so that the median spans the machine's speed phases
            while len(setups) < repeats and busy >= len(setups) * args.seconds / repeats:
                setups.append(measure_setup(workload.warmup))

        set_up(0.0)
        client.call(workload.warmup)
        latencies = client.replay(args.seconds, after_pass=set_up)
        set_up(float("inf"))
        metrics = end_to_end(latencies, statistics.median(setups))
        summary["samples"] = {"pool": len(latencies), "replays": client.attempted}
    else:
        client.call(workload.warmup)
        plain = client.replay(args.seconds / 2)
        untraced = client.attempted
        tracer = Tracer()
        tracer.install()
        try:
            traced = client.replay(args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        replays = client.attempted - untraced
        metrics = {
            name: _metric(value, LAYER_METRICS[name][0])
            for name, value in layer_metrics(tracer.records, replays).items()
        }
        metrics["trace.overhead"] = _metric(sum(plain) / sum(traced), LAYER_METRICS["trace.overhead"][0])
        summary["samples"] = {
            "pool": len(plain), "untraced": untraced, "traced": replays, "spans": len(tracer.records),
        }
    summary["error_rate"] = client.failed / client.attempted
    summary["failures"] = client.failures[:20]

    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl", origin)
    record = dict(summary, result=result, latencies=client.log)
    if args.trace:
        record["moves"] = {name: moves for name, (_, moves) in LAYER_METRICS.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
