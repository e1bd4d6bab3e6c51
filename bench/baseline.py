"""Measure the benchmark's baseline and its run-to-run spread.

    python3 bench/baseline.py --seconds 40 --runs 10 --sets 2 --traced 3

Runs run.py once per seed, one run after another: a set of ``--runs``
untraced seeds per workload (101, 102, ... in the first set, 201, ... in the
second), every workload's set before the next set starts, then ``--traced``
traced seeds (301, 302, ...) per workload. For every end-to-end metric and
set it prints the median and the distance between the quartiles as a share
of the median (``statistics.quantiles(n=4)``), and how far each later set's
median is worse than the first set's, as a share of it. Writes the figures,
with the medians of the per-layer metrics, to bench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

from run import ROOT, environment  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {json.loads(lines[-2])['failures']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr_share": round((q3 - q1) / median, 3), "values": [round(v, 4) for v in values]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    end_to_end = {w: {name: {"unit": m["unit"]} for name, m in metrics.items()} for w in workloads}
    for k in range(args.sets):
        label = "set_" + "ABCDEFGH"[k]
        for workload in workloads:
            runs = [_run(workload, 101 + 100 * k + i, args.seconds, 0) for i in range(args.runs)]
            for name, m in metrics.items():
                figures = end_to_end[workload][name]
                figures[label] = _spread([r[name] for r in runs])
                first = figures["set_A"]["median"]
                worse = (figures[label]["median"] - first) / first * (1 if m["better"] == "lower" else -1)
                figures[label]["worse_than_A"] = round(worse, 3)
                print(workload, label, name, figures[label]["median"], "iqr", figures[label]["iqr_share"],
                      "worse than A", figures[label]["worse_than_A"], "bound", m["bound"], flush=True)

    per_layer = {}
    for workload in workloads:
        traced = [_run(workload, 301 + i, args.seconds, 1) for i in range(args.traced)]
        if traced:
            per_layer[workload] = {
                name: round(statistics.median(r[name] for r in traced), 6) for name in traced[0]
            }

    env = environment(None)
    baseline = {
        "about": (
            f"Medians and quartiles of {args.sets} sets of {args.runs} untraced runs per workload "
            "(seeds 101 on, 201 on, ...; the sets ran one after the other), and medians of "
            f"{args.traced} traced runs (seeds 301 on); per-layer figures are per request. "
            "Made by bench/baseline.py."
        ),
        "program_commit": env.pop("commit"),
        "env": {k: v for k, v in env.items() if k != "seed"},
        "run_seconds": args.seconds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_moves": {name: moves for name, (_, moves) in LAYER_METRICS.items()},
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
