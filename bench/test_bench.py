"""Smoke tests of the benchmark harness at its smallest sizes (p=13, N <= 64).

They check that every workload runs, that its output checks pass on the
program's replies and fail on corrupted ones, and that the result line names
exactly the metrics of BENCHMARK.json. They assert no timings.

    PYTHONPATH=src python -m pytest -q bench
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, monkeypatch, *argv) -> tuple[int, list[str]]:
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_result_line(tmp_path, monkeypatch, workload, trace):
    code, lines = _run(tmp_path, monkeypatch, "--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", trace, "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    summary = json.loads(lines[-2])
    assert set(summary["env"]) == {"commit", "python", "cpu", "nproc", "seed"}
    assert summary["error_rate"] == 0
    assert (tmp_path / f"{workload}-seed7-trace{trace}.json").is_file()


def test_traced_run_restores_the_program(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch, "--workload", "classify", "--seed", "1", "--trace", "1", "--smoke")
    import oacf.cli
    import oacf.equivalence
    import oacf.sequences

    assert oacf.cli.classify is oacf.equivalence.classify
    assert not hasattr(oacf.equivalence.classify, "__wrapped__")
    assert not hasattr(oacf.cli._APPLY_OPS["decimate"][0], "__wrapped__")
    assert not hasattr(oacf.sequences.BinarySequence.__str__, "__wrapped__")
    spans = (tmp_path / "classify-seed1-trace1.spans.jsonl").read_text().splitlines()
    assert {json.loads(line)["name"] for line in spans} >= {"main", "classify", "oacf_equivalent"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_accept_replies_and_reject_corruption(workload):
    import oacf.cli

    client = run.Client(oacf.cli, WORKLOADS[workload], random.Random(3), smoke=True)
    for request in client.pool:
        rc, out, _ = client.call(request.argv)
        assert client._passes(request, rc, out), request.kind
        assert not client._passes(request, rc + 1, out), request.kind
        assert not client._passes(request, rc, out[: len(out) // 2]), request.kind


def _mutants():
    """Wrong versions of the program's functions, each of which some check
    must notice: (namespace, attribute, wrong replacement)."""
    import oacf.cli
    import oacf.equivalence
    from oacf.equivalence import AffineWitness
    from oacf.sequences import CorrelationProfile, negate

    def off_by_four(profile):
        def wrong(a):
            values = profile(a).values
            return CorrelationProfile((values[0],) + tuple(v + 4 for v in values[1:]), profile(a).kind)
        return wrong

    def wrong_search(a, b, search=oacf.equivalence.oacf_equivalent):
        w = search(a, b)
        return AffineWitness(1, 0) if w is None else AffineWitness(w.d, w.t + 1)

    def failed_row(index, p, alpha=None, verify=oacf.cli.verify_table):
        report = verify(index, p, alpha)
        return type(report)(**dict(vars(report), matched=False, branch=None))

    def negated_s(system, index, construct_in=oacf.cli.construct_in):
        s, u = construct_in(system, index)
        return negate(s), u

    ops = {name: ((lambda *a, f=f: negate(f(*a))), needs) for name, (f, needs) in oacf.cli._APPLY_OPS.items()}
    d1 = oacf.cli.reachable_without_negadecimation
    return [
        (oacf.cli, "oacf_profile", off_by_four(oacf.cli.oacf_profile)),
        (oacf.cli, "pacf_profile", off_by_four(oacf.cli.pacf_profile)),
        (oacf.cli, "_APPLY_OPS", ops),
        (oacf.cli, "reachable_without_negadecimation", lambda a, b: not d1(a, b)),
        (oacf.cli, "oacf_equivalent", wrong_search),
        (oacf.equivalence, "oacf_equivalent", wrong_search),
        (oacf.cli, "verify_table", failed_row),
        (oacf.cli, "construct_in", negated_s),
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_reject_a_wrong_program(workload, monkeypatch):
    import oacf.cli

    for namespace, name, wrong in _mutants():
        monkeypatch.setattr(namespace, name, wrong)
    client = run.Client(oacf.cli, WORKLOADS[workload], random.Random(3), smoke=True)
    for request in client.pool:
        rc, out, _ = client.call(request.argv)
        assert not client._passes(request, rc, out), request.kind


def test_exits_nonzero_without_program_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = _run(tmp_path, monkeypatch, "--workload", "kernels", "--seed", "1", "--trace", "0")
    assert code != 0 and lines == []
