"""The benchmark's traced smoke run of every workload, each in a fresh
interpreter.

``Tracer.install`` (bench/spans.py) looks up in ``sys.modules`` every module
that it traces, so each must have been loaded by the workload's own requests
by then. Only a fresh process shows that: in a pytest session, earlier tests
have already imported every module, which hides a module that a workload
never loads from ``bench/test_bench.py``'s in-session smoke runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["classify", "kernels", "verify"])
def test_traced_smoke_run_in_a_fresh_process(workload, tmp_path):
    # what `python3 bench/run.py ...` runs, with its output files moved to tmp_path
    child = (
        "import pathlib, sys; sys.path.insert(0, 'bench'); import run; "
        f"run.OUT = pathlib.Path({str(tmp_path)!r}); "
        f"sys.exit(run.main(['--workload', {workload!r}, '--seed', '7', '--seconds', '1', "
        "'--trace', '1', '--smoke']))"
    )
    out = subprocess.run([sys.executable, "-c", child], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
