"""Smoke run of the kernel ladder (``ladder_kernels.py``) at its smallest
rung. Times are only checked to be positive; the work counts are exact."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ladder_smoke_run_at_the_smallest_rung(tmp_path):
    out = tmp_path / "ladder.json"
    script = ROOT / "ladder_kernels.py"
    run = subprocess.run(
        [sys.executable, str(script), "--rungs", "64", "--repeat", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text())
    assert report["environment"]["python"] == ".".join(map(str, sys.version_info[:3]))
    (rung,) = report["rungs"]
    assert rung["n"] == 64
    for kind in ("oacf_profile", "pacf_profile"):
        assert rung[f"{kind}.per_shift"]["shifts"] == rung[f"{kind}.blocked"]["shifts"] == 33
        assert rung[f"{kind}.per_shift"]["blocks"] == 0
        assert rung[f"{kind}.blocked"]["blocks"] == -(-33 // report["block"])
    text, join, document = rung["oacf_text"], rung["oacf_join"], rung["oacf_json"]
    assert text["values"] == join["values"] == document["values"] == 64
    assert text["chars"] == join["chars"] < document["chars"]
    for kind in ("decimate", "nega_decimate", "apply_witness"):
        assert 1 <= rung[kind]["columns"] <= rung[kind]["slices"] <= 64
    assert all(value["ms"] > 0 for key, value in rung.items() if key != "n")
