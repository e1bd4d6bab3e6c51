"""Smoke runs of the kernel ladder (``ladder_kernels.py``) at its smallest
rung and of the construction ladder (``ladder_constructions.py``) at p = 13.
Times are only checked to be positive; the work counts are exact."""

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


def test_construction_ladder_smoke_run_at_p13(tmp_path):
    out = tmp_path / "ladder.json"
    script = ROOT / "ladder_constructions.py"
    run = subprocess.run(
        [sys.executable, str(script), "--primes", "13", "--repeat", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    (rung,) = json.loads(out.read_text())["rungs"]
    assert (rung["p"], rung["index"]) == (13, 5)  # f = 3 is odd
    assert rung["build_system"]["powers"] == 12 and rung["build_system"]["candidates"] == 1
    rows = ("verify_table", "verify_table.shared")
    assert rung["construct_in"]["codes"] == 52
    assert rung["construct_in"]["bits"] == 104
    for row in rows:
        # one shift per cyclotomic orbit: eta(k, a) for k < 4 and five residues a, less 0
        assert rung[row]["codes"] == 52 and rung[row]["shifts"] == 19
    # verify --tables builds the system of p = 13 once for its 12 rows
    assert rung["verify_tables"] == {"rows": 12, "builds": 1}
    assert all(rung[layer]["ms"] > 0 for layer in ("build_system", "construct_in", *rows))
