"""Toy-size self-test of the benchmark.

    python3 -m pytest perfbench/test_selftest.py

Runs every workload at toy sizes with tracing off and on, and checks
that every metric BENCHMARK.json names is emitted with its unit and a
finite value, and that no op failed (failed_frac == 0).  It is kept out
of the tier-1 suite, which collects tests/ only.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
BENCH = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# cli is not in BENCHMARK.json (see README.md) but stays runnable, so it is tested too
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["cli"]

# The ROADMAP's baseline table, row by row, and the metric covering it.
BASELINE_ROWS = {
    "import twistlab": "cli.import_s",
    "torsion_field, island box": "stats.torsion_field.self_ms",
    "cocycle_scan, island box": "torsion.cocycle_scan.ns_per_lane_step.island",
    "cocycle_scan, chaotic box": "torsion.cocycle_scan.ns_per_lane_step.chaotic",
    "twistlab measure": "cli.measure.s",
    "twistlab probe": "cli.probe.s",
    "torsion_trace": "torsion.torsion_trace.us_per_step",
    "first_return_torsion": "stats.first_return_torsion.ms",
    "psi_family": "curves.psi_family.ms",
    "flux": "curves.flux.ms",
    "twist_check, first call": "maps.twist_check.first_call_s",
}


def run_bench(*args: str, cwd: Path = BENCH_DIR.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    assert out["failed"] == 0, proc.stderr
    assert out["correct"], proc.stderr
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_baseline_rows_are_covered():
    names = {m["name"] for m in BENCH["per_layer"]}
    assert set(BASELINE_ROWS.values()) <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"))
    proc = run_bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
