"""Run one twistlab benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 38 --trace 0

Run from anywhere inside a twistlab source checkout; the package is
imported from the checkout's ``src/``.  Workloads: ``scan``,
``analysis``, ``cli`` (see perfbench/README.md).  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run; BENCHMARK.json names them and gives their units.

Set-up is timed in fresh child processes: the first SETUPS - 1 children
only set up and exit, the last one sets up and then runs the workload.
setup_s is the median of the SETUPS spawn-to-ready wall times.  It is
not scaled by the reference kernel (see calibrate.py): imports do not
slow down with it.  This script
uses only the standard library, so its own start-up stays out of every
figure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUPS = 3
TIME_LIMIT_S = 170.0


def _spawn(cmd: list[str], env: dict, deadline: float):
    """Start a worker; return (spawn-to-READY seconds, READY payload, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or not line.startswith("READY "):
        raise RuntimeError(f"worker {cmd[3:]} exited {proc.returncode}")
    return ready_s, json.loads(line[len("READY "):]), rest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="twistlab benchmark")
    p.add_argument("--workload", required=True, choices=("scan", "analysis", "cli"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--toy", action="store_true", help="tiny op sizes, for the self-test")
    args = p.parse_args(argv)
    if not (SRC / "twistlab" / "__init__.py").is_file():
        print(f"perfbench: no twistlab package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        cmd.append("--toy")
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups, first_checks, rest = [], [], ""
    try:
        for i in range(SETUPS):
            role = "run" if i == SETUPS - 1 else "setup"
            ready_s, payload, rest = _spawn(cmd + ["--role", role], env, deadline)
            setups.append(ready_s)
            first_checks.append(payload["twist_check_first_s"])
        result = json.loads(rest.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        metrics["maps.twist_check.first_call_s"] = statistics.median(first_checks)
    else:
        metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - {k for k, v in metrics.items() if v is not None})
    if missing:
        print(f"perfbench: metrics without data: {missing}", file=sys.stderr)
    out = {
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if metrics.get(name) is not None},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
