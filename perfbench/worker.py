"""Benchmark child process: set up one workload, run it, report metrics.

Started by run.py in a fresh interpreter.  With ``--role setup`` it only
sets up (imports, map specs, twist_check, one untimed warm-up op), prints
a READY line and exits; run.py times the spawn-to-READY wall clock as
setup_s.  With ``--role run`` it then runs the closed loop for
``--seconds`` and prints one JSON line of metrics.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` runs the loop
untraced and then traced (0.35 x seconds each, which gives the tracing
overhead), replays the inputs of a few traced ops one layer down, runs
one traced round of each other workload so every per-layer metric has
data, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import twistlab as tl
from calibrate import Calibrator
from tracing import ARRAY_METHODS, SCALAR_METHODS, CountingMap, NullTracer, Tracer, duration
from workloads import SPECS, AnalysisWorkload, CliWorkload, ScanWorkload, expected_fields

BENCH_DIR = Path(__file__).resolve().parent
TRACE_SHARE = 0.35
REPLAYS_PER_KIND = 3
FRESH_STARTS = 3
CLI_SUBCOMMANDS = ("trace", "field", "measure", "flux", "psi", "probe", "rotation",
                   "classify", "linking", "return-check")
# reference kernel matching each workload's profile (see calibrate.py)
CALIBRATION = {"scan": "array", "analysis": "scalar", "cli": "scalar"}


def make_workload(name: str, rng, toy: bool, maps, workdir: Path):
    if name == "scan":
        return ScanWorkload(rng, toy)
    if name == "analysis":
        return AnalysisWorkload(rng, toy)
    return CliWorkload(rng, toy, workdir, dict(os.environ), maps)


class Loop:
    """Outcome of a closed loop: per-op latencies, work and failures."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.kinds: list[str] = []
        self.lane_steps = 0
        self.failed = 0
        self.replays: Counter = Counter()  # replayed ops per kind

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.spans]


def run_op(op, tracer, loop: Loop, op_ids) -> None:
    tracer.op = next(op_ids)
    first_span = len(tracer.spans) if tracer.active else None
    t0 = time.perf_counter()
    try:
        out = op.run(tracer)
        err = None
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        out, err = None, exc
    loop.spans.append((t0, time.perf_counter()))
    loop.kinds.append(op.kind)
    loop.lane_steps += op.lane_steps
    if err is None:
        try:
            op.check(out)
        except Exception as exc:
            err = exc
    if err is not None:
        loop.failed += 1
        if loop.failed <= 5:
            print(f"perfbench: op {op.kind} failed: {err!r}", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
    elif tracer.active and op.replay is not None and loop.replays[op.kind] < REPLAYS_PER_KIND:
        # replay right after the op, so both see the machine in the same state
        loop.replays[op.kind] += 1
        op.replay(tracer, out, first_span)


def run_loop(wl, maps, seconds: float, tracer, op_ids, cal: Calibrator,
             whole_round: bool = False) -> Loop:
    """Run rounds of ops until seconds pass (finishing the first round if whole_round).

    The reference kernel runs before every op and once after the last.
    """
    loop = Loop()
    deadline = time.perf_counter() + seconds
    for r in itertools.count():
        for op in wl.round(maps):
            cal.sample()
            if time.perf_counter() >= deadline and not (whole_round and r == 0):
                return loop
            run_op(op, tracer, loop, op_ids)


def print_kind_latencies(loop: Loop) -> None:
    """Per-kind op count and median latency, on stderr."""
    by_kind = defaultdict(list)
    for kind, dt in zip(loop.kinds, loop.latencies):
        by_kind[kind].append(dt)
    for kind, lat in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"perfbench: {kind:28s} n={len(lat):4d} median {statistics.median(lat) * 1e3:9.2f} ms",
              file=sys.stderr)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def scaled_latencies(loop: Loop, cal: Calibrator | None) -> list[float]:
    """Op times scaled to the reference kernel's speed (unscaled if cal is None)."""
    if cal is None:
        return loop.latencies
    return [(t1 - t0) * cal.factor(t0) for t0, t1 in loop.spans]


def end_to_end(loop: Loop, cli: bool, cal: Calibrator | None) -> dict:
    lat = scaled_latencies(loop, cal)
    return {
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]) * 1e3,
        "lane_steps_per_s": loop.lane_steps / sum(lat),
        "ops_per_s": (loop.attempted - loop.failed) / sum(lat),
        "peak_rss_mb": peak_rss_mb(children=cli),
    }


def import_s() -> float:
    """Median in-child time of a fresh `import twistlab.cli`."""
    code = ("import time; t = time.perf_counter(); import twistlab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(FRESH_STARTS):
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


# -- per-layer metrics ----------------------------------------------------------


class Spans:
    def __init__(self, spans: list[dict]) -> None:
        self.all = spans
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def named(self, name: str, **match) -> list[dict]:
        return [s for s in self.all if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def kids(self, s: dict, name: str) -> list[dict]:
        return [c for c in self.children[s["id"]] if c["name"] == name]


def _rate(spans: list[dict], work, scale: float) -> float | None:
    """Summed duration per unit of summed work, times scale."""
    total = sum(work(s) for s in spans)
    return sum(duration(s) for s in spans) / total * scale if spans and total else None


def _mean_ms(spans: list[dict]) -> float | None:
    return statistics.fmean(duration(s) for s in spans) * 1e3 if spans else None


def _ratio(spans: list[dict], num, den) -> float | None:
    total = sum(den(s) for s in spans)
    return sum(num(s) for s in spans) / total if spans and total else None


def _count(key: str):
    return lambda s: s["counts"].get(key, 0)


def _field(key: str):
    return lambda s: s[key]


def layer_metrics(sp: Spans, main_ops: int) -> dict:
    m: dict[str, float | None] = {}
    for box in ("island", "chaotic"):
        for method in ("apply_array", "jacobian_array"):
            m[f"maps.{method}.ns_per_elem.{box}"] = _rate(
                sp.named(f"maps.{method}", box=box), _field("elems"), 1e9)
        m[f"torsion.cocycle_scan.ns_per_lane_step.{box}"] = _rate(
            sp.named("torsion.cocycle_scan", box=box), lambda s: s["lanes"] * s["steps"], 1e9)
    for method in ("apply_scalar", "jacobian_scalar"):
        m[f"maps.{method}.ns_per_call"] = _rate(sp.named(f"maps.{method}"), _field("calls"), 1e9)

    top = [s for s in sp.all if s["phase"] == "main" and s["parent"] is None]
    op_counts = [s["counts"] for s in top]
    if any(s["name"].startswith("cli.") for s in top):
        # cli ops run in subprocesses: count their in-process replays instead
        per_cmd = {s["command"]: s["counts"] for s in sp.named("cli.inproc_counts")}
        op_counts = [per_cmd[s["command"]] for s in top]
    m["maps.scalar_calls_per_op"] = sum(
        c.get(k, 0) for c in op_counts for k in SCALAR_METHODS) / main_ops
    m["maps.array_elems_per_op"] = sum(
        c.get(f"{k}.elems", 0) for c in op_counts for k in ARRAY_METHODS) / main_ops

    self_ns, lane_steps = 0.0, 0
    for c in sp.named("torsion.cocycle_scan"):
        per_call = sum(statistics.fmean(duration(k) / k["elems"] for k in sp.kids(c, f"maps.{meth}"))
                       for meth in ARRAY_METHODS)
        self_ns += duration(c) - c["steps"] * c["lanes"] * per_call
        lane_steps += c["lanes"] * c["steps"]
    m["torsion.cocycle_scan.self_ns_per_lane_step"] = self_ns / lane_steps * 1e9 if lane_steps else None

    traces = sp.named("torsion.torsion_trace")
    m["torsion.torsion_trace.us_per_step"] = _rate(traces, _field("steps"), 1e6)
    replayed = [t for t in traces if sp.kids(t, "maps.apply_scalar")]
    self_s = sum(duration(t) - sum(duration(k) for k in sp.children[t["id"]]) for t in replayed)
    steps = sum(t["steps"] for t in replayed)
    m["torsion.torsion_trace.self_us_per_step"] = self_s / steps * 1e6 if steps else None
    m["torsion.linking_number.us_per_step"] = _rate(
        sp.named("torsion.linking_number"), _field("steps"), 1e6)
    m["torsion.jacobi_conjugate_oracle.us_per_step"] = _rate(
        sp.named("torsion.jacobi_conjugate_oracle"), _field("steps"), 1e6)
    reports = sp.named("torsion.conjugate_report")
    m["torsion.conjugate_report.ms"] = _mean_ms(reports)
    m["torsion.conjugate_report.walk_steps_per_detect_step"] = _ratio(
        reports, _count("jacobian_scalar"), _field("detect_step"))

    for name in ("flux", "psi_family", "classify_monotonicity"):
        m[f"curves.{name}.ms"] = _mean_ms(sp.named(f"curves.{name}"))
    m["curves.periodic_curve.map_evals_per_node"] = _ratio(
        sp.named("curves.psi_family"), _count("apply_scalar"), lambda s: s["curves"] * s["nodes"])
    for verdict in ("conjugate", "no_obstruction", "not_applicable"):
        m[f"curves.integrability_probe.ms.{verdict}"] = _mean_ms(
            sp.named("curves.integrability_probe", verdict=verdict))
    m["curves.integrability_probe.steps_per_witness_step"] = _ratio(
        sp.named("curves.integrability_probe", verdict="conjugate"),
        _count("jacobian_array"), _field("witness_time"))

    fields = [f for f in sp.named("stats.torsion_field") if sp.kids(f, "torsion.cocycle_scan")]
    m["stats.torsion_field.self_ms"] = statistics.fmean(
        duration(f) - duration(sp.kids(f, "torsion.cocycle_scan")[0]) for f in fields
    ) * 1e3 if fields else None
    for name in ("write_scan_csv", "read_scan_csv"):
        m[f"stats.{name}.us_per_record"] = _rate(sp.named(f"stats.{name}"), _field("records"), 1e6)
    returns = sp.named("stats.first_return_torsion")
    m["stats.first_return_torsion.ms"] = _mean_ms(returns)
    m["stats.first_return_torsion.walk_steps_per_return_step"] = _ratio(
        returns, _count("jacobian_scalar"), _field("return_steps"))

    bare = statistics.median(duration(s) for s in sp.named("python.bare_start"))
    inproc = {s["command"]: duration(s) for s in sp.named("cli.inproc")}
    selfs = []
    for sub in CLI_SUBCOMMANDS:
        runs = sp.named(f"cli.{sub}")
        m[f"cli.{sub}.s"] = _mean_ms(runs) / 1e3 if runs else None
        selfs += [duration(s) - bare - inproc[s["command"]] for s in runs]
    m["cli.self_s"] = statistics.fmean(selfs) if selfs else None
    return m


def cli_inproc(cli_wl, maps, counting, tracer, cal: Calibrator) -> None:
    """Time and count each cli command's API call in-process, and a bare start.

    cli.self_s subtracts both from the command's wall time.
    """
    firsts = {}
    for s in tracer.spans:
        if s["name"].startswith("cli.") and "command" in s:
            firsts.setdefault(s["command"], s["id"])
    for idx, span_id in firsts.items():
        cal.sample()
        with tracer.span("cli.inproc", parent=span_id, command=idx):
            expected_fields(cli_wl.commands[idx], maps)
        with tracer.span("cli.inproc_counts", parent=span_id, command=idx):
            expected_fields(cli_wl.commands[idx], counting)
    for _ in range(FRESH_STARTS):
        cal.sample()
        with tracer.span("python.bare_start"):
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    cal.sample()


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SPECS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--role", required=True, choices=("setup", "run"))
    p.add_argument("--toy", action="store_true")
    args = p.parse_args(argv)

    if args.workload == "cli":
        import twistlab.cli  # noqa: F401  (part of the cli workload's set-up)
    workdir = BENCH_DIR / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    maps = {spec: tl.parse_map_spec(spec) for spec in SPECS[args.workload]}
    first_check_s = None
    for m in maps.values():
        t0 = time.perf_counter()
        report = tl.twist_check(m)
        if first_check_s is None:
            first_check_s = time.perf_counter() - t0
        if not report.ok:
            raise SystemExit(f"perfbench: twist_check failed for {m.to_spec()}")
    rng = np.random.default_rng(args.seed)
    wl = make_workload(args.workload, rng, args.toy, maps, workdir)
    warm, op_ids = Loop(), itertools.count()
    run_op(wl.warmup(maps), NullTracer(), warm, op_ids)
    if warm.failed:
        return 1
    print("READY " + json.dumps({"twist_check_first_s": first_check_s}), flush=True)
    if args.role == "setup":
        return 0

    cli = args.workload == "cli"
    cal = Calibrator(CALIBRATION[args.workload])
    if not args.trace:
        loop = run_loop(wl, maps, args.seconds, NullTracer(), op_ids, cal)
        metrics = end_to_end(loop, cli, cal)
        print_kind_latencies(loop)
        raw = end_to_end(loop, cli, None)
        print("perfbench: unscaled " + ", ".join(f"{k} {v:.5g}" for k, v in raw.items()),
              file=sys.stderr)
        result = {"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
        print(json.dumps(result), flush=True)
        return 0

    untraced = run_loop(wl, maps, TRACE_SHARE * args.seconds, NullTracer(), op_ids, cal)
    tracer = Tracer()
    counting = {spec: CountingMap(m, tracer.counts) for spec, m in maps.items()}
    traced = run_loop(wl, counting, TRACE_SHARE * args.seconds, tracer, op_ids, cal,
                      whole_round=True)

    # one traced round of every other workload, so each layer metric has data
    tracer.phase = "coverage"
    all_specs = sorted({s for specs in SPECS.values() for s in specs})
    all_maps = {spec: tl.parse_map_spec(spec) for spec in all_specs}
    all_counting = {spec: CountingMap(m, tracer.counts) for spec, m in all_maps.items()}
    cli_wl = wl if cli else None
    failed = untraced.failed + traced.failed
    for i, name in enumerate(SPECS):
        if name == args.workload:
            continue
        other = make_workload(name, np.random.default_rng([args.seed, i]), args.toy,
                              all_maps, workdir)
        cli_wl = other if name == "cli" else cli_wl
        failed += run_loop(other, all_counting, 0.0, tracer, op_ids, cal, whole_round=True).failed
    cli_inproc(cli_wl, all_maps, all_counting, tracer, cal)

    tracer.scale(cal)
    metrics = layer_metrics(Spans(tracer.spans), traced.attempted)
    metrics["cli.import_s"] = import_s()
    rates = [len(loop.latencies) / sum(scaled_latencies(loop, cal)) for loop in (untraced, traced)]
    metrics["trace.ops_per_s_ratio"] = rates[1] / rates[0]
    tracer.write(BENCH_DIR / "_out" / f"spans-{args.workload}-{args.seed}.json")
    print(f"perfbench: untraced {rates[0]:.4g} op/s, traced {rates[1]:.4g} op/s (scaled)",
          file=sys.stderr)
    attempted = untraced.attempted + traced.attempted
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
