"""The three benchmark workloads: op mixes, seeded inputs and output checks.

Each workload is a closed loop of ops: one client, one process, and the
next op starts when the previous one returns.  Ops are built a round at a
time; a round holds every op kind of the workload once, in an order drawn
from the workload seed.  The latency tiers of a round are sized so that
the median and p90 fall inside a block of ops of similar cost, not on the
edge between two tiers, which keeps both percentiles steady across seeds.

Checks compare against numbers that survive last-bit changes of the
kernels (closed forms, bounds, identities, cross-checks between
detectors, bit-exact CSV round-trips of the program's own output); they
never compare digests of chaotic outputs.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import twistlab as tl
from twistlab.stats import sample_points

from tracing import plain

ISLAND_BOX = (-0.1, 0.1, -0.1, 0.1)
CHAOTIC_BOX = (0.0, 1.0, -0.5, 0.5)
RATIONALS = ("-1", "-1/2", "-1/3", "0", "1/3", "1/2", "1")

SPECS = {
    "scan": ("std:k=1", "std:k=1.5"),
    "analysis": ("std:k=1", "std:k=1.5", "std:k=0", "drift:c=0.25", "shear"),
    "cli": ("std:k=1", "std:k=1.5", "std:k=0", "drift:c=0.25", "shear"),
}


class CheckError(AssertionError):
    """An op returned, but its output failed the benchmark's check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


@dataclass
class Op:
    kind: str
    run: Callable  # run(tracer) -> output; the timed part
    check: Callable  # check(output); raises CheckError
    lane_steps: int = 0
    replay: Callable | None = None  # replay(tracer, output, span_id)


# -- scan ---------------------------------------------------------------------

SCAN_SIZES = {
    # box label -> (grid side, horizon, torsion_field horizon); lanes = side**2
    False: {"island": (62, 350, 350), "chaotic": (48, 350, 700)},
    True: {"island": (8, 40, 40), "chaotic": (8, 40, 80)},
}


class ScanWorkload:
    """Ensemble scans through stats, on an island box and a chaotic box.

    Why: nearly all time is in maps.*_array and torsion.cocycle_scan, so
    vectorised-kernel changes show here; scalar kernels, root solvers and
    early stops are bypassed, so those changes must not move it.

    The island box has more lanes than the chaotic one so that both cost
    about the same per op.  The two chaotic torsion_field ops run twice
    the horizon (lifted |x| grows further, which slows np.fmod) and form
    the top quarter of a round, where p90 falls.
    """

    name = "scan"

    def __init__(self, rng, toy: bool) -> None:
        self.rng = rng
        self.sizes = SCAN_SIZES[toy]

    def _cfg(self, label: str, monte_carlo: bool, field: bool = False) -> tl.ScanConfig:
        side, horizon, field_horizon = self.sizes[label]
        if field:
            horizon = field_horizon
        box = ISLAND_BOX if label == "island" else CHAOTIC_BOX
        if monte_carlo:
            mode = tl.MonteCarloMode(side * side, int(self.rng.integers(2**31)))
        else:
            mode = tl.GridMode(side, side)
        return tl.ScanConfig(box=box, mode=mode, horizon=horizon)

    def round(self, maps) -> list[Op]:
        ops = []
        for label, spec in (("island", "std:k=1"), ("chaotic", "std:k=1.5")):
            m = maps[spec]
            ops.append(self._field_op(m, label, self._cfg(label, False, field=True), "grid"))
            ops.append(self._field_op(m, label, self._cfg(label, True, field=True), "mc"))
            ops.append(self._measure_op(m, label, self._cfg(label, True)))
            ops.append(self._integral_op(m, label, self._cfg(label, True)))
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def warmup(self, maps) -> Op:
        return self._field_op(maps["std:k=1"], "island", self._cfg("island", False, field=True),
                              "grid")

    def _field_op(self, m, label, cfg, mode) -> Op:
        lanes, n = cfg.mode.count, cfg.horizon
        picks = self.rng.choice(lanes, size=3, replace=False)

        def run(tr):
            with tr.span("stats.torsion_field", box=label, lanes=lanes, steps=n):
                res = tl.torsion_field(m, cfg)
            buf = io.StringIO()
            with tr.span("stats.write_scan_csv", records=lanes):
                tl.write_scan_csv(res, buf)
            text = buf.getvalue()
            with tr.span("stats.read_scan_csv", records=lanes):
                cols, meta = tl.read_scan_csv(io.StringIO(text))
            return res, text, cols, meta

        def check(out):
            res, text, cols, meta = out
            require(bool(res.valid.all()), "invalid lanes in a positive-twist scan")
            oc = np.where(res.overconj_time < 0, -1, res.overconj_time)
            for key, want in (("x", res.x), ("y", res.y), ("torsion", res.torsion),
                              ("rotation", res.rotation), ("overconj_time", oc)):
                require(np.array_equal(cols[key], want, equal_nan=True),
                        f"CSV column {key} does not round-trip bit-exactly")
            require(meta["map"] == m.to_spec(), "CSV map metadata")
            require(tl.summarize_csv(io.StringIO(text)) == res.summary,
                    "summarize_csv differs from summary")
            t = res.torsion
            require(bool(np.all((t >= -0.5) & (t <= 0.0))), "vertical-start torsion outside [-1/2, 0]")
            if label == "island":
                require(res.summary.fraction_negative >= 0.99, "island fraction_negative < 0.99")
                for i in picks:
                    ref = tl.torsion_trace(plain(m), (res.x[i], res.y[i]), n=n).torsion
                    require(close(ref, t[i], 1e-9), f"lane {i} differs from scalar torsion_trace")

        def replay(tr, out, parent):
            res = out[0]
            pm = plain(m)
            xs, ys = sample_points(cfg)
            with tr.span("torsion.cocycle_scan", parent=parent, box=label, lanes=lanes, steps=n):
                scan = tl.cocycle_scan(pm, xs, ys, n)
            rid = tr.spans[-1]["id"]
            replay_array_kernels(tr, pm, label, rid, ((xs, ys), (scan.final_x, scan.final_y)))

        return Op(f"field.{mode}.{label}", run, check, lanes * n, replay)

    def _measure_op(self, m, label, cfg) -> Op:
        lanes = cfg.mode.count

        def run(tr):
            with tr.span("stats.island_measure", box=label, lanes=lanes, steps=cfg.horizon):
                return tl.island_measure(m, cfg)

        def check(est):
            require(est.count == lanes, "measure count differs from lanes")
            require(0.0 <= est.fraction_negative <= est.fraction_nonzero <= 1.0, "measure fractions")
            if label == "island":
                require(est.fraction_negative >= 0.99, "island fraction_negative < 0.99")
                require(est.fraction_negative > 5.0 * est.stderr, "island fraction within 5 stderr")

        return Op(f"measure.{label}", run, check, lanes * cfg.horizon)

    def _integral_op(self, m, label, cfg) -> Op:
        lanes = cfg.mode.count

        def run(tr):
            with tr.span("stats.torsion_integral", box=label, lanes=lanes, steps=cfg.horizon):
                return tl.torsion_integral(m, cfg)

        def check(est):
            require(est.count == lanes, "integral count differs from lanes")
            require(-0.5 * cfg.area <= est.value <= 0.0, "integral outside [-area/2, 0]")
            if label == "island":
                require(est.value < -3.0 * est.stderr, "island integral not negative")

        return Op(f"integral.{label}", run, check, lanes * cfg.horizon)


ARRAY_REPEATS = 5


def replay_array_kernels(tr, m, label, parent, states) -> None:
    """Time apply_array/jacobian_array on a scan's start and final states."""
    for x, y in states:
        for method in ("apply_array", "jacobian_array"):
            fn = getattr(m, method)
            with tr.span(f"maps.{method}", parent=parent, box=label, elems=x.size * ARRAY_REPEATS):
                for _ in range(ARRAY_REPEATS):
                    fn(x, y)


# -- analysis -----------------------------------------------------------------

ANALYSIS_SIZES = {
    False: dict(trace=15_000, conj=2_000, conj_full=10_000, report_full=50_000,
                linking=20_000, rotation=80_000, kac_cap=5_000, classify=2_000,
                res=256, probe_k0=((16, 16), 200), probe_k15=((32, 32), 1000)),
    True: dict(trace=300, conj=100, conj_full=200, report_full=300,
               linking=200, rotation=300, kac_cap=500, classify=50,
               res=16, probe_k0=((4, 4), 20), probe_k15=((4, 4), 20)),
}


class AnalysisWorkload:
    """An interactive session of single-orbit and structure calls.

    Why: most time is per-step Python in maps.*_scalar, torsion and the
    curves root solver, plus small cocycle scans whose answer is known
    early; scalar-kernel, root-solver and early-stop changes show here.

    Tiers per round of 19 ops (measured on a 2-vCPU Xeon): 7 cheap ops
    under 20 ms, 6 scalar walks near 40 ms (the median falls here), 2
    curve-family ops near 120 ms and 4 ops near 280 ms (p90 falls here).
    """

    name = "analysis"

    def __init__(self, rng, toy: bool) -> None:
        self.rng = rng
        self.s = ANALYSIS_SIZES[toy]

    def _near(self, r: float, cx: float = 0.0, cy: float = 0.0) -> tuple[float, float]:
        return (cx + float(self.rng.uniform(-r, r)), cy + float(self.rng.uniform(-r, r)))

    def _anywhere(self) -> tuple[float, float]:
        return (float(self.rng.uniform(0, 1)), float(self.rng.uniform(-0.5, 0.5)))

    def warmup(self, maps) -> Op:
        return self._trace_island(maps["std:k=1"])

    def round(self, maps) -> list[Op]:
        k1, k15, k0 = maps["std:k=1"], maps["std:k=1.5"], maps["std:k=0"]
        dr, sh = maps["drift:c=0.25"], maps["shear"]
        s = self.s
        ops = [
            self._trace_island(k1),
            self._trace_shear(sh),
            self._asymptotic(k1),
            self._conjugate(k1, "k1", s["conj"]),
            self._conjugate(k15, "k15", s["conj"]),
            self._conjugate_full(k0),
            self._report_full(k0),
            self._linking(k1),
            self._rotation(k1),
            self._first_return(k1, 1),
            self._first_return(k1, 5),
            self._kac(k1),
            self._classify(k0),
            self._flux(dr),
            self._region(dr),
            self._psi_family(k0),
            self._probe(k0, "no_obstruction", *s["probe_k0"]),
            self._probe(k15, "conjugate", *s["probe_k15"]),
            self._probe(dr, "not_applicable", *s["probe_k15"]),
        ]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def _trace_island(self, m) -> Op:
        p, n = self._near(0.05), self.s["trace"]

        def run(tr):
            with tr.span("torsion.torsion_trace", steps=n):
                return tl.torsion_trace(m, p, n=n)

        def check(trace):
            # island orbits around the elliptic origin turn at about -1/6
            require(abs(trace.torsion + 1.0 / 6.0) < 0.02, "island torsion far from -1/6")

        return Op("torsion_trace.island", run, check, n, _scalar_kernel_replay(m))

    def _trace_shear(self, m) -> Op:
        p, n = self._anywhere(), self.s["trace"]

        def run(tr):
            with tr.span("torsion.torsion_trace", steps=n):
                return tl.torsion_trace(m, p, n=n)

        def check(trace):
            want = -math.atan(n) / (2.0 * math.pi * n)
            require(close(trace.torsion, want, 1e-9), "shear torsion differs from -atan(n)/(2 pi n)")

        return Op("torsion_trace.shear", run, check, n, _scalar_kernel_replay(m))

    def _asymptotic(self, m) -> Op:
        p, n = self._near(0.005), self.s["trace"]

        def run(tr):
            with tr.span("torsion.asymptotic_torsion", steps=n):
                return tl.asymptotic_torsion(m, p, horizon=n)

        def check(est):
            require(abs(est.value + 1.0 / 6.0) < 1e-3, "torsion near the origin is not -1/6")

        return Op("asymptotic_torsion", run, check, n)

    def _conjugate(self, m, label, horizon) -> Op:
        p = self._anywhere()

        def run(tr):
            with tr.span("torsion.detect_conjugate", steps=horizon):
                hit = tl.detect_conjugate(m, p, horizon)
            with tr.span("torsion.jacobi_conjugate_oracle") as sp:
                oracle = tl.jacobi_conjugate_oracle(m, p, horizon)
                sp["steps"] = horizon if oracle is None else oracle
            with tr.span("torsion.conjugate_report", horizon=horizon) as sp:
                report = tl.conjugate_report(m, p, horizon)
                sp["detect_step"] = _detect_step(report)
            return hit, oracle, report

        def check(out):
            hit, oracle, report = out
            if hit is None or oracle is None:
                require(hit is None and oracle is None, "detector and Jacobi oracle disagree on a hit")
            else:
                require(abs(hit[0] - oracle) <= 1, "detector and Jacobi oracle differ by > 1 step")
            require(report.first_conjugate == hit, "conjugate_report differs from detect_conjugate")

        return Op(f"conjugate.{label}", run, check, 3 * horizon)

    def _conjugate_full(self, m) -> Op:
        # std:k=0 has no conjugate points: both walkers run the full horizon
        p, horizon = self._anywhere(), self.s["conj_full"]

        def run(tr):
            with tr.span("torsion.detect_conjugate", steps=horizon):
                hit = tl.detect_conjugate(m, p, horizon)
            with tr.span("torsion.jacobi_conjugate_oracle") as sp:
                oracle = tl.jacobi_conjugate_oracle(m, p, horizon)
                sp["steps"] = horizon if oracle is None else oracle
            return hit, oracle

        def check(out):
            require(out == (None, None), "conjugate point found for std:k=0")

        return Op("conjugate.full", run, check, 2 * horizon)

    def _report_full(self, m) -> Op:
        p, horizon = self._anywhere(), self.s["report_full"]

        def run(tr):
            with tr.span("torsion.conjugate_report", horizon=horizon) as sp:
                report = tl.conjugate_report(m, p, horizon)
                sp["detect_step"] = _detect_step(report)
            return report

        def check(report):
            require(report.first_conjugate is None and report.first_overconjugate is None,
                    "conjugate_report found a point for std:k=0")

        return Op("conjugate_report.full", run, check, horizon)

    def _linking(self, m) -> Op:
        p, n = self._near(0.05), self.s["linking"]
        q = (p[0] + float(self.rng.uniform(0.005, 0.02)), p[1] + float(self.rng.uniform(-0.01, 0.01)))

        def run(tr):
            with tr.span("torsion.linking_number", steps=n):
                return tl.linking_number(m, p, q, n)

        def check(est):
            require(not est.near_half_turn, "linking step near half a turn")
            require(abs(est.value + 1.0 / 6.0) < 0.02, "island linking far from -1/6")

        return Op("linking_number", run, check, 2 * n)

    def _rotation(self, m) -> Op:
        p, n = self._near(0.05), self.s["rotation"]

        def run(tr):
            with tr.span("curves.rotation_number", steps=n):
                return tl.rotation_number(m, p, n)

        def check(est):
            # the orbit stays in the island around x = 0
            require(abs(est.value) <= 0.5 / n, "island rotation number is not 0")

        return Op("rotation_number", run, check, n)

    def _first_return(self, m, returns) -> Op:
        window = (-0.05, 0.05, -0.05, 0.05)
        p = self._near(0.02)

        def run(tr):
            with tr.span("stats.first_return_torsion", returns=returns) as sp:
                rep = tl.first_return_torsion(m, window, p, returns=returns)
                sp["return_steps"] = rep.total_steps
            return rep

        return Op(f"first_return.r{returns}", run, _check_return, 100_000)

    def _kac(self, m) -> Op:
        half, cap = 0.08, self.s["kac_cap"]
        c = self._near(0.1)
        window = (c[0] - half, c[0] + half, c[1] - half, c[1] + half)
        p = self._near(half / 2, *c)

        def run(tr):
            with tr.span("stats.first_return_torsion", returns=1) as sp:
                rep = tl.first_return_torsion(m, window, p, returns=1, cap=cap)
                sp["return_steps"] = rep.total_steps
            return rep

        return Op("first_return.kac", run, _check_return, cap)

    def _classify(self, m) -> Op:
        x, y = float(self.rng.uniform(0, 1)), float(self.rng.choice([-1, 1]) * self.rng.uniform(0.05, 0.5))
        n = self.s["classify"]

        def run(tr):
            with tr.span("curves.classify_monotonicity", steps=n):
                return tl.classify_monotonicity(m, (x, y), n)

        def check(label):
            require(label == "monotone", f"std:k=0 orbit classified {label!r}")

        return Op("classify_monotonicity", run, check, 4 * n)

    def _flux(self, m) -> Op:
        res = self.s["res"]

        def run(tr):
            with tr.span("curves.flux", nodes=res):
                return tl.flux(m, res)

        def check(value):
            require(close(value, m.params[0], 1e-8), "drift flux differs from c")

        return Op("flux.drift", run, check)

    def _region(self, m) -> Op:
        res, x = self.s["res"], float(self.rng.uniform(0, 1))
        c = m.params[0]

        def run(tr):
            with tr.span("curves.region_x", nodes=res):
                return tl.region_x(m, "minus", res)

        def check(region):
            require(region.contains((x, 0.5 * c)), "drift minus region misses y = c/2")
            require(not region.contains((x, c + 0.1)), "drift minus region contains y = c + 0.1")

        return Op("region_x.drift", run, check)

    def _psi_family(self, m) -> Op:
        res = self.s["res"]

        def run(tr):
            with tr.span("curves.psi_family", curves=len(RATIONALS), nodes=res):
                return tl.psi_family(m, RATIONALS, res)

        def check(fam):
            require(fam.max_root_residual <= tl.curves.ROOT_TOL, "psi family residual above tol")
            require(fam.monotone_ok and fam.all_fixed_ok, "psi family not ordered or not fixed")

        return Op("psi_family.k0", run, check)

    def _probe(self, m, verdict, grid, horizon) -> Op:
        def run(tr):
            with tr.span("curves.integrability_probe", verdict=verdict, horizon=horizon) as sp:
                rep = tl.integrability_probe(m, grid=grid, y_range=(-2.0, 2.0), horizon=horizon,
                                             rationals=RATIONALS)
                sp["witness_time"] = rep.witness_time
            return rep

        def check(rep):
            if verdict == "no_obstruction":
                require(rep.verdict == tl.VERDICT_NO_OBSTRUCTION, f"std:k=0 probe gave {rep.verdict}")
                require(rep.family.monotone_ok and rep.family.max_root_residual < 1e-8,
                        "probe family not certified")
            elif verdict == "conjugate":
                require(rep.verdict == tl.VERDICT_CONJUGATE, f"std:k=1.5 probe gave {rep.verdict}")
                require(rep.witness_time is not None and rep.witness_time <= 10, "late witness")
            else:
                require(rep.verdict == tl.VERDICT_NOT_APPLICABLE, f"drift probe gave {rep.verdict}")
                require(close(rep.flux, m.params[0], 1e-8), "drift probe flux differs from c")

        return Op(f"probe.{verdict}", run, check, grid[0] * grid[1] * horizon)


def _scalar_kernel_replay(m):
    """Replay apply_scalar/jacobian_scalar along a torsion trace's points."""

    def replay(tr, trace, parent):
        pm = plain(m)
        pts = [(float(x), float(y)) for x, y in trace.points[:-1]]
        for method in ("apply_scalar", "jacobian_scalar"):
            fn = getattr(pm, method)
            with tr.span(f"maps.{method}", parent=parent, calls=len(pts)):
                for x, y in pts:
                    fn(x, y)

    return replay


def _detect_step(report) -> int:
    """The step by which both detectors' answers are known."""
    h = report.horizon
    conj = report.first_conjugate[0] if report.first_conjugate else h
    over = report.first_overconjugate if report.first_overconjugate is not None else h
    return max(conj, over)


def _check_return(rep) -> None:
    require(rep.complete, "first return incomplete within the cap")
    require(rep.identity_gap <= 1e-12 * rep.total_steps, "return-sum identity gap")


# -- cli ----------------------------------------------------------------------

def _num(x: float) -> str:
    return f"{x:.6f}"


class CliWorkload:
    """The README's twistlab commands as fresh subprocesses.

    Why: interpreter start, imports, argparse and output formatting are
    most of each command's time, which the in-process workloads pay once.
    Five of the twelve commands write --out files and the rest print only
    to stdout, so a gain for one use cannot hide a cost in the other.

    The twelve commands of a run are drawn from the seed once and then
    repeated in a freshly shuffled order each round, so each command's
    in-process reference result is computed once per run.
    """

    name = "cli"

    def __init__(self, rng, toy: bool, workdir: Path, env: dict, maps) -> None:
        self.rng = rng
        self.workdir = workdir
        self.env = env
        self.maps = {spec: plain(m) for spec, m in maps.items()}
        self.commands = self._commands(toy)
        self.refs: dict[int, dict] = {}

    def _commands(self, toy: bool) -> list[list[str]]:
        r = self.rng
        ix, iy = (_num(v) for v in r.uniform(-0.05, 0.05, size=2))
        rx, ry = (_num(v) for v in r.uniform(-0.02, 0.02, size=2))
        cx, cy = (_num(v) for v in r.uniform(-0.05, 0.05, size=2))
        shear_y = _num(r.uniform(-1, 1))
        link_y = _num(r.uniform(0.1, 0.9))
        seed = str(int(r.integers(2**31)))
        samples, mn = ("50", "20") if toy else ("2000", "1000")
        fgrid, fn = ("4x4", "20") if toy else ("32x32", "300")
        pgrid, ph = ("4x4", "20") if toy else ("32x32", "100")
        psi_res = "16" if toy else "128"
        island = "-0.1,0.1,-0.1,0.1"
        return [
            ["trace", "--map", "std:k=1", "--point", f"{ix},{iy}", "--n", "1000", "--out", "trace.csv"],
            ["field", "--map", "std:k=1", "--box", island, "--grid", fgrid, "--n", fn, "--out", "field.svg"],
            ["measure", "--map", "std:k=1", "--box", island, "--samples", samples, "--n", mn,
             "--seed", seed, "--out", "measure.csv"],
            ["flux", "--map", "drift:c=0.25", "--res", "256"],
            ["psi", "--map", "shear", "--rho", "-1/2,0,1/3", "--res", psi_res, "--out", "psi.csv"],
            ["probe", "--map", "std:k=1.5", "--grid", pgrid, "--yrange", "-2,2", "--horizon", ph],
            ["probe", "--map", "std:k=0", "--grid", pgrid, "--yrange", "-2,2", "--horizon", ph,
             "--out", "probe.csv"],
            ["probe", "--map", "drift:c=0.25", "--grid", pgrid, "--yrange", "-2,2", "--horizon", ph],
            ["rotation", "--map", "shear", "--point", f"0,{shear_y}", "--n", "1000"],
            ["classify", "--map", "std:k=1", "--point", f"{cx},{cy}", "--n", "50"],
            ["linking", "--map", "shear", "--point", "0,0", "--point2", f"0,{link_y}", "--n", "100"],
            ["return-check", "--map", "std:k=1", "--window", "-0.05,0.05,-0.05,0.05",
             "--point", f"{rx},{ry}", "--returns", "5"],
        ]

    def warmup(self, maps) -> Op:
        return self._op(3, maps)

    def round(self, maps) -> list[Op]:
        return [self._op(int(i), maps) for i in self.rng.permutation(len(self.commands))]

    def run_command(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "twistlab.cli", *argv], cwd=self.workdir,
                              env=self.env, capture_output=True, text=True, timeout=120)

    def reference(self, idx: int) -> dict:
        """Expected printed fields of a command, computed once per run."""
        if idx not in self.refs:
            self.refs[idx] = expected_fields(self.commands[idx], self.maps)
        return self.refs[idx]

    def _op(self, idx: int, maps) -> Op:
        argv = self.commands[idx]
        sub = argv[0]

        def run(tr):
            with tr.span(f"cli.{sub}", command=idx):
                proc = self.run_command(argv)
            return proc

        def check(proc):
            require(proc.returncode == 0, f"{sub} exited {proc.returncode}: {proc.stderr.strip()}")
            printed = parse_block(proc.stdout)
            want = self.reference(idx)
            for key, val in want.items():
                require(key in printed, f"{sub} did not print {key}")
                if isinstance(val, float):
                    require(math.isclose(float(printed[key]), val, rel_tol=1e-9, abs_tol=1e-12),
                            f"{sub} printed {key} = {printed[key]}, API gives {val!r}")
                else:
                    require(printed[key] == str(val), f"{sub} printed {key} = {printed[key]}, API gives {val}")
            if "--out" in argv:
                check_out_file(argv, self.workdir / argv[argv.index("--out") + 1], printed)

        return Op(f"cli.{sub}", run, check, _command_lane_steps(argv))


def _flag(argv, name, cast=str):
    return cast(argv[argv.index(name) + 1])


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _grid(text: str) -> tuple[int, int]:
    nx, ny = text.split("x")
    return int(nx), int(ny)


def _command_lane_steps(argv) -> int:
    """Orbit lane-steps a command asks for (0 for curve-only commands)."""
    sub = argv[0]
    if sub in ("trace", "rotation"):
        return _flag(argv, "--n", int)
    if sub in ("classify", "linking"):
        return 2 * _flag(argv, "--n", int)
    if sub == "field":
        nx, ny = _grid(_flag(argv, "--grid"))
        return nx * ny * _flag(argv, "--n", int)
    if sub == "measure":
        return _flag(argv, "--samples", int) * _flag(argv, "--n", int)
    if sub == "probe":
        nx, ny = _grid(_flag(argv, "--grid"))
        return nx * ny * _flag(argv, "--horizon", int)
    if sub == "return-check":
        return 100_000
    return 0


def _summary_fields(est) -> dict:
    return {"fraction_negative": est.fraction_negative, "fraction_nonzero": est.fraction_nonzero,
            "mean_torsion": est.mean_torsion, "stderr": est.stderr, "count": est.count}


def expected_fields(argv, maps) -> dict:
    """The fields a command prints, computed by the same API calls in-process."""
    sub, m = argv[0], maps[_flag(argv, "--map")]
    if sub == "trace":
        point, n = _floats(_flag(argv, "--point")), _flag(argv, "--n", int)
        oc = tl.detect_overconjugate(m, point, n)
        return {"torsion": tl.torsion_trace(m, point, (0.0, 1.0), n).torsion,
                "first_overconjugate": "none" if oc is None else oc, "n": n}
    if sub in ("field", "measure"):
        box, n = _floats(_flag(argv, "--box")), _flag(argv, "--n", int)
        if sub == "field":
            mode = tl.GridMode(*_grid(_flag(argv, "--grid")))
        else:
            mode = tl.MonteCarloMode(_flag(argv, "--samples", int), _flag(argv, "--seed", int))
        cfg = tl.ScanConfig(box=box, mode=mode, horizon=n)
        return _summary_fields(tl.torsion_field(m, cfg).summary)
    if sub == "flux":
        return {"flux": tl.flux(m, _flag(argv, "--res", int))}
    if sub == "psi":
        rhos = sorted(Fraction(v) for v in _flag(argv, "--rho").split(","))
        fam = tl.psi_family(m, rhos, resolution=_flag(argv, "--res", int))
        return {"rhos": ",".join(str(r) for r in fam.rotation_numbers),
                "max_root_residual": fam.max_root_residual,
                "all_fixed_ok": fam.all_fixed_ok, "monotone_ok": fam.monotone_ok}
    if sub == "probe":
        lo, hi = _floats(_flag(argv, "--yrange"))
        rep = tl.integrability_probe(m, grid=_grid(_flag(argv, "--grid")), y_range=(lo, hi),
                                     horizon=_flag(argv, "--horizon", int),
                                     rationals=sorted(Fraction(v) for v in RATIONALS))
        out = {"verdict": rep.verdict, "flux": rep.flux}
        if rep.witness is not None:
            out.update(witness=",".join(repr(v) for v in rep.witness), witness_time=rep.witness_time)
        if rep.family is not None:
            out.update(max_root_residual=rep.family.max_root_residual,
                       monotone_ok=rep.family.monotone_ok)
        return out
    if sub == "rotation":
        est = tl.rotation_number(m, _floats(_flag(argv, "--point")), _flag(argv, "--n", int))
        return {"rotation": est.value, "n": est.horizon}
    if sub == "classify":
        return {"classification": tl.classify_monotonicity(
            m, _floats(_flag(argv, "--point")), _flag(argv, "--n", int))}
    if sub == "linking":
        est = tl.linking_number(m, _floats(_flag(argv, "--point")), _floats(_flag(argv, "--point2")),
                                _flag(argv, "--n", int))
        return {"linking": est.value, "near_half_turn": est.near_half_turn, "n": est.n}
    if sub == "return-check":
        rep = tl.first_return_torsion(m, _floats(_flag(argv, "--window")),
                                      _floats(_flag(argv, "--point")),
                                      returns=_flag(argv, "--returns", int))
        return {"returns_found": rep.returns_found,
                "return_times": ",".join(str(t) for t in rep.return_times),
                "total_steps": rep.total_steps, "complete": rep.complete,
                "torsion_ratio": rep.torsion_ratio, "torsion_direct": rep.torsion_direct,
                "identity_gap": rep.identity_gap}
    raise ValueError(f"no reference for {sub}")


def parse_block(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key] = val
    return out


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    require(lines and lines[0] == header, f"{path.name}: header is not {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def check_out_file(argv, path: Path, printed: dict) -> None:
    """An --out file parses and agrees with what the command printed."""
    sub = argv[0]
    require(path.is_file(), f"{sub} wrote no {path.name}")
    if sub == "trace":
        rows = _csv_rows(path, "step,x,y,delta,cumulative")
        n = _flag(argv, "--n", int)
        require(len(rows) == n + 1, "trace CSV row count")
        require(math.isclose(float(rows[-1][4]) / n, float(printed["torsion"]), rel_tol=1e-12),
                "trace CSV cumulative disagrees with printed torsion")
    elif sub == "field":
        root = ET.fromstring(path.read_text())
        nx, ny = _grid(_flag(argv, "--grid"))
        rects = [el for el in root if el.tag.endswith("rect")]
        require(len(rects) == nx * ny + 3, "field SVG cell count")
    elif sub == "measure":
        cols, meta = tl.read_scan_csv(path)
        require(len(cols["x"]) == _flag(argv, "--samples", int), "measure CSV record count")
        est = tl.summarize_csv(path)
        require(math.isclose(est.fraction_negative, float(printed["fraction_negative"]), rel_tol=1e-12),
                "measure CSV summary disagrees with printed summary")
    else:  # psi and probe write the curves CSV
        rows = _csv_rows(path, "x,y,residual,label")
        res = _flag(argv, "--res", int) if sub == "psi" else 256
        ncurves = len(_flag(argv, "--rho").split(",")) if sub == "psi" else len(RATIONALS)
        require(len(rows) == res * ncurves, f"{sub} CSV row count")
        require(all(float(r[2]) <= tl.curves.ROOT_TOL for r in rows), f"{sub} CSV residual above tol")
