"""Command-line front end.

Thin shell over the engine modules: every printed number is produced by
an engine call, the shell only parses flags, dispatches, and formats.
Exit status is 0 on success, 2 on a usage error (bad flags, unknown map
family, unwritable output path; all checked before any computation), and
1 when the engine raises.

Floats are emitted with repr everywhere so that output files and printed
summaries are byte-deterministic and round-trip exactly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import curves as _curves
from . import stats as _stats
from .errors import TwistLabError
from .maps import LiftedMap, parse_map_spec
from .torsion import _as_dir, detect_overconjugate, linking_number, torsion_trace
from .curves import (
    PeriodicCurve,
    classify_monotonicity,
    integrability_probe,
    psi_family,
    rotation_number,
    write_curves_csv,
)
from .stats import (
    GridMode,
    MonteCarloMode,
    ScanConfig,
    ScanResult,
    island_measure,
    first_return_torsion,
    torsion_field,
    write_scan_csv,
)

HEATMAP_CELL_PX = 8
HEATMAP_PAD_PX = 12


# -- flag value parsers -------------------------------------------------------


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} needs finite numbers, got {text!r}")
    return values


def _parse_point(text: str) -> tuple[float, float]:
    return _parse_floats(text, 2, "--point")


def _parse_box(text: str, what: str = "--box") -> tuple[float, float, float, float]:
    return _parse_floats(text, 4, what)


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--grid must look like 64x64, got {text!r}")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"could not parse --grid {text!r}") from None
    if nx < 1 or ny < 1:
        raise ValueError("--grid dimensions must be >= 1")
    return nx, ny


def _parse_rhos(text: str) -> list[Fraction]:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"could not parse rotation number {part!r}") from None
    return sorted(set(out))


def _check_out(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise ValueError(f"output directory {parent} does not exist")
    if path.exists():
        if path.is_dir():
            raise ValueError(f"output path {path} is a directory")
        if not os.access(path, os.W_OK):
            raise ValueError(f"output path {path} is not writable")
    elif not os.access(parent, os.W_OK):
        raise ValueError(f"output directory {parent} is not writable")
    return path


def _reject_svg(out: Path | None, cmd: str) -> None:
    if out is not None and out.suffix.lower() == ".svg":
        raise ValueError(f"{cmd} does not render SVG; use a .csv or text path")


# -- SVG rendering ------------------------------------------------------------


def _color_hex(u: float) -> str:
    """Diverging palette: -1 dark blue, 0 white, +1 dark red; NaN gray."""
    if math.isnan(u):
        return "#808080"
    u = max(-1.0, min(1.0, u))
    white = (255, 255, 255)
    end = (5, 48, 97) if u < 0.0 else (103, 0, 31)
    t = abs(u)
    r, g, b = (round(w + t * (e - w)) for w, e in zip(white, end))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(field: ScanResult, path, vmax: float | None = None) -> None:
    """Write a self-contained SVG heatmap of a grid-mode torsion field.

    One rect per grid cell, diverging color scale symmetric about zero
    (scale bound = vmax if given, else the data's max |torsion|), legend
    with the data min/max.  Byte output is a pure function of the input.
    """
    if not isinstance(field.config.mode, GridMode):
        raise ValueError("heatmap rendering needs a grid-mode scan")
    nx, ny = field.config.mode.nx, field.config.mode.ny
    t = field.torsion.reshape(ny, nx)
    finite = field.torsion[np.isfinite(field.torsion)]
    if vmax is None:
        vmax = float(np.max(np.abs(finite))) if finite.size else 0.0
    scale = max(vmax, 1e-12)
    tmin = float(np.min(finite)) if finite.size else float("nan")
    tmax = float(np.max(finite)) if finite.size else float("nan")

    cell, pad = HEATMAP_CELL_PX, HEATMAP_PAD_PX
    legend_h = 40
    width = nx * cell + 2 * pad
    height = ny * cell + 2 * pad + legend_h
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # row j holds the j-th y sample; larger y is drawn nearer the top
    for j in range(ny):
        ypx = pad + (ny - 1 - j) * cell
        for i in range(nx):
            color = _color_hex(float(t[j, i]) / scale)
            lines.append(
                f'<rect x="{pad + i * cell}" y="{ypx}" width="{cell}" '
                f'height="{cell}" fill="{color}"/>'
            )
    ly = ny * cell + 2 * pad
    lines.append(
        f'<rect x="{pad}" y="{ly}" width="12" height="12" '
        f'fill="{_color_hex(-1.0)}"/>'
    )
    lines.append(
        f'<text x="{pad + 16}" y="{ly + 10}" font-family="monospace" '
        f'font-size="10">min = {tmin!r}</text>'
    )
    lines.append(
        f'<rect x="{pad}" y="{ly + 16}" width="12" height="12" '
        f'fill="{_color_hex(1.0)}"/>'
    )
    lines.append(
        f'<text x="{pad + 16}" y="{ly + 26}" font-family="monospace" '
        f'font-size="10">max = {tmax!r}</text>'
    )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_curves(curves: Sequence[PeriodicCurve], path) -> None:
    """Write a self-contained SVG line plot of curves over one period."""
    if not curves:
        raise ValueError("no curves to render")
    width, height, pad = 480, 320, 30
    lo = min(float(np.min(c.ys)) for c in curves)
    hi = max(float(np.max(c.ys)) for c in curves)
    span = hi - lo if hi > lo else 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = pad + x * (width - 2 * pad)
        py = pad + (hi - y) / (hi - lo) * (height - 2 * pad)
        return px, py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#000000"/>',
    ]
    for idx, curve in enumerate(curves):
        color = _CURVE_COLORS[idx % len(_CURVE_COLORS)]
        pts = []
        for x, y in zip(curve.xs, curve.ys):
            px, py = to_px(float(x), float(y))
            pts.append(f"{px:.3f},{py:.3f}")
        px, py = to_px(1.0, float(curve.ys[0]))
        pts.append(f"{px:.3f},{py:.3f}")
        lines.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{pad + 4}" y="{pad + 12 + 12 * idx}" '
            f'font-family="monospace" font-size="10" fill="{color}">'
            f"{curve.label}</text>"
        )
    lines.append(
        f'<text x="{pad}" y="{height - 8}" font-family="monospace" '
        f'font-size="10">y in [{lo!r}, {hi!r}]</text>'
    )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


# -- output helpers -----------------------------------------------------------


def _emit(block: list[str], out: Path | None) -> None:
    text = "\n".join(block) + "\n"
    sys.stdout.write(text)
    if out is not None:
        out.write_text(text)


def _summary_lines(result: ScanResult) -> list[str]:
    """The scan summary (nan with count 0 when no lane is valid) and the
    total number of lanes, valid or not."""
    lines = [f"{key} = {val!r}" for key, val in result.summary_fields()]
    lines.append(f"lanes = {result.count}")
    return lines


def _write_trace_csv(map: LiftedMap, point, vector, trace, out: Path) -> None:
    lines = [
        f"# map={map.to_spec()}",
        f"# point={point[0]!r},{point[1]!r}",
        f"# vector={vector[0]!r},{vector[1]!r}",
        f"# n={trace.n}",
        "step,x,y,delta,cumulative",
        f"0,{float(trace.points[0][0])!r},{float(trace.points[0][1])!r},,"
        f"{float(trace.cumulative[0])!r}",
    ]
    for k in range(1, trace.n + 1):
        lines.append(
            f"{k},{float(trace.points[k][0])!r},{float(trace.points[k][1])!r},"
            f"{float(trace.steps[k - 1])!r},{float(trace.cumulative[k])!r}"
        )
    out.write_text("\n".join(lines) + "\n")


# -- subcommand handlers ------------------------------------------------------
# Each handler validates its flags and returns a zero-argument job; run()
# maps validation failures to exit 2 and job failures to exit 1.


def _cmd_trace(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    point = _parse_point(args.point)
    vector = _parse_floats(args.vector, 2, "--vector")
    _as_dir(vector)  # ValueError for a zero vector or an overflowing norm
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    out = _check_out(args.out)
    _reject_svg(out, "trace")

    def job() -> None:
        trace = torsion_trace(map, point, vector, n)
        oc = detect_overconjugate(map, point, n)
        block = [
            f"map = {map.to_spec()}",
            f"point = {point[0]!r},{point[1]!r}",
            f"vector = {vector[0]!r},{vector[1]!r}",
            f"n = {n}",
            f"torsion = {trace.torsion!r}",
            f"first_overconjugate = {'none' if oc is None else oc}",
        ]
        sys.stdout.write("\n".join(block) + "\n")
        if out is not None:
            _write_trace_csv(map, point, vector, trace, out)

    return job


def _field_config(args) -> tuple[LiftedMap, ScanConfig]:
    map = parse_map_spec(args.map)
    box = _parse_box(args.box)
    nx, ny = _parse_grid(args.grid)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    cfg = ScanConfig(box=box, mode=GridMode(nx, ny), horizon=args.n, eps=args.eps)
    return map, cfg


def _cmd_field(args) -> Callable[[], None]:
    map, cfg = _field_config(args)
    out = _check_out(args.out)

    def job() -> None:
        result = torsion_field(map, cfg)
        block = [
            f"map = {map.to_spec()}",
            f"mode = grid:{cfg.mode.nx}x{cfg.mode.ny}",
            f"horizon = {cfg.horizon}",
            f"eps = {cfg.eps!r}",
        ]
        block.extend(_summary_lines(result))
        sys.stdout.write("\n".join(block) + "\n")
        if out is not None:
            if out.suffix.lower() == ".svg":
                render_heatmap(result, out)
            else:
                write_scan_csv(result, out)

    return job


def _cmd_measure(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    box = _parse_box(args.box)
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    cfg = ScanConfig(
        box=box,
        mode=MonteCarloMode(samples=args.samples, seed=args.seed),
        horizon=args.n,
        eps=args.eps,
    )
    out = _check_out(args.out)
    _reject_svg(out, "measure")

    def job() -> None:
        result = torsion_field(map, cfg)
        block = [
            f"map = {map.to_spec()}",
            f"mode = montecarlo:samples={args.samples},seed={args.seed}",
            f"horizon = {cfg.horizon}",
            f"eps = {cfg.eps!r}",
        ]
        block.extend(_summary_lines(result))
        sys.stdout.write("\n".join(block) + "\n")
        if out is not None:
            write_scan_csv(result, out)

    return job


def _cmd_flux(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    if args.res < 1:
        raise ValueError("--res must be >= 1")
    out = _check_out(args.out)
    _reject_svg(out, "flux")

    def job() -> None:
        value = _curves.flux(map, resolution=args.res)
        _emit([f"flux = {value!r}"], out)

    return job


def _cmd_psi(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    rhos = _parse_rhos(args.rho)
    if not rhos:
        raise ValueError("--rho must list at least one rotation number")
    if args.res < 1:
        raise ValueError("--res must be >= 1")
    if not args.tol > 0.0:
        raise ValueError("--tol must be positive")
    out = _check_out(args.out)

    def job() -> None:
        family = psi_family(map, rhos, resolution=args.res, tol=args.tol)
        block = [
            f"map = {map.to_spec()}",
            f"rhos = {','.join(str(r) for r in family.rotation_numbers)}",
            f"max_root_residual = {family.max_root_residual!r}",
            f"all_fixed_ok = {family.all_fixed_ok}",
            f"monotone_ok = {family.monotone_ok}",
        ]
        sys.stdout.write("\n".join(block) + "\n")
        if out is not None:
            if out.suffix.lower() == ".svg":
                render_curves(family.curves, out)
            else:
                write_curves_csv(
                    family.curves,
                    out,
                    {"map": map.to_spec(), "res": str(args.res), "tol": repr(args.tol)},
                )

    return job


def _cmd_probe(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    grid = _parse_grid(args.grid)
    ylo, yhi = _parse_floats(args.yrange, 2, "--yrange")
    if not ylo < yhi:
        raise ValueError("--yrange must satisfy lo < hi")
    if args.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    rhos = _parse_rhos(args.rho)
    out = _check_out(args.out)

    def job() -> None:
        report = integrability_probe(
            map,
            grid=grid,
            y_range=(ylo, yhi),
            horizon=args.horizon,
            rationals=rhos,
        )
        block = [
            f"map = {map.to_spec()}",
            f"verdict = {report.verdict}",
            f"flux = {report.flux!r}",
        ]
        if report.witness is not None:
            block.append(f"witness = {report.witness[0]!r},{report.witness[1]!r}")
            block.append(f"witness_time = {report.witness_time}")
        if report.family is not None:
            block.append(f"family_rhos = {','.join(str(r) for r in report.family.rotation_numbers)}")
            block.append(f"max_root_residual = {report.family.max_root_residual!r}")
            block.append(f"monotone_ok = {report.family.monotone_ok}")
        sys.stdout.write("\n".join(block) + "\n")
        if out is not None:
            if report.family is not None:
                if out.suffix.lower() == ".svg":
                    render_curves(report.family.curves, out)
                else:
                    write_curves_csv(
                        report.family.curves,
                        out,
                        {"map": map.to_spec(), "verdict": report.verdict,
                         "flux": repr(report.flux)},
                    )
            else:
                lines = [
                    f"# map={map.to_spec()}",
                    f"# verdict={report.verdict}",
                    f"# flux={report.flux!r}",
                    "x,y,overconj_time",
                ]
                if report.witness is not None:
                    lines.append(
                        f"{report.witness[0]!r},{report.witness[1]!r},"
                        f"{report.witness_time}"
                    )
                if out.suffix.lower() == ".svg":
                    raise ValueError("no curve family to render for this verdict")
                out.write_text("\n".join(lines) + "\n")

    return job


def _cmd_rotation(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    point = _parse_point(args.point)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    out = _check_out(args.out)
    _reject_svg(out, "rotation")

    def job() -> None:
        est = rotation_number(map, point, args.n)
        _emit(
            [
                f"map = {map.to_spec()}",
                f"point = {point[0]!r},{point[1]!r}",
                f"n = {est.horizon}",
                f"rotation = {est.value!r}",
            ],
            out,
        )

    return job


def _cmd_classify(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    point = _parse_point(args.point)
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    out = _check_out(args.out)
    _reject_svg(out, "classify")

    def job() -> None:
        label = classify_monotonicity(map, point, args.n)
        _emit(
            [
                f"map = {map.to_spec()}",
                f"point = {point[0]!r},{point[1]!r}",
                f"n = {args.n}",
                f"classification = {label}",
            ],
            out,
        )

    return job


def _cmd_linking(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    point = _parse_point(args.point)
    point2 = _parse_floats(args.point2, 2, "--point2")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    out = _check_out(args.out)
    _reject_svg(out, "linking")

    def job() -> None:
        est = linking_number(map, point, point2, args.n)
        _emit(
            [
                f"map = {map.to_spec()}",
                f"point = {point[0]!r},{point[1]!r}",
                f"point2 = {point2[0]!r},{point2[1]!r}",
                f"n = {est.n}",
                f"linking = {est.value!r}",
                f"near_half_turn = {est.near_half_turn}",
            ],
            out,
        )

    return job


def _cmd_return_check(args) -> Callable[[], None]:
    map = parse_map_spec(args.map)
    window = _parse_box(args.window, "--window")
    point = _parse_point(args.point)
    if args.returns < 1:
        raise ValueError("--returns must be >= 1")
    out = _check_out(args.out)
    _reject_svg(out, "return-check")

    def job() -> None:
        report = first_return_torsion(map, window, point, returns=args.returns)
        block = [
            f"map = {map.to_spec()}",
            f"window = {','.join(repr(v) for v in report.window)}",
            f"point = {report.point[0]!r},{report.point[1]!r}",
            f"returns_found = {report.returns_found}",
            f"return_times = {','.join(str(t) for t in report.return_times)}",
            f"total_steps = {report.total_steps}",
            f"complete = {report.complete}",
        ]
        if report.torsion_ratio is not None:
            block.append(f"torsion_ratio = {report.torsion_ratio!r}")
            block.append(f"torsion_direct = {report.torsion_direct!r}")
            block.append(f"identity_gap = {report.identity_gap!r}")
        _emit(block, out)

    return job


_HANDLERS = {
    "trace": _cmd_trace,
    "field": _cmd_field,
    "measure": _cmd_measure,
    "flux": _cmd_flux,
    "psi": _cmd_psi,
    "probe": _cmd_probe,
    "rotation": _cmd_rotation,
    "classify": _cmd_classify,
    "linking": _cmd_linking,
    "return-check": _cmd_return_check,
}

DEFAULT_PROBE_RHOS = "-1,-1/2,-1/3,0,1/3,1/2,1"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Torsion, conjugate-point, and invariant-curve "
        "diagnostics for annulus twist maps.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, allow_abbrev=False, **kw)
        p.add_argument("--map", required=True, help="map spec, e.g. std:k=1")
        p.add_argument("--out", default=None, help="output file path")
        return p

    p = add("trace", help="torsion trace along one orbit")
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--vector", default="0,1", help="dx,dy (default vertical)")
    p.add_argument("--n", required=True, type=int)

    p = add("field", help="torsion field on a grid")
    p.add_argument("--box", required=True, help="x0,x1,y0,y1")
    p.add_argument("--grid", required=True, help="RxxRy, e.g. 64x64")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--eps", type=float, default=_stats.DEFAULT_EPS)

    p = add("measure", help="Monte-Carlo torsion measure of a box")
    p.add_argument("--box", required=True, help="x0,x1,y0,y1")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--eps", type=float, default=_stats.DEFAULT_EPS)
    p.add_argument("--seed", type=int, default=0)

    p = add("flux", help="mean vertical displacement across a circle")
    p.add_argument("--res", type=int, default=256)

    p = add("psi", help="periodic-orbit curve family")
    p.add_argument("--rho", required=True, help="comma list of p/q")
    p.add_argument("--res", type=int, default=256)
    p.add_argument("--tol", type=float, default=_curves.ROOT_TOL)

    p = add("probe", help="integrability probe: obstruction or curve family")
    p.add_argument("--grid", default="64x64")
    p.add_argument("--yrange", default="-2,2")
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--rho", default=DEFAULT_PROBE_RHOS)

    p = add("rotation", help="finite-horizon rotation number")
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--n", required=True, type=int)

    p = add("classify", help="orbit-segment monotonicity class")
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--n", required=True, type=int)

    p = add("linking", help="finite-time linking of two orbits")
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--point2", required=True, help="x,y")
    p.add_argument("--n", required=True, type=int)

    p = add("return-check", help="first-return torsion identity")
    p.add_argument("--window", required=True, help="x0,x1,y0,y1")
    p.add_argument("--point", required=True, help="x,y")
    p.add_argument("--returns", type=int, default=1)

    return parser


_VALUE_FLAGS = frozenset(
    {
        "--map", "--out", "--point", "--point2", "--vector", "--n", "--box",
        "--grid", "--eps", "--samples", "--seed", "--res", "--rho", "--tol",
        "--yrange", "--horizon", "--window", "--returns",
    }
)


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    """Join value flags with following tokens that start with a minus.

    argparse would otherwise read values like ``-2,2`` or ``-1/2,0`` as
    option strings; joining to ``--yrange=-2,2`` sidesteps that.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and len(argv[i + 1]) > 1
            and argv[i + 1][0] == "-"
            and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit status."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    handler = _HANDLERS[args.cmd]
    try:
        job = handler(args)
    except (ValueError, OSError) as exc:
        print(f"twistlab: usage error: {exc}", file=sys.stderr)
        return 2
    try:
        job()
    except (TwistLabError, ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"twistlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
