"""Command-line front end.

Thin shell over the engine modules: every printed number comes from an
engine call; the shell parses flags, dispatches and formats.  Two tables
drive it.  ``_FLAGS`` defines each value flag once: its parser, which
rejects bad text (numbers must be finite, counts >= 1, ...), and its
help.  ``_COMMANDS`` gives each subcommand its help, its flags with their
default text, the flags it echoes, whether ``--out`` may be SVG, an
optional check across flags, and one engine call that returns the ordered
``key = value`` fields and, when ``--out`` has a format of its own, a
writer (otherwise ``--out`` mirrors stdout).  The argparse tree, the
validation, the printing and the ``--out`` dispatch derive from them.

Exit status is 0 on success, 2 on a usage error (bad flags, unknown map
family, unwritable output path; all checked before any computation), and
1 when the engine raises.  Floats are emitted with repr everywhere so
that output files and printed summaries are byte-deterministic and
round-trip exactly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import curves as _curves
from . import stats as _stats
from .errors import TwistLabError
from .maps import LiftedMap, parse_map_spec
from .torsion import (
    VERTICAL,
    _as_dir,
    _first_overconjugate,
    detect_overconjugate,
    linking_number,
    torsion_trace,
)

HEATMAP_CELL_PX = 8
HEATMAP_PAD_PX = 12


# -- flag value parsers -------------------------------------------------------
# Each takes the flag's text and returns its value or raises ValueError;
# run() prefixes the message with the flag's name.


def _parse_floats(text: str, count: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"needs {count} comma-separated numbers, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"needs finite numbers, got {text!r}")
    return values


def _positive(text: str) -> float:
    (value,) = _parse_floats(text, 1)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _direction(text: str) -> tuple[float, float]:
    vector = _parse_floats(text, 2)
    _as_dir(vector)  # ValueError for a zero vector or an overflowing norm
    return vector


def _yrange(text: str) -> tuple[float, float]:
    lo, hi = _parse_floats(text, 2)
    if not lo < hi:
        raise ValueError("must satisfy lo < hi")
    return lo, hi


def _integer(text: str, least: int = 1) -> int:
    value = int(text)
    if value < least:
        raise ValueError(f"must be >= {least}")
    return value


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"must look like 64x64, got {text!r}")
    return _integer(parts[0]), _integer(parts[1])


def _rhos(text: str) -> list[Fraction]:
    try:
        return sorted({Fraction(part.strip()) for part in text.split(",")})
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"could not parse rotation numbers {text!r}") from None


def _check_out(path_str: str) -> Path:
    path = Path(path_str)
    parent = path.parent
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


# flag -> (parser, help)
_FLAGS: dict[str, tuple[Callable[[str], object], str | None]] = {
    "--map": (parse_map_spec, "map spec, e.g. std:k=1"),
    "--out": (_check_out, "output file path"),
    "--point": (partial(_parse_floats, count=2), "x,y"),
    "--point2": (partial(_parse_floats, count=2), "x,y"),
    "--vector": (_direction, "dx,dy (default vertical)"),
    "--box": (partial(_parse_floats, count=4), "x0,x1,y0,y1"),
    "--window": (partial(_parse_floats, count=4), "x0,x1,y0,y1"),
    "--grid": (_grid, "RxxRy, e.g. 64x64"),
    "--yrange": (_yrange, None),
    "--rho": (_rhos, "comma list of p/q"),
    "--n": (_integer, None),
    "--samples": (_integer, None),
    "--res": (_integer, None),
    "--horizon": (_integer, None),
    "--returns": (_integer, None),
    "--seed": (partial(_integer, least=0), None),
    "--eps": (_positive, None),
    "--tol": (_positive, None),
}


def _is_svg(path: Path) -> bool:
    return path.suffix.lower() == ".svg"


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


def render_heatmap(field: _stats.ScanResult, path, vmax: float | None = None) -> None:
    """Write a self-contained SVG heatmap of a grid-mode torsion field.

    One rect per grid cell, diverging color scale symmetric about zero
    (scale bound = vmax if given, else the data's max |torsion|), legend
    with the data min/max.  Byte output is a pure function of the input.
    """
    if not isinstance(field.config.mode, _stats.GridMode):
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


def render_curves(curves: Sequence[_curves.PeriodicCurve], path) -> None:
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


# -- file writers -------------------------------------------------------------

Fields = list[tuple[str, object]]
Writer = Callable[[Path], None] | None


def _svg_or_csv(svg: Callable[[Path], None], csv: Callable[[Path], None]) -> Writer:
    """A writer that renders .svg paths with svg and writes others with csv."""
    return lambda path: (svg if _is_svg(path) else csv)(path)


def _curves_writer(curves: Sequence[_curves.PeriodicCurve], meta: Fields) -> Writer:
    text = {key: _format(value) for key, value in meta}
    return _svg_or_csv(
        partial(render_curves, curves), partial(_curves.write_curves_csv, curves, metadata=text)
    )


def _write_csv(path: Path, meta: Fields, header: str, rows: list[str]) -> None:
    """# key=value metadata lines, then the header and the rows."""
    lines = [f"# {key}={_format(value)}" for key, value in meta] + [header, *rows]
    path.write_text("\n".join(lines) + "\n")


def _write_trace_csv(head: Fields, trace, path: Path) -> None:
    deltas = [""] + [repr(d) for d in trace.steps.tolist()]
    records = zip(trace.points.tolist(), deltas, trace.cumulative.tolist())
    rows = [f"{k},{x!r},{y!r},{d},{c!r}" for k, ((x, y), d, c) in enumerate(records)]
    _write_csv(path, head, "step,x,y,delta,cumulative", rows)


# -- engine calls -------------------------------------------------------------
# Each takes the validated flag values and returns the fields to print
# after the echoed flags, and a writer for --out or None.


def _attrs(obj, *names: str) -> Fields:
    return [(name, getattr(obj, name)) for name in names]


def _trace(a) -> tuple[Fields, Writer]:
    trace = torsion_trace(a.map, a.point, a.vector, a.n)
    # A vertical-start trace already holds the over-conjugate time.
    if a.vector == VERTICAL:
        oc = _first_overconjugate(trace.cumulative)
    else:
        oc = detect_overconjugate(a.map, a.point, a.n)
    fields = [("torsion", trace.torsion), ("first_overconjugate", "none" if oc is None else oc)]
    return fields, partial(_write_trace_csv, _attrs(a, "map", "point", "vector", "n"), trace)


def _scan_config(a, mode) -> None:
    a.cfg = _stats.ScanConfig(box=a.box, mode=mode, horizon=a.n, eps=a.eps)


def _scan(a) -> tuple[Fields, Writer]:
    result = _stats.torsion_field(a.map, a.cfg)
    fields = [
        ("mode", _stats._mode_metadata(a.cfg)["mode"]),
        *_attrs(a.cfg, "horizon", "eps"),
        *result.summary_fields(),
        ("lanes", result.count),
    ]
    return fields, _svg_or_csv(
        partial(render_heatmap, result), partial(_stats.write_scan_csv, result)
    )


def _psi(a) -> tuple[Fields, Writer]:
    family = _curves.psi_family(a.map, a.rho, resolution=a.res, tol=a.tol)
    fields = [
        ("rhos", family.rotation_numbers),
        *_attrs(family, "max_root_residual", "all_fixed_ok", "monotone_ok"),
    ]
    return fields, _curves_writer(family.curves, _attrs(a, "map", "res", "tol"))


def _probe(a) -> tuple[Fields, Writer]:
    report = _curves.integrability_probe(
        a.map, grid=a.grid, y_range=a.yrange, horizon=a.horizon, rationals=a.rho
    )
    fields = _attrs(report, "verdict", "flux")
    meta = [("map", a.map), *fields]
    if report.witness is not None:
        fields += _attrs(report, "witness", "witness_time")
    family = report.family
    if family is not None:
        fields += [
            ("family_rhos", family.rotation_numbers),
            *_attrs(family, "max_root_residual", "monotone_ok"),
        ]
        return fields, _curves_writer(family.curves, meta)
    rows = [] if report.witness is None else [f"{_format(report.witness)},{report.witness_time}"]

    def write(path: Path) -> None:
        if _is_svg(path):
            raise ValueError("no curve family to render for this verdict")
        _write_csv(path, meta, "x,y,overconj_time", rows)

    return fields, write


def _linking(a) -> tuple[Fields, Writer]:
    est = linking_number(a.map, a.point, a.point2, a.n)
    return [("linking", est.value), ("near_half_turn", est.near_half_turn)], None


def _distinct_points(a) -> None:
    if a.point == a.point2:
        raise ValueError("--point and --point2 must be distinct points")


def _return_check(a) -> tuple[Fields, Writer]:
    report = _stats.first_return_torsion(a.map, a.window, a.point, returns=a.returns)
    names = ["returns_found", "return_times", "total_steps", "complete"]
    if report.torsion_ratio is not None:
        names += ["torsion_ratio", "torsion_direct", "identity_gap"]
    return _attrs(report, *names), None


# -- the command table --------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One subcommand.

    flags maps each flag beyond --map and --out to its default text, None
    meaning required.  echo lists the flags whose values are printed, in
    order, ahead of the call's fields.  check, if given, runs on the
    parsed values during validation and may add derived ones.
    """

    help: str
    flags: dict[str, str | None]
    call: Callable[[argparse.Namespace], tuple[Fields, Writer]]
    echo: tuple[str, ...] = ("--map",)
    svg: bool = False
    check: Callable[[argparse.Namespace], None] | None = None


_EPS = repr(_stats.DEFAULT_EPS)

_COMMANDS = {
    "trace": _Command(
        "torsion trace along one orbit",
        {"--point": None, "--vector": "0,1", "--n": None},
        _trace,
        echo=("--map", "--point", "--vector", "--n"),
    ),
    "field": _Command(
        "torsion field on a grid",
        {"--box": None, "--grid": None, "--n": None, "--eps": _EPS},
        _scan,
        svg=True,
        check=lambda a: _scan_config(a, _stats.GridMode(*a.grid)),
    ),
    "measure": _Command(
        "Monte-Carlo torsion measure of a box",
        {"--box": None, "--samples": None, "--n": None, "--eps": _EPS, "--seed": "0"},
        _scan,
        check=lambda a: _scan_config(a, _stats.MonteCarloMode(a.samples, a.seed)),
    ),
    "flux": _Command(
        "mean vertical displacement across a circle",
        {"--res": "256"},
        lambda a: ([("flux", _curves.flux(a.map, resolution=a.res))], None),
        echo=(),
    ),
    "psi": _Command(
        "periodic-orbit curve family",
        {"--rho": None, "--res": "256", "--tol": repr(_curves.ROOT_TOL)},
        _psi,
        svg=True,
    ),
    "probe": _Command(
        "integrability probe: obstruction or curve family",
        {"--grid": "64x64", "--yrange": "-2,2", "--horizon": "10000",
         "--rho": "-1,-1/2,-1/3,0,1/3,1/2,1"},
        _probe,
        svg=True,
    ),
    "rotation": _Command(
        "finite-horizon rotation number",
        {"--point": None, "--n": None},
        lambda a: ([("rotation", _curves.rotation_number(a.map, a.point, a.n).value)], None),
        echo=("--map", "--point", "--n"),
    ),
    "classify": _Command(
        "orbit-segment monotonicity class",
        {"--point": None, "--n": None},
        lambda a: ([("classification", _curves.classify_monotonicity(a.map, a.point, a.n))],
                   None),
        echo=("--map", "--point", "--n"),
    ),
    "linking": _Command(
        "finite-time linking of two orbits",
        {"--point": None, "--point2": None, "--n": None},
        _linking,
        echo=("--map", "--point", "--point2", "--n"),
        check=_distinct_points,
    ),
    "return-check": _Command(
        "first-return torsion identity",
        {"--window": None, "--point": None, "--returns": "1"},
        _return_check,
        echo=("--map", "--window", "--point"),
        check=lambda a: _stats.check_window(a.window, a.point),
    ),
}


# -- parsing, validation, output ----------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Torsion, conjugate-point, and invariant-curve "
        "diagnostics for annulus twist maps.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False, help=cmd.help)
        p.add_argument("--map", required=True, help=_FLAGS["--map"][1])
        p.add_argument("--out", help=_FLAGS["--out"][1])
        for flag, default in cmd.flags.items():
            p.add_argument(flag, required=default is None, default=default, help=_FLAGS[flag][1])
    return parser


_VALUE_FLAGS = frozenset(_FLAGS)


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


def _validate(args: argparse.Namespace, cmd: _Command) -> None:
    """Replace each flag's text by its parsed value, then run the checks."""
    for flag in ("--map", "--out", *cmd.flags):
        text = getattr(args, flag[2:])
        if text is not None:
            try:
                setattr(args, flag[2:], _FLAGS[flag][0](text))
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    if args.out is not None and not cmd.svg and _is_svg(args.out):
        raise ValueError(f"{args.cmd} does not render SVG; use a .csv or text path")
    if cmd.check is not None:
        cmd.check(args)


def _format(value) -> str:
    """A printed value: maps by spec, floats by repr, sequences comma-joined."""
    if isinstance(value, LiftedMap):
        return value.to_spec()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format(v) for v in value)
    return f"{value}"


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    cmd = _COMMANDS[args.cmd]
    try:
        _validate(args, cmd)
    except (ValueError, OSError) as exc:
        print(f"twistlab: usage error: {exc}", file=sys.stderr)
        return 2
    try:
        fields, write = cmd.call(args)
        fields = [(flag[2:], getattr(args, flag[2:])) for flag in cmd.echo] + fields
        text = "".join(f"{key} = {_format(value)}\n" for key, value in fields)
        sys.stdout.write(text)
        if args.out is not None:
            if write is None:
                args.out.write_text(text)
            else:
                write(args.out)
    except (TwistLabError, ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"twistlab: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
