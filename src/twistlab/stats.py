"""Ensemble statistics: torsion fields, island measures, return identities.

Scans are deterministic by construction.  Sample coordinates come either
from grid cell centers (y-major, x-minor order) or from a single
rng.random((samples, 2)) draw of a seeded PCG64 generator, so record i is
the same numbers on every run.  Lane computations are elementwise, which
makes chunked and whole-array executions bit-identical, and summaries are
reduced in fixed index order.

Every file twistlab writes has one record format, owned here: ``# key=value``
lines, a header, then rows.  ``format_value`` prints each value (floats by
repr, so they round-trip bit for bit); ``write_table`` writes named columns.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .maps import LiftedMap, _as_point, _check_cap, _check_count, _check_items, _check_real
from .torsion import _Walk, asymptotic_torsion, cocycle_scan

DEFAULT_EPS = 0.05


@dataclass(frozen=True)
class GridMode:
    nx: int
    ny: int

    def __post_init__(self) -> None:
        _check_count("nx", self.nx)
        _check_count("ny", self.ny)

    @property
    def count(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class MonteCarloMode:
    samples: int
    seed: int

    def __post_init__(self) -> None:
        _check_count("samples", self.samples)
        _check_count("seed", self.seed, least=0)

    @property
    def count(self) -> int:
        return self.samples


@dataclass(frozen=True)
class ScanConfig:
    """Where and how long to scan.

    box is (x0, x1, y0, y1) with strict ordering.  eps is the threshold
    separating "zero" from "non-zero" torsion in summaries.  period
    labels the region (a period-M island), it is recorded in outputs but
    has no effect on the computation.
    """

    box: tuple[float, float, float, float]
    mode: GridMode | MonteCarloMode
    horizon: int
    eps: float = DEFAULT_EPS
    period: int = 1

    def __post_init__(self) -> None:
        x0, x1, y0, y1 = (_check_real("box", v) for v in _check_items("box", self.box, 4))
        # a finite area has a finite width and height
        if not math.isfinite((x1 - x0) * (y1 - y0)):
            raise ValueError("box width, height and area must be finite")
        if not (x0 < x1 and y0 < y1):
            raise ValueError("box must satisfy x0 < x1 and y0 < y1")
        _check_count("horizon", self.horizon)
        eps = _check_real("eps", self.eps, 0, strict=True)
        _check_count("period", self.period)
        object.__setattr__(self, "box", (x0, x1, y0, y1))
        object.__setattr__(self, "eps", eps)

    @property
    def area(self) -> float:
        x0, x1, y0, y1 = self.box
        return (x1 - x0) * (y1 - y0)

    def fields(self) -> list[tuple[str, object]]:
        """The config as (name, value) pairs, as the scan CSV records it."""
        if isinstance(self.mode, GridMode):
            mode = f"grid:{self.mode.nx}x{self.mode.ny}"
        else:
            mode = f"montecarlo:samples={self.mode.samples},seed={self.mode.seed}"
        return [("box", self.box), ("horizon", self.horizon), ("eps", self.eps),
                ("period", self.period), ("mode", mode)]


def sample_points(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sample coordinates for a config, in the documented record order;
    IterationCapError first when its lanes exceed ITERATE_CAP."""
    _check_cap("lanes", cfg.mode.count)
    x0, x1, y0, y1 = cfg.box
    if isinstance(cfg.mode, GridMode):
        nx, ny = cfg.mode.nx, cfg.mode.ny
        gx = x0 + (np.arange(nx) + 0.5) * ((x1 - x0) / nx)
        gy = y0 + (np.arange(ny) + 0.5) * ((y1 - y0) / ny)
        X, Y = np.meshgrid(gx, gy)
        return X.ravel(), Y.ravel()
    rng = np.random.default_rng(cfg.mode.seed)
    u = rng.random((cfg.mode.samples, 2))
    return x0 + u[:, 0] * (x1 - x0), y0 + u[:, 1] * (y1 - y0)


@dataclass(frozen=True)
class MeasureEstimate:
    """Summary statistics of a torsion sample.

    fraction_negative estimates the measure fraction with torsion below
    -eps; stderr is the binomial standard error of that indicator.  An
    empty sample has nan estimates and count 0.
    """

    fraction_negative: float
    fraction_nonzero: float
    mean_torsion: float
    stderr: float
    count: int
    eps: float

    @staticmethod
    def from_torsion(torsion: np.ndarray, eps: float) -> "MeasureEstimate":
        t = np.asarray(torsion, dtype=float)
        n = t.size
        if n == 0:
            return MeasureEstimate(math.nan, math.nan, math.nan, math.nan, 0, eps)
        neg = float(np.count_nonzero(t < -eps)) / n
        nonzero = float(np.count_nonzero(np.abs(t) > eps)) / n
        stderr = math.sqrt(neg * (1.0 - neg) / n)
        return MeasureEstimate(neg, nonzero, float(np.mean(t)), stderr, n, eps)


@dataclass
class ScanResult:
    """Per-sample records of a field scan plus its summary.

    overconj_time uses -1 for "not detected within the horizon" and -2
    for lanes the engine flagged invalid (a record-level error flag, the
    scan itself never aborts).  torsion is NaN on invalid lanes.
    """

    x: np.ndarray
    y: np.ndarray
    torsion: np.ndarray
    overconj_time: np.ndarray
    rotation: np.ndarray
    valid: np.ndarray
    config: ScanConfig
    map_spec: str

    @property
    def count(self) -> int:
        return len(self.x)

    @property
    def summary(self) -> MeasureEstimate:
        return MeasureEstimate.from_torsion(self.torsion[self.valid], self.config.eps)

    def summary_fields(self) -> list[tuple[str, float | int]]:
        """The summary as (name, value) pairs, ending with count."""
        s = self.summary
        keys = ("fraction_negative", "fraction_nonzero", "mean_torsion", "stderr", "count")
        return [(key, getattr(s, key)) for key in keys]


def torsion_field(
    map: LiftedMap, cfg: ScanConfig, chunk_size: int | None = None
) -> ScanResult:
    """Horizon-N torsion, over-conjugate time, and rotation per sample.

    chunk_size splits the ensemble into consecutive pieces that are
    computed separately and reassembled in index order; results are
    bit-identical to the unchunked run because every lane is independent.
    """
    xs, ys = sample_points(cfg)
    n = cfg.horizon
    total = len(xs)
    torsion = np.empty(total)
    overconj = np.empty(total, dtype=np.int64)
    rotation = np.empty(total)
    valid = np.empty(total, dtype=bool)
    size = total if chunk_size is None else _check_count("chunk_size", chunk_size)
    for start in range(0, total, size):
        sl = slice(start, start + size)
        scan = cocycle_scan(map, xs[sl], ys[sl], n)
        torsion[sl] = scan.cumulative / n
        overconj[sl] = scan.overconj_time
        rotation[sl] = scan.displacement / n
        valid[sl] = scan.valid
    return ScanResult(
        x=xs,
        y=ys,
        torsion=torsion,
        overconj_time=overconj,
        rotation=rotation,
        valid=valid,
        config=cfg,
        map_spec=map.to_spec(),
    )


def island_measure(map: LiftedMap, cfg: ScanConfig) -> MeasureEstimate:
    """Monte-Carlo estimate of the non-zero-torsion fraction of a box."""
    if not isinstance(cfg.mode, MonteCarloMode):
        raise ValueError("island_measure needs a montecarlo-mode config")
    return torsion_field(map, cfg).summary


@dataclass(frozen=True)
class IntegralEstimate:
    """Monte-Carlo integral of torsion over a box, with CLT stderr."""

    value: float
    stderr: float
    count: int


def torsion_integral(map: LiftedMap, cfg: ScanConfig) -> IntegralEstimate:
    """Box-area times the sample mean of horizon-N torsion.

    With no valid sample the value is nan, and so is the stderr with
    fewer than two.
    """
    if not isinstance(cfg.mode, MonteCarloMode):
        raise ValueError("torsion_integral needs a montecarlo-mode config")
    result = torsion_field(map, cfg)
    t = result.torsion[result.valid]
    n = int(t.size)
    area = cfg.area
    value = area * float(np.mean(t)) if n else math.nan
    stderr = area * float(np.std(t, ddof=1)) / math.sqrt(n) if n > 1 else math.nan
    return IntegralEstimate(value=value, stderr=stderr, count=n)


@dataclass
class FirstReturnReport:
    """Return times and per-return angle sums for a window walk.

    The identity gap compares the re-bracketed sum of per-return angle
    sums with an independently recomputed torsion at time N_R; the two
    are the same numbers added in the same order, so the gap must be
    bounded by 1e-12 * N_R.
    """

    window: tuple[float, float, float, float]
    point: tuple[float, float]
    return_times: tuple[int, ...]
    angle_sums: tuple[float, ...]
    total_steps: int
    torsion_ratio: float | None
    torsion_direct: float | None
    identity_gap: float | None
    complete: bool
    cap: int

    @property
    def returns_found(self) -> int:
        return len(self.return_times)


def _in_window(x: float, y: float, window: tuple[float, float, float, float]) -> bool:
    x0, x1, y0, y1 = window
    return (x - x0) % 1.0 <= (x1 - x0) and y0 <= y <= y1


def check_window(window, p) -> tuple[tuple[float, float, float, float], tuple[float, float]]:
    """A first-return window and start point as floats, or ValueError.

    The window's x-width must lie in (0, 1], its y-range must be
    increasing, and the start point must lie in it.
    """
    x0, x1, y0, y1 = (_check_real("window", v) for v in _check_items("window", window, 4))
    if not (0.0 < x1 - x0 <= 1.0):
        raise ValueError("window width in x must be in (0, 1]")
    if not y0 < y1:
        raise ValueError("window must satisfy y0 < y1")
    px, py = _as_point(p)
    if not _in_window(px, py, (x0, x1, y0, y1)):
        raise ValueError(f"start point {(px, py)} lies outside the window")
    return (x0, x1, y0, y1), (px, py)


def first_return_torsion(
    map: LiftedMap,
    window: tuple[float, float, float, float],
    p,
    returns: int = 1,
    cap: int = 100_000,
) -> FirstReturnReport:
    """Walk the orbit of p, splitting the angle sum at returns to window.

    The window is closed, x-membership taken mod 1.  The walk stops at the
    last requested return or at the cap, whichever comes first; a capped
    walk yields a partial report with complete = False (and no identity
    data when nothing returned).  For the full report, the sum of
    per-return angle sums divided by the total return time is checked
    against the torsion of a fresh walk of the same length.  An orbit that
    leaves the float range raises NonFiniteOrbitError.
    """
    window, (px, py) = check_window(window, p)
    returns = _check_count("returns", returns)
    cap = _check_count("cap", cap)
    times, sums, last_t, last_cum = [], [], 0, 0.0
    walk = _Walk(map, px, py, 0.0, 1.0)
    # each return ends a block of the walk
    while walk.n < cap and len(times) < returns:
        walk.run(cap - walk.n, lambda x, y, _: _in_window(x, y, window))
        if _in_window(walk.x, walk.y, window):
            times.append(walk.n - last_t)
            sums.append(walk.cum - last_cum)
            last_t, last_cum = walk.n, walk.cum
    total = sum(times)
    ratio = direct = gap = None
    if times:
        phi = math.fsum(sums)
        ratio = phi / total
        direct = asymptotic_torsion(map, (px, py), total, total).value
        gap = abs(phi - direct * total)
        if gap > 1e-12 * total:
            raise RuntimeError(
                f"return-sum identity violated: gap {gap!r} over {total} steps"
            )
    return FirstReturnReport(
        window=window,
        point=(px, py),
        return_times=tuple(times),
        angle_sums=tuple(sums),
        total_steps=total,
        torsion_ratio=ratio,
        torsion_direct=direct,
        identity_gap=gap,
        complete=len(times) >= returns,
        cap=cap,
    )


# -- the record format -------------------------------------------------------


def format_value(value) -> str:
    """A written value: maps by spec, floats by repr, sequences comma-joined."""
    if isinstance(value, LiftedMap):
        return value.to_spec()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def write_table(path, meta: Iterable[tuple[str, object]], columns: dict) -> None:
    """Write a record file: a # key=value line per pair, the header, the rows.

    path is a file path or an open text file.  columns maps each column's
    name, in order, to its cells; row i joins the i-th cell of each.  A
    numpy array's cells are written by repr of its .tolist() items (floats
    round-trip bit for bit), any other column's by str of its items, so a
    missing value is a "" put in the column.
    """
    lines = [f"# {key}={format_value(value)}" for key, value in meta]
    lines.append(",".join(columns))
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else map(str, c)
             for c in columns.values()]
    lines.extend(map(",".join, zip(*cells)))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text, newline="")


SCAN_COLUMNS = ("x", "y", "torsion", "overconj_time", "rotation")


def write_scan_csv(result: ScanResult, path) -> None:
    """Serialize a scan: map, config and summary as # lines, then records.

    Columns are SCAN_COLUMNS; overconj_time is empty when not detected and
    -2 on invalid lanes.  A scan with no valid lane is written with nan
    estimates and count=0.
    """
    meta = [("map", result.map_spec), *result.config.fields(), *result.summary_fields()]
    oc = ["" if t == -1 else t for t in result.overconj_time.tolist()]
    columns = (result.x, result.y, result.torsion, oc, result.rotation)
    write_table(path, meta, dict(zip(SCAN_COLUMNS, columns)))


def read_scan_csv(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parse a scan CSV back into column arrays plus its metadata dict.

    An empty overconj_time field reads as -1 (not detected); a row that
    is not five numbers, or whose overconj_time is not an integer, raises
    ValueError naming its line.
    """
    meta: dict[str, str] = {}
    rows: list[tuple[float, ...]] | None = None  # a list once the header is read
    content = path.read() if hasattr(path, "read") else Path(path).read_text()
    for number, line in enumerate(content.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, val = line[1:].strip().partition("=")
            if eq:
                meta[key.strip()] = val
            continue
        if rows is None:
            if line != ",".join(SCAN_COLUMNS):
                raise ValueError(f"unexpected CSV header {line!r}")
            rows = []
            continue
        try:
            fx, fy, ft, foc, fr = line.split(",")
            oc = float(foc) if foc else -1.0
            if not oc.is_integer():  # a step count, -2 (invalid) or empty
                raise ValueError
            rows.append((float(fx), float(fy), float(ft), oc, float(fr)))
        except ValueError:
            raise ValueError(f"scan CSV line {number} is not five numbers: {line!r}") from None
    if rows is None:  # an empty file, or a write cut off after its metadata
        raise ValueError(f"scan CSV has no header line {','.join(SCAN_COLUMNS)}")
    arr = np.array(rows, dtype=float).reshape(-1, len(SCAN_COLUMNS))
    return dict(zip(SCAN_COLUMNS, arr.T)), meta


def summarize_csv(path) -> MeasureEstimate:
    """Recompute the summary of a written scan from its records."""
    cols, meta = read_scan_csv(path)
    eps = meta.get("eps", DEFAULT_EPS)
    with suppress(ValueError):  # text that is not a number: _check_real names it
        eps = float(eps)
    eps = _check_real("eps", eps, 0, strict=True)
    t = cols["torsion"]
    return MeasureEstimate.from_torsion(t[~np.isnan(t)], eps)
