"""Angle-lift cocycle engine.

Everything here measures how the derivative of a positive twist map turns
half-line directions, in turns (full revolutions).  The continuous angle
lift along a tangent orbit is reconstructed one step at a time:

* the vertical direction's one-step variation lies in (-1/2, 0) for a
  positive twist map, which pins its lift outright;
* any other direction's one-step variation is the representative of its
  angle class lying within half a turn of the vertical's, which pins the
  rest (two directions at the same point can never drift half a turn
  apart in one step).

The per-step sums (torsion), their sign structure (conjugate points), and
a vectorized ensemble kernel all build on that single anchoring rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import CoincidentPointsError, DegenerateAnchorError, TwistViolationError
from .maps import BLOCK, DRIFT, TWO_PI, LiftedMap, _as_point

# Default tolerances; every op taking them accepts overrides.
VERTICAL_TOL = 1e-9
ANCHOR_TOL = 1e-9
HALF_TURN_WARN_TOL = 1e-6

_INV_TWO_PI = 1.0 / TWO_PI


@dataclass(frozen=True)
class TangentVector:
    """A half-line direction attached to a base point."""

    base: tuple[float, float]
    dir: tuple[float, float]

    def __post_init__(self) -> None:
        bx, by = _as_point(self.base)
        dx, dy = float(self.dir[0]), float(self.dir[1])
        norm = math.hypot(dx, dy)
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must be a nonzero finite vector")
        if abs(norm - 1.0) > 1e-12:
            dx, dy = dx / norm, dy / norm
        object.__setattr__(self, "base", (bx, by))
        object.__setattr__(self, "dir", (dx, dy))


VERTICAL = (0.0, 1.0)


def _as_dir(w) -> tuple[float, float]:
    """Coerce a direction argument (sequence or TangentVector) to floats."""
    if isinstance(w, TangentVector):
        return w.dir
    wx, wy = float(w[0]), float(w[1])
    norm = math.hypot(wx, wy)
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError("direction must be a nonzero finite vector")
    return wx / norm, wy / norm


def angle_from_vertical(w) -> float:
    """Oriented angle from the vertical (0,1) to w, in turns.

    Counterclockwise positive, principal representative in (-1/2, 1/2].
    The vector need not be normalized; the zero vector is rejected.
    """
    wx, wy = float(w[0]), float(w[1])
    if wx == 0.0 and wy == 0.0:
        raise ValueError("angle of the zero vector is undefined")
    if not (math.isfinite(wx) and math.isfinite(wy)):
        raise ValueError("direction coordinates must be finite")
    return _angle(wx, wy)


def _angle(wx: float, wy: float) -> float:
    """angle_from_vertical of a finite nonzero float pair, unchecked."""
    a = math.atan2(-wx, wy) * _INV_TWO_PI
    if a <= -0.5:
        a += 1.0
    return a


def vertical_step_variation(map: LiftedMap, p) -> float:
    """One-step angle variation of the vertical direction at p, in turns.

    For a positive twist map the image of the vertical tilts strictly
    rightward, so the variation has a unique representative in (-1/2, 0);
    that representative is returned.  A non-positive (1,2) Jacobian entry
    raises TwistViolationError.  This is step_variation of the vertical,
    whose anchor is its own variation.
    """
    return step_variation(map, p, VERTICAL)


def step_variation(map: LiftedMap, p, w) -> float:
    """One-step angle variation of direction w at p, in turns.

    The representative of the class angle(DF w) - angle(w) is anchored
    within half a turn of vertical_step_variation(map, p), which places it
    in (-1, 1/2).  An anchor gap within ANCHOR_TOL of half a turn raises
    DegenerateAnchorError (orientation preservation forbids exactly 1/2).
    """
    x, y = _as_point(p)
    wx, wy = _as_dir(w)
    return next(_walk(map, x, y, wx, wy))[4]


def _walk(map: LiftedMap, x: float, y: float, wx: float, wy: float):
    """Transport the unit direction (wx, wy) along the orbit of (x, y).

    Yields (x, y, wx, wy, delta) after each step: the image point, the
    renormalized image direction, and the step's anchored angle variation
    (see step_variation).  Endless; callers stop it.  This is the one
    scalar copy of the anchoring rule; cocycle_scan is its array form.
    """
    step = map.step_scalar
    atan2 = math.atan2
    hypot = math.hypot
    while True:
        x1, y1, a, b, c, d = step(x, y)
        if b <= 0.0:
            raise TwistViolationError(
                f"twist entry {b!r} <= 0 at {(x, y)}: not a positive twist map here"
            )
        iwx = a * wx + b * wy
        iwy = c * wx + d * wy
        dv = atan2(-b, d) * _INV_TWO_PI
        th0 = atan2(-wx, wy) * _INV_TWO_PI
        if th0 <= -0.5:
            th0 += 1.0
        th1 = atan2(-iwx, iwy) * _INV_TWO_PI
        if th1 <= -0.5:
            th1 += 1.0
        raw = th1 - th0
        delta = raw + round(dv - raw)
        if abs(delta - dv) >= 0.5 - ANCHOR_TOL:
            raise DegenerateAnchorError(
                f"step variation of {(wx, wy)} at {(x, y)} sits {delta - dv:+.3e} turns "
                "from the vertical step: anchored representative is ambiguous"
            )
        x, y = x1, y1
        norm = hypot(iwx, iwy)
        wx, wy = iwx / norm, iwy / norm
        yield x, y, wx, wy, delta


@dataclass
class TorsionTrace:
    """Per-step angle variations along one tangent orbit.

    cumulative[k] equals the running sum of steps[0:k] in index order, so
    cumulative[0] = 0 and cumulative has one more entry than steps.
    points and directions hold the transported base orbit and unit
    directions, points[i] = F^i(p).  torsion_trace returns the four as
    strided views of one table with a row per point.
    """

    steps: np.ndarray
    cumulative: np.ndarray
    points: np.ndarray
    directions: np.ndarray

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def torsion(self) -> float:
        """Finite-time torsion: cumulative[n] / n."""
        return float(self.cumulative[-1]) / self.n


def torsion_trace(map: LiftedMap, p, w=VERTICAL, n: int = 1) -> TorsionTrace:
    """Accumulate n one-step variations along the tangent orbit of (p, w).

    The direction is transported by DF and renormalized every step; each
    steps[i] equals step_variation at the transported pair, and the
    cumulative array is the plain running sum in the same order.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    x, y = _as_point(p)
    wx, wy = _as_dir(w)
    # One row per point: x, y, wx, wy, the step into it, the cumulative.
    # The walk fills it a block of rows at a time.
    table = np.empty((n + 1, 6))
    table[0] = (x, y, wx, wy, np.nan, 0.0)
    walk = _walk(map, x, y, wx, wy)
    for i in range(1, n + 1, BLOCK):
        k = min(BLOCK, n + 1 - i)
        table[i : i + k, :5] = list(islice(walk, k))
    # np.cumsum's ufunc: a sequential sum, equal to the running sum bit for bit
    np.add.accumulate(table[1:, 4], out=table[1:, 5])
    return TorsionTrace(table[1:, 4], table[:, 5], table[:, 0:2], table[:, 2:4])


@dataclass(frozen=True)
class TorsionEstimate:
    """Finite-horizon torsion with a tail-stability diagnostic."""

    value: float
    last_window_drift: float
    horizon: int
    window: int


def asymptotic_torsion(
    map: LiftedMap, p, horizon: int, window: int = 100, w=VERTICAL
) -> TorsionEstimate:
    """Torsion at time `horizon` plus the drift over the last `window`.

    The drift |torsion_N - torsion_{N-window}| is a convergence
    diagnostic only; no limit is asserted.  The orbit is walked once and
    only the running sum is kept, so memory does not grow with horizon.
    """
    horizon = int(horizon)
    window = int(window)
    if not 1 <= window <= horizon:
        raise ValueError("need horizon >= window >= 1")
    x, y = _as_point(p)
    wx, wy = _as_dir(w)
    walk = _walk(map, x, y, wx, wy)
    cum = 0.0
    for _, _, _, _, delta in islice(walk, horizon - window):
        cum += delta
    earlier = cum
    for _, _, _, _, delta in islice(walk, window):
        cum += delta
    value = cum / horizon
    if horizon == window:
        drift = abs(value)
    else:
        drift = abs(value - earlier / (horizon - window))
    return TorsionEstimate(value, drift, horizon, window)


def detect_overconjugate(map: LiftedMap, p, horizon: int) -> int | None:
    """First n <= horizon with vertical-start cumulative angle < -1/2.

    Once the cumulative drops below -1/2 it must stay there; that is
    re-checked for the next 50 steps (within the horizon) and a violation
    raises RuntimeError since it would mean the engine miscounted.
    """
    return conjugate_report(map, p, horizon).first_overconjugate


def detect_conjugate(
    map: LiftedMap, p, horizon: int, tol: float = VERTICAL_TOL
) -> tuple[int, int] | None:
    """First verticality of the transported vertical direction.

    Detection is by sign change (or |first component| < tol) of the
    transported direction's first component, which brackets the exact
    crossing between integer times; the returned n is the first index
    past it.  k counts half-turns: k = round(-2 cumulative[n]), accepted
    when k >= 1 and cumulative[n] is within 1/4 of -k/2.
    """
    return conjugate_report(map, p, horizon, tol).first_conjugate


@dataclass(frozen=True)
class ConjugateReport:
    """Joint conjugate / over-conjugate diagnostics for one start point."""

    first_overconjugate: int | None
    first_conjugate: tuple[int, int] | None
    cumulative_at_detection: float | None
    horizon: int
    tol: float


def conjugate_report(
    map: LiftedMap, p, horizon: int, tol: float = VERTICAL_TOL
) -> ConjugateReport:
    """Run both detectors; cumulative is reported at the earliest hit.

    Both detectors watch one walk of the vertical-start cocycle, which
    stops once each answer is settled: the conjugate time is found, and
    the over-conjugate time has passed its persistence re-check (or the
    horizon is reached).
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x, y = _as_point(p)
    over = over_cum = hit = None
    until = horizon
    cum = 0.0
    prev = None
    walk = _walk(map, x, y, 0.0, 1.0)
    for n, (_, _, wx, _, delta) in zip(range(1, horizon + 1), walk):
        cum += delta
        if over is None:
            if cum < -0.5:
                over, over_cum = n, cum
                until = min(n + 50, horizon)
        elif not cum < -0.5:
            raise RuntimeError(
                f"over-conjugate persistence violated at step {n} "
                f"(cumulative {cum!r}); this indicates an engine bug"
            )
        if hit is None:
            if abs(wx) < tol or (prev is not None and (wx < 0.0) != (prev < 0.0)):
                k = round(-2.0 * cum)
                if k >= 1 and abs(cum + 0.5 * k) < 0.25:
                    hit = (n, k, cum)
            prev = wx
        if hit is not None and n >= until:
            break
    cum_at = over_cum
    if hit is not None and (over is None or hit[0] <= over):
        cum_at = hit[2]
    return ConjugateReport(
        first_overconjugate=over,
        first_conjugate=None if hit is None else hit[:2],
        cumulative_at_detection=cum_at,
        horizon=horizon,
        tol=tol,
    )


def jacobi_conjugate_oracle(map: LiftedMap, p, horizon: int) -> int | None:
    """Conjugate time from the discrete Jacobi-field recursion.

    For a kick map with generating function h(x, x') = (x'-x)^2/2 + V(x)
    the tangent dynamics of the vertical reduces to the three-term
    recursion xi_{n+1} = (2 + V''(x_n)) xi_n - xi_{n-1} with xi_0 = 0 and
    xi_1 = dF_12(p) along the configuration orbit x_n.  xi_n is
    proportional to the first component of DF^n(p) v, so its first sign
    change or zero at n >= 2 must agree with detect_conjugate up to the
    one-index bracketing slack.

    Only families with a generating function qualify (shear, standard,
    genfun, not inverted); the drift map is not exact and has none.
    """
    horizon = int(horizon)
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if map.twist_sign != 1 or map.family == DRIFT:
        raise ValueError(f"map {map.to_spec()!r} has no generating function")
    x, y = _as_point(p)
    step = map.step_scalar
    xi_prev = 0.0
    x, y, _, xi, _, _ = step(x, y)
    for n in range(2, horizon + 1):
        # (x, y) holds the point n-1; the step to xi_n reads V'' there,
        # the c entry of the Jacobian.
        x, y, _, _, vsecond, _ = step(x, y)
        xi_next = (2.0 + vsecond) * xi - xi_prev
        if xi_next == 0.0 or (xi_next < 0.0) != (xi < 0.0):
            return n
        scale = abs(xi_next)
        if scale > 1e100:
            xi_next /= scale
            xi = xi / scale
        xi_prev, xi = xi, xi_next
    return None


@dataclass(frozen=True)
class LinkingEstimate:
    """Finite-time linking of two orbits, with a trust flag."""

    value: float
    near_half_turn: bool
    n: int


def linking_number(map: LiftedMap, p, q, n: int) -> LinkingEstimate:
    """Average turning of the difference vector F^i(q) - F^i(p), in turns.

    Each per-step angle class takes its representative in (-1/2, 1/2);
    that is only faithful while the difference vector turns less than
    half a turn per step, so any step landing within HALF_TURN_WARN_TOL
    of the boundary sets near_half_turn.  Coincident points are rejected.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    px, py = _as_point(p)
    qx, qy = _as_point(q)
    if px == qx and py == qy:
        raise CoincidentPointsError("linking needs two distinct points")
    total = 0.0
    flagged = False
    th_prev = angle_from_vertical((qx - px, qy - py))
    for _ in range(n):
        px, py = map.apply_scalar(px, py)
        qx, qy = map.apply_scalar(qx, qy)
        dx, dy = qx - px, qy - py
        if dx == 0.0 and dy == 0.0:
            raise CoincidentPointsError("orbits collided to machine precision")
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError("direction coordinates must be finite")
        th = _angle(dx, dy)
        raw = th - th_prev
        rep = raw - round(raw)
        if abs(abs(rep) - 0.5) <= HALF_TURN_WARN_TOL:
            flagged = True
        total += rep
        th_prev = th
    return LinkingEstimate(value=total / n, near_half_turn=flagged, n=n)


@dataclass
class CocycleScan:
    """Vectorized vertical-start cocycle results over an ensemble.

    overconj_time is -1 where the cumulative never dropped below -1/2 and
    -2 on lanes flagged invalid (twist violation or degenerate anchor);
    cumulative is NaN there.  n is the number of steps run: the requested
    horizon, or fewer when the scan stopped at its first over-conjugate
    time.  history, when requested, holds the cumulative record of those
    steps with history[k] = cumulative after k steps.
    """

    cumulative: np.ndarray
    overconj_time: np.ndarray
    final_x: np.ndarray
    final_y: np.ndarray
    displacement: np.ndarray
    valid: np.ndarray
    n: int
    history: np.ndarray | None = None


def cocycle_scan(
    map: LiftedMap,
    x: np.ndarray,
    y: np.ndarray,
    n: int,
    wx: np.ndarray | None = None,
    wy: np.ndarray | None = None,
    keep_history: bool = False,
    stop_at_overconjugate: bool = False,
) -> CocycleScan:
    """Run the anchored cocycle over many start points at once.

    Elementwise numpy version of torsion_trace's loop (same anchoring
    rule, same renormalization), used by the ensemble statistics and the
    integrability probe.  Each step is one fused map evaluation
    (LiftedMap.step_array), and the transported direction's angle is
    carried to the next step instead of being recomputed, so positions
    match torsion_trace bit for bit and angles to rounding.  Lanes are
    independent: each output entry depends only on its own start point,
    so chunked and whole-array executions produce bit-identical results.

    Directions default to vertical; custom directions can be passed per
    lane as wx and wy, both shaped like x, each a nonzero finite vector
    (ValueError otherwise).  Invalid lanes (twist violation, ambiguous
    anchor) are masked out instead of raising.

    With stop_at_overconjugate the scan ends after the first step at which
    a still-valid lane's cumulative drops below -1/2, and the result
    covers the steps run.  As all lanes move in lockstep, that step is the
    earliest over-conjugate time of the full scan, with one exception: a
    lane that crosses first but would only be flagged invalid at a later
    step counts here and not in the full scan.  Twist violations cannot
    cause that on a positive-twist map (b is 1 throughout the catalogue);
    only a later ambiguous anchor can.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    m = x.shape[0]
    if wx is None and wy is None:
        wx = np.zeros(m)
        wy = np.ones(m)
    else:
        if wx is None or wy is None:
            raise ValueError("wx and wy must be given together")
        wx = np.array(wx, dtype=float)
        wy = np.array(wy, dtype=float)
        if wx.shape != x.shape or wy.shape != x.shape:
            raise ValueError("wx and wy must have the shape of x")
        norm = np.hypot(wx, wy)
        if not np.all(np.isfinite(norm) & (norm > 0.0)):
            raise ValueError("directions must be nonzero finite vectors")
        wx = wx / norm
        wy = wy / norm
    x0 = x.copy()
    cum = np.zeros(m)
    oc = np.full(m, -1, dtype=np.int64)
    valid = np.ones(m, dtype=bool)
    history = np.zeros((n + 1, m)) if keep_history else None
    # sqrt of the sum of squares is hypot without its overflow guard; a unit
    # direction needs that guard only for Jacobian entries beyond ~1e150.
    guarded = map._kick_bound() > 1e150
    # Angles in turns, in [-1/2, 1/2]: unlike angle_from_vertical they are
    # not wrapped off -1/2, which arctan2 can return when its first argument
    # is a tiny negative number.  No wrap is needed, as the anchored delta
    # raw + rint(dv - raw) does not change when raw shifts by a whole turn.
    # Each step's image angle is carried over as the next step's start angle.
    th0 = np.arctan2(0.0 - wx, wy) * _INV_TWO_PI
    for step in range(1, n + 1):
        x, y, a, b, c, d = map.step_array(x, y)
        valid &= b > 0.0
        iwx = a * wx + b * wy
        iwy = c * wx + d * wy
        dv = np.arctan2(-b, d) * _INV_TWO_PI
        th1 = np.arctan2(0.0 - iwx, iwy) * _INV_TWO_PI
        raw = th1 - th0
        delta = raw + np.rint(dv - raw)
        valid &= np.abs(delta - dv) < 0.5 - ANCHOR_TOL
        cum += delta
        crossed = (oc == -1) & (cum < -0.5)
        np.copyto(oc, step, where=crossed)
        norm = np.hypot(iwx, iwy) if guarded else np.sqrt(iwx * iwx + iwy * iwy)
        wx = iwx / norm
        wy = iwy / norm
        th0 = th1
        if keep_history:
            history[step] = cum
        if stop_at_overconjugate and np.any(crossed & valid):
            n = step
            if keep_history:
                history = history[: n + 1]
            break
    cum = np.where(valid, cum, np.nan)
    oc = np.where(valid, oc, -2)
    displacement = np.where(valid, x - x0, np.nan)
    if keep_history:
        history[:, ~valid] = np.nan
    return CocycleScan(
        cumulative=cum,
        overconj_time=oc,
        final_x=x,
        final_y=y,
        displacement=displacement,
        valid=valid,
        n=n,
        history=history,
    )
