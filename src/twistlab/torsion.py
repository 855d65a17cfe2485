"""Angle-lift cocycle engine.

Everything here measures how the derivative of a positive twist map turns
half-line directions, in turns (full revolutions).  The continuous angle
lift along a tangent orbit rests on one fact, the half-turn lemma: the
image of the vertical tilts strictly rightward, so a transported direction
crosses the vertical axis only clockwise and at most once per step.  Each
crossing flips the sign of the direction's first component and lowers its
half-turn index by one; the lifted angle is the direction's principal
angle placed in that half turn.  No angle is anchored or compared.

The scalar walk, _Walk, calls the map's walk block (maps._observe is the
one way to watch it), which steps and transports in Python into float
lists, moved into numpy in one packed copy per column (maps._column), and
lifts a block at once in numpy, with the running sums (torsion) and their
sign structure (conjugate points); a block ends early where a consumer
must decide, so no walk steps past its stop.  linking_number subtracts
the two orbits' blocks in numpy, and jacobi_conjugate_oracle steps the
map's Jacobi block.  The vectorized ensemble kernel,
cocycle_scan, lifts the same way per lane, taking an angle only where
one is read.  Both read one over-conjugate rule: the vertical start is
over-conjugate at its second crossing, where its lifted angle passes
-1/2.  An orbit that leaves the float range raises
NonFiniteOrbitError at the step maps._check_block names, or flags an
ensemble lane invalid, as does a failed twist.
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, NonFiniteOrbitError
from .maps import (BLOCK, DRIFT, TWO_PI, LiftedMap, _as_point, _check_block, _check_cap,
                   _check_count, _check_real, _column)

# The detectors' default tol, and linking_number's fixed half-turn margin.
VERTICAL_TOL = 1e-9
HALF_TURN_WARN_TOL = 1e-6

_INV_TWO_PI = 1.0 / TWO_PI

VERTICAL = (0.0, 1.0)


def _as_dir(w) -> tuple[float, float]:
    """Coerce a direction argument to a unit vector of floats."""
    wx, wy = _as_point(w, "direction")
    norm = math.hypot(wx, wy)
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError("direction must be a nonzero finite vector")
    return wx / norm, wy / norm


def angle_from_vertical(w) -> float:
    """Oriented angle from the vertical (0,1) to w, in turns.

    Counterclockwise positive, principal representative in (-1/2, 1/2].
    The vector need not be normalized; the zero vector is rejected.
    """
    wx, wy = _as_point(w, "direction")
    if wx == 0.0 and wy == 0.0:
        raise ValueError("angle of the zero vector is undefined")
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
    rightward, so the variation lies in (-1/2, 0).  A non-positive (1,2)
    Jacobian entry raises TwistViolationError.  This is step_variation of
    the vertical.
    """
    return step_variation(map, p, VERTICAL)


def step_variation(map: LiftedMap, p, w) -> float:
    """One-step angle variation of direction w at p, in turns.

    The lift of the class angle(DF w) - angle(w): the image crosses the
    vertical axis at most once, clockwise, so the variation is the
    difference of the two principal angles once each is placed in its half
    turn (see _Walk).  It lies in (-1, 1/2).
    """
    return float(_Walk(map, *_as_point(p), *_as_dir(w)).run(1)[0])


class _Walk:
    """Transport the unit direction (wx, wy) along the orbit of (x, y).

    run calls the map's walk block, map._walk_k, which steps, transports,
    renormalizes and records each image, and ends at the stop and sign
    tests; numpy then takes the block's angles, lift and sum.
    Each image's principal angle th is placed in its half turn by the whole
    turn j nearest the half turn's middle, and a step is the change of th
    plus the change of j, kept apart so that it does not lose bits to a
    large lifted angle.  The first image's th is the scalar _angle's, so
    step 1 does not depend on numpy's arctan2.  The walk keeps its last
    point and direction, its step count n and its cumulative cum, and one
    set of record lists, sized at its first run and grown only for a
    longer block, so blocks that end early allocate nothing.
    """

    def __init__(self, map: LiftedMap, x: float, y: float, wx: float, wy: float) -> None:
        self.block, self.step, self.start = map._walk_k, map._step_k, (x, y)
        self.x, self.y, self.wx, self.wy, self.n, self.cum = x, y, wx, wy, 0, 0.0
        self.ix, self.iy, self.trace, self.pending = [], [], ([],), None
        # the lift's state: the parity and middle of the half turn, th and j
        self.odd = wx > 0.0 if wx else wy < 0.0
        self.mid = -0.25 if self.odd else 0.25
        self.th = _angle(wx, wy)
        self.j = round(self.mid - self.th)

    def run(self, k: int, stop=None, tol: float = -math.inf, table=None) -> np.ndarray | None:
        """Take min(k, BLOCK) steps and return the cumulative after each.

        The block ends early after a step at which stop(x, y, wx) is true,
        or at which wx changed sign or came within tol of 0.  With table,
        the rows go to it too: x, y, wx, wy, the step and the cumulative.
        An orbit that leaves the float range raises NonFiniteOrbitError,
        at the step one block of the k steps names: a direction that is
        not finite at a finite point after a block that BLOCK alone ended
        is pending, carried unlifted (run returns None) to the next end.
        """
        r = min(k, BLOCK)
        if len(self.ix) < r:
            self.ix, self.iy = [0.0] * r, [0.0] * r
        if table is not None and len(self.trace[0]) < r:
            self.trace = [0.0] * r, [0.0] * r, [0.0] * r
        trace = None if table is None else self.trace
        side = -1.0 if self.wx < 0.0 else 1.0
        x, y, wx, wy, taken, exc = self.block(self.x, self.y, self.wx, self.wy, r, self.ix,
                                              self.iy, trace, stop, tol)
        more = taken == r < k and not (side * wx < tol or stop is not None and stop(x, y, wx))
        iwx, iwy = _column(self.ix, taken), _column(self.iy, taken)
        # a direction is finite where its image is
        self.pending = _check_block(self.step, self.start, self.n, (self.x, self.y), taken, exc,
                                    (x, y), (iwx, iwy), more, self.pending)
        if self.pending is not None:
            self.x, self.y, self.wx, self.wy, self.n = x, y, wx, wy, self.n + taken
            return None
        steps = self._steps(iwx, iwy)
        if table is not None:  # the walk's own division, iwx / norm, bit for bit
            xs, ys, norms = (_column(c, taken) for c in trace)
            table[:taken, 0], table[:taken, 1], table[:taken, 4] = xs, ys, steps
            table[:taken, 2], table[:taken, 3] = iwx / norms, iwy / norms
        # a sequential sum from the walk's cumulative, bit for bit the running sum
        steps[0] += self.cum
        cum = np.add.accumulate(steps, out=steps if table is None else table[:taken, 5])
        self.x, self.y, self.wx, self.wy = x, y, wx, wy
        self.n, self.cum = self.n + taken, float(cum[-1])
        return cum

    def _steps(self, iwx: np.ndarray, iwy: np.ndarray) -> np.ndarray:
        """The variation of each step of a block, from its images."""
        odd = np.empty(len(iwx) + 1, dtype=bool)
        th, j = np.empty(len(odd)), np.empty(len(odd))
        odd[0], th[0], j[0] = self.odd, self.th, self.j
        _odd(iwx, iwy, odd[1:])
        mid = self.mid - np.add.accumulate(0.5 * (odd[1:] != odd[:-1]))
        np.arctan2(-iwx, iwy, out=th[1:])
        th[1:] *= _INV_TWO_PI
        np.add(th, 1.0, out=th, where=th <= -0.5)
        if self.n == 0:
            th[1] = _angle(iwx[0], iwy[0])
        np.rint(mid - th[1:], out=j[1:])
        self.odd, self.mid, self.th, self.j = odd[-1], mid[-1], th[-1], j[-1]
        return (th[1:] - th[:-1]) + (j[1:] - j[:-1])


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
    cumulative array is the plain running sum in the same order.  Raises
    IterationCapError when n exceeds ITERATE_CAP, before any allocation.
    """
    n = _check_cap("n", _check_count("n", n))
    x, y = _as_point(p)
    wx, wy = _as_dir(w)
    # One row per point: x, y, wx, wy, the step into it, the cumulative.
    table = np.empty((n + 1, 6))
    table[0] = (x, y, wx, wy, np.nan, 0.0)
    walk = _Walk(map, x, y, wx, wy)
    while walk.n < n:
        walk.run(n - walk.n, table=table[walk.n + 1 :])
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
    An orbit that leaves the float range raises NonFiniteOrbitError.
    """
    window = _check_count("window", window)
    horizon = _check_count("horizon", horizon, window)
    walk = _Walk(map, *_as_point(p), *_as_dir(w))
    while walk.n < horizon - window:
        walk.run(horizon - window - walk.n)
    earlier = walk.cum
    while walk.n < horizon:
        walk.run(horizon - walk.n)
    value = walk.cum / horizon
    drift = abs(value - (earlier / (horizon - window) if horizon > window else 0.0))
    return TorsionEstimate(value, drift, horizon, window)


def detect_overconjugate(map: LiftedMap, p, horizon: int) -> int | None:
    """First n <= horizon at which the vertical start crosses the vertical
    the second time, entering the half turn below -1/2.

    That second crossing is the one over-conjugate rule, cocycle_scan's
    too; the walk is conjugate_report's.
    """
    return conjugate_report(map, p, horizon).first_overconjugate


def _overconjugate(directions: np.ndarray) -> int | None:
    """The over-conjugate time of a vertical-start trace, read off its
    directions: the step of their second _odd parity flip, or None."""
    odd = _odd(directions[:, 0], directions[:, 1], np.empty(len(directions), dtype=bool))
    flips = np.flatnonzero(odd[1:] != odd[:-1])
    return int(flips[1]) + 1 if len(flips) > 1 else None


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
    stops once both answers are known, at the later of the two times, or
    at the horizon.  The over-conjugate time is the walk's second
    crossing, where its half-turn middle falls to -3/4.  An orbit that
    leaves the float range raises NonFiniteOrbitError.
    """
    horizon = _check_count("horizon", horizon)
    tol = _check_real("tol", tol, 0, strict=True)
    over = hit = cum_at = None
    walk = _Walk(map, *_as_point(p), 0.0, 1.0)
    while walk.n < horizon and (over is None or hit is None):
        side = -1.0 if walk.wx < 0.0 else 1.0
        # tol > 0: every crossing ends a block, so over is a block's end
        walk.run(horizon - walk.n, tol=tol)
        if over is None and walk.mid < -0.5:
            over = walk.n
        if hit is None and side * walk.wx < tol:  # wx changed sign or is near 0
            k = round(-2.0 * walk.cum)
            if k >= 1 and abs(walk.cum + 0.5 * k) < 0.25:
                hit = (walk.n, k)
        if cum_at is None and (over or hit):
            cum_at = walk.cum
    return ConjugateReport(over, hit, cum_at, horizon, tol)


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
    genfun, not inverted); the drift map is not exact and has none.  One
    step gives xi_1; the map's Jacobi block then steps the orbit and the
    recursion a block at a time, rescaling (xi_{n-1}, xi_n) past 1e100.  An
    orbit or Jacobi field that leaves the float range raises
    NonFiniteOrbitError, at the step maps._check_block names for the whole
    horizon as one block.
    """
    horizon = _check_count("horizon", horizon, 2)
    if map.twist_sign != 1 or map.family == DRIFT:
        raise ValueError(f"map {map.to_spec()!r} has no generating function")
    start = x, y = _as_point(p)
    x, y, _, xi, _, _ = map._step_k(x, y)
    xi_prev, n = 0.0, 1
    while n < horizon:
        x, y, xi_prev, xi, r, exc = map._jacobi_k(x, y, xi_prev, xi, min(BLOCK, horizon - n))
        if exc is not None:
            _check_block(None, start, n, None, r, exc, (x, y))
        n += r
        if xi == 0.0:  # the block's sign test fired
            return n
    # shear carries inf on, and its V'' is 0
    _check_block(map._step_k, start, 0, start, horizon, None, (x, y))
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
    of the boundary sets near_half_turn.  Coincident points are rejected;
    a q - p that overflows raises NonFiniteOrbitError by step 0, and then
    the first orbit to leave the float range raises it at the step
    maps._check_block names.  Each block steps the orbit of p, then that
    of q, with the map's orbit block; their differences, checks, angles
    (_angle's) and sums are then taken at once.
    """
    n = _check_count("n", n)
    px, py = _as_point(p)
    qx, qy = _as_point(q, "q")
    if px == qx and py == qy:
        raise CoincidentPointsError("linking needs two distinct points")
    start, orbit, total, flagged, pending = ((px, py), (qx, qy)), map._orbit_k, 0.0, False, None
    dx, dy = qx - px, qy - py
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise NonFiniteOrbitError.at(start, 0)
    th_prev = _angle(dx, dy)
    pxs, pys, qxs, qys = ([0.0] * min(n, BLOCK) for _ in range(4))
    for n0 in range(0, n, BLOCK):
        # q takes the steps p took; the first failing step's error, p's
        # before q's, is the block's
        px, py, r, error = orbit(px, py, min(BLOCK, n - n0), pxs, pys)
        qx, qy, r, q_error = orbit(qx, qy, r, qxs, qys)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
            dx = _column(qxs, r) - _column(pxs, r)
            dy = _column(qys, r) - _column(pys, r)
        # a collision precedes any step _check_block names: a difference that
        # left the float range is never 0 again; rows hold every point, so
        # first goes unread
        if ((dx == 0.0) & (dy == 0.0)).any():
            raise CoincidentPointsError("orbits collided to machine precision")
        pending = _check_block(map._apply_k, start, n0, None, r,
                               error if q_error is None else q_error, (px, py, qx, qy), (dx, dy),
                               n0 + r < n, pending)
        if pending is not None:  # a difference that overflowed at finite points
            continue
        # -dx as _angle negates it: -(+0.0) is -0.0
        th = np.fromiter(builtins.map(math.atan2, (-dx).tolist(), dy.tolist()), float, r)
        th *= _INV_TWO_PI
        np.add(th, 1.0, out=th, where=th <= -0.5)
        raw = np.diff(th, prepend=th_prev)
        rep = raw - np.rint(raw)
        flagged = flagged or bool((np.abs(np.abs(rep) - 0.5) <= HALF_TURN_WARN_TOL).any())
        total = float(np.add.accumulate(np.concatenate(([total], rep)))[-1])
        th_prev = th[-1]
    return LinkingEstimate(value=total / n, near_half_turn=flagged, n=n)


@dataclass
class CocycleScan:
    """Vectorized vertical-start cocycle results over an ensemble.

    overconj_time is -1 where no over-conjugate time was found and -2 on
    lanes flagged invalid (a twist violation, or an orbit or direction
    that left the float range); cumulative is NaN there.  A lane whose
    orbit leaves the float range before the horizon is -2 even if it was
    over-conjugate before: -2 marks the lane invalid, and the scan CSV and
    its readers rely on that.  detect_overconjugate, and a scan that stops
    at its first over-conjugate time, give the earlier time (std:k=1e308
    from (0, 1/4), horizon 60: -2 here, 3 there).  n is the number of
    steps run: the requested horizon, or fewer when the scan stopped at
    its first over-conjugate time.  history, when requested, holds the
    cumulative record of those steps with history[k] = cumulative after
    k steps.
    """

    cumulative: np.ndarray
    overconj_time: np.ndarray
    final_x: np.ndarray
    final_y: np.ndarray
    displacement: np.ndarray
    valid: np.ndarray
    n: int
    history: np.ndarray | None = None


def _odd(wx: np.ndarray, wy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lanes whose angle_from_vertical lies in [-1/2, 0) mod 1, into out.

    That is wx > 0, with the tie wx == 0 going to the downward direction,
    whose angle is 1/2; the other half turn [0, 1/2) holds wx < 0 and the
    upward vertical.
    """
    np.greater(wx, 0.0, out=out)
    if not wx.all():
        out |= (wx == 0.0) & (wy < 0.0)
    return out


def _finite(*arrays: np.ndarray) -> np.ndarray:
    """Lanes where every array is finite."""
    return np.logical_and.reduce([np.isfinite(a) for a in arrays])


def _combine(p, u: np.ndarray, q, v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = p u + q v elementwise; a factor that is the float 1.0 is not
    multiplied, as the product would equal the other array bit for bit."""
    np.multiply(p, u, out=out)
    out += v if type(q) is float and q == 1.0 else np.multiply(q, v, out=tmp)


def _lifted_angle(wx: np.ndarray, wy: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The angle of (wx, wy) in turns, lifted into [half/2, (half+1)/2].

    arctan2's principal angle lies in that interval up to rounding, or a
    whole turn away when it picks the other end of [-1/2, 1/2]; the whole
    turn nearest the interval's middle places it.
    """
    a = np.arctan2(-wx, wy)
    a *= _INV_TWO_PI
    return a + np.rint(0.5 * half + 0.25 - a)


def _renormalization_period(map: LiftedMap) -> int:
    """Steps between two renormalizations of cocycle_scan's directions.

    A step stretches a vector by at most g = 2 (1 + _kick_bound()), the
    Frobenius bound of the Jacobian, and, its determinant being 1, shrinks
    it by at most 1/g.  Within the largest r with g^r <= 1e150 the squares
    of a unit direction's transports neither overflow nor underflow.
    """
    return max(1, int(150.0 / math.log10(2.0 * (1.0 + map._kick_bound()))))


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
    """Run the cocycle over many start points at once.

    Elementwise counterpart of torsion_trace, used by the ensemble
    statistics and the integrability probe.  Each step is one fused map
    evaluation (LiftedMap.step_array), so positions match torsion_trace
    bit for bit.  Angles follow the half-turn lemma (see the module
    docstring): a step only transports the directions and counts the sign
    changes of their first component, each of which lowers the lifted
    angle's half-turn index by one.  The cumulative angle is the final
    direction's angle placed in its counted half turn; it matches
    torsion_trace's sum to rounding.  The vertical start is over-conjugate
    at its second crossing, the walk's rule too (conjugate_report).
    Directions are renormalized every _renormalization_period(map) steps,
    as the angle ignores their length.
    A lane gets at most one over-conjugate time (the half-turn index only
    falls, and a lifted scan tests only lanes without one), so the test
    stops once every lane has one, and from then on a vertical scan
    without history counts its crossings in one byte per lane, added to
    the half-turn index within every 127 steps and at the end.  Until
    then a vertical scan skips the half-turn update and the test at a
    step in which no lane crossed; a grid without conjugate points
    crosses at step 1 only.
    Each output entry depends only on its own lane's start point, so
    chunked and whole-array executions produce bit-identical results.

    Directions default to vertical; custom directions can be passed per
    lane as wx and wy, both shaped like x, each a nonzero finite vector
    (ValueError otherwise).  With custom directions or keep_history the
    angle is also lifted after every step; keep_history's (n + 1) rows of
    lanes are held to ITERATE_CAP.  Invalid lanes (a twist violation at
    some step, or a non-finite final point or direction) are masked out
    instead of raising.

    With stop_at_overconjugate the scan ends after the first step at which
    a valid lane with a finite orbit becomes over-conjugate, and the
    result covers the steps run.  As all lanes move in lockstep, that step
    is the earliest over-conjugate time of the full scan, except when that
    lane is only flagged invalid at a later step.  On a positive-twist map
    (b is 1 throughout the catalogue) only an orbit that later leaves the
    float range can do that.
    """
    n = _check_count("n", n)
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    m = x.shape[0]
    if keep_history:
        _check_cap("(n + 1) * lanes", (n + 1) * m)
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
    vertical = not wx.any() and bool(np.all(wy > 0.0))
    lift = keep_history or not vertical
    x0 = x.copy()
    odd = _odd(wx, wy, np.empty(m, dtype=bool))
    # Each lane's half-turn index: its lifted angle lies in [half/2, (half+1)/2).
    half = -odd.astype(np.int64)
    th0 = _lifted_angle(wx, wy, half)
    oc = np.full(m, -1, dtype=np.int64)
    valid = np.ones(m, dtype=bool)
    history = np.zeros((n + 1, m)) if keep_history else None
    # hypot guards the norm against Jacobian entries beyond ~1e150 (the
    # period is 1 then); below that the square root of the sum of squares
    # is safe.
    guarded = map._kick_bound() > 1e150
    period = _renormalization_period(map)
    iwx, iwy, tmp = np.empty(m), np.empty(m), np.empty(m)
    odd1, flip, crossed = (np.empty(m, dtype=bool) for _ in range(3))
    # pending lanes have no over-conjugate time yet; once none is, a scan
    # that never lifts counts its crossings in count's bytes, folded into
    # half within every 127 steps.
    pending = m
    count = np.zeros(m, dtype=np.int8)
    # Orbits that leave the float range turn to inf and NaN quietly; the
    # finite tests below flag them.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n + 1):
            x, y, a, b, c, d = map.step_array(x, y)
            # b comes back as a float where the twist entry is constant
            if type(b) is not float or not b > 0.0:
                valid &= b > 0.0
            _combine(a, wx, b, wy, iwx, tmp)
            _combine(c, wx, d, wy, iwy, tmp)
            wx, iwx, wy, iwy = iwx, wx, iwy, wy
            if step % period == 0:
                norm = np.hypot(wx, wy) if guarded else np.sqrt(wx * wx + wy * wy)
                wx /= norm
                wy /= norm
            _odd(wx, wy, odd1)
            np.not_equal(odd1, odd, out=flip)
            # While lanes are pending, a vertical step in which no lane
            # crossed leaves half and the over-conjugate times as they are.
            quiet = pending and vertical and not flip.any()
            if pending or lift:
                if not quiet:
                    half -= flip
            else:
                count -= flip.view(np.int8)
                if step % 127 == 0:
                    half += count
                    count.fill(0)
            odd, odd1 = odd1, odd
            if lift:
                cum = _lifted_angle(wx, wy, half) - th0
                if keep_history:
                    history[step] = cum
            if not pending or quiet:
                continue
            if vertical:
                # the second crossing, when the half-turn index reaches -2
                np.equal(half, -2, out=crossed)
                crossed &= flip
            else:
                np.less(cum, -0.5, out=crossed)
                crossed &= oc == -1
            np.copyto(oc, step, where=crossed)
            hits = np.count_nonzero(crossed)
            pending -= hits
            if stop_at_overconjugate and hits:
                hit = np.flatnonzero(crossed & valid)
                if _finite(x[hit], y[hit], wx[hit], wy[hit]).any():
                    n = step
                    if keep_history:
                        history = history[: n + 1]
                    break
        half += count
        valid &= _finite(x, y, wx, wy)
        cum = np.where(valid, _lifted_angle(wx, wy, half) - th0, np.nan)
        displacement = np.where(valid, x - x0, np.nan)
    oc = np.where(valid, oc, -2)
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

