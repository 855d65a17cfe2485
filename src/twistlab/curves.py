"""Characteristic curves, periodic-orbit graphs, and the integrability probe.

The vertical tilt of a positive twist map makes x' = p1(F(x, y)) strictly
increasing in y, so level sets of x' are graphs over the circle:

* Psi1(x): the unique y with p1(F(x, y)) = x.  Points above the circle
  that do not move horizontally in one step.
* PsiMinus1(x): the second coordinate of F at (x, Psi1(x)); the analogous
  curve for the inverse map.  The signed area between the two curves is
  the flux; it vanishes exactly for exact symplectic families.
* psi_rho for rho = p/q: the graph of y-values whose orbit advances by p
  over q steps, found as the root of p1(F^q(x, y)) = x + p.  For an exact
  map without conjugate points these graphs are invariant circles and are
  strictly ordered in rho.

The integrability probe ties it together: no over-conjugate points on a
grid (evidence, not proof) plus a residual-certified, ordered family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from numbers import Integral, Rational
from typing import Sequence

import numpy as np

from .errors import BracketExpansionError, NonFiniteOrbitError, NonMonotoneBracketError
from .maps import (LiftedMap, _as_point, _check_cap, _check_count, _check_items, _check_real,
                   _orbit, iterate)
from .stats import GridMode, ScanConfig, sample_points, write_table
from .torsion import cocycle_scan, detect_overconjugate

ROOT_TOL = 1e-10
FLUX_ROOT_TOL = 1e-12  # flux's root tolerance, tighter than ROOT_TOL
FIX_RESIDUAL_TOL = 1e-8
FLUX_TOL = 1e-8
BRACKET_LIMIT = float(2**16)
BRACKET_SAMPLES = 9  # samples of each bracket of a psi_family curve
PROBE_CURVE_RESOLUTION = 256  # resolution of the probe's curve family

VERDICT_NOT_APPLICABLE = "NOT_APPLICABLE"
VERDICT_CONJUGATE = "CONJUGATE_POINTS_FOUND"
VERDICT_NO_OBSTRUCTION = "NO_OBSTRUCTION_FOUND"

FIXED = "fixed"
MONOTONE = "monotone"
SWITCH_INTERIOR = "switch_interior"
SWITCH_TOUCHING = "switch_touching"
UNDETERMINED = "undetermined"


@dataclass
class PeriodicCurve:
    """A sampled 1-periodic graph over the circle.

    xs is the uniform grid j/R on [0, 1); evaluation wraps.  residuals
    holds per-node root residuals |p1(F^q(x, y)) - x - p|.  For rotation
    curves, fix_residuals holds the periodicity certificate
    |p2(F^q(x, y)) - y| and fixed_ok records whether it stayed below the
    configured threshold (psi_1 / psi_-1 carry None there).
    """

    xs: np.ndarray
    ys: np.ndarray
    label: str
    residuals: np.ndarray
    rho: Fraction | None = None
    fix_residuals: np.ndarray | None = None
    fixed_ok: bool | None = None

    @property
    def resolution(self) -> int:
        return len(self.xs)

    def evaluate(self, x: float) -> float:
        """Periodic linear interpolation of the sampled graph."""
        r = self.resolution
        t = (_check_real("x", x) % 1.0) * r
        i = int(t) % r
        frac = t - int(t)
        y0 = self.ys[i]
        y1 = self.ys[(i + 1) % r]
        return float(y0 + frac * (y1 - y0))


@dataclass(frozen=True)
class RegionX:
    """Open region between the two characteristic curves.

    The minus region is {(x, y): Psi1(x) < y < PsiMinus1(x)} where that
    slab is nonempty; the plus region is the reverse.  Nonempty regions
    exist only for non-exact maps and wander under the lift.
    """

    sign: str
    lower: PeriodicCurve
    upper: PeriodicCurve

    def contains(self, p) -> bool:
        x, y = _as_point(p)
        return self.lower.evaluate(x) < y < self.upper.evaluate(x)


@dataclass
class PsiFamily:
    """Rotation-ordered family of periodic-orbit curves."""

    rotation_numbers: tuple[Fraction, ...]
    curves: tuple[PeriodicCurve, ...]
    monotone_ok: bool
    ordering_violations: tuple[tuple[Fraction, Fraction, int], ...]

    @property
    def max_root_residual(self) -> float:
        return max(float(np.max(c.residuals)) for c in self.curves)

    @property
    def all_fixed_ok(self) -> bool:
        return all(c.fixed_ok for c in self.curves)


@dataclass(frozen=True)
class RotationEstimate:
    """Finite-horizon rotation number (p1 displacement per step)."""

    value: float
    horizon: int


@dataclass
class ProbeReport:
    """Outcome of the integrability probe (one-sided evidence)."""

    verdict: str
    flux: float
    witness: tuple[float, float] | None = None
    witness_time: int | None = None
    family: PsiFamily | None = None
    grid: tuple[int, int] | None = None
    y_range: tuple[float, float] | None = None
    horizon: int | None = None


def _solve_roots(g, xs: np.ndarray, tol: float, monotone_samples: int = 0):
    """Roots y_j of increasing functions y -> g(xs[j], y), all nodes at once.

    g takes equally shaped arrays of nodes and trial values; a node is
    whatever g reads, an x or an index into the caller's data.  Each node
    runs the same steps it would alone: brackets start at [-1, 1] and
    double outward to +-2^16 before giving up; with monotone_samples > 1
    the bracket is then sampled that many times and must be strictly
    increasing, since bisection could otherwise land on any of several
    roots (NonMonotoneBracketError); bisection stops once |g| < tol or
    the bracket has collapsed to 4 ulp, which a bracket of at most 2^17
    reaches within about 70 halvings.  A node that fails drops out; once
    every node is done, the error of the lowest-index failing node is
    raised.
    """
    # tol = 0 is allowed: no residual beats it, so every bracket collapses
    # and the solver's own error says so.
    tol = _check_real("tol", tol, 0)
    errors, failed = {}, np.zeros(len(xs), dtype=bool)

    def fail(j, error: Exception) -> None:
        failed[j] = True
        errors[int(j)] = error

    lo = np.full(len(xs), -1.0)
    hi = np.full(len(xs), 1.0)
    g_lo, g_hi = g(xs, lo), g(xs, hi)
    for side, edge, g_edge, word in ((-1, lo, g_lo, "down"), (1, hi, g_hi, "up")):
        # Double outward while g still has the sign of the bracket's inside.
        act = np.flatnonzero((side * g_edge < 0.0) & ~failed)
        while act.size:
            edge[act] *= 2.0
            over = side * edge[act] > BRACKET_LIMIT
            for j in act[over]:
                fail(j, BracketExpansionError(f"no sign change {word} to {float(edge[j])}"))
            act = act[~over]
            act = act[side * g(xs[act], edge[act]) < 0.0]
    act = np.flatnonzero(~failed)
    if monotone_samples > 1 and act.size:
        t = np.linspace(lo[act], hi[act], monotone_samples, axis=1)
        v = g(np.repeat(xs[act], monotone_samples), t.ravel()).reshape(t.shape)
        bad = np.any(v[:, 1:] <= v[:, :-1], axis=1)
        for j in act[bad]:
            fail(j, NonMonotoneBracketError(
                f"samples of the bracket [{float(lo[j])}, {float(hi[j])}] are not "
                "increasing (conjugate points present)"
            ))
        act = act[~bad]
    roots = np.full(len(xs), np.nan)
    # The nodes still bisecting, with their brackets, compacted as they finish.
    x, lo, hi = xs[act], lo[act], hi[act]
    while act.size:
        mid = 0.5 * (lo + hi)
        g_mid = g(x, mid)
        done = np.abs(g_mid) < tol
        below = g_mid < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        ulp = np.spacing(np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0))
        collapsed = hi - lo <= 4.0 * ulp
        if not (done.any() or collapsed.any()):
            continue
        roots[act[done]] = mid[done]
        collapsed &= ~done
        if collapsed.any():
            last = 0.5 * (lo[collapsed] + hi[collapsed])
            g_abs = np.abs(g(x[collapsed], last))
            bad = g_abs >= tol
            for j, r in zip(act[collapsed][bad], g_abs[bad]):
                fail(j, BracketExpansionError(
                    f"bracket collapsed with residual {float(r):.3e} >= tol {tol:.3e}"
                ))
            roots[act[collapsed][~bad]] = last[~bad]
        keep = ~(done | collapsed)
        act, x, lo, hi = act[keep], x[keep], lo[keep], hi[keep]
    if errors:
        raise errors[min(errors)]
    return roots


def _sections(
    map: LiftedMap, xs: np.ndarray, p, q, tol: float, monotone_samples: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots ys of p1(F^q(x, y)) = x + p at every node x, and F^q(xs, ys).

    p is one offset or one per node, and q one count or one per node: the
    solver's nodes index xs, p and q, and each node steps its own q times.
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), xs.shape)
    lo, hi = (q, q) if isinstance(q, int) else (int(q.min()), int(q.max()))

    def forward_q(j: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Every node takes the first lo steps; each later step maps only the
        # nodes whose q is larger, so each node's arithmetic is its own.
        for _ in range(lo):
            x, y = map.apply_array(x, y)
        if hi > lo:
            qj, x, y = q[j], x.copy(), y.copy()
        for s in range(lo, hi):
            more = qj > s
            x[more], y[more] = map.apply_array(x[more], y[more])
        return x, y

    def g(j: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = xs[j]
        return forward_q(j, x, y)[0] - x - p[j]

    nodes = np.arange(len(xs))
    ys = _solve_roots(g, nodes, tol, monotone_samples)
    xq, yq = forward_q(nodes, xs, ys)
    return ys, xq, yq


def psi1(map: LiftedMap, x: float) -> float:
    """The unique y with p1(F(x, y)) = x, by bracketed bisection to ROOT_TOL."""
    return float(_sections(map, np.array([_check_real("x", x)]), 0, 1, ROOT_TOL)[0][0])


def psi_minus1(map: LiftedMap, x: float) -> float:
    """Second coordinate of F at (x, psi1(x)): the inverse-map curve."""
    return float(_sections(map, np.array([_check_real("x", x)]), 0, 1, ROOT_TOL)[2][0])


def region_x(map: LiftedMap, sign: str, resolution: int = 256) -> RegionX:
    """The region between Psi1 and PsiMinus1, both sampled on j/resolution by one solve."""
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")
    resolution = _check_cap("resolution", _check_count("resolution", resolution))
    xs = np.arange(resolution) / resolution
    ys, x1, y1 = _sections(map, xs, 0, 1, ROOT_TOL)
    res = np.abs(x1 - xs)
    lower = PeriodicCurve(xs=xs, ys=ys, label="Psi1", residuals=res)
    upper = PeriodicCurve(xs=xs.copy(), ys=y1, label="PsiMinus1", residuals=res.copy())
    if sign == "plus":
        lower, upper = upper, lower
    return RegionX(sign=sign, lower=lower, upper=upper)


def flux(map: LiftedMap, resolution: int = 256) -> float:
    """Integral of PsiMinus1 - Psi1 over the circle (trapezoid rule).

    The roots are solved to FLUX_ROOT_TOL.  Zero (within quadrature and
    root error) exactly when the map is exact symplectic; the drift map
    returns its drift c.
    """
    resolution = _check_cap("resolution", _check_count("resolution", resolution, 2))
    ys, _, y1 = _sections(map, np.arange(resolution) / resolution, 0, 1, FLUX_ROOT_TOL)
    # left to right from 0.0: np.sum's pairwise order moves the last bits
    total = float(np.add.accumulate(np.concatenate(([0.0], y1 - ys)))[-1])
    # Periodic trapezoid: endpoints coincide, so the rule is the mean.
    return total / resolution


def rotation_number(map: LiftedMap, p, horizon: int) -> RotationEstimate:
    """Average p1 displacement per step over `horizon` steps.

    An orbit, or a displacement, that leaves the float range raises
    NonFiniteOrbitError.
    """
    horizon = _check_count("horizon", horizon)
    x0, y0 = _as_point(p)
    x = _orbit(map, (x0, y0), horizon)[0]
    if not math.isfinite(x - x0):  # the displacement of a finite orbit can overflow
        raise NonFiniteOrbitError.at((x0, y0), horizon)
    return RotationEstimate(value=(x - x0) / horizon, horizon=horizon)


def _as_fraction(rho) -> Fraction:
    """A rational number (a Fraction, an int, numpy's too), a "p/q" string or a
    (p, q) pair, as a Fraction of ints; no bool, no zero q."""
    args = rho if isinstance(rho, tuple) else (rho,)
    known = isinstance(rho, (Rational, str)) or (isinstance(rho, tuple) and len(rho) == 2)
    if known and not any(isinstance(a, bool) for a in args):
        try:
            return Fraction(*(int(a) if isinstance(a, Integral) else a for a in args))
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot interpret {rho!r} as a rational rotation number")


def _family(rationals: Sequence, resolution: int):
    """A family's Fractions, resolution and float offsets p, checked: sorted and
    distinct, finite offsets, and one solver sweep's map steps held to the cap."""
    rhos = tuple(_as_fraction(r) for r in rationals)
    if len(rhos) < 1:
        raise ValueError("need at least one rotation number")
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rotation numbers must be sorted and pairwise distinct")
    resolution = _check_count("resolution", resolution)
    _check_cap("resolution * sum(q)", resolution * sum(r.denominator for r in rhos))
    return rhos, resolution, [_check_real("rho", r.numerator) for r in rhos]


def psi_family(
    map: LiftedMap,
    rationals: Sequence,
    resolution: int = 256,
    tol: float = ROOT_TOL,
) -> PsiFamily:
    """Periodic curves for a sorted list of rationals, and their order.

    The curve of p/q holds the roots of p1(F^q(x, y)) = x + p on the grid
    j/resolution.  Each bracket is sampled BRACKET_SAMPLES times and must
    be strictly increasing (F^q tilts verticals rightward only without
    conjugate points), else NonMonotoneBracketError.  fixed_ok is False,
    not raised, when |p2(F^q(x, y)) - y| exceeds FIX_RESIDUAL_TOL: a
    non-exact map has non-fixed sections.  monotone_ok requires strict
    pointwise order of consecutive curves; violations are recorded per
    pair with the number of offending nodes, not raised.  The family is
    one root solve, each node stepping its own q with its own offset p, so
    each curve is bit for bit its own solve's, and a failure raises the
    first failing rational's error, at its lowest failing node.
    """
    rhos, resolution, offsets = _family(rationals, resolution)
    xs = np.arange(resolution) / resolution
    ps = np.repeat(offsets, resolution)
    qs = np.repeat([r.denominator for r in rhos], resolution)
    nodes = np.tile(xs, len(rhos))
    ys, xq, yq = _sections(map, nodes, ps, qs, tol, BRACKET_SAMPLES)
    res, fix = np.abs(xq - nodes - ps), np.abs(yq - ys)
    ys, res, fix = (a.reshape(len(rhos), -1) for a in (ys, res, fix))
    curves = tuple(
        PeriodicCurve(xs.copy(), ys[i], f"PsiRho({r.numerator}/{r.denominator})", res[i], rho=r,
                      fix_residuals=fix[i], fixed_ok=bool(np.max(fix[i]) <= FIX_RESIDUAL_TOL))
        for i, r in enumerate(rhos)
    )
    violations = []
    for (ra, ca), (rb, cb) in zip(zip(rhos, curves), zip(rhos[1:], curves[1:])):
        bad = int(np.count_nonzero(ca.ys >= cb.ys))
        if bad:
            violations.append((ra, rb, bad))
    return PsiFamily(
        rotation_numbers=rhos,
        curves=curves,
        monotone_ok=not violations,
        ordering_violations=tuple(violations),
    )


def classify_monotonicity(map: LiftedMap, p, horizon: int) -> str:
    """Classify the horizontal behaviour of the orbit of p over [-N, N].

    Orbits of a map without conjugate points move horizontally in one of
    three ways: strictly monotonically, with exactly one interior switch
    of direction, or with a single stationary step separating the two
    directions.  The check first rules out an over-conjugate point along
    the sampled segment (single vertical-start pass from F^{-N}(p) over
    2N steps); if one fires the classification is not valid and
    "undetermined" is returned.  Fixed points are reported as "fixed".
    Steps shorter than 1e-12 count as stationary.
    """
    horizon = _check_count("horizon", horizon)
    back = iterate(map, p, -horizon)
    fwd = iterate(map, p, horizon)
    seg = np.vstack((back[::-1], fwd[1:]))
    px, py = _as_point(p)
    if np.max(np.abs(seg - (px, py))) < 1e-12:
        return FIXED
    if detect_overconjugate(map, tuple(back[-1]), 2 * horizon) is not None:
        return UNDETERMINED
    d = np.diff(seg[:, 0])
    signs = np.where(d > 1e-12, 1, np.where(d < -1e-12, -1, 0))
    runs = [int(s) for s, _ in groupby(signs)]
    if runs in ([1], [-1]):
        return MONOTONE
    if runs in ([1, -1], [-1, 1]):
        return SWITCH_INTERIOR
    if runs in ([1, 0, -1], [-1, 0, 1]):
        # The zero run must be a single stationary step.
        if int(np.count_nonzero(signs == 0)) == 1:
            return SWITCH_TOUCHING
    return UNDETERMINED


def integrability_probe(
    map: LiftedMap,
    grid: tuple[int, int] = (64, 64),
    y_range: tuple[float, float] = (-2.0, 2.0),
    horizon: int = 10_000,
    rationals: Sequence = (Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(0),
                           Fraction(1, 3), Fraction(1, 2), Fraction(1)),
) -> ProbeReport:
    """One-sided test for a phase space foliated by invariant circles.

    Order of business: the grid's lanes and the rationals are checked
    first (these as psi_family checks them); a non-exact map (|flux| > FLUX_TOL) gets
    NOT_APPLICABLE; an over-conjugate point anywhere on the grid within
    the horizon gives CONJUGATE_POINTS_FOUND with the earliest witness
    (the grid scan stops at the step it appears, lowest index first);
    otherwise the rational family is built at PROBE_CURVE_RESOLUTION and
    certified and the verdict is NO_OBSTRUCTION_FOUND, but only if every
    grid orbit stayed valid to the horizon: else NonFiniteOrbitError names
    the first invalid lane's start.  The grid is a scan's, over the box
    (0, 1) x y_range.  Absence of detection is evidence, not proof.
    """
    nx, ny = (_check_count("grid", n) for n in _check_items("grid", grid))
    horizon = _check_count("horizon", horizon)
    y0, y1 = (_check_real("y_range", y) for y in _check_items("y_range", y_range))
    if not (y0 < y1 and math.isfinite(y1 - y0)):
        raise ValueError(f"y_range must satisfy y0 < y1 with a finite height, got {(y0, y1)}")
    cfg = ScanConfig(box=(0.0, 1.0, y0, y1), mode=GridMode(nx, ny), horizon=horizon)
    xs, ys = sample_points(cfg)
    rhos = _family(rationals, PROBE_CURVE_RESOLUTION)[0]
    fl = flux(map)
    report = ProbeReport(
        verdict=VERDICT_NOT_APPLICABLE,
        flux=fl,
        grid=(nx, ny),
        y_range=cfg.box[2:],
        horizon=horizon,
    )
    if abs(fl) > FLUX_TOL:
        return report
    scan = cocycle_scan(map, xs, ys, horizon, stop_at_overconjugate=True)
    times = scan.overconj_time  # -2 on invalid lanes
    hit = times > 0
    if np.any(hit):
        t_min = int(times[hit].min())
        idx = int(np.flatnonzero(times == t_min)[0])
        report.verdict = VERDICT_CONJUGATE
        report.witness = (float(xs[idx]), float(ys[idx]))
        report.witness_time = t_min
        return report
    if not scan.valid.all():
        idx = int(np.argmin(scan.valid))
        raise NonFiniteOrbitError.at((float(xs[idx]), float(ys[idx])), horizon)
    report.verdict = VERDICT_NO_OBSTRUCTION
    report.family = psi_family(map, rhos, PROBE_CURVE_RESOLUTION)
    return report


def write_curves_csv(curves: Sequence[PeriodicCurve], path, metadata: dict) -> None:
    """Serialize curves as CSV: columns x, y, residual, label.

    Metadata pairs go into the # key=value lines ahead of the header
    (stats.write_table) so the file is self-describing.  Floats are
    written with repr so parsing the file back reproduces them bit for bit.
    """
    columns = {
        "x": [x for c in curves for x in c.xs.tolist()],
        "y": [y for c in curves for y in c.ys.tolist()],
        "residual": [r for c in curves for r in c.residuals.tolist()],
        "label": [c.label for c in curves for _ in c.xs],
    }
    write_table(path, metadata.items(), columns)
