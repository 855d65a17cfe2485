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
from typing import Sequence

import numpy as np

from .errors import BracketExpansionError, NonFiniteOrbitError, NonMonotoneBracketError
from .maps import LiftedMap, _as_point, _first_non_finite, iterate
from .stats import write_table
from .torsion import cocycle_scan, detect_overconjugate

ROOT_TOL = 1e-10
FIX_RESIDUAL_TOL = 1e-8
FLUX_TOL = 1e-8
BRACKET_LIMIT = float(2**16)

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
        t = (float(x) % 1.0) * r
        i = int(t) % r
        frac = t - int(t)
        y0 = self.ys[i]
        y1 = self.ys[(i + 1) % r]
        return float(y0 + frac * (y1 - y0))

    def lipschitz(self) -> float:
        """Max divided difference over adjacent nodes (wrap included)."""
        dy = np.abs(np.diff(self.ys, append=self.ys[0]))
        return float(np.max(dy) * self.resolution)


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


def _solve_roots(g, xs: np.ndarray, tol: float, monotone_samples: int = 0, errors=None):
    """Roots y_j of increasing functions y -> g(xs[j], y), all nodes at once.

    g takes equally shaped arrays of nodes and trial values; a node is
    whatever g reads, an x or an index into the caller's data.  Each node
    runs the same steps it would alone: brackets start at [-1, 1] and
    double outward to +-2^16 before giving up; with monotone_samples > 1
    the bracket is then sampled that many times and must be strictly
    increasing, since bisection could otherwise land on any of several
    roots (NonMonotoneBracketError); bisection stops once |g| < tol, when
    the bracket has collapsed to 4 ulp, or after 200 halvings.  Nodes
    that fail drop out with a NaN root.  Their errors go into errors, by
    node index, when it is given; otherwise, once all nodes are done, the
    error of the lowest-index failing node is raised.
    """
    # tol = 0 is allowed: no residual beats it, so every bracket collapses
    # and the solver's own error says so.
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    m = xs.shape[0]
    raise_first = errors is None
    errors = {} if raise_first else errors
    failed = np.zeros(m, dtype=bool)

    def fail(j, error: Exception) -> None:
        failed[j] = True
        errors[int(j)] = error

    lo = np.full(m, -1.0)
    hi = np.full(m, 1.0)
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
    roots = np.full(m, np.nan)
    # The nodes still bisecting, with their brackets, compacted as they finish.
    x, lo, hi = xs[act], lo[act], hi[act]
    for _ in range(200):
        if not act.size:
            break
        mid = 0.5 * (lo + hi)
        g_mid = g(x, mid)
        done = np.abs(g_mid) < tol
        if done.any():
            roots[act[done]] = mid[done]
            keep = ~done
            act, x, lo, hi = act[keep], x[keep], lo[keep], hi[keep]
            mid, g_mid = mid[keep], g_mid[keep]
        below = g_mid < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        ulp = np.spacing(np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0))
        collapsed = hi - lo <= 4.0 * ulp
        if collapsed.any():
            last = 0.5 * (lo[collapsed] + hi[collapsed])
            g_abs = np.abs(g(x[collapsed], last))
            bad = g_abs >= tol
            for j, r in zip(act[collapsed][bad], g_abs[bad]):
                fail(j, BracketExpansionError(
                    f"bracket collapsed with residual {float(r):.3e} >= tol {tol:.3e}"
                ))
            roots[act[collapsed][~bad]] = last[~bad]
            keep = ~collapsed
            act, x, lo, hi = act[keep], x[keep], lo[keep], hi[keep]
    for j in act:
        fail(j, BracketExpansionError("bisection failed to meet tolerance"))
    if raise_first and errors:
        raise errors[min(errors)]
    return roots


def _sections(
    map: LiftedMap, xs: np.ndarray, p, q: int, tol: float, monotone_samples: int = 0, errors=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots ys of p1(F^q(x, y)) = x + p at every node x, and F^q(xs, ys).

    p is one offset or one per node: the solver's nodes index xs and p.
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), xs.shape)

    def forward_q(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        for _ in range(q):
            x, y = map.apply_array(x, y)
        return x, y

    def g(j: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = xs[j]
        return forward_q(x, y)[0] - x - p[j]

    ys = _solve_roots(g, np.arange(len(xs)), tol, monotone_samples, errors)
    xq, yq = forward_q(xs, ys)
    return ys, xq, yq


def psi1(map: LiftedMap, x: float, tol: float = ROOT_TOL) -> float:
    """The unique y with p1(F(x, y)) = x, by bracketed bisection."""
    return float(_sections(map, np.array([float(x)]), 0, 1, tol)[0][0])


def psi_minus1(map: LiftedMap, x: float, tol: float = ROOT_TOL) -> float:
    """Second coordinate of F at (x, psi1(x)): the inverse-map curve."""
    return float(_sections(map, np.array([float(x)]), 0, 1, tol)[2][0])


def _characteristic_curves(
    map: LiftedMap, resolution: int, tol: float
) -> tuple[PeriodicCurve, PeriodicCurve]:
    """Psi1 and PsiMinus1 on the uniform grid j/resolution, from one solve."""
    xs = np.arange(resolution) / resolution
    ys, x1, y1 = _sections(map, xs, 0, 1, tol)
    res = np.abs(x1 - xs)
    return (
        PeriodicCurve(xs=xs, ys=ys, label="Psi1", residuals=res),
        PeriodicCurve(xs=xs.copy(), ys=y1, label="PsiMinus1", residuals=res.copy()),
    )


def psi1_curve(map: LiftedMap, resolution: int = 256, tol: float = ROOT_TOL) -> PeriodicCurve:
    """Sample Psi1 on the uniform grid j/resolution."""
    return _characteristic_curves(map, resolution, tol)[0]


def psi_minus1_curve(
    map: LiftedMap, resolution: int = 256, tol: float = ROOT_TOL
) -> PeriodicCurve:
    """Sample PsiMinus1 on the uniform grid j/resolution."""
    return _characteristic_curves(map, resolution, tol)[1]


def region_x(map: LiftedMap, sign: str, resolution: int = 256, tol: float = ROOT_TOL) -> RegionX:
    """Build the region between the characteristic curves for one sign."""
    if sign not in ("minus", "plus"):
        raise ValueError("sign must be 'minus' or 'plus'")
    lower, upper = _characteristic_curves(map, resolution, tol)
    if sign == "plus":
        lower, upper = upper, lower
    return RegionX(sign=sign, lower=lower, upper=upper)


def flux(map: LiftedMap, resolution: int = 256, tol: float = 1e-12) -> float:
    """Integral of PsiMinus1 - Psi1 over the circle (trapezoid rule).

    Zero (within quadrature and root error) exactly when the map is exact
    symplectic; the drift map returns its drift c.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    ys, _, y1 = _sections(map, np.arange(resolution) / resolution, 0, 1, tol)
    # left to right from 0.0: np.sum's pairwise order moves the last bits
    total = float(np.add.accumulate(np.concatenate(([0.0], y1 - ys)))[-1])
    # Periodic trapezoid: endpoints coincide, so the rule is the mean.
    return total / resolution


def rotation_number(map: LiftedMap, p, horizon: int) -> RotationEstimate:
    """Average p1 displacement per step over `horizon` steps.

    An orbit, or a displacement, that leaves the float range raises
    NonFiniteOrbitError.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    x0, y0 = _as_point(p)
    x, y = x0, y0
    try:
        for n in range(1, horizon + 1):
            x, y = map.apply_scalar(x, y)
    except (ArithmeticError, ValueError) as exc:
        raise NonFiniteOrbitError.at((x0, y0), n) from exc
    # shear and drift carry inf on; the displacement of a finite orbit
    # can overflow too, at the horizon
    if not (math.isfinite(x - x0) and math.isfinite(y)):
        raise NonFiniteOrbitError.at((x0, y0), _first_non_finite(map.apply_scalar, x0, y0, horizon))
    return RotationEstimate(value=(x - x0) / horizon, horizon=horizon)


def periodic_curve(
    map: LiftedMap,
    p: int,
    q: int,
    resolution: int = 256,
    tol: float = ROOT_TOL,
    bracket_samples: int = 9,
) -> PeriodicCurve:
    """Graph of the rotation-p/q section: roots of p1(F^q(x, y)) = x + p.

    Each bracket is sampled `bracket_samples` times and must be strictly
    increasing (F^q keeps tilting verticals rightward only in the absence
    of conjugate points); a decrease raises NonMonotoneBracketError.  The
    second-coordinate residual |p2(F^q(x, y)) - y| certifies that the
    section is actually fixed by F^q - (p, 0); when it exceeds
    FIX_RESIDUAL_TOL the curve is returned with fixed_ok = False rather
    than raised, since a non-exact map legitimately produces a non-fixed
    section.
    """
    p = int(p)
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
    return _rotation_curves(map, (Fraction(p, q),), resolution, tol, bracket_samples)[0]


def _rotation_curves(
    map: LiftedMap, rhos: Sequence[Fraction], resolution: int, tol: float, bracket_samples: int = 9
) -> tuple[PeriodicCurve, ...]:
    """periodic_curve for each of the sorted rhos, one root solve per denominator.

    The rationals p/q of one q share F^q, so their nodes are solved
    together, each with its offset p.  Every node takes the steps it
    would alone, so each curve is bit for bit its own solve's, and a
    failure raises the error that one solve per rational in order would:
    the first failing rational's, at its lowest failing node.
    """
    xs = np.arange(resolution) / resolution
    curves, errors = {}, {}
    for q in dict.fromkeys(r.denominator for r in rhos):
        group, failed = [r for r in rhos if r.denominator == q], {}
        ps = np.repeat([float(r.numerator) for r in group], len(xs))
        solved = _sections(map, np.tile(xs, len(group)), ps, q, tol, bracket_samples, failed)
        if failed:
            errors[group[min(failed) // len(xs)]] = failed[min(failed)]
            continue
        for r, ys, xq, yq in zip(group, *(a.reshape(len(group), -1) for a in solved)):
            fix_res = np.abs(yq - ys)
            curves[r] = PeriodicCurve(xs.copy(), ys, f"PsiRho({r.numerator}/{q})",
                                      np.abs(xq - xs - r.numerator), rho=r, fix_residuals=fix_res,
                                      fixed_ok=bool(np.max(fix_res) <= FIX_RESIDUAL_TOL))
    if errors:
        raise errors[min(errors)]
    return tuple(curves[r] for r in rhos)


def _as_fraction(rho) -> Fraction:
    if isinstance(rho, tuple):
        return Fraction(rho[0], rho[1])
    if isinstance(rho, (Fraction, int, str)):
        return Fraction(rho)
    raise ValueError(f"cannot interpret {rho!r} as a rational rotation number")


def psi_family(
    map: LiftedMap,
    rationals: Sequence,
    resolution: int = 256,
    tol: float = ROOT_TOL,
) -> PsiFamily:
    """Build periodic curves for a sorted list of rationals and check order.

    The curves take one root solve per denominator (_rotation_curves).
    monotone_ok requires strict pointwise ordering between consecutive
    curves at every shared node; violations are recorded per pair with
    the number of offending nodes, not raised.
    """
    rhos = tuple(_as_fraction(r) for r in rationals)
    if len(rhos) < 1:
        raise ValueError("need at least one rotation number")
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rotation numbers must be sorted and pairwise distinct")
    curves = _rotation_curves(map, rhos, resolution, tol)
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
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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
    rationals: Sequence = (
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(-1, 3),
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
    ),
    curve_resolution: int = 256,
) -> ProbeReport:
    """One-sided test for a phase space foliated by invariant circles.

    Order of business: a non-exact map (|flux| > FLUX_TOL) gets
    NOT_APPLICABLE; an over-conjugate point anywhere on the grid within
    the horizon gives CONJUGATE_POINTS_FOUND with the earliest witness
    (the grid scan stops at the step it appears, lowest index first);
    otherwise the rational family is built and certified and the verdict
    is NO_OBSTRUCTION_FOUND.  Absence of detection is evidence, not proof.
    """
    nx, ny = int(grid[0]), int(grid[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    if nx < 1 or ny < 1 or not y0 < y1:
        raise ValueError("grid must be positive and y_range increasing")
    fl = flux(map)
    report = ProbeReport(
        verdict=VERDICT_NOT_APPLICABLE,
        flux=fl,
        grid=(nx, ny),
        y_range=(y0, y1),
        horizon=int(horizon),
    )
    if abs(fl) > FLUX_TOL:
        return report
    gx = (np.arange(nx) + 0.5) / nx
    gy = y0 + (np.arange(ny) + 0.5) * ((y1 - y0) / ny)
    X, Y = np.meshgrid(gx, gy)
    scan = cocycle_scan(map, X.ravel(), Y.ravel(), int(horizon), stop_at_overconjugate=True)
    times = scan.overconj_time
    hit = times > 0
    if np.any(hit):
        t_min = int(times[hit].min())
        idx = int(np.flatnonzero(times == t_min)[0])
        report.verdict = VERDICT_CONJUGATE
        report.witness = (float(X.ravel()[idx]), float(Y.ravel()[idx]))
        report.witness_time = t_min
        return report
    report.verdict = VERDICT_NO_OBSTRUCTION
    report.family = psi_family(map, rationals, curve_resolution)
    return report


def write_curves_csv(curves: Sequence[PeriodicCurve], path, metadata: dict | None = None) -> None:
    """Serialize curves as CSV: columns x, y, residual, label.

    Metadata pairs go into the # key=value lines ahead of the header
    (stats.write_table) so the file is self-describing.  Floats are
    written with repr so parsing the file back reproduces them bit for bit.
    """
    rows = [
        f"{x!r},{y!r},{r!r},{curve.label}"
        for curve in curves
        for x, y, r in zip(curve.xs.tolist(), curve.ys.tolist(), curve.residuals.tolist())
    ]
    write_table(path, (metadata or {}).items(), "x,y,residual,label", rows)
