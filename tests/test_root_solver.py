"""The node-vectorised curve solver against a per-node reference, and the
closed-form characteristic curves of the catalogue."""

import math
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    drift_shear,
    flux,
    generating_function,
    psi1,
    psi_family,
    psi_minus1,
    region_x,
    shear,
    standard,
)
from twistlab.curves import BRACKET_LIMIT, ROOT_TOL, _sections, _solve_roots
from twistlab.errors import BracketExpansionError, NonMonotoneBracketError

# -- reference: one scalar bisection per node ------------------------------


def ref_bisect_root(g, tol, monotone_samples=0):
    lo, hi = -1.0, 1.0
    g_lo, g_hi = g(lo), g(hi)
    while g_lo > 0.0:
        lo *= 2.0
        if -lo > BRACKET_LIMIT:
            raise BracketExpansionError(f"no sign change down to {lo}")
        g_lo = g(lo)
    while g_hi < 0.0:
        hi *= 2.0
        if hi > BRACKET_LIMIT:
            raise BracketExpansionError(f"no sign change up to {hi}")
        g_hi = g(hi)
    if monotone_samples > 1:
        prev = None
        for t in np.linspace(lo, hi, monotone_samples):
            val = g(float(t))
            if prev is not None and val <= prev:
                raise NonMonotoneBracketError(
                    f"samples of the bracket [{lo}, {hi}] are not increasing "
                    "(conjugate points present)"
                )
            prev = val
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) < tol:
            return mid, abs(g_mid)
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            mid = 0.5 * (lo + hi)
            g_mid = abs(g(mid))
            if g_mid >= tol:
                raise BracketExpansionError(
                    f"bracket collapsed with residual {g_mid:.3e} >= tol {tol:.3e}"
                )
            return mid, g_mid
    raise BracketExpansionError("bisection failed to meet tolerance")


def ref_psi1(m, x, tol=ROOT_TOL):
    x = float(x)
    return ref_bisect_root(lambda y: m.apply_scalar(x, y)[0] - x, tol)[0]


def ref_characteristic(m, resolution, tol=ROOT_TOL):
    """(xs, Psi1 ys, PsiMinus1 ys, residuals) node by node."""
    xs = np.arange(resolution) / resolution
    ys, ys_minus, res = np.empty(resolution), np.empty(resolution), np.empty(resolution)
    for j, x in enumerate(xs):
        y = ref_psi1(m, float(x), tol)
        fx, ys_minus[j] = m.apply_scalar(float(x), y)
        ys[j] = y
        res[j] = abs(fx - x)
    return xs, ys, ys_minus, res


def ref_flux(m, resolution, tol=1e-12):
    total = 0.0
    for j in range(resolution):
        x = j / resolution
        y = ref_psi1(m, x, tol)
        total += m.apply_scalar(x, y)[1] - y
    return total / resolution


def ref_periodic(m, p, q, resolution, tol=ROOT_TOL, bracket_samples=9):
    def forward_q(x, y):
        for _ in range(q):
            x, y = m.apply_scalar(x, y)
        return x, y

    xs = np.arange(resolution) / resolution
    ys, root_res, fix_res = np.empty(resolution), np.empty(resolution), np.empty(resolution)
    for j, xg in enumerate(xs):
        x = float(xg)
        y, _ = ref_bisect_root(lambda y: forward_q(x, y)[0] - x - p, tol, bracket_samples)
        xq, yq = forward_q(x, y)
        ys[j] = y
        root_res[j] = abs(xq - x - p)
        fix_res[j] = abs(yq - y)
    return xs, ys, root_res, fix_res


def outcome(f):
    """f()'s value, or the type and message of what it raised."""
    try:
        return ("ok", f())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc))


def same(a, b):
    """Bit-equality of outcomes made of floats, arrays and tuples."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(u, v) for u, v in zip(a, b))
    return a == b


SOLVER_MAPS = [
    standard(0.0),
    standard(0.3),
    standard(1.0),
    standard(1.5),
    standard(3.0),
    shear(),
    drift_shear(0.25),
    generating_function(0.02, -0.007),
]
RESOLUTIONS = (2, 3, 8, 17, 64)
RATIONALS = ((0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("m", SOLVER_MAPS, ids=lambda m: m.to_spec())
def test_characteristic_curves_match_reference(m):
    for r in RESOLUTIONS:
        xs, ys, ys_minus, res = ref_characteristic(m, r)
        minus = region_x(m, "minus", r)
        lower, upper = minus.lower, minus.upper
        assert same((lower.xs, lower.ys, lower.residuals), (xs, ys, res))
        assert same((upper.xs, upper.ys, upper.residuals), (xs, ys_minus, res))
        plus = region_x(m, "plus", r)
        assert same((plus.lower.ys, plus.upper.ys), (ys_minus, ys))
        assert same(outcome(lambda: flux(m, r)), outcome(lambda: ref_flux(m, r)))
    for x in (0.0, 0.25, 0.5, 0.3711, -2.6, 17.05):
        assert same(outcome(lambda: psi1(m, x)), outcome(lambda: ref_psi1(m, x)))
        want = outcome(lambda: m.apply_scalar(x, ref_psi1(m, x))[1])
        assert same(outcome(lambda: psi_minus1(m, x)), want)


@pytest.mark.parametrize("m", SOLVER_MAPS, ids=lambda m: m.to_spec())
def test_periodic_curve_matches_reference(m):
    raised = 0
    for r in RESOLUTIONS:
        for p, q in RATIONALS:
            want = outcome(lambda: ref_periodic(m, p, q, r))

            def got():
                c = psi_family(m, [Fraction(p, q)], r).curves[0]
                return c.xs, c.ys, c.residuals, c.fix_residuals

            assert same(outcome(got), want), (p, q, r)
            raised += want[0] == "raised"
    if m == standard(3.0):
        # conjugate points make some brackets non-monotone
        assert raised > 0


@pytest.mark.parametrize(
    "m, tol, samples",
    [
        (standard(1.0), 0.0, 9),  # |g| < 0 never holds: brackets collapse
        (standard(1.0), 1e-17, 0),
        (drift_shear(0.25), 1e-16, 3),
        (standard(1e6), ROOT_TOL, 9),  # no sign change within +-2^16
        (standard(3.0), ROOT_TOL, 17),
        (standard(1.5), ROOT_TOL, 2),
        (standard(20.0), ROOT_TOL, 9),  # |Psi1| up to 3.2: brackets double before the samples
        (standard(20.0), ROOT_TOL, 17),
    ],
)
def test_solver_errors_match_reference(m, tol, samples):
    # the public curves fix tol and the bracket samples, so the shared
    # solve is called at these values directly
    for r in (2, 5, 16):
        xs = np.arange(r) / r
        for p, q in ((0, 1), (1, 2), (-1, 3)):
            want = outcome(lambda: ref_periodic(m, p, q, r, tol, samples))

            def got():
                ys, xq, yq = _sections(m, xs, p, q, tol, samples)
                return xs, ys, np.abs(xq - xs - p), np.abs(yq - ys)

            assert same(outcome(got), want), (p, q, r)
        # Psi1 and PsiMinus1, whose difference flux sums
        want = outcome(lambda: ref_characteristic(m, r, tol)[1:3])
        assert same(outcome(lambda: _sections(m, xs, 0, 1, tol)[::2]), want)


def test_lowest_failing_node_raises():
    # Psi1 of std:k=1e6 is about 1.6e5 sin(2 pi x), beyond the +-2^16
    # bracket at all nodes j/8 but 0 and 4.  Node 5 fails while doubling
    # downward, before node 1 fails upward; node 1's error is raised.
    m = standard(1e6)
    with pytest.raises(BracketExpansionError, match="^no sign change up to 131072.0$"):
        region_x(m, "minus", 8)
    with pytest.raises(BracketExpansionError, match="^no sign change down to -131072.0$"):
        psi1(m, 5 / 8)


def flat_top(x, y):
    return np.minimum(y, 0.25) - x


def nan_top(x, y):
    return np.where(y > 0.75, np.nan, y - x)


@pytest.mark.parametrize("g", [flat_top, nan_top])
@pytest.mark.parametrize("samples", [0, 9])
def test_solver_matches_reference_on_edge_functions(g, samples):
    # flat stretches (equal samples are not increasing), NaN values (every
    # comparison with them is false) and nodes without a sign change
    xs = np.array([0.1, -0.5, 0.3, 0.9, 2.0, -3.0, 0.0])
    for lo in range(len(xs)):
        nodes = xs[lo:]

        def ref():
            roots = []
            for x in nodes:
                def gx(y, x=x):
                    return float(g(np.array([x]), np.array([y]))[0])

                roots.append(ref_bisect_root(gx, ROOT_TOL, samples)[0])
            return np.array(roots)

        assert same(outcome(lambda: _solve_roots(g, nodes, ROOT_TOL, samples)), outcome(ref))


# -- closed forms: every catalogue family has x' = x + y' ------------------


def kick_force(m, xs):
    """-V'(x): Psi1 of the kicked families, 0 for shear and drift."""
    if m.family == "standard":
        return m.params[0] / (2.0 * math.pi) * np.sin(2.0 * math.pi * xs)
    if m.family == "genfun":
        return sum(
            2.0 * math.pi * i * a * np.sin(2.0 * math.pi * i * xs)
            for i, a in enumerate(m.params, start=1)
        )
    return np.zeros_like(xs)


@pytest.mark.parametrize("m", SOLVER_MAPS, ids=lambda m: m.to_spec())
def test_characteristic_curves_closed_form(m):
    minus = region_x(m, "minus", 64)
    lower, upper = minus.lower, minus.upper
    assert np.max(np.abs(lower.ys - kick_force(m, lower.xs))) < 2 * ROOT_TOL
    drift = m.params[0] if m.family == "drift" else 0.0
    assert np.max(np.abs(upper.ys - drift)) < 2 * ROOT_TOL


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, -1e-300])
def test_solver_rejects_a_bad_tol(tol):
    # tol=inf returned unsolved roots (residual 1.23), nan returned too, and
    # -1 failed later with a bracket error naming the tolerance
    calls = [
        lambda: psi_family(standard(0.5), [Fraction(0), Fraction(1, 2)], resolution=16, tol=tol),
        lambda: psi_family(standard(0.5), [Fraction(1, 2)], 8, tol),
        # the solves behind psi1 and flux, whose tol is fixed
        lambda: _sections(standard(0.5), np.array([0.25]), 0, 1, tol),
        lambda: _sections(drift_shear(0.25), np.arange(16) / 16, 0, 1, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite"):
            call()


def test_solver_tol_zero_collapses_every_bracket():
    # no residual is below 0, so bisection ends on the collapsed bracket,
    # as the per-node reference does (test_solver_errors_match_reference)
    with pytest.raises(BracketExpansionError, match="bracket collapsed"):
        _sections(standard(0.5), np.array([0.25]), 0, 1, 0.0)
    with pytest.raises(BracketExpansionError, match="bracket collapsed"):
        _solve_roots(lambda x, y: y - x, np.array([0.1, 0.3]), 0.0)


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300])
def test_solver_tol_zero_ends_by_the_collapse_test(scale):
    # No residual is below tol = 0, so every node ends on the 4-ulp collapse
    # test, which a bracket of at most 2^17 reaches within about 70 halvings:
    # a solve takes under 100 calls of g, bracketing included, and needs no
    # cap on its halvings.
    top = math.nextafter(BRACKET_LIMIT, 0.0)
    roots = np.array([0.0, 1.0, -1.0, top, -top, BRACKET_LIMIT, -BRACKET_LIMIT])
    for nodes in [[j] for j in range(len(roots))] + [list(range(len(roots)))]:
        calls = []

        def g(j, y):
            calls.append(len(j))
            return scale * (y - roots[j])

        with pytest.raises(BracketExpansionError, match="^bracket collapsed with residual"):
            _solve_roots(g, np.array(nodes), 0.0)
        assert len(calls) <= 100, nodes
