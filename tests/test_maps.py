"""Map catalogue: evaluation, derivatives, inverses, iteration, parsing."""

import math
import pickle
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistlab.maps
from twistlab import (
    GridMode,
    IterationCapError,
    MonteCarloMode,
    ScanConfig,
    cocycle_scan,
    drift_shear,
    flux,
    generating_function,
    integrability_probe,
    iterate,
    parse_map_spec,
    psi_family,
    region_x,
    shear,
    standard,
    torsion_field,
    torsion_trace,
    twist_check,
)
from twistlab.cli import run
from twistlab.maps import GENFUN_MAX_INDEX, ITERATE_CAP, _column

TWO_PI = 2.0 * math.pi

ALL_MAPS = [
    shear(),
    drift_shear(0.25),
    standard(0.5),
    standard(1.0),
    generating_function(0.02, -0.007),
]


def finite_difference_jacobian(m, x, y, h=1e-6):
    fx1 = m.apply_scalar(x + h, y)
    fx0 = m.apply_scalar(x - h, y)
    fy1 = m.apply_scalar(x, y + h)
    fy0 = m.apply_scalar(x, y - h)
    return (
        (fx1[0] - fx0[0]) / (2 * h),
        (fy1[0] - fy0[0]) / (2 * h),
        (fx1[1] - fx0[1]) / (2 * h),
        (fy1[1] - fy0[1]) / (2 * h),
    )


def test_eval_examples():
    assert shear().apply_scalar(0.3, 0.5) == pytest.approx((0.8, 0.5), abs=1e-15)
    got = standard(1.0).apply_scalar(0.25, 0.0)
    want = (0.25 - 1.0 / TWO_PI, -1.0 / TWO_PI)
    assert got == pytest.approx(want, abs=1e-15)
    assert drift_shear(0.25).apply_scalar(0.0, 0.1) == pytest.approx((0.1, 0.35), abs=1e-15)


def test_derivative_examples():
    assert shear().jacobian_scalar(3.7, -1.2) == pytest.approx((1, 1, 0, 1), abs=0)
    assert standard(1.0).jacobian_scalar(0.0, 0.0) == pytest.approx((0, 1, -1, 1), abs=1e-15)
    assert standard(1.0).jacobian_scalar(0.5, 0.0) == pytest.approx((2, 1, 1, 1), abs=1e-15)


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_derivative_matches_finite_differences(m):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = float(rng.uniform(-1, 2))
        y = float(rng.uniform(-2, 2))
        exact = m.jacobian_scalar(x, y)
        approx = finite_difference_jacobian(m, x, y)
        assert exact == pytest.approx(approx, abs=1e-6)


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_determinant_is_one(m):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = (float(v) for v in rng.uniform(-3, 3, size=2))
        a, b, c, d = m.jacobian_scalar(x, y)
        assert abs(a * d - b * c - 1.0) < 1e-12


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_lift_equivariance(m):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = (float(v) for v in rng.uniform(-2, 2, size=2))
        fx, fy = m.apply_scalar(x, y)
        gx, gy = m.apply_scalar(x + 1.0, y)
        assert abs(gx - fx - 1.0) < 1e-12
        assert abs(gy - fy) < 1e-12


def test_eval_inverse_examples():
    assert shear().apply_inverse_scalar(0.8, 0.5) == pytest.approx((0.3, 0.5), abs=1e-15)
    assert drift_shear(0.25).apply_inverse_scalar(0.1, 0.35) == pytest.approx(
        (0.0, 0.1), abs=1e-15
    )
    m = standard(1.0)
    assert m.apply_inverse_scalar(*m.apply_scalar(0.25, 0.0)) == pytest.approx(
        (0.25, 0.0), abs=1e-12
    )


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_inverse_round_trip(m):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, size=(10_000, 2))
    for x, y in pts:
        fx, fy = m.apply_scalar(*m.apply_inverse_scalar(x, y))
        assert math.hypot(fx - x, fy - y) < 1e-10
        bx, by = m.apply_inverse_scalar(*m.apply_scalar(x, y))
        assert math.hypot(bx - x, by - y) < 1e-10


def test_iterate_examples():
    seg = iterate(shear(), (0.0, 1.0 / 3.0), 3)
    want = [(0, 1 / 3), (1 / 3, 1 / 3), (2 / 3, 1 / 3), (1, 1 / 3)]
    assert seg == pytest.approx(np.array(want), abs=1e-12)

    seg = iterate(drift_shear(0.25), (0.0, 0.1), 2)
    want = [(0.0, 0.1), (0.1, 0.35), (0.45, 0.6)]
    assert seg == pytest.approx(np.array(want), abs=1e-15)


def test_hyperbolic_fixed_point_is_exact():
    # sin at half-integers must be exactly zero or the orbit escapes
    # along the unstable manifold of (0.5, 0).
    seg = iterate(standard(1.0), (0.5, 0.0), 2)
    assert np.array_equal(seg, np.array([[0.5, 0.0]] * 3))
    seg = iterate(standard(1.0), (0.0, 0.0), 5)
    assert np.array_equal(seg, np.zeros((6, 2)))
    seg = iterate(generating_function(0.03, 0.001), (0.5, 0.0), 3)
    assert np.array_equal(seg, np.array([[0.5, 0.0]] * 4))


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_iterate_composition_and_negative(m):
    rng = np.random.default_rng(19)
    p = tuple(rng.uniform(-1, 1, size=2))
    a, b = 4, 7
    whole = iterate(m, p, a + b)
    part = iterate(m, tuple(iterate(m, p, a)[-1]), b)
    assert whole[a:] == pytest.approx(part, abs=1e-12)
    back = iterate(m, tuple(whole[-1]), -(a + b))
    assert tuple(back[-1]) == pytest.approx(p, abs=1e-9)
    assert len(whole) == a + b + 1


def test_iterate_cap():
    # raises before the (|n| + 1, 2) array is allocated
    with pytest.raises(IterationCapError):
        iterate(shear(), (0.0, 0.0), ITERATE_CAP + 1)


BOX = (0.0, 1.0, 0.0, 1.0)

# Every capped entry point as a request of size k: (the size's name, the
# cap under test, the call).  Each call builds its map, so the kernels
# fixture sees it.  The probe's flux always solves 256 nodes, so its cap is 256.
CAPPED = {
    "iterate": ("n", 10, lambda k: iterate(shear(), (0.0, 0.0), -k)),
    "torsion_trace": ("n", 10, lambda k: torsion_trace(shear(), (0.0, 0.0), n=k)),
    "psi_family_q": ("resolution * sum(q)", 10,
                     lambda k: psi_family(shear(), [Fraction(1, k)], resolution=1)),
    "psi_family_nodes": ("resolution * sum(q)", 10,
                         lambda k: psi_family(shear(), [Fraction(0)], resolution=k)),
    "region_x": ("resolution", 10, lambda k: region_x(shear(), "minus", k)),
    "flux": ("resolution", 10, lambda k: flux(shear(), k)),
    "grid_torsion_field": ("lanes", 10,
                           lambda k: torsion_field(shear(), ScanConfig(BOX, GridMode(k, 1), 5))),
    "montecarlo_torsion_field": (
        "lanes", 10, lambda k: torsion_field(shear(), ScanConfig(BOX, MonteCarloMode(k, 0), 5))),
    "probe_grid": (
        "lanes", 256, lambda k: integrability_probe(shear(), (1, k), horizon=5, rationals=[0])),
    "cocycle_scan_history": (
        "(n + 1) * lanes", 10,
        lambda k: cocycle_scan(shear(), [0.0], [0.0], k - 1, keep_history=True)),
}


@pytest.mark.parametrize("case", CAPPED)
def test_size_rule(monkeypatch, kernels, case):
    # past the cap a request is refused before any kernel runs, at it the request runs
    name, cap, call = CAPPED[case]
    monkeypatch.setattr(twistlab.maps, "ITERATE_CAP", cap)
    message = rf"^\|{re.escape(name)}\| = {cap + 1} exceeds the cap {cap}$"
    with pytest.raises(IterationCapError, match=message):
        call(cap + 1)
    assert not kernels.calls
    call(cap)
    assert kernels.calls


def test_twist_check_examples():
    rep = twist_check(shear())
    assert rep.min_twist == 1.0
    assert rep.violations == ()
    assert rep.ok

    rep = twist_check(standard(1.0))
    assert rep.min_twist == 1.0
    assert rep.violations == ()

    rep = twist_check(shear().inverted())
    assert rep.min_twist == -1.0
    assert len(rep.violations) == rep.samples == 1000
    assert not rep.ok


def test_inverted_twice_is_identity():
    m = standard(1.0)
    again = m.inverted().inverted()
    assert again.family == m.family
    assert again.params == m.params
    assert again.twist_sign == m.twist_sign


def test_inverted_map_is_built_once_and_left_out_of_state():
    m = standard(1.0)
    inv = m.inverted()
    assert m.inverted() is inv
    # equality and hash read the fields only; pickling drops the cache
    assert m == standard(1.0) and hash(m) == hash(standard(1.0))
    again = pickle.loads(pickle.dumps(m))
    assert "_inverse" not in again.__dict__ and again == m and hash(again) == hash(m)
    assert again.inverted() == inv and again.inverted() is not inv


def test_inverted_inverse_consistency():
    m = standard(1.0)
    inv = m.inverted()
    p = (0.31, -0.42)
    assert inv.apply_scalar(*p) == pytest.approx(m.apply_inverse_scalar(*p), abs=0)
    # derivative of the inverse map equals the inverse of the derivative
    q = m.apply_inverse_scalar(*p)
    a, b, c, d = m.jacobian_scalar(*q)
    ia, ib, ic, id_ = inv.jacobian_scalar(*p)
    assert (ia, ib, ic, id_) == pytest.approx((d, -b, -c, a), abs=1e-12)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.3])
def test_generating_function_relation_along_orbits(k):
    """Orbits satisfy the discrete Euler-Lagrange equation of
    h(x, x') = (x'-x)^2/2 + (k/4pi^2)cos(2pi x)."""

    def d1h(x, x1):
        return -(x1 - x) - (k / TWO_PI) * math.sin(TWO_PI * x)

    def d2h(x, x1):
        return x1 - x

    m = standard(k)
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = tuple(rng.uniform(-1, 1, size=2))
        xs = iterate(m, p, 12)[:, 0]
        for i in range(1, 11):
            res = d1h(xs[i], xs[i + 1]) + d2h(xs[i - 1], xs[i])
            assert abs(res) < 1e-9


def test_standard_equals_generating_function():
    k = 1.3
    m1 = standard(k)
    m2 = generating_function(k / (4.0 * math.pi**2))
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = (float(v) for v in rng.uniform(-2, 2, size=2))
        assert m1.apply_scalar(x, y) == pytest.approx(m2.apply_scalar(x, y), abs=1e-12)
        assert m1.jacobian_scalar(x, y) == pytest.approx(m2.jacobian_scalar(x, y), abs=1e-12)


def test_array_paths_match_scalar():
    rng = np.random.default_rng(31)
    xs = rng.uniform(-2, 2, size=64)
    ys = rng.uniform(-2, 2, size=64)
    for m in ALL_MAPS:
        ax, ay = m.apply_array(xs, ys)
        ja, jb, jc, jd = m.jacobian_array(xs, ys)
        for i in range(len(xs)):
            sx, sy = m.apply_scalar(xs[i], ys[i])
            assert (ax[i], ay[i]) == (sx, sy)
            sa, sb, sc, sd = m.jacobian_scalar(xs[i], ys[i])
            assert (ja[i], jb[i], jc[i], jd[i]) == (sa, sb, sc, sd)


@pytest.mark.parametrize(
    "m", ALL_MAPS + [m.inverted() for m in ALL_MAPS], ids=lambda m: m.to_spec()
)
def test_array_images_are_new_arrays(m):
    # shear leaves y as it is: its array image must still be a copy
    xs, ys = np.array([0.3, -1.25]), np.array([0.1, 2.0])
    for out in (*m.apply_array(xs, ys), *m.step_array(xs, ys)[:2]):
        assert not np.shares_memory(out, xs) and not np.shares_memory(out, ys)


def test_parse_map_spec_grammar():
    assert parse_map_spec("shear").family == "shear"
    m = parse_map_spec("drift:c=0.25")
    assert m.family == "drift" and m.params == (0.25,)
    m = parse_map_spec("std:k=1.5")
    assert m.family == "standard" and m.params == (1.5,)
    m = parse_map_spec("genfun:a1=0.02,a3=0.01")
    assert m.family == "genfun" and m.params == (0.02, 0.0, 0.01)


HUGE_KEY = "genfun:a" + "9" * 5000 + "=1"
# the grammar's own message, not the text of a failed int() conversion
MESSAGES = {HUGE_KEY: "is past a64", "genfun:a\u00b2=1": "unknown or repeated parameter"}


@pytest.mark.parametrize(
    "bad",
    [
        "nosuch:k=1",
        "std:q=1",
        "std:k=abc",
        "drift:",
        "drift:c=0.1,k=2",
        "genfun:b1=2",
        "genfun:a0=1",
        "std",
        "std:k=1,k=2",
        "genfun:a1=1,a01=2",
        "drift:c=1,c=1",
        "shear:c=1",
        "genfun:",
        "inverted()",
        "std:k=1e400",
        # each genfun coefficient costs every kick a harmonic, zeros too
        "genfun:a100000=0.01",
        f"genfun:a{GENFUN_MAX_INDEX + 1}=1",
        # a key longer than CPython converts to int, and a digit int() refuses
        pytest.param(HUGE_KEY, id="genfun:a<5000 nines>=1"),
        "genfun:a\u00b2=1",
    ],
)
def test_parse_map_spec_rejects(bad, capsys):
    with pytest.raises(ValueError, match=MESSAGES.get(bad)):
        parse_map_spec(bad)
    assert run(["flux", "--map", bad]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "m", ALL_MAPS + [m.inverted() for m in ALL_MAPS], ids=lambda m: m.to_spec()
)
def test_to_spec_round_trip(m):
    again = parse_map_spec(m.to_spec())
    assert again.family == m.family
    assert again.params == pytest.approx(m.params, abs=0)
    assert again == m


# Parameters whose text must survive the trip: signed zeros, subnormals and
# the ends of the float range.
EDGE_PARAMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
CATALOGUE = st.one_of(
    st.just(shear()),
    EDGE_PARAMS.map(drift_shear),
    EDGE_PARAMS.map(lambda k: standard(k if k >= 0.0 else -k)),  # keeps -0.0
    st.tuples(
        st.lists(EDGE_PARAMS, min_size=1, max_size=4),
        st.lists(st.sampled_from([0.0, -0.0]), max_size=3),  # trailing zeros
    ).map(lambda t: generating_function(*t[0], *t[1])),
)


def _inverted(m, times):
    for _ in range(times):
        m = m.inverted()
    return m


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(CATALOGUE, st.integers(0, 3), st.integers(0, 3))
def test_to_spec_round_trips_every_family(m, flips, depth):
    m = _inverted(m, flips)
    spec = m.to_spec()
    again = parse_map_spec(spec)
    assert again == m
    # the text comparison also sees the sign of a zero, which == does not
    assert again.to_spec() == spec
    nested = parse_map_spec("inverted(" * depth + spec + ")" * depth)
    assert nested == _inverted(m, depth) and nested.to_spec() == _inverted(m, depth).to_spec()


# signed zeros and infinities, NaN, the extreme subnormals and normals
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                  2.225073858507201e-308, -2.225073858507201e-308,
                                  1e308, -1e308])


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(st.lists(SPECIAL_FLOATS | st.floats(), max_size=40))
def test_column_is_the_packed_floats(values):
    for r in (0, len(values) // 2, len(values)):
        column = _column(values, r)
        assert column.dtype == np.float64 and column.shape == (r,)
        assert column.tobytes() == struct.pack(f"{r}d", *values[:r])
        assert not column.flags.writeable


def test_constructor_validation():
    with pytest.raises(ValueError):
        standard(-0.5)
    with pytest.raises(ValueError):
        generating_function()
    with pytest.raises(ValueError):
        standard(float("nan"))
    # the spec grammar's bound holds for constructed maps too, so every
    # map's to_spec parses back
    last = generating_function(*[0.0] * (GENFUN_MAX_INDEX - 1), 0.01)
    assert parse_map_spec(last.to_spec()) == last
    with pytest.raises(ValueError, match="cosine coefficients"):
        generating_function(*[0.0] * GENFUN_MAX_INDEX, 0.01)


def test_point_validation():
    with pytest.raises(ValueError):
        iterate(shear(), (0.0, float("nan")), 3)
