"""Map catalogue: evaluation, derivatives, inverses, iteration, parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import (
    IterationCapError,
    drift_shear,
    generating_function,
    iterate,
    parse_map_spec,
    shear,
    standard,
    twist_check,
)
from twistlab.cli import run
from twistlab.maps import GENFUN_MAX_INDEX

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
    assert shear().eval((0.3, 0.5)) == pytest.approx((0.8, 0.5), abs=1e-15)
    got = standard(1.0).eval((0.25, 0.0))
    want = (0.25 - 1.0 / TWO_PI, -1.0 / TWO_PI)
    assert got == pytest.approx(want, abs=1e-15)
    assert drift_shear(0.25).eval((0.0, 0.1)) == pytest.approx((0.1, 0.35), abs=1e-15)


def test_derivative_examples():
    assert shear().derivative((3.7, -1.2)).ravel() == pytest.approx((1, 1, 0, 1), abs=0)
    assert standard(1.0).derivative((0.0, 0.0)).ravel() == pytest.approx(
        (0, 1, -1, 1), abs=1e-15
    )
    assert standard(1.0).derivative((0.5, 0.0)).ravel() == pytest.approx(
        (2, 1, 1, 1), abs=1e-15
    )


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_derivative_matches_finite_differences(m):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = float(rng.uniform(-1, 2))
        y = float(rng.uniform(-2, 2))
        exact = m.derivative((x, y)).ravel()
        approx = finite_difference_jacobian(m, x, y)
        assert exact == pytest.approx(approx, abs=1e-6)


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_determinant_is_one(m):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.uniform(-3, 3, size=2)
        a, b, c, d = m.derivative((x, y)).ravel()
        assert abs(a * d - b * c - 1.0) < 1e-12


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_lift_equivariance(m):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.uniform(-2, 2, size=2)
        fx, fy = m.eval((x, y))
        gx, gy = m.eval((x + 1.0, y))
        assert abs(gx - fx - 1.0) < 1e-12
        assert abs(gy - fy) < 1e-12


def test_eval_inverse_examples():
    assert shear().eval_inverse((0.8, 0.5)) == pytest.approx((0.3, 0.5), abs=1e-15)
    assert drift_shear(0.25).eval_inverse((0.1, 0.35)) == pytest.approx(
        (0.0, 0.1), abs=1e-15
    )
    m = standard(1.0)
    assert m.eval_inverse(m.eval((0.25, 0.0))) == pytest.approx(
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
    with pytest.raises(IterationCapError):
        iterate(shear(), (0.0, 0.0), 10, cap=5)


def test_twist_check_examples():
    rep = twist_check(shear(), samples=1000, seed=0)
    assert rep.min_twist == 1.0
    assert rep.violations == ()
    assert rep.ok

    rep = twist_check(standard(1.0), samples=1000, seed=0)
    assert rep.min_twist == 1.0
    assert rep.violations == ()

    rep = twist_check(shear().inverted(), samples=1000, seed=0)
    assert rep.min_twist == -1.0
    assert len(rep.violations) == 1000
    assert not rep.ok


def test_inverted_twice_is_identity():
    m = standard(1.0)
    again = m.inverted().inverted()
    assert again.family == m.family
    assert again.params == m.params
    assert again.twist_sign == m.twist_sign


def test_inverted_inverse_consistency():
    m = standard(1.0)
    inv = m.inverted()
    p = (0.31, -0.42)
    assert inv.eval(p) == pytest.approx(tuple(m.eval_inverse(p)), abs=0)
    # derivative of the inverse map equals the inverse of the derivative
    q = tuple(m.eval_inverse(p))
    a, b, c, d = m.derivative(q).ravel()
    ia, ib, ic, id_ = inv.derivative(p).ravel()
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
        p = tuple(rng.uniform(-2, 2, size=2))
        assert m1.eval(p) == pytest.approx(tuple(m2.eval(p)), abs=1e-12)
        assert m1.derivative(p).ravel() == pytest.approx(m2.derivative(p).ravel(), abs=1e-12)


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
    ],
)
def test_parse_map_spec_rejects(bad, capsys):
    with pytest.raises(ValueError):
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
        shear().eval((float("inf"), 0.0))
    with pytest.raises(ValueError):
        iterate(shear(), (0.0, float("nan")), 3)
