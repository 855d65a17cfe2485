"""The scalar walk's crossing-count lift against the anchored walk it
replaced, its exact ties, and orbits that leave the float range."""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import (
    NonFiniteOrbitError,
    TwistViolationError,
    asymptotic_torsion,
    classify_monotonicity,
    conjugate_report,
    detect_conjugate,
    detect_overconjugate,
    drift_shear,
    first_return_torsion,
    generating_function,
    iterate,
    jacobi_conjugate_oracle,
    linking_number,
    rotation_number,
    shear,
    standard,
    step_variation,
    torsion_trace,
)
from twistlab.cli import run
from twistlab.maps import BLOCK, TWO_PI
from twistlab.torsion import _INV_TWO_PI, _Walk

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=60)

# The anchored walk's tolerance.
ANCHOR_TOL = 1e-9


class DegenerateAnchorError(Exception):
    """The anchored walk could not place a step within its tolerance."""


def anchored_walk(map, x, y, wx, wy):
    """The walk this lift replaced: three atan2 per step, the step anchored
    within half a turn of the vertical's own step."""
    def step(x, y):  # the fused step's bits, image then Jacobian
        return (*map.apply_scalar(x, y), *map.jacobian_scalar(x, y))

    while True:
        x1, y1, a, b, c, d = step(x, y)
        if b <= 0.0:
            raise TwistViolationError(f"twist entry {b!r} <= 0")
        iwx = a * wx + b * wy
        iwy = c * wx + d * wy
        dv = math.atan2(-b, d) * _INV_TWO_PI
        th0 = math.atan2(-wx, wy) * _INV_TWO_PI
        if th0 <= -0.5:
            th0 += 1.0
        th1 = math.atan2(-iwx, iwy) * _INV_TWO_PI
        if th1 <= -0.5:
            th1 += 1.0
        raw = th1 - th0
        delta = raw + round(dv - raw)
        if abs(delta - dv) >= 0.5 - ANCHOR_TOL:
            raise DegenerateAnchorError(f"step variation sits {delta - dv:+.3e} from the vertical's")
        x, y = x1, y1
        norm = math.hypot(iwx, iwy)
        wx, wy = iwx / norm, iwy / norm
        yield x, y, wx, wy, delta


def walk_rows(m, x, y, wx, wy, n):
    """The walk's first n rows (x, y, wx, wy, step), a block at a time."""
    table = np.empty((n, 6))
    walk = _Walk(m, x, y, wx, wy)
    while walk.n < n:
        walk.run(n - walk.n, table=table[walk.n :])
    return table[:, :5].tolist()


def bits(v):
    return float(v).hex()


POSITIVE = [
    shear(),
    drift_shear(0.25),
    standard(0.5),
    standard(1.0),
    standard(1.5),
    generating_function(0.02, -0.007),
    generating_function(0.03, 0.0, 0.001),
]
maps = st.one_of(
    st.sampled_from(POSITIVE + [standard(1e6), standard(1e200)]),
    st.floats(min_value=0.0, max_value=6.0).map(standard),
    st.floats(min_value=-0.5, max_value=0.5).map(drift_shear),
)
directions = st.one_of(
    st.just((0.0, 1.0)),
    st.floats(min_value=0.0, max_value=1.0).map(lambda t: (math.cos(TWO_PI * t), math.sin(TWO_PI * t))),
)


@PROPERTY
@given(
    m=maps,
    x=st.floats(min_value=-(2.0**40), max_value=2.0**40),
    y=st.floats(min_value=-1.0, max_value=1.0),
    w=directions,
    n=st.integers(min_value=1, max_value=3000),
)
def test_walk_matches_anchored_reference(m, x, y, w, n):
    assert_walk_matches_reference(m, x, y, w, n)


@pytest.mark.parametrize("m", POSITIVE + [standard(6.0), standard(1e6), standard(1e200)],
                         ids=lambda m: m.to_spec())
def test_long_walk_matches_anchored_reference(m):
    for x, y, w in [(0.37, -0.21, (0.0, 1.0)), (2.0**40 + 0.3, 0.45, (0.6, -0.8)),
                    (-(2.0**40) + 0.7, -0.9, (-0.28, 0.96))]:
        assert_walk_matches_reference(m, x, y, w, 3000)


def assert_walk_matches_reference(m, x, y, w, n):
    norm = math.hypot(*w)
    wx, wy = w[0] / norm, w[1] / norm
    got = walk_rows(m, x, y, wx, wy, n)
    want = list(islice(anchored_walk(m, x, y, wx, wy), n))
    cum = ref_cum = 0.0
    for k, (g, r) in enumerate(zip(got, want)):
        # the orbit and its directions do not depend on the lift
        assert [bits(v) for v in g[:4]] == [bits(v) for v in r[:4]]
        if k == 0:
            assert bits(g[4]) == bits(r[4])
        assert abs(g[4] - r[4]) <= 1e-15
        cum += g[4]
        ref_cum += r[4]
        assert abs(cum - ref_cum) <= 1e-12
    assert bits(step_variation(m, (x, y), (wx, wy))) == bits(want[0][4])


@pytest.mark.parametrize("w", [(-1.0, 1.0), (1.0, -1.0)])
def test_exact_tie_after_one_step(w):
    # the shear sends (-1, 1) to (0, 1) exactly and (1, -1) to (0, -1): the
    # tie wx == 0 takes the side of angle_from_vertical's 0 and 1/2
    m = shear()
    tr = torsion_trace(m, (0.0, 0.0), w, 6)
    assert tr.directions[1][0] == 0.0
    assert tr.steps[0] == -0.125
    norm = math.hypot(*w)
    ref = [r[4] for r in islice(anchored_walk(m, 0.0, 0.0, w[0] / norm, w[1] / norm), 6)]
    assert tr.steps.tolist() == pytest.approx(ref, abs=1e-15)
    # the shear turns (n, 1) w by atan(n) - atan(n - 1) with n counted from the tie
    start = 0.125 if w[1] > 0 else -0.375
    for k in range(1, 7):
        want = -math.atan(k - 1) / TWO_PI - (0.0 if w[1] > 0 else 0.5)
        assert tr.cumulative[k] == pytest.approx(want - start, abs=1e-15)


def test_exact_half_turn_is_not_overconjugate():
    # At the std:k=2 fixed point (0, 0) the vertical points straight down
    # after step 2, with cumulative exactly -1/2, which is not below -1/2.
    m = standard(2.0)
    tr = torsion_trace(m, (0.0, 0.0), n=6)
    assert tr.cumulative[2] == -0.5 and tuple(tr.directions[2]) == (0.0, -1.0)
    assert detect_overconjugate(m, (0.0, 0.0), 6) == 3


# ------------------------------------------------ orbits leaving the float range

HUGE = standard(1e308)
START = (0.3, 0.0)

ENTRY_POINTS = {
    "iterate": lambda: iterate(HUGE, START, 50),
    "iterate_inverse": lambda: iterate(HUGE, START, -50),
    "rotation_number": lambda: rotation_number(HUGE, START, 50),
    "torsion_trace": lambda: torsion_trace(HUGE, START, n=50),
    "asymptotic_torsion": lambda: asymptotic_torsion(HUGE, START, 50, 10),
    # from START both of its answers are known at step 2, before the orbit
    # leaves the float range; this start leaves it at step 2
    "conjugate_report": lambda: conjugate_report(HUGE, (0.3, 1.7e308), 50),
    "first_return_torsion": lambda: first_return_torsion(HUGE, (0.0, 1.0, -1.0, 1.0), START, 5, 50),
    "classify_monotonicity": lambda: classify_monotonicity(HUGE, START, 50),
    "linking_number": lambda: linking_number(HUGE, START, (0.4, 0.0), 50),
    # shear and drift steps carry inf on without raising: rotation_number
    # checks after its loop, iterate and torsion_trace once per block
    "rotation_number_drift": lambda: rotation_number(drift_shear(0.25), (1e308, 1.7e308), 5),
    "rotation_number_shear": lambda: rotation_number(shear(), (1e308, 1e308), 5),
    # finite orbits whose displacement overflows
    "rotation_number_shear_displacement": lambda: rotation_number(shear(), (-1e308, 1e308), 2),
    "rotation_number_drift_displacement": lambda: rotation_number(
        drift_shear(0.25), (-1.5e308, 1e308), 2),
    "iterate_shear": lambda: iterate(shear(), (1e308, 1e308), 5),
    "iterate_inverse_shear": lambda: iterate(shear(), (1e308, -1e308), -5),
    "iterate_drift": lambda: iterate(drift_shear(0.25), (1e308, 1.7e308), 5),
    "torsion_trace_shear": lambda: torsion_trace(shear(), (1e308, 1e308), n=5),
    "torsion_trace_drift": lambda: torsion_trace(drift_shear(0.25), (1e308, 1.7e308), n=5),
    # the streaming walks record no points: they walk a non-finite block again
    "asymptotic_torsion_shear": lambda: asymptotic_torsion(shear(), (1e308, 1e308), 50, 10),
    "asymptotic_torsion_drift": lambda: asymptotic_torsion(
        drift_shear(0.25), (1e308, 1.7e308), 50, 10),
    "conjugate_report_shear": lambda: conjugate_report(shear(), (1e308, 1e308), 50),
    "conjugate_report_drift": lambda: conjugate_report(drift_shear(0.25), (1e308, 1.7e308), 50),
    "first_return_torsion_shear": lambda: first_return_torsion(
        shear(), (0.0, 1.0, 0.0, 1.7e308), (1e308, 1e308), 5, 50),
    "first_return_torsion_drift": lambda: first_return_torsion(
        drift_shear(0.25), (0.0, 1.0, 0.0, 1.7e308), (1e308, 1.7e308), 5, 50),
    # shear's V'' is 0, so its Jacobi field stays finite
    "jacobi_conjugate_oracle_shear": lambda: jacobi_conjugate_oracle(shear(), (1e308, 1e308), 50),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_leaving_the_float_range_is_named(call):
    with pytest.raises(NonFiniteOrbitError, match=r"left the float range by step \d+"):
        call()


def test_conjugate_report_settles_before_the_orbit_leaves_the_float_range():
    # the walk stops once both answers are known, at step 2; the orbit
    # leaves the float range only at step 13
    rep = conjugate_report(HUGE, START, 50)
    assert (rep.first_overconjugate, rep.first_conjugate) == (2, (2, 1))
    with pytest.raises(NonFiniteOrbitError, match="by step 13"):
        torsion_trace(HUGE, START, n=50)


@pytest.mark.parametrize("sign", [1, -1])
def test_block_check_names_the_first_non_finite_step(sign):
    # x grows like c n^2 / 2: it overflows about 3/2 BLOCK steps in, in the
    # second block of rows
    m = drift_shear(1.7976931348623157e308 / (1.5 * BLOCK) ** 2 * 2.0)
    step = m.apply_scalar if sign > 0 else m.apply_inverse_scalar
    x, y, first, n = 0.0, 0.0, None, 3 * BLOCK
    for i in range(1, n):
        x, y = step(x, y)
        if not math.isfinite(x):
            first = i
            break
    assert BLOCK < first < 2 * BLOCK
    with pytest.raises(NonFiniteOrbitError, match=f"by step {first}:"):
        iterate(m, (0.0, 0.0), sign * n)
    if sign > 0:
        for call in (
            lambda: torsion_trace(m, (0.0, 0.0), n=n),
            lambda: asymptotic_torsion(m, (0.0, 0.0), n, 10),
            lambda: conjugate_report(m, (0.0, 0.0), n),
        ):
            with pytest.raises(NonFiniteOrbitError, match=f"by step {first}:"):
                call()


STREAMED = [
    (entry, family)
    for entry in (
        "asymptotic_torsion", "conjugate_report", "first_return_torsion", "rotation_number"
    )
    for family in ("drift", "shear")
] + [("jacobi_conjugate_oracle", "shear")]


@pytest.mark.parametrize("entry, family", STREAMED, ids=[f"{e}-{f}" for e, f in STREAMED])
def test_streaming_walks_name_the_step_the_trace_names(entry, family):
    # a walk that keeps no points names the first non-finite step too
    with pytest.raises(NonFiniteOrbitError) as traced:
        ENTRY_POINTS[f"torsion_trace_{family}"]()
    with pytest.raises(NonFiniteOrbitError) as streamed:
        ENTRY_POINTS[f"{entry}_{family}"]()
    assert str(streamed.value) == str(traced.value)


def test_walk_names_the_step_it_fails_at():
    # the stop hook sees each point as it is stepped to
    points = []
    with pytest.raises(NonFiniteOrbitError, match="by step 13") as info:
        _Walk(HUGE, *START, 0.0, 1.0).run(50, lambda x, y, wx: points.append(x))
    assert len(points) == 12
    assert all(map(math.isfinite, points[:-1])) and math.isinf(points[-1])
    assert isinstance(info.value.__cause__, OverflowError)


def test_walk_calls_stop_once_per_step_when_its_points_overflow():
    # shear carries inf on without raising; naming the step takes no second
    # pass through the stop hook
    points = []
    with pytest.raises(NonFiniteOrbitError, match="by step 1:"):
        _Walk(shear(), 1e308, 1e308, 0.0, 1.0).run(5, lambda x, y, wx: points.append(x))
    assert len(points) == 5 and math.isinf(points[0])


def test_jacobi_oracle_names_leaving_the_float_range():
    # a kick so strong that the orbit overflows with no sign change of xi
    with pytest.raises(NonFiniteOrbitError, match="by step 31") as info:
        jacobi_conjugate_oracle(generating_function(-1e306), (0.0, 0.25), 1000)
    assert isinstance(info.value.__cause__, OverflowError)
    # V'' is 1.6e62 at F(p) and 3.9e301 at F^2(p): xi goes 1, 1.6e62, inf
    # (unchecked, xi turns NaN there and the oracle answers None)
    with pytest.raises(NonFiniteOrbitError, match="by step 3"):
        jacobi_conjugate_oracle(generating_function(-1e300, 1e60), (0.0, 0.25), 50)


@pytest.mark.parametrize("argv", [
    ["trace", "--map", "std:k=1e308", "--point", "0.3,0", "--n", "50"],
    ["rotation", "--map", "std:k=1e308", "--point", "0.3,0", "--n", "50"],
    ["linking", "--map", "std:k=1e308", "--point", "0.3,0", "--point2", "0.4,0", "--n", "50"],
    ["rotation", "--map", "drift:c=0.25", "--point", "1e308,1.7e308", "--n", "5"],
    ["trace", "--map", "shear", "--point", "1e308,1e308", "--n", "5"],
])
def test_cli_names_leaving_the_float_range(capsys, argv):
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("twistlab: error: orbit of (")
    assert "left the float range by step" in err


def test_detectors_reject_a_non_finite_tol():
    # with tol = inf every step reads as vertical
    assert detect_conjugate(standard(1.0), (0.02, 0.0), 100) == (4, 1)
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            conjugate_report(standard(1.0), (0.02, 0.0), 100, tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            detect_conjugate(standard(1.0), (0.02, 0.0), 100, tol)
