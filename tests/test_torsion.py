"""Angle cocycle engine: traces, detectors, oracles, linking, scans."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_block_kernels import HIGH, named
from test_maps import CATALOGUE
from test_walk_blocks import EDGES

import twistlab.maps
import twistlab.torsion
from twistlab import (
    CoincidentPointsError,
    IterationCapError,
    NonFiniteOrbitError,
    TwistViolationError,
    angle_from_vertical,
    asymptotic_torsion,
    cocycle_scan,
    conjugate_report,
    detect_conjugate,
    detect_overconjugate,
    drift_shear,
    generating_function,
    iterate,
    jacobi_conjugate_oracle,
    linking_number,
    shear,
    standard,
    step_variation,
    torsion_trace,
    vertical_step_variation,
)
from twistlab.cli import run
from twistlab.maps import BLOCK, DRIFT, LiftedMap, _kick, parse_map_spec
from twistlab.torsion import VERTICAL_TOL

TWO_PI = 2.0 * math.pi
SQ2 = math.sqrt(2.0)

POSITIVE_TWIST_MAPS = [
    shear(),
    drift_shear(0.25),
    standard(0.5),
    standard(1.0),
    generating_function(0.02, -0.007),
]


def shear_cumulative(n):
    # transported vertical under the shear is (n, 1) up to scale
    return -math.atan(n) / TWO_PI


def test_angle_from_vertical_examples():
    assert angle_from_vertical((0.0, 1.0)) == 0.0
    assert angle_from_vertical((1.0 / SQ2, 1.0 / SQ2)) == pytest.approx(-0.125, abs=1e-15)
    assert angle_from_vertical((1.0, 0.0)) == pytest.approx(-0.25, abs=1e-15)
    assert angle_from_vertical((-1.0, 0.0)) == pytest.approx(0.25, abs=1e-15)
    # straight down gets the closed end of (-1/2, 1/2]
    assert angle_from_vertical((0.0, -1.0)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        angle_from_vertical((0.0, 0.0))


def test_angle_range_property():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        t = rng.uniform(0, TWO_PI)
        a = angle_from_vertical((math.cos(t), math.sin(t)))
        assert -0.5 < a <= 0.5


def test_vertical_step_examples():
    assert vertical_step_variation(shear(), (2.0, -7.0)) == pytest.approx(-0.125, abs=1e-15)
    assert vertical_step_variation(standard(1.0), (0.0, 0.0)) == pytest.approx(-0.125, abs=1e-15)
    assert vertical_step_variation(standard(1.0), (0.5, 0.0)) == pytest.approx(-0.125, abs=1e-15)


@pytest.mark.parametrize("m", POSITIVE_TWIST_MAPS, ids=lambda m: m.to_spec())
def test_vertical_step_in_open_interval(m):
    rng = np.random.default_rng(13)
    for _ in range(500):
        p = tuple(rng.uniform(-2, 2, size=2))
        d = vertical_step_variation(m, p)
        assert -0.5 < d < 0.0


def test_vertical_step_twist_violation():
    with pytest.raises(TwistViolationError):
        vertical_step_variation(shear().inverted(), (0.0, 0.0))


def test_step_variation_examples():
    m = shear()
    assert step_variation(m, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert step_variation(m, (0.0, 0.0), (0.0, 1.0)) == pytest.approx(-0.125, abs=1e-15)
    assert step_variation(m, (0.0, 0.0), (-1.0 / SQ2, 1.0 / SQ2)) == pytest.approx(
        -0.125, abs=1e-12
    )


@pytest.mark.parametrize("m", POSITIVE_TWIST_MAPS, ids=lambda m: m.to_spec())
def test_step_variation_in_open_interval(m):
    rng = np.random.default_rng(17)
    for _ in range(500):
        p = tuple(rng.uniform(-2, 2, size=2))
        t = rng.uniform(0, TWO_PI)
        d = step_variation(m, p, (math.cos(t), math.sin(t)))
        assert -1.0 < d < 0.5


def test_trace_invariants():
    m = standard(1.0)
    tr = torsion_trace(m, (0.13, -0.22), (0.3, 0.7), 40)
    assert tr.n == 40
    assert len(tr.steps) == 40
    assert len(tr.cumulative) == 41
    assert tr.cumulative[0] == 0.0
    # cumulative is the plain running sum in the same order, bit for bit
    run = 0.0
    for k in range(40):
        run += tr.steps[k]
        assert tr.cumulative[k + 1] == run
    assert tr.torsion == tr.cumulative[-1] / 40
    orbit = iterate(m, (0.13, -0.22), 40)
    assert np.array_equal(tr.points, orbit)
    norms = np.hypot(tr.directions[:, 0], tr.directions[:, 1])
    assert norms == pytest.approx(np.ones(41), abs=1e-12)


def test_trace_shear_closed_form():
    tr = torsion_trace(shear(), (0.4, 0.9), (0.0, 1.0), 4)
    assert tr.cumulative[4] == pytest.approx(shear_cumulative(4), abs=1e-12)
    assert tr.torsion == pytest.approx(shear_cumulative(4) / 4, abs=1e-12)
    assert tr.steps[0] == pytest.approx(-0.125, abs=1e-15)
    for n in (1, 2, 3, 4):
        assert tr.cumulative[n] == pytest.approx(shear_cumulative(n), abs=1e-12)


def test_trace_hyperbolic_fixed_point():
    tr = torsion_trace(standard(1.0), (0.5, 0.0), (0.0, 1.0), 50)
    assert np.all(tr.cumulative[1:] > -0.25)
    assert np.all(tr.cumulative[1:] < 0.0)
    assert -0.005 < tr.torsion < 0.0


def test_trace_hyperbolic_against_power_iteration():
    """The transported vertical's winding must match a direct matrix
    cocycle with angle unwrapping."""
    m = standard(1.0)
    p = (0.5, 0.0)
    n = 50
    v = np.array([0.0, 1.0])
    x, y = p
    angles = [math.atan2(v[0], v[1])]
    for _ in range(n):
        a, b, c, d = m.jacobian_scalar(x, y)
        v = np.array([a * v[0] + b * v[1], c * v[0] + d * v[1]])
        v /= np.hypot(*v)
        angles.append(math.atan2(v[0], v[1]))
        x, y = m.apply_scalar(x, y)
    unwrapped = np.unwrap(np.array(angles))
    oracle = -(unwrapped - unwrapped[0]) / TWO_PI
    tr = torsion_trace(m, p, (0.0, 1.0), n)
    assert tr.cumulative == pytest.approx(oracle, abs=1e-9)


def test_cocycle_additivity():
    m = standard(1.0)
    p = (0.31, 0.12)
    w = (0.6, 0.8)
    a, b = 37, 63
    whole = torsion_trace(m, p, w, a + b)
    first = torsion_trace(m, p, w, a)
    second = torsion_trace(
        m, tuple(first.points[-1]), tuple(first.directions[-1]), b
    )
    lhs = whole.cumulative[a + b]
    rhs = first.cumulative[a] + second.cumulative[b]
    assert abs(lhs - rhs) < 1e-10 * (a + b)


@pytest.mark.parametrize("m", POSITIVE_TWIST_MAPS, ids=lambda m: m.to_spec())
def test_anchor_control_two_directions(m):
    """Cumulative lifts from two directions at the same point never
    drift half a turn apart."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = tuple(rng.uniform(-1, 1, size=2))
        t1, t2 = rng.uniform(0, TWO_PI, size=2)
        c1 = torsion_trace(m, p, (math.cos(t1), math.sin(t1)), 200).cumulative
        c2 = torsion_trace(m, p, (math.cos(t2), math.sin(t2)), 200).cumulative
        assert np.max(np.abs(c1 - c2)) < 0.5


def test_asymptotic_shear():
    est = asymptotic_torsion(shear(), (1.7, 0.4), 10_000)
    want = shear_cumulative(10_000) / 10_000
    assert est.value == pytest.approx(want, abs=1e-12)
    assert abs(est.value) < 3e-5
    assert est.last_window_drift < 1e-6
    assert est.horizon == 10_000


def test_asymptotic_elliptic():
    est = asymptotic_torsion(standard(1.0), (0.0, 0.0), 10_000)
    assert est.value == pytest.approx(-1.0 / 6.0, abs=1e-4)
    # frozen regression value from a direct constant-matrix winding
    assert est.value == pytest.approx(-0.1666625, abs=1e-6)


def test_asymptotic_elliptic_matrix_oracle():
    """At the elliptic fixed point the cocycle is one constant matrix;
    its winding over N steps pins torsion to -arccos(trace/2)/2pi."""
    rho = math.acos(0.5) / TWO_PI
    n = 10_000
    v = np.array([0.0, 1.0])
    angles = [math.atan2(v[0], v[1])]
    for _ in range(n):
        v = np.array([v[1], -v[0] + v[1]])  # [[0,1],[-1,1]] @ v
        v /= np.hypot(*v)
        angles.append(math.atan2(v[0], v[1]))
    winding = -(np.unwrap(np.array(angles))[-1] - angles[0]) / TWO_PI
    assert winding / n == pytest.approx(-rho, abs=1e-3)
    est = asymptotic_torsion(standard(1.0), (0.0, 0.0), n)
    assert est.value == pytest.approx(winding / n, abs=1e-9)


def trace_estimate(m, p, horizon, window, w):
    """asymptotic_torsion's two numbers read off a full torsion_trace."""
    trace = torsion_trace(m, p, w, horizon)
    value = trace.torsion
    if horizon == window:
        return value, abs(value)
    earlier = float(trace.cumulative[horizon - window])
    return value, abs(value - earlier / (horizon - window))


@pytest.mark.parametrize("m", [standard(1.0), standard(1.5), shear(), generating_function(0.02, -0.007)],
                         ids=lambda m: m.to_spec())
@pytest.mark.parametrize("horizon,window", [(1, 1), (7, 7), (50, 1), (300, 100), (2049, 1024)])
def test_asymptotic_torsion_matches_trace(monkeypatch, m, horizon, window):
    p, w = (0.13, -0.22), (0.3, 0.7)
    want = trace_estimate(m, p, horizon, window, w)

    def no_trace(*args, **kwargs):
        raise AssertionError("asymptotic_torsion should stream the walk")

    monkeypatch.setattr(twistlab.torsion, "torsion_trace", no_trace)
    est = asymptotic_torsion(m, p, horizon, window, w)
    assert (est.value, est.last_window_drift) == want
    assert math.copysign(1.0, est.last_window_drift) == 1.0
    assert (est.horizon, est.window) == (horizon, window)


def test_asymptotic_hyperbolic():
    est = asymptotic_torsion(standard(1.0), (0.5, 0.0), 10_000)
    assert -1e-4 < est.value <= 0.0


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_torsion(shear(), (0, 0), 10, window=20)


def test_detect_overconjugate_examples():
    assert detect_overconjugate(shear(), (0.2, 1.4), 100_000) is None
    n = detect_overconjugate(standard(1.0), (0.02, 0.0), 100)
    assert n is not None and n <= 10
    assert n == 4
    assert detect_overconjugate(drift_shear(0.25), (0.7, -0.3), 10_000) is None


def test_overconjugate_is_first_crossing():
    m = standard(1.0)
    p = (0.02, 0.0)
    n = detect_overconjugate(m, p, 100)
    cum = torsion_trace(m, p, (0.0, 1.0), 100).cumulative
    assert cum[n] < -0.5
    assert np.all(cum[:n] >= -0.5)


def test_overconjugate_persistence():
    m = standard(1.0)
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = tuple(rng.uniform(-0.1, 0.1, size=2))
        n = detect_overconjugate(m, p, 200)
        if n is None:
            continue
        cum = torsion_trace(m, p, (0.0, 1.0), min(200, n + 50)).cumulative
        assert np.all(cum[n:] < -0.5)


def test_detect_conjugate_examples():
    assert detect_conjugate(shear(), (0.0, 0.0), 100_000) is None
    hit = detect_conjugate(standard(1.0), (0.02, 0.0), 100)
    assert hit is not None
    n, k = hit
    assert k == 1
    oc = detect_overconjugate(standard(1.0), (0.02, 0.0), 100)
    assert abs(n - oc) <= 1
    assert detect_conjugate(standard(1.0), (0.5, 0.0), 1000) is None


def test_detect_conjugate_cumulative_window():
    m = standard(1.0)
    hit = detect_conjugate(m, (0.02, 0.0), 100)
    n, k = hit
    cum = torsion_trace(m, (0.02, 0.0), (0.0, 1.0), n).cumulative
    assert abs(cum[n] + k / 2.0) < 0.25


def test_conjugate_report_consistency():
    rep = conjugate_report(standard(1.0), (0.02, 0.0), 100)
    assert rep.first_overconjugate == 4
    assert rep.first_conjugate == (4, 1)
    assert rep.cumulative_at_detection < -0.25
    assert rep.horizon == 100

    rep = conjugate_report(shear(), (0.3, 0.3), 1000)
    assert rep.first_overconjugate is None
    assert rep.first_conjugate is None


def test_conjugate_report_walks_once(kernels):
    rep = conjugate_report(standard(0.0), (0.3, 0.2), 500)
    assert rep.first_overconjugate is None and rep.first_conjugate is None
    assert kernels.calls == {"_walk_k": 500}


DRAWN_POINTS = st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0))


def test_conjugate_report_stops_past_a_late_rounding(kernels):
    # The vertical turns about the elliptic fixed point of this map and
    # crosses at step 68 with wx = -3e-16, where its cumulative rounds to
    # -1/2; it falls below -1/2 only at step 69.  The crossing is the
    # over-conjugate time, so the walk stops there with both answers.
    rep = conjugate_report(standard(0.002134050395255111), (0.0, 0.0), 2000)
    assert (rep.first_overconjugate, rep.first_conjugate) == (68, (68, 1))
    assert rep.cumulative_at_detection == -0.5
    assert kernels.calls == {"_walk_k": 68}


@pytest.mark.parametrize("k, p, walk, scan", [
    (0.0028346086464761037, (0.0, 0.0), 59, 59),
    (4.0, (0.25, 0.21995310570091473), 2, 2),
    # The walk renormalizes by hypot every step and the scan by sqrt once a
    # period, so at step 68 their wx differ in sign within rounding of 0:
    # -3.1e-16 on the walk, 7.4e-15 on the scan, which crosses a step later.
    (0.002134050395255111, (0.0, 0.0), 68, 69),
])
def test_overconjugate_at_a_crossing_that_rounds_to_a_half_turn(capsys, k, p, walk, scan):
    # At each start the vertical crosses with its cumulative rounded to -1/2
    # exactly; the over-conjugate time is that crossing, not the step at
    # which the cumulative first falls below -1/2.
    m = standard(k)
    tr = torsion_trace(m, p, n=walk + 1)
    assert tr.cumulative[walk] == -0.5 and abs(tr.directions[walk][0]) < 1e-15
    assert detect_overconjugate(m, p, 300) == walk
    assert cocycle_scan(m, [p[0]], [p[1]], 300).overconj_time.tolist() == [scan]
    argv = ["trace", "--map", m.to_spec(), "--point", f"{p[0]!r},{p[1]!r}", "--n", "300"]
    assert run(argv) == 0
    assert f"first_overconjugate = {walk}\n" in capsys.readouterr().out


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(m=CATALOGUE, inverted=st.booleans(), p=DRAWN_POINTS,
       horizon=st.sampled_from([1, 2, 60, 300]))
@example(m=standard(1e308), inverted=False, p=(0.0, 0.25), horizon=60)
def test_walk_and_scan_read_one_overconjugate_rule(m, inverted, p, horizon):
    """detect_overconjugate is the one-lane scan's overconj_time: None is -1,
    and an orbit that leaves the float range or a failed twist is -2.  The
    lane's scan stops at its over-conjugate time, as the walk does; a full
    scan also flags a lane whose orbit leaves the float range later (the
    example: over-conjugate at step 3, invalid by the horizon)."""
    m = m.inverted() if inverted else m
    try:
        walk = detect_overconjugate(m, p, horizon)
        walk = -1 if walk is None else walk
    except (NonFiniteOrbitError, TwistViolationError):
        walk = -2
    stopped = cocycle_scan(m, [p[0]], [p[1]], horizon, stop_at_overconjugate=True)
    assert stopped.overconj_time.tolist() == [walk]
    full = int(cocycle_scan(m, [p[0]], [p[1]], horizon).overconj_time[0])
    assert full == walk or (full == -2 and walk > 0)


@settings(deadline=None, derandomize=True, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=CATALOGUE, p=st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)),
       horizon=st.sampled_from([1, 2, 50, 51, 52, 300, 1100]),
       tol=st.sampled_from([VERTICAL_TOL, 1e-4, 0.3]))
@example(m=standard(1.0), p=(0.02, 0.0), horizon=1100, tol=VERTICAL_TOL)
@example(m=standard(0.002134050395255111), p=(0.0, 0.0), horizon=1100, tol=0.3)
def test_conjugate_report_walks_until_both_answers_settle(kernels, m, p, horizon, tol):
    """The walk takes the horizon's steps unless both times are known, and
    then stops at the later of the two."""
    m = LiftedMap(m.family, m.params)  # counted: CATALOGUE's shear was built at import
    kernels.calls.clear()
    try:
        rep = conjugate_report(m, p, horizon, tol)
    except NonFiniteOrbitError:
        return
    over, hit = rep.first_overconjugate, rep.first_conjugate
    want = horizon if over is None or hit is None else max(hit[0], over)
    assert kernels.calls["_walk_k"] == want


def ref_jacobi(m, p, horizon):
    """The oracle as it read V'' before: a separate kick call per step."""
    x, y = p
    xi_prev = 0.0
    _, xi, _, _ = m.jacobian_scalar(x, y)
    x, y = m.apply_scalar(x, y)
    for n in range(2, horizon + 1):
        xi_next = (2.0 + _kick(x, m._harmonics, False, True)[1]) * xi - xi_prev
        if xi_next == 0.0 or (xi_next < 0.0) != (xi < 0.0):
            return n
        scale = abs(xi_next)
        if scale > 1e100:
            xi_next /= scale
            xi = xi / scale
        xi_prev, xi = xi, xi_next
        x, y = m.apply_scalar(x, y)
    return None


@pytest.mark.parametrize("m", [standard(0.0), standard(1.0), standard(1.5), shear(),
                               generating_function(0.02, -0.007)], ids=lambda m: m.to_spec())
@pytest.mark.parametrize("p", [(0.02, 0.0), (0.3, 0.2), (0.5, 0.0), (-7.25, 1.5)])
def test_jacobi_oracle_makes_one_step_per_step(kernels, m, p):
    want = ref_jacobi(m, p, 400)
    def refuse(kernel):
        def refused(x, y):
            raise AssertionError("the oracle called an image kernel")
        return refused

    kernels.patch("_apply_k", refuse)
    # jacobian_scalar runs the step: a call to it would count as a step;
    # one step gives xi_1, the Jacobi block takes the rest
    got = jacobi_conjugate_oracle(LiftedMap(m.family, m.params), p, 400)
    assert got == want
    assert kernels.calls == {"_step_k": 1, "_jacobi_k": (400 if got is None else got) - 1}


def test_conjugate_report_stops_when_settled(kernels):
    # both answers are known at step 4, and the walk stops there
    rep = conjugate_report(standard(1.0), (0.02, 0.0), 1000)
    assert rep.first_overconjugate == 4 and rep.first_conjugate == (4, 1)
    assert kernels.calls["_walk_k"] == 4


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    k=st.floats(min_value=0.0, max_value=2.0),
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=-0.5, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_half_turn_crossing_lemma(k, x, y, t):
    """DF sends the angle interval (j/2, (j+1)/2) into ((j-1)/2, (j+1)/2):
    the lifted angle's half-turn index never rises and drops by at most 1."""
    w = (math.cos(t), math.sin(t))
    tr = torsion_trace(standard(k), (x, y), w, 200)
    half_turns = np.floor(2.0 * (angle_from_vertical(w) + tr.cumulative))
    jumps = np.diff(half_turns)
    assert np.all((jumps == 0.0) | (jumps == -1.0))


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(m=CATALOGUE, p=DRAWN_POINTS, t=st.floats(min_value=0.0, max_value=TWO_PI))
def test_half_turn_lemma_on_drawn_maps(m, p, t):
    """One step turns the vertical into (-1/2, 0) turns and any unit
    direction into (-1, 1/2), unless the orbit leaves the float range."""
    try:
        vertical = vertical_step_variation(m, p)
        turn = step_variation(m, p, (math.cos(t), math.sin(t)))
    except NonFiniteOrbitError:
        return
    assert -0.5 < vertical < 0.0
    assert -1.0 < turn < 0.5


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(m=CATALOGUE, p=DRAWN_POINTS)
def test_conjugate_implies_overconjugate_on_drawn_maps(m, p):
    """A conjugate point at n is followed by an over-conjugate one by n + 2."""
    try:
        hit = detect_conjugate(m, p, 200)
        if hit is None:
            return
        over = detect_overconjugate(m, p, 210)
    except NonFiniteOrbitError:
        return
    assert over is not None and over <= hit[0] + 2


def test_jacobi_oracle_examples():
    assert jacobi_conjugate_oracle(shear(), (0.1, 0.5), 1000) is None
    n_jac = jacobi_conjugate_oracle(standard(1.0), (0.02, 0.0), 100)
    n_det = detect_conjugate(standard(1.0), (0.02, 0.0), 100)[0]
    assert abs(n_jac - n_det) <= 1
    assert jacobi_conjugate_oracle(standard(1.0), (0.5, 0.0), 1000) is None


def test_jacobi_oracle_rejects_families_without_h():
    with pytest.raises(ValueError):
        jacobi_conjugate_oracle(drift_shear(0.25), (0.0, 0.0), 10)
    with pytest.raises(ValueError):
        jacobi_conjugate_oracle(standard(1.0).inverted(), (0.0, 0.0), 10)


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
def test_jacobi_agrees_with_detector(k):
    m = standard(k)
    rng = np.random.default_rng(int(k * 100))
    for _ in range(200):
        p = tuple(rng.uniform([-0.5, -1.0], [0.5, 1.0]))
        jac = jacobi_conjugate_oracle(m, p, 100)
        det = detect_conjugate(m, p, 100)
        if jac is None:
            assert det is None
        else:
            assert det is not None
            assert abs(det[0] - jac) <= 1


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(m=CATALOGUE.filter(lambda m: m.family != DRIFT),
       p=st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)))
def test_jacobi_agrees_with_detector_on_drawn_maps(m, p):
    """The oracle and the detector agree within one index on drawn exact
    maps (every family with a generating function), unless the orbit
    leaves the float range first."""
    try:
        jac = jacobi_conjugate_oracle(m, p, 200)
        det = detect_conjugate(m, p, 200)
    except NonFiniteOrbitError:
        return
    if jac is None:
        assert det is None
    else:
        assert det is not None and abs(det[0] - jac) <= 1


def test_conjugate_implies_overconjugate_within_two():
    m = standard(1.0)
    rng = np.random.default_rng(43)
    fired = 0
    for _ in range(100):
        p = tuple(rng.uniform([-0.2, -0.3], [0.2, 0.3]))
        hit = detect_conjugate(m, p, 100)
        if hit is None:
            continue
        fired += 1
        oc = detect_overconjugate(m, p, 110)
        assert oc is not None
        assert oc <= hit[0] + 2
    assert fired > 10


def test_linking_examples():
    est = linking_number(shear(), (0.0, 0.0), (0.0, 0.5), 1)
    assert est.value == pytest.approx(-0.125, abs=1e-12)
    for n in (1, 5, 40):
        est = linking_number(shear(), (0.0, 0.0), (0.0, 0.5), n)
        assert est.value == pytest.approx(-math.atan(n) / (TWO_PI * n), abs=1e-12)
    # integer-translate pairs and horizontal pairs never link
    assert linking_number(shear(), (0.0, 0.3), (1.0, 0.3), 37).value == 0.0
    assert linking_number(shear(), (0.0, 0.0), (0.5, 0.0), 37).value == 0.0


def test_linking_validation():
    with pytest.raises(CoincidentPointsError):
        linking_number(shear(), (0.1, 0.2), (0.1, 0.2), 5)
    est = linking_number(shear(), (0.0, 0.0), (0.0, 0.5), 10)
    assert est.near_half_turn is False
    assert est.n == 10


def linking_reference(map, p, q, n):
    # the per-step loop through the checked public angle_from_vertical
    px, py = p
    qx, qy = q
    total, flagged = 0.0, False
    th_prev = angle_from_vertical((qx - px, qy - py))
    for _ in range(n):
        px, py = map.apply_scalar(px, py)
        qx, qy = map.apply_scalar(qx, qy)
        th = angle_from_vertical((qx - px, qy - py))
        rep = (th - th_prev) - round(th - th_prev)
        flagged |= abs(abs(rep) - 0.5) <= twistlab.torsion.HALF_TURN_WARN_TOL
        total += rep
        th_prev = th
    return total / n, flagged


@pytest.mark.parametrize("m", POSITIVE_TWIST_MAPS + [standard(1.5)], ids=repr)
def test_linking_matches_checked_angle_reference(m):
    for p, q in [((0.1, 0.0), (0.2, 0.1)), ((0.0, 0.0), (0.0, 0.5)), ((0.3, -0.2), (-0.4, 0.7))]:
        est = linking_number(m, p, q, 300)
        assert (est.value, est.near_half_turn) == linking_reference(m, p, q, 300)


class _ImageMap:
    """A duck-typed map given by its float image kernel _apply_k; its orbit
    block steps that kernel, and the per-step references call apply_scalar."""

    def _orbit_k(self, x, y, r, xs, ys):
        for i in range(r):
            try:
                x, y = self._apply_k(x, y)
            except (ArithmeticError, ValueError) as exc:
                return x, y, i, exc
            xs[i], ys[i] = x, y
        return x, y, r, None

    def apply_scalar(self, x, y):
        return self._apply_k(x, y)


class _Blowup(_ImageMap):
    # scales x by 1e200 per step, so the second step's difference is inf - inf
    def _apply_k(self, x, y):
        return x * 1e200, y


def test_linking_non_finite_difference_raises():
    linking_number(_Blowup(), (1.0, 0.0), (2.0, 0.0), 1)
    with pytest.raises(ValueError, match="finite"):
        linking_number(_Blowup(), (1.0, 0.0), (2.0, 0.0), 2)


def linking_per_step(map, p, q, n):
    """linking_number as a per-step loop, errors included, by the rule of
    maps._check_block: an overflowing q - p is named at step 0; a step
    whose kernel raises (p's before q's) is named, chained from its error;
    else a step is checked for a collision, then for a non-finite
    difference, which yields to a kernel that raises, or a collision, later
    in the loop, whatever its blocks, as test_block_kernels.first_failure
    names a raise one step past a non-finite point."""
    start = ((p[0], p[1]), (q[0], q[1]))
    px, py = p
    qx, qy = q
    total, flagged = 0.0, False
    if not (math.isfinite(qx - px) and math.isfinite(qy - py)):
        raise NonFiniteOrbitError.at(start, 0)
    th_prev = twistlab.torsion._angle(qx - px, qy - py)
    for i in range(1, n + 1):
        try:
            px, py = map.apply_scalar(px, py)
            qx, qy = map.apply_scalar(qx, qy)
        except (ArithmeticError, ValueError) as exc:
            raise NonFiniteOrbitError.at(start, i) from exc
        dx, dy = qx - px, qy - py
        if dx == 0.0 and dy == 0.0:
            raise CoincidentPointsError("orbits collided to machine precision")
        if not (math.isfinite(dx) and math.isfinite(dy)):
            for j in range(i + 1, n + 1):
                try:
                    px, py = map.apply_scalar(px, py)
                    qx, qy = map.apply_scalar(qx, qy)
                except (ArithmeticError, ValueError) as exc:
                    raise NonFiniteOrbitError.at(start, j) from exc
                if qx - px == 0.0 and qy - py == 0.0:
                    raise CoincidentPointsError("orbits collided to machine precision")
            raise NonFiniteOrbitError.at(start, i)
        th = twistlab.torsion._angle(dx, dy)
        rep = (th - th_prev) - round(th - th_prev)
        flagged |= abs(abs(rep) - 0.5) <= twistlab.torsion.HALF_TURN_WARN_TOL
        total += rep
        th_prev = th
    return total / n, flagged


def linking_outcome(f, *args):
    """(value, flag) with the value's bits, or the type and message raised."""
    try:
        value, flag = f(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc), type(exc.__cause__)
    return struct.pack("<d", value), flag


def linking_pair(m, p, q, n):
    est = linking_number(m, p, q, n)
    assert est.n == n
    return est.value, est.near_half_turn


# step counts at and across the edges of a BLOCK-step block and of a 1024-step one
LINKING_NS = sorted({1, 1023, 1024, 1025, 2049, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1})


@pytest.mark.parametrize("n", LINKING_NS)
@settings(deadline=None, derandomize=True, database=None, max_examples=12)
@given(
    m=st.sampled_from(POSITIVE_TWIST_MAPS + [standard(1.5), standard(0.0)]),
    p=st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
    d=st.tuples(st.sampled_from([0.0, 0.25, -0.5, 1e-9]) | st.floats(-1.0, 1.0),
                st.sampled_from([0.0, 0.5, -1e-9]) | st.floats(-1.0, 1.0)),
)
def test_linking_blocks_match_reference(n, m, p, d):
    # d = (0, y) starts with qx == px: -dx is -0.0 there, as in _angle
    q = (p[0] + d[0], p[1] + d[1])
    if q == p:
        return
    want = linking_outcome(linking_per_step, m, p, q, n)
    assert linking_outcome(linking_pair, m, p, q, n) == want
    if not isinstance(want[0], type):  # no error: the checked angles agree too
        assert linking_outcome(linking_reference, m, p, q, n) == want


# Four steps scale x by 2^-1 (_Halving) or 2 (_Doubling), so the orbits of
# 2^e and 2^(e+1) meet at the smallest subnormal, or leave the float range,
# about 4 (e + 1075) or 4 (1024 - e) steps in: 3/2 BLOCK, in the second
# block, from EDGE_EXPONENT.
QUARTER = 2.0**0.25
EDGE_EXPONENT = 3 * BLOCK // 8


class _Halving(_ImageMap):
    # halves both coordinates every four steps
    def _apply_k(self, x, y):
        return x / QUARTER, y / QUARTER


class _Doubling(_ImageMap):
    # doubles x every four steps
    def _apply_k(self, x, y):
        return x * QUARTER, y


# x grows by about y a step, so from this height it leaves the float range
# about 3/2 BLOCK steps in; a second harmonic raises once 2x does, from
# half the height
EDGE_HEIGHT = 1.7976931348623157e308 / (1.5 * BLOCK)

# (map, p, q): errors inside a later block, from a duck-typed map, a map
# that carries inf on (shear) and maps that raise one step past it.
LINKING_EDGES = [
    (_Halving(), (2.0 ** (EDGE_EXPONENT - 1075), 0.0), (2.0 ** (EDGE_EXPONENT - 1074), 0.0)),
    (_Doubling(), (2.0 ** (1023 - EDGE_EXPONENT), 0.0), (2.0 ** (1024 - EDGE_EXPONENT), 0.0)),
    (_Blowup(), (1.0, 0.0), (2.0, 0.0)),
    (shear(), (0.0, EDGE_HEIGHT), (0.0, 1.0001 * EDGE_HEIGHT)),
    (standard(0.5), (0.0, EDGE_HEIGHT), (0.25, 1.0001 * EDGE_HEIGHT)),
    (generating_function(0.02, 0.001), (0.0, EDGE_HEIGHT / 2), (0.0, 1.0001 * EDGE_HEIGHT / 2)),
]


@pytest.mark.parametrize("n", LINKING_NS + [3072, 3 * BLOCK])
@pytest.mark.parametrize("case", LINKING_EDGES, ids=lambda c: type(c[0]).__name__)
def test_linking_errors_match_per_step_loop(case, n):
    m, p, q = case
    want = linking_outcome(linking_per_step, m, p, q, n)
    assert linking_outcome(linking_pair, m, p, q, n) == want


def test_linking_edge_cases_fail_in_a_later_block():
    # all but _Blowup raise past the first block, as they are meant to
    for (m, p, q), kind in zip(LINKING_EDGES, [CoincidentPointsError] + [Exception] * 5):
        with pytest.raises(kind):
            linking_per_step(m, p, q, 3 * BLOCK)
        if not isinstance(m, _Blowup):
            linking_per_step(m, p, q, BLOCK)


# (map, p, q, n, step): linking names the step iterate names for the
# orbit that fails first, a kernel's raise one step past its non-finite
# point included; the last two fail in a block that took no step.
LINKING_ITERATE_STEPS = [
    ("std:k=1", (0.1, 0.2), (0.3, 1e307), 50, 19),
    ("genfun:a1=0.02,a2=-0.007", (0.1, 0.2), (0.3, 1e307), 10, 10),
    ("std:k=0.5", (0.0, 1e305), (0.25, 1.0001e305), 3072, 1799),
    ("genfun:a1=0.02,a2=0.001", (0.0, 5e304), (0.0, 5.0001e304), 3072, 1799),
    ("genfun:a1=0.02,a2=-0.007", (1e308, 0.0), (0.0, 0.0), 5, 1),
    ("genfun:a1=0.02,a2=-0.007", (0.0, 0.0), (1e308, 0.0), 5, 1),
]


def first_orbit_failure(m, p, q, n):
    """The (step, cause) iterate names for the orbit of p or q that fails
    first, p's on a tie, or None."""
    named_steps = (named(lambda: iterate(m, p, n)), named(lambda: iterate(m, q, n)))
    return min((s for s in named_steps if s is not None), key=lambda s: s[0], default=None)


@pytest.mark.parametrize("spec, p, q, n, step", LINKING_ITERATE_STEPS)
def test_linking_names_the_step_iterate_names(spec, p, q, n, step):
    m = parse_map_spec(spec)
    want = first_orbit_failure(m, p, q, n)
    assert want[0] == step
    assert named(lambda: linking_number(m, p, q, n)) == want


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(m=st.sampled_from([standard(0.5), standard(1.5), generating_function(0.02, -0.007),
                          generating_function(0.02, 0.001)]),
       x=st.floats(-1.0, 1.0), y=HIGH, d=st.floats(-1.0, 1.0), e=st.floats(1e-12, 1e-3),
       n=st.sampled_from(EDGES))
def test_linking_fails_at_the_earlier_orbits_iterate_step(m, x, y, d, e, n):
    # q's y is a relative e nearer 0, so the first step cannot absorb the offset
    p, q = (x, y), (x + d, y - e * y)
    assert named(lambda: linking_number(m, p, q, n)) == first_orbit_failure(m, p, q, n)


def test_linking_overflowing_first_difference_is_step_0():
    # q - p is inf though p and q are finite: no direction to start from
    with pytest.raises(NonFiniteOrbitError, match="by step 0: ") as info:
        linking_number(shear(), (-1e308, 0.0), (1e308, 0.0), 5)
    assert info.value.__cause__ is None
    with pytest.raises(NonFiniteOrbitError, match="by step 0: "):
        linking_number(shear(), (0.0, 1e308), (0.0, -1e308), 5)


def test_cocycle_scan_matches_scalar_trace():
    m = standard(1.0)
    rng = np.random.default_rng(59)
    xs = rng.uniform(-0.5, 0.5, size=32)
    ys = rng.uniform(-0.5, 0.5, size=32)
    scan = cocycle_scan(m, xs, ys, 60, keep_history=True)
    assert scan.n == 60
    for i in range(32):
        tr = torsion_trace(m, (xs[i], ys[i]), (0.0, 1.0), 60)
        assert scan.cumulative[i] == pytest.approx(tr.cumulative[-1], abs=1e-12)
        assert scan.history[:, i] == pytest.approx(tr.cumulative, abs=1e-12)
        oc = detect_overconjugate(m, (xs[i], ys[i]), 60)
        assert scan.overconj_time[i] == (-1 if oc is None else oc)
        assert scan.final_x[i] == tr.points[-1][0]
        assert scan.final_y[i] == tr.points[-1][1]
        assert scan.displacement[i] == pytest.approx(
            tr.points[-1][0] - xs[i], abs=0
        )
    assert bool(np.all(scan.valid))


def test_cocycle_scan_custom_directions():
    m = standard(1.0)
    rng = np.random.default_rng(61)
    xs = rng.uniform(-0.5, 0.5, size=8)
    ys = rng.uniform(-0.5, 0.5, size=8)
    ts = rng.uniform(0, TWO_PI, size=8)
    wx, wy = np.cos(ts), np.sin(ts)
    scan = cocycle_scan(m, xs, ys, 40, wx=wx, wy=wy)
    for i in range(8):
        tr = torsion_trace(m, (xs[i], ys[i]), (wx[i], wy[i]), 40)
        assert scan.cumulative[i] == pytest.approx(tr.cumulative[-1], abs=1e-12)


def test_cocycle_scan_invalid_lanes():
    inv = shear().inverted()
    scan = cocycle_scan(inv, np.array([0.0, 0.3]), np.array([0.1, 0.2]), 5)
    assert not scan.valid.any()
    assert np.all(scan.overconj_time == -2)
    assert np.all(np.isnan(scan.cumulative))
    assert np.all(np.isnan(scan.displacement))


def test_cocycle_scan_rejects_bad_directions():
    m = standard(1.0)
    xs = np.array([0.1, 0.2])
    ys = np.array([0.0, 0.1])
    bad = [
        dict(wx=np.array([0.0, 1.0]), wy=np.array([0.0, 0.0])),
        dict(wx=np.array([np.nan, 1.0]), wy=np.array([1.0, 0.0])),
        dict(wx=np.array([np.inf, 1.0]), wy=np.array([1.0, 0.0])),
        dict(wx=np.array([0.0, 1.0])),
        dict(wy=np.array([1.0, 1.0])),
        dict(wx=np.array([0.0, 1.0, 1.0]), wy=np.array([1.0, 0.0, 1.0])),
        dict(wx=np.array([1.0]), wy=np.array([1.0])),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            cocycle_scan(m, xs, ys, 5, **kw)


def test_trace_validation():
    with pytest.raises(ValueError):
        torsion_trace(shear(), (0, 0), (0, 1), 0)
    with pytest.raises(TwistViolationError):
        torsion_trace(shear().inverted(), (0, 0), (0, 1), 3)


def test_trace_cap(monkeypatch):
    # iterate's cap, checked before the trace's (n + 1)-row table exists
    monkeypatch.setattr(twistlab.maps, "ITERATE_CAP", 10)
    assert torsion_trace(shear(), (0, 0), n=10).n == 10
    monkeypatch.setattr(np, "empty", None)
    with pytest.raises(IterationCapError, match=r"^\|n\| = 11 exceeds the cap 10$"):
        torsion_trace(shear(), (0, 0), n=11)


def test_cocycle_scan_stop_at_overconjugate():
    # The stopped scan is the full scan cut at the first crossing step.
    m = standard(1.5)
    X, Y = np.meshgrid(np.linspace(0.05, 0.95, 6), np.linspace(-1.5, 1.5, 5))
    xs, ys = X.ravel(), Y.ravel()
    full = cocycle_scan(m, xs, ys, 300, keep_history=True)
    first = int(full.overconj_time[full.overconj_time > 0].min())
    stopped = cocycle_scan(m, xs, ys, 300, keep_history=True, stop_at_overconjugate=True)
    cut = cocycle_scan(m, xs, ys, first, keep_history=True)
    assert stopped.n == first < 300
    assert np.any(stopped.overconj_time == first)
    for field in ("cumulative", "overconj_time", "final_x", "final_y", "displacement",
                  "valid", "history"):
        assert np.array_equal(getattr(stopped, field), getattr(cut, field), equal_nan=True)
    assert np.array_equal(stopped.history, full.history[: first + 1], equal_nan=True)
    # without a crossing (or with every lane invalid) it runs the horizon
    assert cocycle_scan(standard(0.0), xs, ys, 50, stop_at_overconjugate=True).n == 50
    assert cocycle_scan(m.inverted(), xs, ys, 50, stop_at_overconjugate=True).n == 50


def test_cocycle_scan_stop_ignores_invalid_lanes(kernels):
    # Lane 0 breaks the twist at step 1 and then turns a third of a turn
    # clockwise per step, so it crosses -1/2 at step 2.  It is invalid, and
    # the shear-like std:k=0 lanes never cross, so the scan runs to n.
    cos, sin = math.cos(TWO_PI / 3), math.sin(TWO_PI / 3)

    def patch(step):
        def patched(x, y):
            x1, y1, *entries = step(x, y)
            a, b, c, d = (np.array(np.broadcast_to(e, np.shape(x)), dtype=float) for e in entries)
            first = kernels.calls["_step_array_k"] == 1  # counted before the call
            a[0], b[0], c[0], d[0] = (1.0, -1.0, 0.0, 1.0) if first else (cos, sin, -sin, cos)
            return x1, y1, a, b, c, d
        return patched

    kernels.patch("_step_array_k", patch)
    xs, ys = np.array([0.1, 0.4, 0.7]), np.array([0.0, 0.3, -0.2])
    scan = cocycle_scan(standard(0.0), xs, ys, 20, keep_history=True, stop_at_overconjugate=True)
    assert scan.n == 20 and kernels.calls["_step_array_k"] == 20
    assert scan.overconj_time.tolist() == [-2, -1, -1]


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 1.5])
def test_first_overconjugate_read_off_the_trace(k):
    # the trace's vertical-start directions give the detector's answer
    m = standard(k)
    rng = np.random.default_rng(int(k * 10) + 7)
    for _ in range(40):
        p = tuple(rng.uniform([0.0, -0.5], [1.0, 0.5]))
        tr = torsion_trace(m, p, n=120)
        got = twistlab.torsion._overconjugate(tr.directions)
        assert got == detect_overconjugate(m, p, 120)
