"""Properties of the fused kicked step and the cocycle kernel built on it."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistlab import (
    NonFiniteOrbitError,
    TwistViolationError,
    cocycle_scan,
    drift_shear,
    generating_function,
    shear,
    standard,
    torsion_trace,
)
from twistlab.maps import _fold_arr, _kick, _kick_arr

from test_maps import CATALOGUE as DRAWN_MAPS

# Deterministic example streams keep the suite reproducible run to run.
PROPERTY = settings(deadline=None, derandomize=True, database=None)

POSITIVE = [
    shear(),
    drift_shear(0.25),
    standard(0.5),
    standard(1.0),
    standard(1.5),
    generating_function(0.02, -0.007),
    generating_function(0.03, 0.0, 0.001),
]
CATALOGUE = POSITIVE + [m.inverted() for m in POSITIVE]

# Every value the kicks reduce is s = i x for a double x, so the half-turn
# argument t = 2s of the reference reduction is exact.
turns = st.floats(min_value=-(2.0**51), max_value=2.0**51, allow_nan=False)
coords = st.floats(min_value=-2.0e3, max_value=2.0e3, allow_nan=False)

UNIT = ((1, -1.0, -1.0),)  # _kick then returns (sin 2 pi s, cos 2 pi s)


def bits(v) -> bytes:
    return struct.pack("<d", v)


def fmod_wrap(t: float) -> float:
    """The reduction the kicks used before: fmod(t, 2), wrapped into [0, 2)."""
    r = math.fmod(t, 2.0)
    if r < 0.0:
        r += 2.0
    return r


def sinpi_fmod(t: float) -> float:
    """sin(pi t) as computed from fmod_wrap: the reference for orbit positions."""
    r = fmod_wrap(t)
    sign = 1.0
    if r >= 1.0:
        r -= 1.0
        sign = -1.0
    if r > 0.5:
        r = 1.0 - r
    return sign * math.sin(math.pi * r)


@PROPERTY
@given(turns)
@example(-8.150773835443794e-268)
@example(-5e-324)
def test_floor_reduction_equals_fmod_wrap(s):
    u, turn = _fold_arr(np.array([s]))
    frac = u[0] + 0.5 if turn[0] < 0.0 else u[0]  # undo the half-turn split (exact)
    # a zero remainder is +0 here; fmod keeps the sign of t
    assert bits(2.0 * frac) == bits(fmod_wrap(2.0 * s) + 0.0)


@PROPERTY
@given(turns)
@example(-8.150773835443794e-268)
@example(-5e-324)
def test_sin_equals_fmod_reference(s):
    sin_scalar, _ = _kick(s, UNIT, True, False)
    sin_array, _ = _kick_arr(np.array([s]), UNIT, True, False)
    assert bits(sin_scalar) == bits(sin_array[0])
    assert bits(sin_scalar + 0.0) == bits(sinpi_fmod(2.0 * s) + 0.0)


@PROPERTY
@given(st.integers(min_value=-(2**53), max_value=2**53))
def test_quarter_turns_are_exact(j):
    s = j / 4.0
    want = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)][j % 4]
    assert _kick(s, UNIT, True, True) == want
    sv, cv = _kick_arr(np.array([s]), UNIT, True, True)
    assert (sv[0], cv[0]) == want


@pytest.mark.parametrize("m", CATALOGUE, ids=lambda m: m.to_spec())
@PROPERTY
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=16))
def test_fused_step_equals_apply_and_jacobian(m, pts):
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    fused = [np.broadcast_to(e, xs.shape) for e in m.step_array(xs, ys)]
    split = list(m.apply_array(xs, ys)) + list(m.jacobian_array(xs, ys))
    for f, g in zip(fused, split):
        assert f.tobytes() == g.tobytes()
    for i, (x, y) in enumerate(pts):
        scalar = (*m.apply_scalar(x, y), *m.jacobian_scalar(x, y))
        assert [bits(v) for v in scalar] == [bits(f[i]) for f in fused]


def assert_scan_matches_trace(m, xs, ys, n):
    scan = cocycle_scan(m, xs, ys, n)
    for i, p in enumerate(zip(xs, ys)):
        if not scan.valid[i]:
            # what flags a lane invalid makes the walk raise
            with pytest.raises((TwistViolationError, NonFiniteOrbitError)):
                torsion_trace(m, p, n=n)
            continue
        tr = torsion_trace(m, p, n=n)
        below = np.flatnonzero(tr.cumulative < -0.5)
        assert scan.overconj_time[i] == (below[0] if below.size else -1)
        assert bits(scan.final_x[i]) == bits(tr.points[-1][0])
        assert abs(scan.cumulative[i] - tr.cumulative[-1]) <= 1e-11
    return scan


lanes = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(-0.5, 0.5)), min_size=1, max_size=6
)


@settings(PROPERTY, max_examples=10)
@given(lanes)
def test_scan_matches_scalar_trace_on_chaotic_lanes(pts):
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    assert_scan_matches_trace(standard(1.5), xs, ys, 700)


def test_scan_matches_scalar_trace_at_large_lifted_x():
    """A grid over the std:k=1.5 chaotic box, 700 steps: lifted |x| ~ 1e3."""
    g = (np.arange(6) + 0.5) / 6.0
    xs, ys = np.meshgrid(g, g - 0.5)
    scan = assert_scan_matches_trace(standard(1.5), xs.ravel(), ys.ravel(), 700)
    assert np.abs(scan.final_x).max() > 500.0


def test_scan_matches_scalar_trace_with_huge_kick():
    """std:k=1e200: Jacobian entries near 1e200 need the overflow-safe norm."""
    xs = np.array([0.1, 0.37, 0.62, 0.9])
    ys = np.array([0.2, -0.3, 0.0, 0.45])
    scan = assert_scan_matches_trace(standard(1e200), xs, ys, 4)
    assert scan.valid.all()


def test_scan_invalid_lanes_match_a_raising_trace():
    """std:k=1e308, 50 steps: lanes that leave the float range are invalid
    in the scan, and the walk from them raises; the fixed point stays valid."""
    xs = np.array([0.1, 0.3, 0.37, 0.62, 0.9, 0.0])
    ys = np.array([0.2, 0.0, -0.3, 0.0, 0.45, 0.0])
    scan = assert_scan_matches_trace(standard(1e308), xs, ys, 50)
    assert scan.valid.tolist() == [False] * 5 + [True]


drawn_lanes = st.lists(
    st.tuples(st.floats(-(2.0**52), 2.0**52), st.floats(-1e300, 1e300)), min_size=1, max_size=4
)


@settings(PROPERTY, max_examples=300)
@given(DRAWN_MAPS, drawn_lanes, st.sampled_from([1, 2, 7, 60]))
def test_scan_matches_scalar_trace_on_drawn_maps(m, pts, n):
    """Every family at edge parameters (std k and genfun coefficients up to
    1e308), lifted |x| up to 2^52 and |y| up to 1e300: on finite orbits the
    scan and the walk agree on values, and on the others on the outcome."""
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    assert_scan_matches_trace(m, xs, ys, n)


# lanes carry ordinary, huge, signed-zero and non-finite coordinates
SPECIAL_LANES = np.array([0.0, -0.0, 0.5, -0.25, 1e15, -1e300, math.inf, -math.inf, math.nan])


@settings(PROPERTY, max_examples=60)
@given(st.one_of(DRAWN_MAPS, DRAWN_MAPS.map(lambda m: m.inverted()),
                 st.just(standard(1.0).inverted()), st.just(generating_function(0.02, -0.007))),
       st.sampled_from([1, 7, 256]), st.integers(0, 2**32 - 1), st.booleans())
def test_array_kernels_never_write_into_their_inputs(m, lanes, seed, custom):
    # the array kernels write into temporaries they own: a kernel that wrote
    # into an input, or handed one back, would change its caller's arrays
    rng = np.random.default_rng(seed)
    inputs = x, y, wx, wy = [rng.uniform(-3.0, 3.0, lanes) for _ in range(4)]
    for a in (x, y):
        special = rng.random(lanes) < 0.2
        a[special] = rng.choice(SPECIAL_LANES, int(special.sum()))
    before = [a.tobytes() for a in inputs]
    given_directions = {"wx": wx, "wy": wy} if custom else {}
    with np.errstate(all="ignore"):
        outs = [*m.step_array(x, y), *m.apply_array(x, y)]
        for keep_history in (False, True):
            scan = cocycle_scan(m, x, y, 5, keep_history=keep_history, **given_directions)
            outs += [scan.cumulative, scan.overconj_time, scan.final_x, scan.final_y,
                     scan.displacement, scan.valid, scan.history]
    assert [a.tobytes() for a in inputs] == before
    for out in outs:
        if isinstance(out, np.ndarray):
            assert not any(np.shares_memory(out, a) for a in inputs)
