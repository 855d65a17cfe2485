"""The block kernels against the per-step kernels they replace in the loops.

A map's orbit blocks take r steps of its per-step image kernels, its walk
block the steps of a per-step walk over its step kernel, bit for bit, and
stop, fail and name the failing step where the per-step loops do.  Forward
shear and drift write their step into their blocks, which take the steps
of the generic blocks over their per-step kernels.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_maps import CATALOGUE
from test_walk_blocks import EDGES, directions

import twistlab.maps
from twistlab import (
    LiftedMap,
    NonFiniteOrbitError,
    TwistViolationError,
    asymptotic_torsion,
    drift_shear,
    generating_function,
    iterate,
    rotation_number,
    shear,
    standard,
    torsion_trace,
)
from twistlab.maps import BLOCK, _orbit_block, _walk_block

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=200)

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# an orbit from |y| above 1e305 leaves the float range within 2 BLOCK steps
HIGH = st.floats(1e305, 1.7e308) | st.floats(-1.7e308, -1e305)
POINTS = st.tuples(FLOATS | st.floats(-2.0, 2.0), FLOATS | st.floats(-1.0, 1.0) | HIGH)


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def per_step_orbit(kernel, x, y, r):
    """r calls of an image kernel: the points, and the type of the error
    that stopped them, if one did."""
    points = []
    for _ in range(r):
        try:
            x, y = kernel(x, y)
        except (ArithmeticError, ValueError) as exc:
            return points, type(exc)
        points.append((x, y))
    return points, None


@PROPERTY
@given(m=CATALOGUE, inverted=st.booleans(), p=POINTS, r=st.sampled_from(EDGES))
def test_orbit_blocks_take_the_per_step_kernels_steps(m, inverted, p, r):
    m = m.inverted() if inverted else m
    # a backward orbit is the inverted map's forward orbit
    for block, kernel in ((m._orbit_k, m._apply_k), (m.inverted()._orbit_k, m._apply_inverse_k)):
        xs, ys = [0.0] * r, [0.0] * r
        x, y, taken, exc = block(*p, r, xs, ys)
        points, error = per_step_orbit(kernel, *p, r)
        assert (taken, None if exc is None else type(exc)) == (len(points), error)
        want = [q[0] for q in points] + [q[1] for q in points]
        assert bits(xs[:taken] + ys[:taken]) == bits(want)
        assert bits([x, y]) == bits(points[-1] if points else p)


def per_step_walk(step, x, y, wx, wy, r, stop, tol):
    """The walk's rules one step at a time over a step kernel: for each
    step (image direction, point, unit direction), and the type of the
    error that stopped the walk, if one did."""
    side, rows = -1.0 if wx < 0.0 else 1.0, []
    for _ in range(r):
        try:
            x1, y1, a, b, c, d = step(x, y)
            if b <= 0.0:
                return rows, TwistViolationError
            iwx, iwy = a * wx + b * wy, c * wx + d * wy
            norm = math.hypot(iwx, iwy)
            x, y, wx, wy = x1, y1, iwx / norm, iwy / norm
            rows.append((iwx, iwy, x, y, wx, wy))
            if side * wx < tol or stop is not None and stop(x, y, wx):
                break
        except (ArithmeticError, ValueError) as exc:
            return rows, type(exc)
    return rows, None


def block_walk(m, x, y, wx, wy, r, stop, tol):
    """The walk block, in per_step_walk's terms: a trace's records, with the
    directions derived as the trace derives them, the images over their
    norms in numpy."""
    ix, iy, trace = [0.0] * r, [0.0] * r, ([0.0] * r, [0.0] * r, [0.0] * r)
    try:
        *state, taken, exc = m._walk_k(x, y, wx, wy, r, ix, iy, trace, stop, tol)
    except TwistViolationError:
        return [], TwistViolationError
    xs, ys, norms = (column[:taken] for column in trace)
    with np.errstate(all="ignore"):  # rows past the float range hold inf and NaN
        wxs, wys = np.divide(ix[:taken], norms), np.divide(iy[:taken], norms)
    rows = list(zip(ix[:taken], iy[:taken], xs, ys, wxs.tolist(), wys.tolist()))
    assert bits(state) == bits(rows[-1][2:] if rows else (x, y, wx, wy))
    return rows, None if exc is None else type(exc)


def stop_at_call(n):
    """A stop that is true at its n-th call, so a walk that calls it more
    or less than once per step stops elsewhere."""
    calls = []

    def stop(x, y, wx):
        calls.append(x)
        return len(calls) == n
    return stop


STOPS = {
    "none": lambda p: None,
    "call 3": lambda p: stop_at_call(3),
    "call 1025": lambda p: stop_at_call(BLOCK + 1),
    "x moved": lambda p: (lambda x, y, wx: abs(x - p[0]) > 2.5),
}


# an inverted map fails the twist test at its first step
@PROPERTY
@given(m=CATALOGUE, inverted=st.sampled_from([False, False, False, True]), p=POINTS,
       w=directions, r=st.sampled_from(EDGES), stop=st.sampled_from(sorted(STOPS)),
       tol=st.sampled_from([-math.inf, 1e-9, 0.3, 1.5]))
def test_walk_block_stops_where_a_per_step_walk_stops(m, inverted, p, w, r, stop, tol):
    m = m.inverted() if inverted else m
    want = per_step_walk(m._step_k, *p, *w, r, STOPS[stop](p), tol)
    rows, error = block_walk(m, *p, *w, r, STOPS[stop](p), tol)
    assert (len(rows), error) == (len(want[0]), want[1])
    assert bits([v for row in rows for v in row]) == bits([v for row in want[0] for v in row])


def first_failure(kernel, x, y, n):
    """The step a per-step loop of n steps names, and the type of its
    cause: the step that raised, or the first non-finite point.  A kicked
    map raises one step after its orbit turns non-finite; shear and drift
    carry inf on.  None if the orbit stays finite; on_edge is true when
    the point turns non-finite at the last step of a block, where the
    loops check their blocks' ends."""
    for i in range(1, n + 1):
        try:
            x, y = kernel(x, y)[:2]
        except (ArithmeticError, ValueError) as exc:
            return (i, type(exc)), False
        if not (math.isfinite(x) and math.isfinite(y)):
            if i < n:
                try:
                    kernel(x, y)
                except (ArithmeticError, ValueError) as exc:
                    return (i + 1, type(exc)), i % BLOCK == 0
            return (i, None), False
    return None, False


def named(call):
    """The step a NonFiniteOrbitError names and its cause's type, or None."""
    try:
        call()
    except NonFiniteOrbitError as exc:
        step = int(str(exc).split("by step ")[1].split(":")[0])
        return step, None if exc.__cause__ is None else type(exc.__cause__)
    return None


@PROPERTY
@given(m=st.sampled_from([shear(), drift_shear(0.25), standard(0.0), standard(1.5),
                          generating_function(0.02, -0.007)]),
       x=st.floats(-1.0, 1.0), y=HIGH, n=st.sampled_from(EDGES))
def test_an_orbit_failing_mid_block_is_named_at_the_per_step_loops_step(m, x, y, n):
    p = (x, y)
    for kernel, calls in [
        (m._apply_k, [lambda: iterate(m, p, n), lambda: rotation_number(m, p, n)]),
        (m._apply_inverse_k, [lambda: iterate(m, p, -n)]),
        (m._step_k, [lambda: torsion_trace(m, p, n=n), lambda: asymptotic_torsion(m, p, n, n)]),
    ]:
        want, on_edge = first_failure(kernel, *p, n)
        assume(not on_edge)
        for call in calls:
            assert named(call) == want


# drift with c = +-0.0 keeps y bit for bit, as shear does with its c = -0.0
TRANSLATIONS = st.sampled_from([shear(), drift_shear(0.25), drift_shear(0.0), drift_shear(-0.0),
                                drift_shear(-3.5)])
ZEROS = st.sampled_from([0.0, -0.0])
SIGNED_POINTS = st.tuples(ZEROS | FLOATS | st.floats(-2.0, 2.0),
                          ZEROS | FLOATS | st.floats(-1.0, 1.0) | HIGH)
UNITS = st.sampled_from([1.0, -1.0])
# 0.0 * wx + wy, not wy, is the image of (1.0, -0.0)
SIGNED_DIRECTIONS = st.tuples(ZEROS, UNITS) | st.tuples(UNITS, ZEROS) | directions


def generic(m):
    """A map like m whose blocks are the generic loops over its per-step kernels."""
    g = LiftedMap(m.family, m.params)
    object.__setattr__(g, "_walk_k", _walk_block(g._step_k))
    object.__setattr__(g, "_orbit_k", _orbit_block(g._apply_k))
    return g


def walk_records(walk, p, w, r, stop, tol):
    """Everything a walk block returns or records, as bytes, and its error's type."""
    ix, iy, trace = [0.0] * r, [0.0] * r, ([0.0] * r, [0.0] * r, [0.0] * r)
    *state, taken, exc = walk(*p, *w, r, ix, iy, trace, stop, tol)
    records = [state, ix[:taken], iy[:taken], *(column[:taken] for column in trace)]
    return [bits(values) for values in records], taken, None if exc is None else type(exc)


@PROPERTY
@given(m=TRANSLATIONS, p=SIGNED_POINTS, w=SIGNED_DIRECTIONS, r=st.sampled_from(EDGES),
       stop=st.sampled_from(sorted(STOPS)), tol=st.sampled_from([-math.inf, 1e-9, 0.3, 1.5]))
def test_shear_and_drift_blocks_take_the_generic_blocks_steps(m, p, w, r, stop, tol):
    g = generic(m)
    assert (walk_records(m._walk_k, p, w, r, STOPS[stop](p), tol)
            == walk_records(g._walk_k, p, w, r, STOPS[stop](p), tol))
    xs, ys, want_xs, want_ys = [0.0] * r, [0.0] * r, [0.0] * r, [0.0] * r
    state = m._orbit_k(*p, r, xs, ys)
    want = g._orbit_k(*p, r, want_xs, want_ys)
    assert bits(state[:2]) == bits(want[:2]) and state[2:] == want[2:]
    assert bits(xs + ys) == bits(want_xs + want_ys)


@PROPERTY
@given(m=TRANSLATIONS, x=st.floats(-1.0, 1.0), y=HIGH, n=st.sampled_from(EDGES))
def test_shear_and_drift_overflow_is_named_at_the_generic_blocks_step(m, x, y, n):
    # shear and drift carry inf on, so _check_block walks the block again
    g, p = generic(m), (x, y)
    for call in [lambda m: iterate(m, p, n), lambda m: rotation_number(m, p, n),
                 lambda m: torsion_trace(m, p, n=n), lambda m: asymptotic_torsion(m, p, n, n)]:
        assert named(lambda: call(m)) == named(lambda: call(g))


def test_forward_shear_and_drift_blocks_call_no_step_kernel(monkeypatch, kernels):
    # the generic blocks are built over counted per-step kernels
    calls = Counter()

    def counted(name, kernel):
        def call(x, y):
            calls[name] += 1
            return kernel(x, y)
        return call

    walk_block, orbit_block = twistlab.maps._walk_block, twistlab.maps._orbit_block
    monkeypatch.setattr(twistlab.maps, "_walk_block", lambda step: walk_block(counted("step", step)))
    monkeypatch.setattr(twistlab.maps, "_orbit_block",
                        lambda image: orbit_block(counted("image", image)))
    p, n = (0.3, 0.1), BLOCK + 1
    for m in (shear(), drift_shear(0.25)):
        torsion_trace(m, p, n=n)
        iterate(m, p, n)
    assert not calls and kernels.calls == {"_walk_k": 2 * n, "_orbit_k": 2 * n}
    # genfun with two harmonics and the inverted maps keep the generic blocks
    torsion_trace(generating_function(0.02, -0.007), p, n=n)
    iterate(shear(), p, -n)
    with pytest.raises(TwistViolationError):
        torsion_trace(drift_shear(0.25).inverted(), p, n=n)
    assert calls == {"step": n + 1, "image": n}
