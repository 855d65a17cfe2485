"""The block kernels against the per-step kernels they replace in the loops.

A map's orbit blocks take r steps of its per-step image kernels, its walk
block the steps of a per-step walk over its step kernel, bit for bit and
from either zero sign, and stop, fail and name the failing step where the
per-step loops do.  Every map's step is written into its blocks, which
call no per-step kernel; the kernels of a map shape are compiled once.
"""

import math
import struct
import sys
import traceback
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
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
from twistlab.maps import BLOCK, _kernel_factory

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=200)

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# an orbit from |y| above 1e305 leaves the float range within 2 BLOCK steps
HIGH = st.floats(1e305, 1.7e308) | st.floats(-1.7e308, -1e305)
ZEROS = st.sampled_from([0.0, -0.0])
POINTS = st.tuples(ZEROS | FLOATS | st.floats(-2.0, 2.0),
                   ZEROS | FLOATS | st.floats(-1.0, 1.0) | HIGH)
UNITS = st.sampled_from([1.0, -1.0])
# 0.0 * wx + wy, not wy, is shear's image of (1.0, -0.0)
SIGNED_DIRECTIONS = st.tuples(ZEROS, UNITS) | st.tuples(UNITS, ZEROS) | directions


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
    back = m.inverted()
    for block, kernel in ((m._orbit_k, m._apply_k), (back._orbit_k, back._apply_k)):
        xs, ys = [0.0] * r, [0.0] * r
        x, y, taken, exc = block(*p, r, xs, ys)
        points, error = per_step_orbit(kernel, *p, r)
        assert (taken, None if exc is None else type(exc)) == (len(points), error)
        want = [q[0] for q in points] + [q[1] for q in points]
        assert bits(xs[:taken] + ys[:taken]) == bits(want)
        assert bits([x, y]) == bits(points[-1] if points else p)


def per_step_walk(step, x, y, wx, wy, r, stop, tol):
    """The walk's rules one step at a time over a step kernel: for each
    step (image direction, point, unit direction, the image's norm), and
    the type of the error that stopped the walk, if one did."""
    side, rows = -1.0 if wx < 0.0 else 1.0, []
    for _ in range(r):
        try:
            x1, y1, a, b, c, d = step(x, y)
            if b <= 0.0:
                return rows, TwistViolationError
            iwx, iwy = a * wx + b * wy, c * wx + d * wy
            norm = math.hypot(iwx, iwy)
            x, y, wx, wy = x1, y1, iwx / norm, iwy / norm
            rows.append((iwx, iwy, x, y, wx, wy, norm))
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
    rows = list(zip(ix[:taken], iy[:taken], xs, ys, wxs.tolist(), wys.tolist(), norms))
    assert bits(state) == bits(rows[-1][2:6] if rows else (x, y, wx, wy))
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
    "call BLOCK + 1": lambda p: stop_at_call(BLOCK + 1),
    "x moved": lambda p: (lambda x, y, wx: abs(x - p[0]) > 2.5),
}


# an inverted map fails the twist test at its first step
@PROPERTY
@given(m=CATALOGUE, inverted=st.sampled_from([False, False, False, True]), p=POINTS,
       w=SIGNED_DIRECTIONS, r=st.sampled_from(EDGES), stop=st.sampled_from(sorted(STOPS)),
       tol=st.sampled_from([-math.inf, 1e-9, 0.3, 1.5]))
def test_walk_block_stops_where_a_per_step_walk_stops(m, inverted, p, w, r, stop, tol):
    m = m.inverted() if inverted else m
    want = per_step_walk(m._step_k, *p, *w, r, STOPS[stop](p), tol)
    rows, error = block_walk(m, *p, *w, r, STOPS[stop](p), tol)
    assert (len(rows), error) == (len(want[0]), want[1])
    assert bits([v for row in rows for v in row]) == bits([v for row in want[0] for v in row])


def per_step_jacobi(step, x, y, xi_prev, xi, r):
    """r steps of the Jacobi recursion over a step kernel, in the Jacobi
    block's return form: (x, y, xi_prev, xi, taken, the error's type),
    xi = 0.0 after the step at which it changed sign or reached 0."""
    for i in range(r):
        try:
            x, y, _, _, w, _ = step(x, y)
            xi_next = (2.0 + w) * xi - xi_prev
            if xi_next == 0.0 or (xi_next < 0.0) != (xi < 0.0):
                return x, y, xi, 0.0, i + 1, None
            scale = abs(xi_next)
            if scale > 1e100:
                if scale == math.inf:
                    raise OverflowError("the Jacobi field overflowed")
                xi_next /= scale
                xi = xi / scale
            xi_prev, xi = xi, xi_next
        except (ArithmeticError, ValueError) as exc:
            return x, y, xi_prev, xi, i, type(exc)
    return x, y, xi_prev, xi, r, None


@PROPERTY
@given(m=CATALOGUE, inverted=st.booleans(), p=POINTS,
       xi=st.tuples(ZEROS | FLOATS, FLOATS), r=st.sampled_from([1, 2, 7, 60, 1025]))
def test_jacobi_block_takes_the_per_step_recursion(m, inverted, p, xi, r):
    m = m.inverted() if inverted else m
    *state, taken, exc = m._jacobi_k(*p, *xi, r)
    want = per_step_jacobi(m._step_k, *p, *xi, r)
    assert (taken, None if exc is None else type(exc)) == want[4:]
    # a NaN's sign follows how often CPython has run a kernel's code
    assert bits([math.nan if v != v else v for v in state]) == bits(
        [math.nan if v != v else v for v in want[:4]])


def first_failure(kernel, x, y, n):
    """The step a per-step loop of n steps names, and the type of its
    cause: the step that raised, or the first non-finite point.  A kicked
    map raises one step after its orbit turns non-finite, at a block's
    last step too; shear and drift carry inf on.  None if the orbit stays
    finite."""
    for i in range(1, n + 1):
        try:
            x, y = kernel(x, y)[:2]
        except (ArithmeticError, ValueError) as exc:
            return i, type(exc)
        if not (math.isfinite(x) and math.isfinite(y)):
            if i < n:
                try:
                    kernel(x, y)
                except (ArithmeticError, ValueError) as exc:
                    return i + 1, type(exc)
            return i, None
    return None


def named(call):
    """The step a NonFiniteOrbitError names and its cause's type, or None."""
    try:
        call()
    except NonFiniteOrbitError as exc:
        step = int(str(exc).split("by step ")[1].split(":")[0])
        return step, None if exc.__cause__ is None else type(exc.__cause__)
    return None


# drift with c = +-0.0 keeps y bit for bit, as shear does with its c = -0.0;
# shear and drift carry inf on, so _check_block walks the block again
@PROPERTY
@given(m=st.sampled_from([shear(), drift_shear(0.25), drift_shear(0.0), drift_shear(-0.0),
                          drift_shear(-3.5), standard(0.0), standard(1.5),
                          generating_function(0.02, -0.007)]),
       x=st.floats(-1.0, 1.0), y=HIGH, n=st.sampled_from(EDGES))
def test_an_orbit_failing_mid_block_is_named_at_the_per_step_loops_step(m, x, y, n):
    p = (x, y)
    for kernel, calls in [
        (m._apply_k, [lambda: iterate(m, p, n), lambda: rotation_number(m, p, n)]),
        (m.inverted()._apply_k, [lambda: iterate(m, p, -n)]),
        (m._step_k, [lambda: torsion_trace(m, p, n=n), lambda: asymptotic_torsion(m, p, n, n)]),
    ]:
        want = first_failure(kernel, *p, n)
        for call in calls:
            assert named(call) == want


def walk_block(step):
    """The walk block as a generic loop over a step kernel, in the blocks'
    signature: walk(x, y, wx, wy, r, ix, iy, trace, stop, tol) returns
    (x, y, wx, wy, taken, exc)."""
    def walk(x, y, wx, wy, r, ix, iy, trace, stop, tol):
        side = -1.0 if wx < 0.0 else 1.0
        xs, ys, norms = trace or (None, None, None)
        try:
            for i in range(r):
                x1, y1, a, b, c, d = step(x, y)
                if b <= 0.0:
                    raise TwistViolationError(f"twist entry {b!r} <= 0 at {(x, y)}")
                iwx = ix[i] = a * wx + b * wy
                iwy = iy[i] = c * wx + d * wy
                norm = math.hypot(iwx, iwy)
                x, y, wx, wy = x1, y1, iwx / norm, iwy / norm
                if xs is not None:
                    xs[i], ys[i], norms[i] = x, y, norm
                if side * wx < tol or stop is not None and stop(x, y, wx):
                    return x, y, wx, wy, i + 1, None
        except (ArithmeticError, ValueError) as exc:
            return x, y, wx, wy, i, exc
        return x, y, wx, wy, r, None
    return walk


def orbit_block(image):
    """The orbit block as a generic loop over an image kernel:
    orbit(x, y, r, xs, ys) returns (x, y, taken, exc)."""
    def orbit(x, y, r, xs, ys):
        try:
            for i in range(r):
                x, y = image(x, y)
                xs[i] = x
                ys[i] = y
        except (ArithmeticError, ValueError) as exc:
            return x, y, i, exc
        return x, y, r, None
    return orbit


def generic(m):
    """A map like m whose blocks are the generic loops over its per-step kernels."""
    g = LiftedMap(m.family, m.params)
    object.__setattr__(g, "_walk_k", walk_block(g._step_k))
    object.__setattr__(g, "_orbit_k", orbit_block(g._apply_k))
    return g


def walk_records(walk, p, w, r, stop, tol):
    """Everything a walk block returns or records, as bytes, and its error's type."""
    ix, iy, trace = [0.0] * r, [0.0] * r, ([0.0] * r, [0.0] * r, [0.0] * r)
    *state, taken, exc = walk(*p, *w, r, ix, iy, trace, stop, tol)
    records = [state, ix[:taken], iy[:taken], *(column[:taken] for column in trace)]
    return [bits(values) for values in records], taken, None if exc is None else type(exc)


# drift with c = +-0.0 keeps y bit for bit, as shear does with its c = -0.0
TRANSLATIONS = st.sampled_from([shear(), drift_shear(0.25), drift_shear(0.0), drift_shear(-0.0),
                                drift_shear(-3.5)])


@PROPERTY
@given(m=TRANSLATIONS, p=POINTS, w=SIGNED_DIRECTIONS, r=st.sampled_from(EDGES),
       stop=st.sampled_from(sorted(STOPS)), tol=st.sampled_from([-math.inf, 1e-9, 0.3, 1.5]))
def test_shear_and_drift_blocks_take_the_generic_blocks_steps(m, p, w, r, stop, tol):
    g = generic(m)
    assert (walk_records(m._walk_k, p, w, r, STOPS[stop](p), tol)
            == walk_records(g._walk_k, p, w, r, STOPS[stop](p), tol))
    xs, ys, want_xs, want_ys = [0.0] * r, [0.0] * r, [0.0] * r, [0.0] * r
    state = m._orbit_k(*p, r, xs, ys)
    want = g._orbit_k(*p, r, want_xs, want_ys)
    assert bits(state[:2]) == bits(want[:2]) and state[2] == want[2]
    assert (None if state[3] is None else type(state[3])) == (None if want[3] is None
                                                              else type(want[3]))
    assert bits(xs + ys) == bits(want_xs + want_ys)


@PROPERTY
@given(m=TRANSLATIONS, x=st.floats(-1.0, 1.0), y=HIGH, n=st.sampled_from(EDGES))
def test_shear_and_drift_overflow_is_named_at_the_generic_blocks_step(m, x, y, n):
    # shear and drift carry inf on, so _check_block walks the block again
    g, p = generic(m), (x, y)
    for call in [lambda m: iterate(m, p, n), lambda m: rotation_number(m, p, n),
                 lambda m: torsion_trace(m, p, n=n), lambda m: asymptotic_torsion(m, p, n, n)]:
        assert named(lambda: call(m)) == named(lambda: call(g))


def python_calls(f, *args):
    """The functions of twistlab.maps and of its compiled kernels that f(*args)
    runs, counted by name."""
    calls = Counter()

    def profile(frame, event, arg):
        source = frame.f_code.co_filename
        if event == "call" and (source == twistlab.maps.__file__ or source.startswith("<twistlab")):
            calls[frame.f_code.co_name] += 1
    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_no_block_calls_a_per_step_kernel(kernels):
    p, n = (0.3, 0.1), BLOCK + 1
    forward = [shear(), drift_shear(0.25), standard(1.0), generating_function(0.02),
               generating_function(0.02, -0.007), generating_function(0.03, 0.0, 0.001)]
    for m in forward + [m.inverted() for m in forward]:
        xs, ys, ix, iy = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
        assert python_calls(m._orbit_k, *p, n, xs, ys) == {"orbit": 1}
        assert python_calls(m._jacobi_k, *p, 0.0, 1.0, n) == {"jacobi": 1}
        walk = (m._walk_k, *p, 0.0, 1.0, n, ix, iy, None, None, -math.inf)
        if m.twist_sign == 1:
            assert python_calls(*walk) == {"walk": 1}
        else:
            with pytest.raises(TwistViolationError):
                python_calls(*walk)
    kernels.calls.clear()
    # the loops call the blocks alone
    for m in forward:
        torsion_trace(m, p, n=n)
        iterate(m, p, n)
        iterate(m, p, -n)
    assert kernels.calls == {"_walk_k": 6 * n, "_orbit_k": 12 * n}
    with pytest.raises(TwistViolationError):
        torsion_trace(drift_shear(0.25).inverted(), p, n=n)
    assert kernels.calls == {"_walk_k": 6 * n, "_orbit_k": 12 * n}


def test_kernels_compile_once_per_shape_and_trace_to_their_source():
    first = generating_function(0.02, -0.007)
    compiled = _kernel_factory.cache_info().misses
    second = generating_function(0.5, 0.25)
    assert _kernel_factory.cache_info().misses == compiled
    assert second._walk_k.__code__ is first._walk_k.__code__
    # 2 x at the second step is inf: floor raises in the second harmonic's fold
    with pytest.raises(NonFiniteOrbitError, match="by step 2") as info:
        iterate(second, (0.0, 1e308), 5)
    assert isinstance(info.value.__cause__, OverflowError)
    frame = traceback.extract_tb(info.value.__cause__.__traceback__)[-1]
    assert frame.filename == "<twistlab kernels: genfun, 2 harmonics, forward>"
    assert frame.line == "u = s - floor(s)"
