"""The per-map scalar kernels against the one-body scalar step they replace.

The reference below is the scalar path as it was before the kernels: one
`_step` body driven by `_kick`, with the direction and the parts passed as
flags.  Every scalar method must match it bit for bit, zero signs
included, and pickled or copied maps must step the same.
"""

import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import (
    drift_shear,
    generating_function,
    iterate,
    shear,
    standard,
    torsion_trace,
)
from twistlab.maps import BLOCK, SHEAR, TWO_PI, _kick
from twistlab.torsion import _Walk

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
# k = 0 and a lone a1 also take the single-harmonic kernels.
EXTRA = [standard(0.0), generating_function(0.02)]
MAPS = CATALOGUE + EXTRA + [m.inverted() for m in EXTRA]


def ref_kick(x, harmonics, sin, cos):
    vp = w = 0.0
    for i, p, q in harmonics:
        s = x if i == 1 else i * x
        u = s - math.floor(s)
        turn = TWO_PI
        if u >= 0.5:
            u -= 0.5
            turn = -TWO_PI
        if sin:
            vp -= p * math.sin(turn * (0.5 - u if u > 0.25 else u))
        if cos:
            w -= q * math.sin(turn * (0.25 - u))
    return vp, w


def ref_step(m, x, y, forward, image, jacobian):
    harmonics = m._harmonics
    kx = x if forward else x - y
    vp, w = ref_kick(kx, harmonics, image, jacobian) if harmonics else (0.0, 0.0)
    out = ()
    if image:
        if harmonics:
            if forward:
                y1 = y + vp
                out = (x + y1, y1)
            else:
                out = (kx, y - vp)
        elif m.family == SHEAR:
            out = (x + y if forward else kx), +y
        else:
            c0 = m.params[0]
            out = (x + y, y + c0) if forward else (x - y + c0, y - c0)
    if jacobian:
        out += (1.0 + w, 1.0, w, 1.0) if forward else (1.0, -1.0, -w, 1.0 + w)
    return out


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def outcome(f, *args):
    """The bits of f(*args), or the type and message of what it raised."""
    try:
        return bits(f(*args))
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def step_scalar(m):
    """The image and the Jacobian entries of a step, as the scalar methods give them."""
    def step(x, y):
        return (*m.apply_scalar(x, y), *m.jacobian_scalar(x, y))
    return step


def check_methods(m, x, y):
    fwd = m.twist_sign == 1
    pairs = [
        (step_scalar(m), (fwd, True, True)),
        (m.apply_scalar, (fwd, True, False)),
        (m.apply_inverse_scalar, (not fwd, True, False)),
        (m.jacobian_scalar, (fwd, False, True)),
    ]
    for method, flags in pairs:
        want = outcome(lambda x, y: ref_step(m, x, y, *flags), x, y)
        assert outcome(method, x, y) == want, (method.__name__, x, y)


# Lifted x far from the fundamental domain, exact half-integers and
# quarter turns (where sin and cos must be exactly 0 or +-1), both zero
# signs, and ordinary coordinates.
xs = st.one_of(
    st.floats(min_value=-2.0e3, max_value=2.0e3, allow_nan=False),
    st.floats(min_value=-(2.0**52), max_value=2.0**52, allow_nan=False),
    st.integers(min_value=-(2**40), max_value=2**40).map(lambda i: i / 2),
    st.integers(min_value=-(2**40), max_value=2**40).map(lambda i: i / 4),
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, -0.25, 1e-300, -1e-300]),
)
ys = st.one_of(
    st.floats(min_value=-2.0e3, max_value=2.0e3, allow_nan=False),
    st.integers(min_value=-(2**20), max_value=2**20).map(lambda i: i / 4),
    st.sampled_from([0.0, -0.0, 0.5, -0.5]),
)


@pytest.mark.parametrize("m", MAPS, ids=lambda m: m.to_spec())
@PROPERTY
@given(x=xs, y=ys)
def test_scalar_methods_match_reference(m, x, y):
    check_methods(m, x, y)


@pytest.mark.parametrize("m", MAPS, ids=lambda m: m.to_spec())
def test_scalar_methods_match_reference_off_the_reals(m):
    # the kicked forms raise from math.floor where the reference does
    for x, y in [(math.inf, 0.0), (-math.inf, 1.0), (math.nan, 0.0), (0.3, math.inf), (0.3, math.nan)]:
        check_methods(m, x, y)


# Quarter turns, lifted up to 2^52 (where every float is an integer or a
# half-integer), signed zeros and tiny magnitudes.
QUARTERS = [s * (i / 4 + j) for s in (1.0, -1.0) for i in range(4)
            for j in (0.0, 1.0, 7.0, 2.0**20, 2.0**40, 2.0**50)]
EDGES = QUARTERS + [0.0, -0.0, 2.0**51 + 0.5, -(2.0**51 + 0.5), 2.0**52, -(2.0**52),
                     5e-324, -5e-324]


@pytest.mark.parametrize("m", [standard(k) for k in (0.0, 0.5, 1.0, 1e300)]
                         + [standard(k).inverted() for k in (0.0, 0.5, 1.0, 1e300)],
                         ids=lambda m: m.to_spec())
def test_single_harmonic_kernels_match_kick(m):
    # each direction's step and image, with the kick written in, against
    # the general _kick at the base map's x
    fwd = m.twist_sign == 1
    for x in EDGES:
        for y in (0.0, -0.0, 0.25, -0.5, 2.0**52):
            for forward, step, image in ((fwd, step_scalar(m), m.apply_scalar),
                                         (not fwd, None, m.apply_inverse_scalar)):
                kx = x if forward else x - y
                vp, w = _kick(kx, m._harmonics, True, True)
                if forward:
                    y1 = y + vp
                    want = (x + y1, y1, 1.0 + w, 1.0, w, 1.0)
                else:
                    want = (kx, y - vp, 1.0, -1.0, -w, 1.0 + w)
                assert bits(image(x, y)) == bits(want[:2]), (x, y, forward)
                if step is not None:
                    assert bits(step(x, y)) == bits(want), (x, y, forward)


@pytest.mark.parametrize("m", MAPS, ids=lambda m: m.to_spec())
def test_pickle_and_deepcopy_round_trip(m):
    for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert again == m and hash(again) == hash(m) and repr(again) == repr(m)
        for x, y in [(0.3, 0.1), (0.5, -0.0), (-123.25, 7.5), (2.0**40 + 0.125, 0.01)]:
            for name in ("apply_scalar", "apply_inverse_scalar", "jacobian_scalar"):
                assert bits(getattr(again, name)(x, y)) == bits(getattr(m, name)(x, y))
        xa, ya = np.array([0.3, -5.75, 1e6]), np.array([0.1, 0.0, -2.0])
        for a, b in zip(again.step_array(xa, ya), m.step_array(xa, ya)):
            assert np.array_equal(a, b)


def ref_trace(m, p, w, n):
    """torsion_trace written one row per step, as a running Python sum."""
    steps, cumulative, points, directions = [], [0.0], [p], [w]
    cum = 0.0
    walk, row = _Walk(m, *p, *w), np.empty((1, 6))
    for _ in range(n):
        walk.run(1, table=row)
        x, y, wx, wy, delta, _ = row[0].tolist()
        cum += delta
        steps.append(delta)
        cumulative.append(cum)
        points.append((x, y))
        directions.append((wx, wy))
    return [np.array(a) for a in (steps, cumulative, points, directions)]


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("m", [standard(1.5), generating_function(0.03, 0.0, 0.001), shear()],
                         ids=lambda m: m.to_spec())
def test_trace_blocks_match_per_step_reference(m, n):
    p, w = (0.37, -0.21), (0.6, 0.8)
    tr = torsion_trace(m, p, w, n)
    want = ref_trace(m, p, w, n)
    for got, ref in zip((tr.steps, tr.cumulative, tr.points, tr.directions), want):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m", [standard(1.5), drift_shear(0.25).inverted()], ids=lambda m: m.to_spec())
def test_iterate_blocks_match_per_step_reference(m, n, sign):
    step = m.apply_scalar if sign > 0 else m.apply_inverse_scalar
    pt, want = (0.37, -0.21), [(0.37, -0.21)]
    for _ in range(n):
        pt = step(*pt)
        want.append(pt)
    got = iterate(m, (0.37, -0.21), sign * n)
    assert got.shape == (n + 1, 2)
    assert got.tobytes() == np.array(want).tobytes()
