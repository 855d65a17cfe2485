"""cocycle_scan's crossing-count lift against the anchored per-step loop it
replaced, plus its renormalization schedule, exact ties and orbits that
leave the float range."""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import (
    GridMode,
    LiftedMap,
    ScanConfig,
    cocycle_scan,
    drift_shear,
    generating_function,
    shear,
    standard,
    torsion_field,
    torsion_trace,
)
from twistlab.cli import run
from twistlab.maps import TWO_PI
from twistlab.torsion import ANCHOR_TOL, _INV_TWO_PI, _renormalization_period

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=80)


def anchored_scan(map, x, y, n, wx=None, wy=None, keep_history=False,
                  stop_at_overconjugate=False):
    """The anchored cocycle_scan loop this kernel replaced: per-step arctan2
    deltas, each anchored within half a turn of the vertical's, summed step
    by step (the errstate only keeps its overflow warnings quiet)."""
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    m = x.shape[0]
    if wx is None:
        wx, wy = np.zeros(m), np.ones(m)
    else:
        norm = np.hypot(wx, wy)
        wx, wy = wx / norm, wy / norm
    x0 = x.copy()
    cum = np.zeros(m)
    oc = np.full(m, -1, dtype=np.int64)
    valid = np.ones(m, dtype=bool)
    history = np.zeros((n + 1, m)) if keep_history else None
    guarded = map._kick_bound() > 1e150
    th0 = np.arctan2(0.0 - wx, wy) * _INV_TWO_PI
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n + 1):
            x, y, a, b, c, d = map.step_array(x, y)
            valid &= b > 0.0
            iwx = a * wx + b * wy
            iwy = c * wx + d * wy
            dv = np.arctan2(-b, d) * _INV_TWO_PI
            th1 = np.arctan2(0.0 - iwx, iwy) * _INV_TWO_PI
            raw = th1 - th0
            delta = raw + np.rint(dv - raw)
            valid &= np.abs(delta - dv) < 0.5 - ANCHOR_TOL
            cum += delta
            crossed = (oc == -1) & (cum < -0.5)
            np.copyto(oc, step, where=crossed)
            norm = np.hypot(iwx, iwy) if guarded else np.sqrt(iwx * iwx + iwy * iwy)
            wx = iwx / norm
            wy = iwy / norm
            th0 = th1
            if keep_history:
                history[step] = cum
            if stop_at_overconjugate and np.any(crossed & valid):
                n = step
                if keep_history:
                    history = history[: n + 1]
                break
    if keep_history:
        history[:, ~valid] = np.nan
    return dict(
        cumulative=np.where(valid, cum, np.nan),
        overconj_time=np.where(valid, oc, -2),
        final_x=x,
        final_y=y,
        displacement=np.where(valid, x - x0, np.nan),
        valid=valid,
        n=n,
        history=history,
    )


def assert_matches_reference(scan, ref):
    assert scan.n == ref["n"]
    assert np.array_equal(scan.valid, ref["valid"])
    assert np.array_equal(scan.overconj_time, ref["overconj_time"])
    assert scan.final_x.tobytes() == ref["final_x"].tobytes()
    assert scan.final_y.tobytes() == ref["final_y"].tobytes()
    assert np.array_equal(scan.displacement, ref["displacement"], equal_nan=True)
    assert np.allclose(scan.cumulative, ref["cumulative"], rtol=0, atol=1e-12, equal_nan=True)
    if ref["history"] is not None:
        assert np.allclose(scan.history, ref["history"], rtol=0, atol=1e-12, equal_nan=True)


maps = st.one_of(
    st.floats(min_value=0.0, max_value=2.0).map(standard),
    st.tuples(st.floats(-0.03, 0.03), st.floats(-0.03, 0.03)).map(
        lambda a: generating_function(*a)
    ),
    st.just(shear()),
    st.floats(min_value=-0.5, max_value=0.5).map(drift_shear),
)
points = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=12)


@PROPERTY
@given(
    m=maps,
    pts=points,
    n=st.integers(min_value=1, max_value=150),
    turns=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12)),
    keep_history=st.booleans(),
    stop=st.booleans(),
)
def test_scan_matches_anchored_reference(m, pts, n, turns, keep_history, stop):
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    kw = dict(keep_history=keep_history, stop_at_overconjugate=stop)
    if turns is not None:
        t = TWO_PI * np.array(turns[: len(pts)])
        kw.update(wx=np.cos(t), wy=np.sin(t))
    assert_matches_reference(cocycle_scan(m, xs, ys, n, **kw), anchored_scan(m, xs, ys, n, **kw))


@PROPERTY
@given(m=maps, pts=points, n=st.integers(min_value=1, max_value=150))
def test_history_does_not_change_the_vertical_scan(m, pts, n):
    # with a history the angle is lifted every step; the result must not move
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    plain = cocycle_scan(m, xs, ys, n)
    kept = cocycle_scan(m, xs, ys, n, keep_history=True)
    for field in ("cumulative", "overconj_time", "final_x", "final_y", "valid"):
        assert getattr(plain, field).tobytes() == getattr(kept, field).tobytes()
    assert kept.history[-1].tobytes() == kept.cumulative.tobytes()


@pytest.mark.parametrize("m", [standard(1.5), standard(2.0), generating_function(0.03, 0.02)],
                         ids=lambda m: m.to_spec())
def test_chunked_field_is_bit_identical_across_renormalizations(m):
    n = 3 * _renormalization_period(m) + 7
    cfg = ScanConfig(box=(0.0, 1.0, -0.5, 0.5), mode=GridMode(6, 5), horizon=n)
    whole = torsion_field(m, cfg)
    assert whole.valid.all()
    for chunk in (1, 7):
        part = torsion_field(m, cfg, chunk_size=chunk)
        for field in ("torsion", "overconj_time", "rotation", "valid"):
            assert getattr(part, field).tobytes() == getattr(whole, field).tobytes()


def test_renormalization_period_is_the_largest_safe_one():
    # r steps stretch a unit direction by at most g^r with g = 2 (1 + kick bound)
    for m in (shear(), standard(1.0), standard(2.0), standard(1e6), standard(1e149)):
        r = _renormalization_period(m)
        g = math.log10(2.0 * (1.0 + m._kick_bound()))
        assert r == 1 or r * g <= 150.0
        assert (r + 1) * g > 150.0


@pytest.mark.parametrize("w", [(-1.0, 1.0), (1.0, -1.0)])
def test_exact_tie_after_one_step(w):
    # the shear sends (-1, 1) to (0, 1) exactly and (1, -1) to (0, -1): the tie
    # wx == 0 takes the side of angle_from_vertical's 0 and 1/2
    m = shear()
    xs, ys = np.array([0.3]), np.array([0.1])
    wx, wy = np.array([w[0]]), np.array([w[1]])
    assert torsion_trace(m, (0.3, 0.1), w, 1).directions[1][0] == 0.0
    for n in (1, 2, 5):
        scan = cocycle_scan(m, xs, ys, n, wx=wx, wy=wy, keep_history=True)
        assert_matches_reference(scan, anchored_scan(m, xs, ys, n, wx=wx, wy=wy,
                                                     keep_history=True))
        tr = torsion_trace(m, (0.3, 0.1), w, n)
        assert scan.history[:, 0] == pytest.approx(tr.cumulative, abs=1e-15)
    assert cocycle_scan(m, xs, ys, 1, wx=wx, wy=wy).cumulative[0] == -0.125


def test_exact_half_turn_is_not_overconjugate():
    # At the std:k=2 fixed point (0, 0) the Jacobian turns the vertical a
    # quarter turn clockwise per two steps of exact arithmetic: it points
    # straight down after step 2, with cumulative exactly -1/2, which is not
    # below -1/2; the over-conjugate time is step 3.
    m = standard(2.0)
    xs, ys = np.array([0.0]), np.array([0.0])
    tr = torsion_trace(m, (0.0, 0.0), n=6)
    assert tr.cumulative[2] == -0.5 and tuple(tr.directions[2]) == (0.0, -1.0)
    for keep_history in (False, True):
        scan = cocycle_scan(m, xs, ys, 6, keep_history=keep_history)
        assert_matches_reference(scan, anchored_scan(m, xs, ys, 6, keep_history=keep_history))
        assert scan.overconj_time.tolist() == [3]
        assert scan.cumulative.tolist() == [-1.5]
    stopped = cocycle_scan(m, xs, ys, 6, stop_at_overconjugate=True)
    assert stopped.n == 3 and stopped.cumulative.tolist() == [-0.625]


# ------------------------------------------------ orbits leaving the float range

OVERFLOW_FIELD = ["field", "--map", "std:k=1e308", "--box", "0.2,0.4,-0.1,0.1",
                  "--grid", "2x2", "--n", "50"]


def test_overflowing_field_is_quiet():
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = run(OVERFLOW_FIELD)
    assert code == 0
    assert err.getvalue() == ""
    assert "count = 0\n" in out.getvalue() and "lanes = 4\n" in out.getvalue()


def test_overflowing_scan_flags_lanes_without_warning():
    g = np.linspace(0.2, 0.4, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = cocycle_scan(standard(1e308), g, np.zeros(5), 50, keep_history=True)
    assert not scan.valid.any()
    assert np.all(scan.overconj_time == -2)
    assert np.all(np.isnan(scan.cumulative)) and np.all(np.isnan(scan.history))


def test_stop_ignores_a_direction_that_went_nan(monkeypatch):
    # Lane 0 keeps b = 1 but its direction turns NaN at step 2, which flips
    # its sign parity to a second crossing; the std:k=0 lanes never cross
    # twice, so the scan runs to n and lane 0 ends invalid.
    step = LiftedMap.step_array
    calls = [0]

    def patched(self, x, y):
        x1, y1, *entries = step(self, x, y)
        a, b, c, d = (np.array(np.broadcast_to(e, np.shape(x)), dtype=float) for e in entries)
        calls[0] += 1
        if calls[0] == 2:
            a[0] = c[0] = np.nan
        return x1, y1, a, b, c, d

    monkeypatch.setattr(LiftedMap, "step_array", patched)
    xs, ys = np.array([0.1, 0.4, 0.7]), np.array([0.0, 0.3, -0.2])
    scan = cocycle_scan(standard(0.0), xs, ys, 20, stop_at_overconjugate=True)
    assert calls[0] == 20 and scan.n == 20
    assert scan.overconj_time.tolist() == [-2, -1, -1]
    assert scan.valid.tolist() == [False, True, True]
