"""The block walk cut at block edges: every walk takes the steps it would
take in one piece, and stops on the step it would stop on.  Every scalar
orbit loop steps a block kernel, which takes one orbit step per step asked
for (the kernels fixture counts the steps a block takes)."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import (
    NonFiniteOrbitError,
    asymptotic_torsion,
    classify_monotonicity,
    conjugate_report,
    drift_shear,
    first_return_torsion,
    generating_function,
    iterate,
    jacobi_conjugate_oracle,
    linking_number,
    rotation_number,
    shear,
    standard,
    torsion_trace,
)
from twistlab.maps import BLOCK, TWO_PI

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=25)

EDGES = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]

maps = st.one_of(
    st.sampled_from([shear(), drift_shear(0.25), generating_function(0.02, -0.007)]),
    st.floats(min_value=0.0, max_value=6.0).map(standard),
)
points = st.tuples(
    st.floats(min_value=-(2.0**40), max_value=2.0**40), st.floats(min_value=-1.0, max_value=1.0)
)
directions = st.one_of(
    st.just((0.0, 1.0)),
    st.floats(min_value=0.0, max_value=1.0).map(
        lambda t: (math.cos(TWO_PI * t), math.sin(TWO_PI * t))),
)


@PROPERTY
@given(m=maps, p=points, w=directions)
def test_trace_is_the_prefix_of_a_longer_trace(m, p, w):
    longer = torsion_trace(m, p, w, 2 * BLOCK + 5)
    for n in EDGES:
        tr = torsion_trace(m, p, w, n)
        assert tr.steps.tobytes() == longer.steps[:n].tobytes()
        for got, ref in [(tr.cumulative, longer.cumulative), (tr.points, longer.points),
                         (tr.directions, longer.directions)]:
            assert got.tobytes() == ref[: n + 1].tobytes()


@PROPERTY
@given(m=maps, p=points, w=directions, edge=st.sampled_from(EDGES),
       window=st.sampled_from([1, 7, BLOCK, BLOCK + 1]))
def test_asymptotic_torsion_reads_the_trace_at_block_edges(m, p, w, edge, window):
    horizon = edge + window
    cumulative = torsion_trace(m, p, w, horizon).cumulative
    est = asymptotic_torsion(m, p, horizon, window, w)
    assert est.value == cumulative[horizon] / horizon
    assert est.last_window_drift == abs(est.value - cumulative[edge] / edge)


@pytest.mark.parametrize("n", EDGES)
def test_walks_to_a_block_edge_take_its_steps(kernels, n):
    m, p = standard(1.5), (0.3, 0.1)
    torsion_trace(m, p, n=n)
    assert kernels.calls == {"_walk_k": n}
    asymptotic_torsion(m, p, n + 1, n)
    assert kernels.calls == {"_walk_k": 2 * n + 1}
    # std:k=0 turns no direction past the vertical
    conjugate_report(standard(0.0), p, n)
    assert kernels.calls == {"_walk_k": 3 * n + 1}
    # the drift carries y up and out of the window for good
    rep = first_return_torsion(drift_shear(0.25), (0.0, 1.0, 0.0, 0.1), (0.5, 0.05), cap=n)
    assert rep.return_times == () and rep.complete is False
    assert kernels.calls == {"_walk_k": 4 * n + 1}


@pytest.mark.parametrize("n", EDGES)
def test_orbit_loops_make_one_call_per_step(kernels, n):
    m, p = standard(1.5), (0.3, 0.1)
    rotation_number(m, p, n)
    assert kernels.calls == {"_orbit_k": n}
    kernels.calls.clear()
    linking_number(m, p, (0.35, 0.1), n)
    assert kernels.calls == {"_orbit_k": 2 * n}
    kernels.calls.clear()
    iterate(m, p, n)
    assert kernels.calls == {"_orbit_k": n}
    kernels.calls.clear()
    # a backward orbit steps the inverted map's forward orbit block
    iterate(m, p, -n)
    assert kernels.calls == {"_orbit_k": n}


@pytest.mark.parametrize("n", EDGES)
def test_classify_walks_the_segment_once(kernels, n):
    # std:k=0 has no over-conjugate point, so the detector walks all 2n steps
    assert classify_monotonicity(standard(0.0), (0.3, 0.1), n) == "monotone"
    assert kernels.calls == {"_orbit_k": 2 * n, "_walk_k": 2 * n}


@pytest.mark.parametrize("loop, kernel", [
    (lambda m: rotation_number(m, (0.0, 1e308), 5), "_apply_k"),
    (lambda m: iterate(m, (0.0, 1e308), 5), "_apply_k"),
    (lambda m: jacobi_conjugate_oracle(m, (0.0, 1e308), 5), "_step_k"),
])
def test_overflow_is_named_by_a_kernel_walk(kernels, loop, kernel):
    # shear carries inf on: five steps (the orbit block's, or the oracle's
    # own), then two more by the per-step kernel to name step 2
    with pytest.raises(NonFiniteOrbitError, match="by step 2"):
        loop(shear())
    first = "_orbit_k" if kernel == "_apply_k" else kernel
    assert kernels.calls == Counter({first: 5}) + Counter({kernel: 2})


@pytest.mark.parametrize("k, tol, hit, over", [
    (1e-5, 1e-9, 994, 994),
    (1.040625e-05, 1e-9, 974, 974),
    (9.421875e-06, 1e-9, BLOCK, BLOCK),  # both times are a block edge
    (2.4e-6, 1e-9, 2028, 2028),
    # a wide tol finds the conjugate time before the over-conjugate time
    (1e-5, 0.99, 987, 994),
    (2.4e-6, 0.99, 2021, 2028),
])
def test_conjugate_report_stops_across_block_edges(kernels, k, tol, hit, over):
    # near the elliptic origin of a weak kick the vertical turns slowly:
    # its times land near or past a block edge, and the walk stops at the
    # later one
    rep = conjugate_report(standard(k), (0.0, 0.0), 3000, tol)
    assert rep.first_conjugate == (hit, 1) and rep.first_overconjugate == over
    assert kernels.calls == {"_walk_k": max(hit, over)}
