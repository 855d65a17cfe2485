"""psi_family's one root solve per denominator against one solve per curve.

The reference below is psi_family as it was before the rationals were
grouped: one periodic_curve per rational, in order, each a solve of its
own nodes with a scalar offset p.  The grouped solve must give the same
curves bit for bit, and on failure the same error: that of the first
failing rational, at its lowest failing node.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    drift_shear,
    generating_function,
    integrability_probe,
    periodic_curve,
    psi_family,
    shear,
    standard,
)
from twistlab.curves import FIX_RESIDUAL_TOL, ROOT_TOL, _solve_roots

DEFAULT = [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(0),
           Fraction(1, 3), Fraction(1, 2), Fraction(1)]


def ref_periodic_curve(m, p, q, resolution, tol=ROOT_TOL, bracket_samples=9):
    """(xs, ys, residuals, fix_residuals, label, fixed_ok) of one rational."""
    xs = np.arange(resolution) / resolution

    def forward_q(x, y):
        for _ in range(q):
            x, y = m.apply_array(x, y)
        return x, y

    def g(x, y):
        return forward_q(x, y)[0] - x - p

    ys = _solve_roots(g, xs, tol, bracket_samples)
    xq, yq = forward_q(xs, ys)
    fix_res = np.abs(yq - ys)
    return (xs, ys, np.abs(xq - xs - p), fix_res, f"PsiRho({p}/{q})",
            bool(np.max(fix_res) <= FIX_RESIDUAL_TOL))


def ref_psi_family(m, rhos, resolution, tol=ROOT_TOL):
    return [ref_periodic_curve(m, r.numerator, r.denominator, resolution, tol) for r in rhos]


def fields(curve):
    return (curve.xs, curve.ys, curve.residuals, curve.fix_residuals, curve.label, curve.fixed_ok)


def same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


def outcome(f):
    try:
        return "ok", f()
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


MIXED = [Fraction(-3, 2), Fraction(1, 4), Fraction(2, 3), Fraction(3, 4), Fraction(5, 2)]
MAPS = [shear(), standard(0.0), standard(0.5), generating_function(0.01, -0.003),
        drift_shear(0.25)]


@pytest.mark.parametrize("m", MAPS, ids=lambda m: m.to_spec())
@pytest.mark.parametrize("rhos", [DEFAULT, MIXED], ids=["default", "mixed"])
def test_grouped_family_matches_per_curve(m, rhos):
    fam = psi_family(m, rhos, resolution=32)
    want = ref_psi_family(m, rhos, 32)
    assert fam.rotation_numbers == tuple(rhos)
    assert [c.rho for c in fam.curves] == list(rhos)
    for curve, ref in zip(fam.curves, want):
        same(fields(curve), ref)
    assert fam.all_fixed_ok == all(ref[5] for ref in want)
    for r, ref in zip(rhos, want):
        same(fields(periodic_curve(m, r.numerator, r.denominator, 32)), ref)


# std:k=3 solves the integers and +-5/2 but no other p/q with q <= 3 in
# [-3, 3]; the failing brackets differ ([-4, 1] at -8/3, [-2, 1] at -5/3
# and -3/2, [-1, 2] at 3/2, [-1, 1] from -1/2 to 2/3), so the message names
# the rational that raised.  Raising at the first failing group would give
# 3/2's error in the second-last case, and in the last with groups by q.
@pytest.mark.parametrize("m, rhos", [
    (standard(1.5), DEFAULT),
    (standard(1.5), DEFAULT[3:]),
    (standard(3.0), [Fraction(-1, 3), Fraction(3, 2)]),
    (standard(3.0), [Fraction(-3, 2), Fraction(-1, 3), Fraction(3, 2)]),
    (standard(3.0), [Fraction(-1), Fraction(1, 2), Fraction(3, 2)]),
    (standard(3.0), [Fraction(0), Fraction(3, 2), Fraction(5, 2)]),
    (standard(3.0), [Fraction(-5, 2), Fraction(-5, 3), Fraction(3, 2)]),
    (standard(3.0), [Fraction(-8, 3), Fraction(3, 2)]),
    (generating_function(0.05, 0.03), [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 3)]),
], ids=lambda v: v.to_spec() if hasattr(v, "to_spec") else "/".join(map(str, v)))
def test_grouped_family_raises_the_first_failing_rational(m, rhos):
    def ref():
        ref_psi_family(m, rhos, 16)

    want = outcome(ref)
    assert want[0] != "ok"
    assert outcome(lambda: psi_family(m, rhos, resolution=16)) == want


def test_probe_family_matches_per_curve():
    report = integrability_probe(standard(0.0), grid=(4, 4), horizon=50, curve_resolution=16)
    for curve, ref in zip(report.family.curves, ref_psi_family(standard(0.0), DEFAULT, 16)):
        same(fields(curve), ref)


def test_grouped_curves_own_their_arrays():
    fam = psi_family(shear(), [Fraction(0), Fraction(1)], resolution=8)
    a, b = fam.curves
    a.xs[0] = a.ys[0] = math.pi
    assert b.xs[0] == 0.0 and b.ys[0] != math.pi
