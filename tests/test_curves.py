"""Characteristic curves, flux, periodic families, probes."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    IterationCapError,
    NonFiniteOrbitError,
    NonMonotoneBracketError,
    VERDICT_CONJUGATE,
    VERDICT_NO_OBSTRUCTION,
    VERDICT_NOT_APPLICABLE,
    classify_monotonicity,
    cocycle_scan,
    drift_shear,
    flux,
    generating_function,
    integrability_probe,
    psi1,
    psi_family,
    psi_minus1,
    region_x,
    rotation_number,
    shear,
    standard,
    write_curves_csv,
)

TWO_PI = 2.0 * math.pi

ALL_MAPS = [
    shear(),
    drift_shear(0.25),
    standard(0.5),
    standard(1.0),
    generating_function(0.02, -0.007),
]


def test_psi1_examples():
    assert abs(psi1(shear(), 0.37)) < 1e-10
    assert psi1(standard(1.0), 0.25) == pytest.approx(1.0 / TWO_PI, abs=1e-9)
    assert abs(psi1(drift_shear(0.25), 0.8)) < 1e-10


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_psi1_root_certificate(m):
    for x in np.arange(64) / 64.0:
        y = psi1(m, float(x))
        fx, _ = m.apply_scalar(float(x), y)
        assert abs(fx - x) < 1e-10


def test_psi_minus1_examples():
    assert abs(psi_minus1(shear(), 0.1)) < 1e-10
    assert psi_minus1(drift_shear(0.25), 0.6) == pytest.approx(0.25, abs=1e-10)
    assert abs(psi_minus1(standard(1.0), 0.2)) < 1e-9


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.to_spec())
def test_psi_minus1_is_image_second_coordinate(m):
    for x in (0.0, 0.21, 0.5, 0.83):
        y1 = psi1(m, x)
        assert psi_minus1(m, x) == m.apply_scalar(x, y1)[1]


def test_curve_sampling_grid():
    c = region_x(standard(1.0), "minus", resolution=128).lower
    assert c.resolution == 128
    assert np.array_equal(c.xs, np.arange(128) / 128.0)
    assert c.label == "Psi1"
    assert np.max(c.residuals) < 1e-10
    c2 = region_x(standard(1.0), "minus", resolution=64).upper
    assert c2.label == "PsiMinus1"


def test_curve_evaluate_wraps():
    c = region_x(standard(1.0), "minus", resolution=256).lower
    assert c.evaluate(0.25) == pytest.approx(1.0 / TWO_PI, abs=1e-6)
    assert c.evaluate(1.25) == pytest.approx(c.evaluate(0.25), abs=1e-12)
    assert c.evaluate(-0.75) == pytest.approx(c.evaluate(0.25), abs=1e-12)


@pytest.mark.parametrize("m", [shear(), standard(0.0)], ids=["shear", "std:k=0"])
def test_characteristic_curves_coincide_for_integrable(m):
    """Exact maps without conjugate points have matching curves: the
    first-coordinate fixed set consists of genuine fixed points."""
    region = region_x(m, "minus", resolution=256)
    up, dn = region.lower, region.upper
    assert np.max(np.abs(dn.ys - up.ys)) < 1e-9
    for x, y in zip(up.xs, up.ys):
        fx, fy = m.apply_scalar(float(x), float(y))
        assert math.hypot(fx - x, fy - y) < 1e-9


def test_region_x_minus_strict():
    r = region_x(drift_shear(0.25), "minus")
    assert r.sign == "minus"
    assert r.contains((0.3, 0.1))
    assert not r.contains((0.3, 0.3))
    assert not r.contains((0.3, 0.0))
    assert not r.contains((0.3, 0.25))


def test_region_x_plus_empty_for_drift():
    r = region_x(drift_shear(0.25), "plus")
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = tuple(rng.uniform([0, -1], [1, 1.5]))
        assert not r.contains(p)


def test_region_x_wandering_for_drift():
    """Forward images of the region between the curves never re-enter it."""
    m = drift_shear(0.25)
    r = region_x(m, "minus")
    rng = np.random.default_rng(47)
    pts = np.column_stack(
        [rng.uniform(0, 1, size=1000), rng.uniform(1e-6, 0.25 - 1e-6, size=1000)]
    )
    for x, y in pts:
        assert r.contains((x, y))
        cx, cy = x, y
        for _ in range(5):
            cx, cy = m.apply_scalar(cx, cy)
            assert not r.contains((cx, cy))


def test_flux_examples():
    assert abs(flux(shear())) < 1e-12
    assert flux(drift_shear(0.25)) == pytest.approx(0.25, abs=1e-12)
    assert abs(flux(standard(1.0), resolution=256)) < 1e-10
    assert abs(flux(generating_function(0.02, -0.007))) < 1e-10


def test_rotation_number_examples():
    est = rotation_number(shear(), (0.0, 0.375), 100)
    assert est.value == 0.375
    assert est.horizon == 100
    assert rotation_number(standard(1.0), (0.0, 0.0), 500).value == 0.0
    assert rotation_number(standard(1.0), (0.5, 0.0), 500).value == 0.0


def test_periodic_curve_shear_thirds():
    c = psi_family(shear(), [Fraction(1, 3)], resolution=64).curves[0]
    assert c.label == "PsiRho(1/3)"
    assert c.rho == Fraction(1, 3)
    assert c.ys == pytest.approx(np.full(64, 1.0 / 3.0), abs=1e-9)
    assert np.max(c.residuals) < 1e-10
    assert np.max(c.fix_residuals) < 1e-8
    assert c.fixed_ok


def test_periodic_curve_shear_zero():
    c = psi_family(shear(), [Fraction(0)], resolution=32).curves[0]
    assert c.ys == pytest.approx(np.zeros(32), abs=1e-9)
    assert c.fixed_ok


def test_periodic_curve_drift_flagged_not_fixed():
    c = psi_family(drift_shear(0.25), [Fraction(0)], resolution=32).curves[0]
    assert c.ys == pytest.approx(np.zeros(32), abs=1e-9)
    assert np.max(c.residuals) < 1e-10
    assert c.fix_residuals == pytest.approx(np.full(32, 0.25), abs=1e-9)
    assert c.fixed_ok is False


def test_periodic_curve_nonmonotone_bracket():
    # strong kick: F^2 is no longer a twist map along part of the circle
    with pytest.raises(NonMonotoneBracketError):
        psi_family(standard(3.0), [Fraction(1, 2)], resolution=64)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 10])
def test_fq_stays_twist_for_integrable(q):
    """y -> p1 F^q(x, y) must be strictly increasing for the shear-like
    maps, sampled over brackets."""
    for m in (shear(), standard(0.0)):
        for x in (0.0, 0.3, 0.77):
            ys = np.linspace(-2.0, 2.0, 41)
            vals = []
            for y in ys:
                cx, cy = x, float(y)
                for _ in range(q):
                    cx, cy = m.apply_scalar(cx, cy)
                vals.append(cx)
            assert np.all(np.diff(vals) > 0.0)


def test_psi_family_shear_constants():
    fam = psi_family(shear(), [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    assert fam.rotation_numbers == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
    )
    for rho, curve in zip(fam.rotation_numbers, fam.curves):
        assert curve.ys == pytest.approx(np.full(curve.resolution, float(rho)), abs=1e-9)
    assert fam.monotone_ok
    assert fam.all_fixed_ok
    assert fam.max_root_residual < 1e-8
    assert fam.ordering_violations == ()


def test_psi_family_accepts_mixed_rational_inputs():
    fam = psi_family(standard(0.0), ["-1/2", 0, (1, 2)], resolution=32)
    assert fam.rotation_numbers == (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    assert fam.monotone_ok
    # numpy integers, as every count takes them, raised "cannot interpret";
    # a pair of them made a Fraction of numpy integers
    fam = psi_family(standard(0.0), [np.int64(-1), (np.int64(1), np.int64(2)), np.int64(1)],
                     resolution=8)
    assert fam.rotation_numbers == (Fraction(-1), Fraction(1, 2), Fraction(1))
    assert {type(n) for r in fam.rotation_numbers for n in (r.numerator, r.denominator)} == {int}
    assert psi_family(shear(), [np.int64(1)], resolution=4).rotation_numbers == (Fraction(1),)
    report = integrability_probe(standard(0.0), (2, 2), horizon=5, rationals=[np.int64(0)])
    assert report.family.rotation_numbers == (Fraction(0),)


def test_psi_family_ordering_property():
    fam = psi_family(
        shear(), [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    )
    for lo, hi in zip(fam.curves, fam.curves[1:]):
        assert np.all(hi.ys - lo.ys > 0.0)


def test_psi_family_requires_sorted_distinct():
    with pytest.raises(ValueError):
        psi_family(shear(), [Fraction(1, 2), Fraction(0)])
    with pytest.raises(ValueError):
        psi_family(shear(), [Fraction(0), Fraction(0)])


@pytest.mark.parametrize("rho", [(1, 0), "1/0", True, (True, 2), (1, 2, 3)])
def test_psi_family_rejects_what_is_not_a_rational(rho):
    # a zero denominator raised ZeroDivisionError, True was taken as 1,
    # (True, 2) as 1/2 and (1, 2, 3) as 1/2
    with pytest.raises(ValueError, match="^cannot interpret .* as a rational rotation number$"):
        psi_family(shear(), [rho], resolution=4)


@pytest.mark.parametrize("rho", [10**400, Fraction(10**309, 7)], ids=["integer", "fraction"])
def test_psi_family_offset_past_the_float_range_names_rho(rho):
    # float(r.numerator) raised "int too large to convert to float"; a
    # finite rho = 10^309/7 has an offset p that is not
    p = Fraction(rho).numerator
    with pytest.raises(ValueError, match=f"^rho must be finite, got {p}$"):
        psi_family(shear(), [rho], resolution=4)
    # and so does the probe's family
    with pytest.raises(ValueError, match=f"^rho must be finite, got {p}$"):
        integrability_probe(shear(), (2, 2), horizon=5, rationals=[rho])


@pytest.mark.parametrize("call, message", [
    (lambda: standard(10**5000), "k must be finite and >= 0, got a number of 5001 digits"),
    (lambda: psi_family(shear(), [10**5000]), "rho must be finite, got a number of 5001 digits"),
    (lambda: psi_family(shear(), [Fraction(1, 10**5000)], resolution=1),
     r"\|resolution \* sum\(q\)\| = a number of 5001 digits exceeds the cap 10000000"),
], ids=["k", "rho", "q"])
def test_an_integer_too_long_for_repr_is_named_by_its_digits(call, message):
    # repr of an int past 4300 digits raised CPython's "Exceeds the limit"
    with pytest.raises((ValueError, IterationCapError), match=f"^{message}$"):
        call()


@pytest.mark.parametrize("rationals, message", [
    ([Fraction(1, 2), Fraction(0)], "rotation numbers must be sorted and pairwise distinct"),
    ([Fraction(1, 10**20)], rf"\|resolution \* sum\(q\)\| = {256 * 10**20} exceeds the cap"),
], ids=["unsorted", "past_the_cap"])
def test_probe_checks_its_rationals_before_any_map_step(kernels, rationals, message):
    # they were checked only by psi_family, after flux and the grid scan
    with pytest.raises((ValueError, IterationCapError), match=f"^{message}"):
        integrability_probe(standard(0.0), (4, 4), horizon=5, rationals=rationals)
    assert not kernels.calls


def test_psi_family_standard_island_not_fixed():
    # k=1 has conjugate points; the rho=0 section exists but is not
    # fixed, so the certificate must flag it
    fam = psi_family(standard(1.0), [Fraction(0)], resolution=64)
    assert fam.all_fixed_ok is False


def test_classify_examples():
    assert classify_monotonicity(shear(), (0.0, 0.375), 25) == "monotone"
    assert classify_monotonicity(drift_shear(0.25), (0.3, 0.1), 25) == "switch_interior"
    assert classify_monotonicity(drift_shear(0.25), (0.3, 0.0), 25) == "switch_touching"
    assert classify_monotonicity(shear(), (0.4, 0.0), 25) == "fixed"
    assert classify_monotonicity(standard(1.0), (0.02, 0.0), 25) == "undetermined"


@pytest.mark.parametrize("resolution", [0, -3])
@pytest.mark.parametrize(
    "build",
    [
        lambda r: region_x(standard(0.5), "minus", r).lower,
        lambda r: region_x(standard(0.5), "minus", r).upper,
        lambda r: region_x(standard(0.5), "minus", r),
        lambda r: psi_family(standard(0.5), [Fraction(0)], r).curves[0],
        lambda r: psi_family(shear(), [Fraction(0), Fraction(1, 2)], resolution=r),
    ],
    # each id names the curve or object its call builds
    ids=["psi1_curve", "psi_minus1_curve", "region_x", "periodic_curve", "psi_family"],
)
def test_curve_resolution_below_one_is_rejected(build, resolution):
    # these returned empty curves that raised on evaluate, or raised
    # numpy's "zero-size array" error
    with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
        build(resolution)


def test_flux_keeps_its_own_resolution_check():
    with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
        flux(shear(), 1)


def test_classify_monotone_negative_direction():
    assert classify_monotonicity(shear(), (0.0, -0.25), 25) == "monotone"


def test_probe_integrable():
    report = integrability_probe(
        standard(0.0),
        grid=(16, 16),
        y_range=(-2.0, 2.0),
        horizon=500,
        rationals=[Fraction(-1, 2), Fraction(0), Fraction(1, 2)],
    )
    assert report.verdict == VERDICT_NO_OBSTRUCTION
    assert report.witness is None
    assert abs(report.flux) < 1e-12
    assert report.family is not None
    assert report.family.max_root_residual < 1e-8
    assert report.family.monotone_ok


def test_probe_conjugate_points():
    report = integrability_probe(
        standard(1.5), grid=(32, 32), y_range=(-2.0, 2.0), horizon=100
    )
    assert report.verdict == VERDICT_CONJUGATE
    assert report.family is None
    assert report.witness is not None
    assert report.witness_time <= 10
    # the witness really over-conjugates at the reported time
    from twistlab import detect_overconjugate

    assert detect_overconjugate(standard(1.5), report.witness, 100) == report.witness_time


@pytest.mark.parametrize("k", [1e5, 4e5])
def test_flux_of_a_strong_kick_is_zero(k):
    # |Psi1| reaches k / 2 pi, where p1(F(x, y)) - x resolves no finer than
    # y's ulp: a collapsed bracket passes with a residual below tol * |edge|
    assert abs(flux(standard(k))) < 1e-10


def test_probe_of_a_strong_kick_finds_conjugate_points():
    report = integrability_probe(standard(4e5), grid=(8, 8), horizon=50)
    assert report.verdict == VERDICT_CONJUGATE
    assert report.witness_time == 2


def test_probe_not_applicable_for_nonexact():
    report = integrability_probe(drift_shear(0.25), grid=(8, 8), horizon=50)
    assert report.verdict == VERDICT_NOT_APPLICABLE
    assert report.flux == pytest.approx(0.25, abs=1e-12)
    assert report.witness is None
    assert report.family is None


@pytest.mark.parametrize(
    "m, y_range, horizon, start",
    [
        # every orbit overflows by step 2
        (standard(1.5), (1e308, 1.5e308), 200, (0.125, 1.0625e308)),
        (generating_function(0.02), (1e308, 1.5e308), 200, (0.125, 1.0625e308)),
        # the upper half of the grid overflows, the lower half stays valid
        (standard(0.0), (-2.0, 1e306), 400, (0.125, -2.0 + 2.5 * ((1e306 + 2.0) / 4))),
    ],
    ids=["std:k=1.5", "genfun:a1=0.02", "std:k=0-upper-half"],
)
def test_probe_without_witness_and_with_invalid_lanes_raises(m, y_range, horizon, start):
    # these returned NO_OBSTRUCTION_FOUND: an invalid lane counted as one
    # without an over-conjugate point
    with pytest.raises(NonFiniteOrbitError, match=re.escape(f"orbit of {start} left")):
        integrability_probe(m, grid=(4, 4), y_range=y_range, horizon=horizon,
                            rationals=[Fraction(0), Fraction(1, 2)])


def test_write_curves_csv(tmp_path):
    fam = psi_family(shear(), [Fraction(0), Fraction(1, 2)], resolution=8)
    out = tmp_path / "curves.csv"
    write_curves_csv(fam.curves, out, {"note": "test"})
    lines = out.read_text().splitlines()
    assert lines[0] == "# note=test"
    assert lines[1] == "x,y,residual,label"
    assert len(lines) == 2 + 2 * 8
    x, y, res, label = lines[2].split(",")
    assert float(x) == 0.0
    assert label == "PsiRho(0/1)"
    # repr floats parse back bit for bit
    fields = lines[10].split(",")
    assert float(fields[1]) == fam.curves[1].ys[0]


def test_probe_scan_stops_at_witness(kernels):
    m = standard(1.5)
    report = integrability_probe(m, grid=(32, 32), y_range=(-2.0, 2.0), horizon=1000)
    assert report.verdict == VERDICT_CONJUGATE
    assert kernels.calls["_step_array_k"] == report.witness_time
    # the witness a plain full-horizon scan selects: earliest, lowest index
    gx = (np.arange(32) + 0.5) / 32
    gy = -2.0 + (np.arange(32) + 0.5) * (4.0 / 32)
    X, Y = np.meshgrid(gx, gy)
    times = cocycle_scan(m, X.ravel(), Y.ravel(), 1000).overconj_time
    t_min = int(times[times > 0].min())
    idx = int(np.flatnonzero(times == t_min)[0])
    assert report.witness_time == t_min
    assert report.witness == (float(X.ravel()[idx]), float(Y.ravel()[idx]))


def test_probe_scan_without_witness_runs_horizon(kernels):
    report = integrability_probe(
        standard(0.0), grid=(32, 32), horizon=1000, rationals=[Fraction(0)]
    )
    assert report.verdict == VERDICT_NO_OBSTRUCTION
    assert kernels.calls["_step_array_k"] == 1000
