"""Ensemble scans, measures, integrals, return identities, CSV format."""

import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import twistlab.stats
from twistlab import (
    GridMode,
    MeasureEstimate,
    MonteCarloMode,
    PeriodicCurve,
    ScanConfig,
    TwistLabError,
    angle_from_vertical,
    asymptotic_torsion,
    classify_monotonicity,
    cocycle_scan,
    conjugate_report,
    drift_shear,
    first_return_torsion,
    flux,
    generating_function,
    integrability_probe,
    island_measure,
    iterate,
    jacobi_conjugate_oracle,
    linking_number,
    psi1,
    psi_family,
    read_scan_csv,
    region_x,
    rotation_number,
    shear,
    standard,
    summarize_csv,
    torsion_field,
    torsion_integral,
    torsion_trace,
    vertical_step_variation,
    write_scan_csv,
)
from twistlab.stats import _in_window, check_window, sample_points

TWO_PI = 2.0 * math.pi


def grid_cfg(box, nx, ny, n, eps=0.05):
    return ScanConfig(box=box, mode=GridMode(nx, ny), horizon=n, eps=eps)


def mc_cfg(box, samples, seed, n, eps=0.05):
    return ScanConfig(box=box, mode=MonteCarloMode(samples, seed), horizon=n, eps=eps)


@pytest.mark.parametrize(
    "box",
    [(0, math.inf, 0, 1), (-math.inf, 1, 0, 1), (0, 1, math.nan, 1), (0, 1, 0, math.nan),
     (0, 1, 0, True), (0, 10**400, 0, 1), (0, 1, -1.7e308, 1.7e308), (0, 1e200, 0, 1e200)],
)
def test_config_rejects_non_finite_box(box):
    # an infinite box used to scan nan lanes and summarize them as nan; a
    # bool was taken as 0 or 1, 10**400 raised OverflowError, and a box
    # whose height or area overflows was kept with area inf
    with pytest.raises(ValueError, match="finite"):
        ScanConfig(box=box, mode=GridMode(2, 2), horizon=10)


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(box=(1, 0, 0, 1), mode=GridMode(2, 2), horizon=10)
    with pytest.raises(ValueError):
        ScanConfig(box=(0, 1, 1, 1), mode=GridMode(2, 2), horizon=10)
    with pytest.raises(ValueError):
        ScanConfig(box=(0, 1, 0, 1), mode=GridMode(2, 2), horizon=0)
    with pytest.raises(ValueError):
        ScanConfig(box=(0, 1, 0, 1), mode=GridMode(2, 2), horizon=5, eps=0.0)
    with pytest.raises(ValueError):
        ScanConfig(box=(0, 1, 0, 1), mode=GridMode(2, 2), horizon=5, period=0)
    with pytest.raises(ValueError):
        GridMode(0, 4)
    with pytest.raises(ValueError):
        MonteCarloMode(0, 1)


@pytest.mark.parametrize("eps", [Fraction(1, 20), np.float32(0.05), 1])
def test_config_stores_eps_as_a_float(eps):
    # eps=Fraction(1, 20) was written as "# eps=1/20", which summarize_csv
    # could not read back
    cfg = grid_cfg((0.0, 1.0, 0.2, 0.4), 3, 1, 10, eps=eps)
    assert type(cfg.eps) is float and cfg.eps == float(eps)
    buf = io.StringIO()
    write_scan_csv(torsion_field(shear(), cfg), buf)
    assert f"# eps={float(eps)!r}\n" in buf.getvalue()
    assert summarize_csv(io.StringIO(buf.getvalue())).eps == cfg.eps


BOX = (0.0, 1.0, -0.5, 0.5)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ScanConfig(BOX, GridMode(2, 2), horizon=2.5), "horizon"),
        (lambda: ScanConfig(BOX, GridMode(2, 2), horizon=3, period=1.5), "period"),
        (lambda: GridMode(2.5, 2), "nx"),
        (lambda: GridMode(2, np.float64(2.0)), "ny"),
        (lambda: MonteCarloMode(2.5, 1), "samples"),
        (lambda: MonteCarloMode(4, -1), "seed"),
        (lambda: MonteCarloMode(4, 1.0), "seed"),
        (lambda: MonteCarloMode(4, "1"), "seed"),
    ],
)
def test_config_rejects_non_integral_counts(build, field):
    # horizon=2.5 ran 2 steps and divided by 2.5; GridMode(2.5, 2) drew 6
    # samples and counted 5.0; the bad MonteCarloModes failed inside numpy
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build()


P, WINDOW = (0.02, 0.0), (-0.05, 0.05, -0.05, 0.05)
COUNTS = {  # entry point: (call with the map and the count, its name, least)
    "iterate": (lambda m, v: iterate(m, P, v), "n", -math.inf),
    "torsion_trace": (lambda m, v: torsion_trace(m, P, n=v), "n", 1),
    "asymptotic_torsion.window": (lambda m, v: asymptotic_torsion(m, P, 10, v), "window", 1),
    "asymptotic_torsion.horizon": (lambda m, v: asymptotic_torsion(m, P, v, 5), "horizon", 5),
    "conjugate_report": (lambda m, v: conjugate_report(m, P, v), "horizon", 1),
    "jacobi_conjugate_oracle": (lambda m, v: jacobi_conjugate_oracle(m, P, v), "horizon", 2),
    "linking_number": (lambda m, v: linking_number(m, P, (0.03, 0.0), v), "n", 1),
    "cocycle_scan": (lambda m, v: cocycle_scan(m, [0.3], [0.1], v), "n", 1),
    "rotation_number": (lambda m, v: rotation_number(m, P, v), "horizon", 1),
    "region_x": (lambda m, v: region_x(m, "minus", v), "resolution", 1),
    "psi_family": (lambda m, v: psi_family(m, [0, Fraction(1, 2)], v), "resolution", 1),
    "flux": (lambda m, v: flux(m, v), "resolution", 2),
    "classify_monotonicity": (lambda m, v: classify_monotonicity(m, P, v), "horizon", 1),
    "integrability_probe.nx": (lambda m, v: integrability_probe(m, grid=(v, 4)), "grid", 1),
    "integrability_probe.ny": (lambda m, v: integrability_probe(m, grid=(4, v)), "grid", 1),
    "integrability_probe.horizon": (lambda m, v: integrability_probe(m, horizon=v), "horizon", 1),
    "first_return_torsion.returns": (
        lambda m, v: first_return_torsion(m, WINDOW, P, returns=v), "returns", 1),
    "first_return_torsion.cap": (lambda m, v: first_return_torsion(m, WINDOW, P, cap=v), "cap", 1),
    "torsion_field": (lambda m, v: torsion_field(m, grid_cfg(BOX, 2, 2, 3), chunk_size=v),
                      "chunk_size", 1),
}


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_entry_points_reject_counts_before_any_step(kernels, entry):
    # each took int(count): flux(m, 2.5) divided three nodes by 2.5,
    # torsion_trace(n=2.5) ran 2 steps, and iterate took '3'; a bool is an
    # Integral, and torsion_trace(n=True) ran one step
    call, name, least = COUNTS[entry]
    for value in [2.5, np.float64(3.0), "3", True] + ([least - 1] if least > -math.inf else []):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, "
                                             f"got {re.escape(repr(value))}$"):
            call(standard(0.0), value)
    assert not kernels.calls


FLAT = PeriodicCurve(np.arange(4) / 4, np.zeros(4), "flat", np.zeros(4))
REALS = {  # entry point: (call with the map and the real, its name)
    "standard": (lambda m, v: standard(v), "k"),
    "generating_function": (lambda m, v: generating_function(v), "a1"),
    "drift_shear": (lambda m, v: drift_shear(v), "c"),
    "iterate": (lambda m, v: iterate(m, (0.3, v), 3), "p"),
    "torsion_trace": (lambda m, v: torsion_trace(m, P, (v, 1.0), 5), "direction"),
    "angle_from_vertical": (lambda m, v: angle_from_vertical((v, 1.0)), "direction"),
    "conjugate_report": (lambda m, v: conjugate_report(m, P, 10, v), "tol"),
    "psi_family": (lambda m, v: psi_family(m, [Fraction(1, 2)], 4, v), "tol"),
    "psi1": (lambda m, v: psi1(m, v), "x"),
    "integrability_probe": (lambda m, v: integrability_probe(m, (4, 4), (v, 1.0), 10), "y_range"),
    "PeriodicCurve.evaluate": (lambda m, v: FLAT.evaluate(v), "x"),
    "check_window": (lambda m, v: check_window((-0.05, 0.05, v, 0.05), P), "window"),
    "ScanConfig.box": (lambda m, v: ScanConfig((0, 1, v, 1), GridMode(2, 2), 5), "box"),
    "ScanConfig.eps": (lambda m, v: ScanConfig(BOX, GridMode(2, 2), 5, v), "eps"),
}


@pytest.mark.parametrize("entry", sorted(REALS))
def test_entry_points_reject_non_reals_before_any_step(kernels, entry):
    # psi1(standard(1), nan) returned -0.9999999999999996, psi_family(tol=True)
    # solved to tol 1, conjugate_report(tol=True) stored tol=True, and
    # check_window((0, 1, -inf, inf), p) was accepted; a bool or str point,
    # direction or map parameter was taken as a number, and 10**400 raised
    # OverflowError
    call, name = REALS[entry]
    m = standard(1.0)
    for value in (True, "0.3", 10**400, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{name} must be finite( and [^,]+)?, "
                                             f"got {re.escape(repr(value))}$"):
            call(m, value)
    assert not kernels.calls
    # a real in range gives a result or twistlab's own error (a RuntimeWarning
    # is an error in this suite, see pyproject.toml)
    for value in (Fraction(1, 3), np.float32(0.3), 1e308, -1e308):
        try:
            call(m, value)
        except (ValueError, TwistLabError):
            pass


def test_config_accepts_numpy_integers():
    cfg = ScanConfig(BOX, MonteCarloMode(np.int64(3), np.int32(0)), horizon=np.int64(2))
    assert sample_points(cfg)[0].shape == (3,)
    assert GridMode(np.int16(2), 3).count == 6


def test_grid_sample_points_are_cell_centers():
    cfg = grid_cfg((0.0, 1.0, -1.0, 1.0), 4, 2, 10)
    xs, ys = sample_points(cfg)
    assert len(xs) == 8
    # x varies fastest, y slowest; centers offset half a cell
    assert xs[:4] == pytest.approx([0.125, 0.375, 0.625, 0.875], abs=1e-15)
    assert ys[:4] == pytest.approx([-0.5] * 4, abs=1e-15)
    assert ys[4:] == pytest.approx([0.5] * 4, abs=1e-15)


def test_montecarlo_sample_points_reproducible():
    cfg = mc_cfg((-0.1, 0.1, -0.2, 0.2), 100, 42, 10)
    x1, y1 = sample_points(cfg)
    x2, y2 = sample_points(cfg)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    # documented stream rule: one (samples, 2) draw of PCG64(seed)
    u = np.random.default_rng(42).random((100, 2))
    assert np.array_equal(x1, -0.1 + u[:, 0] * 0.2)
    assert np.array_equal(y1, -0.2 + u[:, 1] * 0.4)
    assert np.all((x1 >= -0.1) & (x1 < 0.1))
    assert np.all((y1 >= -0.2) & (y1 < 0.2))


def test_field_shear_all_small():
    cfg = grid_cfg((0.0, 1.0, -1.0, 1.0), 16, 16, 1000, eps=1e-2)
    result = torsion_field(shear(), cfg)
    assert result.count == 256
    assert bool(np.all(result.valid))
    assert np.max(np.abs(result.torsion)) < 1e-3
    assert result.summary.fraction_nonzero == 0.0
    assert result.summary.fraction_negative == 0.0
    assert np.all(result.overconj_time == -1)
    # the shear's torsion closed form holds on every record
    want = -math.atan(1000) / (TWO_PI * 1000)
    assert result.torsion == pytest.approx(np.full(256, want), abs=1e-12)


def test_field_island_fraction_negative():
    cfg = grid_cfg((-0.1, 0.1, -0.1, 0.1), 32, 32, 2000)
    result = torsion_field(standard(1.0), cfg)
    assert result.summary.fraction_negative > 0.0
    assert result.summary.mean_torsion < -0.1


def test_field_single_point_torsion():
    cfg = grid_cfg((-0.05, 0.05, -0.05, 0.05), 1, 1, 10_000)
    result = torsion_field(standard(1.0), cfg)
    assert result.x[0] == 0.0 and result.y[0] == 0.0
    assert result.torsion[0] == pytest.approx(-1.0 / 6.0, abs=1e-3)


def test_field_records_rotation():
    cfg = grid_cfg((0.0, 1.0, 0.3, 0.4), 4, 1, 50)
    result = torsion_field(shear(), cfg)
    assert result.rotation == pytest.approx(result.y, abs=1e-12)


def test_field_chunked_bit_identical():
    cfg = grid_cfg((-0.2, 0.2, -0.2, 0.2), 8, 8, 300)
    whole = torsion_field(standard(1.0), cfg)
    chunked = torsion_field(standard(1.0), cfg, chunk_size=7)
    assert np.array_equal(whole.torsion, chunked.torsion, equal_nan=True)
    assert np.array_equal(whole.overconj_time, chunked.overconj_time)
    assert np.array_equal(whole.rotation, chunked.rotation, equal_nan=True)
    assert np.array_equal(whole.valid, chunked.valid)
    assert whole.summary == chunked.summary


def test_field_per_record_bounds():
    for m in (shear(), drift_shear(0.25), standard(1.0)):
        cfg = grid_cfg((0.0, 1.0, -1.0, 1.0), 8, 8, 100)
        result = torsion_field(m, cfg)
        t = result.torsion[result.valid]
        assert np.all(t > -1.0)
        assert np.all(t < 0.5)


def test_field_summary_consistency():
    cfg = mc_cfg((-0.1, 0.1, -0.1, 0.1), 500, 7, 200)
    result = torsion_field(standard(1.0), cfg)
    recomputed = MeasureEstimate.from_torsion(
        result.torsion[result.valid], cfg.eps
    )
    assert recomputed == result.summary


def test_island_measure_requires_montecarlo():
    with pytest.raises(ValueError):
        island_measure(standard(1.0), grid_cfg((0, 1, 0, 1), 4, 4, 10))


def test_island_measure_shear_zero():
    est = island_measure(shear(), mc_cfg((0.0, 1.0, -1.0, 1.0), 2000, 3, 1000, eps=0.01))
    assert est.fraction_negative == 0.0
    assert est.fraction_nonzero == 0.0
    assert est.stderr == 0.0
    assert est.count == 2000


def test_island_measure_standard_island():
    est = island_measure(standard(1.0), mc_cfg((-0.1, 0.1, -0.1, 0.1), 2000, 42, 500))
    assert est.fraction_negative > 0.9
    assert est.fraction_negative <= est.fraction_nonzero
    assert est.mean_torsion < -0.1


def test_island_measure_hyperbolic_box_runs():
    # exploratory case: no assertion on the value, only well-formedness
    est = island_measure(
        standard(1.0), mc_cfg((0.45, 0.55, -0.05, 0.05), 500, 11, 500)
    )
    assert 0.0 <= est.fraction_negative <= est.fraction_nonzero <= 1.0
    assert est.stderr >= 0.0


def test_fraction_negative_respects_eps():
    t = np.array([-0.2, -0.04, 0.0, 0.04, 0.2])
    est = MeasureEstimate.from_torsion(t, eps=0.05)
    assert est.fraction_negative == pytest.approx(0.2)
    assert est.fraction_nonzero == pytest.approx(0.4)
    assert est.stderr == pytest.approx(math.sqrt(0.2 * 0.8 / 5))


def test_torsion_integral_shear_near_zero():
    cfg = mc_cfg((0.0, 1.0, -1.0, 1.0), 1000, 5, 1000)
    est = torsion_integral(shear(), cfg)
    # every sample shares the closed-form value, so the spread is zero
    # and the estimate equals area times the finite-horizon bias
    assert est.stderr == 0.0
    assert abs(est.value) < cfg.area / (2.0 * 1000)


def test_torsion_integral_island_negative():
    cfg = mc_cfg((-0.1, 0.1, -0.1, 0.1), 2000, 42, 500)
    est = torsion_integral(standard(1.0), cfg)
    assert est.stderr > 0.0
    assert est.value < -3.0 * est.stderr


def test_torsion_integral_single_sample_exact():
    cfg = mc_cfg((-0.1, 0.1, -0.1, 0.1), 1, 9, 200)
    field = torsion_field(standard(1.0), cfg)
    est = torsion_integral(standard(1.0), cfg)
    assert est.value == cfg.area * field.torsion[0]
    assert est.count == 1
    assert math.isnan(est.stderr)


def test_torsion_integral_requires_montecarlo():
    with pytest.raises(ValueError):
        torsion_integral(shear(), grid_cfg((0, 1, 0, 1), 2, 2, 10))


def test_first_return_standard_island():
    rep = first_return_torsion(
        standard(1.0), (-0.05, 0.05, -0.05, 0.05), (0.02, 0.0), returns=5
    )
    assert rep.complete
    assert rep.returns_found == 5
    assert rep.total_steps == sum(rep.return_times)
    assert rep.identity_gap <= 1e-12 * rep.total_steps
    assert rep.torsion_ratio == pytest.approx(rep.torsion_direct, abs=1e-12)


def test_first_return_whole_domain_is_one_step():
    m = standard(1.0)
    p = (0.31, -0.47)
    rep = first_return_torsion(m, (0.0, 1.0, -10.0, 10.0), p, returns=1)
    assert rep.return_times == (1,)
    assert rep.angle_sums[0] == pytest.approx(vertical_step_variation(m, p), abs=1e-12)
    assert rep.torsion_ratio == rep.angle_sums[0]


def test_first_return_shear_window_oracle():
    """Brute-force orbit check of the documented shear window: the first
    three returns happen at steps 20, 23, 40."""
    window = (0.0, 0.1, 0.3, 0.4)
    p = (0.05, 0.35)
    # independent oracle loop over the raw orbit
    m = shear()
    x, y = p
    hits = []
    for t in range(1, 200):
        x, y = m.apply_scalar(x, y)
        if (x - window[0]) % 1.0 <= window[1] - window[0] and window[2] <= y <= window[3]:
            hits.append(t)
        if len(hits) == 3:
            break
    assert hits == [20, 23, 40]

    rep = first_return_torsion(m, window, p, returns=3)
    assert rep.complete
    assert rep.return_times == (20, 3, 17)
    assert rep.total_steps == 40
    assert rep.identity_gap <= 1e-12 * 40


def test_first_return_capped_reports_partial():
    rep = first_return_torsion(
        shear(), (0.0, 0.1, 0.3, 0.4), (0.05, 0.35), returns=1, cap=19
    )
    assert not rep.complete
    assert rep.return_times == ()
    assert rep.torsion_ratio is None
    assert rep.identity_gap is None
    assert rep.cap == 19


def test_first_return_stops_at_last_return(kernels):
    m = standard(1.0)
    rep = first_return_torsion(m, WINDOW, P, returns=5)
    assert rep.complete and rep.total_steps < rep.cap
    # one stream up to the fifth return, one fresh trace for the identity
    assert kernels.calls == {"_walk_k": 2 * rep.total_steps}
    # the returns of a per-step loop: a walk that stepped past a return
    # would miss it and count later ones
    times, (x, y), last = [], P, 0
    for t in range(1, rep.total_steps + 1):
        x, y = m.apply_scalar(x, y)
        if _in_window(x, y, WINDOW):
            times, last = times + [t - last], t
    assert tuple(times) == rep.return_times


def test_first_return_identity_check_raises(monkeypatch):
    class SkewedWalk(twistlab.stats._Walk):
        def _steps(self, iwx, iwy):
            return super()._steps(iwx, iwy) + 1e-9

    monkeypatch.setattr(twistlab.stats, "_Walk", SkewedWalk)
    with pytest.raises(RuntimeError, match="return-sum identity violated"):
        first_return_torsion(
            standard(1.0), (-0.05, 0.05, -0.05, 0.05), (0.02, 0.0), returns=2
        )


def test_first_return_validation():
    with pytest.raises(ValueError):
        first_return_torsion(shear(), (0.0, 0.1, 0.3, 0.4), (0.5, 0.35))
    with pytest.raises(ValueError):
        first_return_torsion(shear(), (0.0, 1.5, 0.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        first_return_torsion(shear(), (0.0, 0.5, 1.0, 0.0), (0.2, 0.5))


def test_scan_csv_round_trip():
    cfg = mc_cfg((-0.1, 0.1, -0.1, 0.1), 64, 13, 100)
    result = torsion_field(standard(1.0), cfg)
    buf = io.StringIO()
    write_scan_csv(result, buf)
    text = buf.getvalue()
    cols, meta = read_scan_csv(io.StringIO(text))
    assert np.array_equal(cols["x"], result.x)
    assert np.array_equal(cols["y"], result.y)
    assert np.array_equal(cols["torsion"], result.torsion, equal_nan=True)
    assert np.array_equal(cols["overconj_time"], result.overconj_time.astype(float))
    assert np.array_equal(cols["rotation"], result.rotation, equal_nan=True)
    assert meta["map"] == "std:k=1.0"
    assert meta["mode"] == "montecarlo:samples=64,seed=13"
    est = summarize_csv(io.StringIO(text))
    assert est == result.summary


def test_scan_csv_header_and_empty_overconj(tmp_path):
    cfg = grid_cfg((0.0, 1.0, 0.2, 0.4), 2, 1, 10)
    result = torsion_field(shear(), cfg)
    out = tmp_path / "scan.csv"
    write_scan_csv(result, out)
    lines = out.read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "x,y,torsion,overconj_time,rotation"
    row = lines[header_idx + 1].split(",")
    assert row[3] == ""  # shear never over-conjugates


@pytest.mark.parametrize("text", ["", "# map=shear\n# eps=0.05\n"], ids=["empty", "metadata-only"])
def test_scan_csv_without_header_is_rejected(text):
    # an empty file or a truncated write read as zero records, and
    # summarize_csv reported count=0 like an all-invalid scan
    message = "^scan CSV has no header line x,y,torsion,overconj_time,rotation$"
    with pytest.raises(ValueError, match=message):
        read_scan_csv(io.StringIO(text))
    with pytest.raises(ValueError, match=message):
        summarize_csv(io.StringIO(text))


@pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
def test_summarize_csv_checks_eps(eps):
    # a header edited to a nan or negative eps summarized with it
    result = torsion_field(shear(), grid_cfg((0.0, 1.0, 0.2, 0.4), 3, 1, 10))
    buf = io.StringIO()
    write_scan_csv(result, buf)
    text = buf.getvalue()
    assert "\n# eps=0.05\n" in text
    edited = text.replace("\n# eps=0.05\n", f"\n# eps={eps}\n")
    with pytest.raises(ValueError, match=f"^eps must be finite and positive, got {eps}"):
        summarize_csv(io.StringIO(edited))


@pytest.mark.parametrize("row", ["0.5,0.3", "0.5,0.3,0.1,,0.2,7", "0.5,0.3,abc,,0.2",
                                 "0.5,0.3,0.1,1.5,0.2", "0.5,0.3,0.1,nan,0.2",
                                 "0.5,0.3,0.1,inf,0.2"],
                         ids=["short", "long", "not-a-number", "overconj-fraction",
                              "overconj-nan", "overconj-inf"])
def test_scan_csv_bad_row_names_its_line(row):
    # Python's own "not enough values to unpack (expected 5, got 2)" or
    # "could not convert string to float: 'abc'" named no line; an
    # overconj_time of 1.5, nan or inf, which no writer writes, was read
    text = f"# map=shear\n# eps=0.05\nx,y,torsion,overconj_time,rotation\n0.1,0.2,0.0,,0.3\n{row}\n"
    message = f"^scan CSV line 5 is not five numbers: {re.escape(repr(row))}$"
    with pytest.raises(ValueError, match=message):
        read_scan_csv(io.StringIO(text))
    with pytest.raises(ValueError, match=message):
        summarize_csv(io.StringIO(text))


def test_summarize_csv_names_an_eps_that_is_not_a_number():
    # float() raised "could not convert string to float: 'abc'", naming no eps
    text = "# eps=abc\nx,y,torsion,overconj_time,rotation\n0.1,0.2,0.0,,0.3\n"
    with pytest.raises(ValueError, match=r"^eps must be finite and positive, got 'abc'$"):
        summarize_csv(io.StringIO(text))


def test_scan_csv_all_invalid_round_trip():
    # An all-invalid scan has nothing to summarize; writing it used to
    # raise "cannot summarize an empty sample".
    cfg = grid_cfg((0.0, 1.0, -0.5, 0.5), 2, 2, 10)
    result = torsion_field(standard(1.0).inverted(), cfg)
    assert not result.valid.any()
    buf = io.StringIO()
    write_scan_csv(result, buf)
    cols, meta = read_scan_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(cols["x"], result.x)
    assert np.array_equal(cols["y"], result.y)
    assert np.array_equal(cols["torsion"], result.torsion, equal_nan=True)
    assert np.array_equal(cols["rotation"], result.rotation, equal_nan=True)
    assert np.array_equal(cols["overconj_time"], np.full(4, -2.0))
    assert meta["map"] == "inverted(std:k=1.0)"
    assert meta["count"] == "0"
    assert all(meta[k] == "nan" for k in ("fraction_negative", "mean_torsion", "stderr"))
    # the file's records summarize to what its header says: nan and count 0
    # (summarize_csv raised "cannot summarize an empty sample" here)
    est = summarize_csv(io.StringIO(buf.getvalue()))
    assert_empty_summary(est, cfg.eps)
    assert_empty_summary(result.summary, cfg.eps)


def assert_empty_summary(est, eps):
    assert est.count == 0 and est.eps == eps
    estimates = (est.fraction_negative, est.fraction_nonzero, est.mean_torsion, est.stderr)
    assert all(math.isnan(v) for v in estimates)


def test_all_invalid_measure_and_integral_are_nan():
    # island_measure raised "cannot summarize an empty sample" and
    # torsion_integral "no valid samples"
    cfg = mc_cfg((0.0, 1.0, -0.5, 0.5), 5, 0, 10)
    m = standard(1.0).inverted()
    assert_empty_summary(island_measure(m, cfg), cfg.eps)
    integral = torsion_integral(m, cfg)
    assert integral.count == 0
    assert math.isnan(integral.value) and math.isnan(integral.stderr)
    assert_empty_summary(MeasureEstimate.from_torsion(np.array([]), 0.1), 0.1)


def test_scan_csv_keeps_invalid_flag():
    # Invalid lanes (-2) used to be written like undetected ones (-1).
    cfg = grid_cfg((0.0, 1.0, 0.2, 0.4), 3, 1, 10)
    result = torsion_field(shear(), cfg)
    result.valid[1] = False
    result.torsion[1] = math.nan
    result.rotation[1] = math.nan
    result.overconj_time[1] = -2
    buf = io.StringIO()
    write_scan_csv(result, buf)
    cols, meta = read_scan_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(cols["overconj_time"], [-1.0, -2.0, -1.0])
    assert np.array_equal(cols["torsion"], result.torsion, equal_nan=True)
    assert meta["count"] == "2"
    assert summarize_csv(io.StringIO(buf.getvalue())) == result.summary


def test_scan_determinism_bytes():
    cfg = mc_cfg((-0.1, 0.1, -0.1, 0.1), 200, 42, 100)
    b1, b2 = io.StringIO(), io.StringIO()
    write_scan_csv(torsion_field(standard(1.0), cfg), b1)
    write_scan_csv(torsion_field(standard(1.0), cfg), b2)
    assert b1.getvalue() == b2.getvalue()
