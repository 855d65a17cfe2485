"""Command-line surface: grammar, exit codes, outputs, determinism."""

import io
import math

import numpy as np
import pytest

import twistlab.maps
from twistlab import (
    GridMode,
    MonteCarloMode,
    ScanConfig,
    detect_overconjugate,
    standard,
    summarize_csv,
    torsion_field,
    torsion_trace,
)
from twistlab.cli import _merge_negative_values, run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run_capture(capsys, [])
    assert code == 2


def test_missing_map_is_usage_error(capsys):
    code, _, _ = run_capture(capsys, ["trace", "--point", "0,0", "--n", "5"])
    assert code == 2


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run_capture(
        capsys, ["trace", "--map", "nope:k=1", "--point", "0,0", "--n", "5"]
    )
    assert code == 2
    assert "usage error" in err


def test_malformed_point_is_usage_error(capsys):
    code, _, _ = run_capture(
        capsys, ["trace", "--map", "shear", "--point", "0.1", "--n", "5"]
    )
    assert code == 2


def test_nonpositive_n_is_usage_error(capsys):
    code, _, _ = run_capture(
        capsys, ["trace", "--map", "shear", "--point", "0,0", "--n", "0"]
    )
    assert code == 2


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "no_such_dir" / "x.csv"
    code, _, err = run_capture(
        capsys,
        ["trace", "--map", "shear", "--point", "0,0", "--n", "5", "--out", str(bad)],
    )
    assert code == 2
    assert "usage error" in err


def test_out_is_directory_is_usage_error(tmp_path, capsys):
    code, _, _ = run_capture(
        capsys,
        ["flux", "--map", "shear", "--res", "16", "--out", str(tmp_path)],
    )
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--n", "9" * 5000), ("--grid", "2x" + "9" * 5000)],
                         ids=["n", "grid"])
def test_overlong_integer_is_usage_error(capsys, flag, value):
    # int() answered with CPython's conversion limit and its setting
    argv = ["field", "--map", "shear", "--box", "0,1,0,1", "--grid", "2x2", "--n", "5"]
    argv[argv.index(flag) + 1] = value
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"twistlab: usage error: {flag}: must have at most 4300 digits\n"


def test_unallocatable_trace_exits_one(capsys):
    # the 4 PiB trace table is refused at once, before anything is allocated
    argv = ["trace", "--map", "shear", "--point", "0,0", "--n", "99999999999999"]
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("twistlab: error: ") and err.count("\n") == 1


def test_trace_over_the_cap_exits_one(capsys, monkeypatch):
    # torsion_trace checks iterate's cap before it allocates its table
    monkeypatch.setattr(twistlab.maps, "ITERATE_CAP", 10)
    argv = ["trace", "--map", "shear", "--point", "0,0", "--n", "11"]
    assert run_capture(capsys, argv) == (1, "", "twistlab: error: |n| = 11 exceeds the cap 10\n")
    code, out, _ = run_capture(capsys, argv[:-1] + ["10"])
    assert code == 0 and out.startswith("map = shear\n")


@pytest.mark.parametrize(
    "argv, name, size",
    [
        (["psi", "--map", "shear", "--rho", "0,1/2", "--res", "4"], "resolution * sum(q)", 12),
        (["field", "--map", "shear", "--box", "0,1,0,1", "--grid", "4x3", "--n", "5"], "lanes", 12),
        (["measure", "--map", "shear", "--box", "0,1,0,1", "--samples", "11", "--n", "5"],
         "lanes", 11),
        (["probe", "--map", "shear", "--grid", "4x3", "--horizon", "5"], "lanes", 12),
        (["flux", "--map", "shear", "--res", "11"], "resolution", 11),
    ],
    ids=["psi", "field", "measure", "probe", "flux"],
)
def test_over_the_cap_exits_one(capsys, monkeypatch, argv, name, size):
    # a huge request failed in numpy's allocator, or never ended (psi's q)
    monkeypatch.setattr(twistlab.maps, "ITERATE_CAP", 10)
    err = f"twistlab: error: |{name}| = {size} exceeds the cap 10\n"
    assert run_capture(capsys, argv) == (1, "", err)


def test_psi_offset_past_the_float_range_exits_one(capsys):
    # float() of the offset raised "int too large to convert to float"
    rho = "1" + "0" * 400
    argv = ["psi", "--map", "shear", "--rho", rho, "--res", "4"]
    assert run_capture(capsys, argv) == (1, "", f"twistlab: error: rho must be finite, got {rho}\n")


@pytest.mark.parametrize(
    "argv, step",
    [
        # the genfun kernel's own OverflowError was printed
        (["linking", "--map", "genfun:a1=0.02,a2=-0.007", "--point", "0.1,0.2",
          "--point2", "0.3,1e307", "--n", "10"], 10),
        # "direction must be finite" was printed, of a direction never given
        (["linking", "--map", "shear", "--point", "-1e308,0", "--point2", "1e308,0",
          "--n", "5"], 0),
    ],
)
def test_linking_off_the_float_range_exits_one(capsys, argv, step):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("twistlab: error: orbit of ")
    assert f"left the float range by step {step}: " in err


def test_computation_failure_exits_one(capsys):
    # strongly kicked map breaks the bracketing the curve builder needs
    code, _, err = run_capture(
        capsys, ["psi", "--map", "std:k=3", "--rho", "1/2", "--res", "32"]
    )
    assert code == 1
    assert "twistlab: error" in err


def test_zero_denominator_rho_is_usage_error(capsys):
    code, _, _ = run_capture(
        capsys, ["psi", "--map", "shear", "--rho", "1/0", "--res", "16"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--map", "std:k=1", "--point", "nan,0", "--n", "5"],
        ["trace", "--map", "std:k=1", "--point", "0,0", "--vector", "0,0", "--n", "5"],
        ["trace", "--map", "std:k=1", "--point", "0,0", "--vector", "inf,1", "--n", "5"],
        ["field", "--map", "std:k=1", "--box", "0,inf,0,1", "--grid", "2x2", "--n", "5"],
        ["linking", "--map", "std:k=1", "--point", "0,0", "--point2", "0,-inf", "--n", "5"],
    ],
)
def test_non_finite_or_zero_vector_is_usage_error(capsys, argv):
    # these exited 1, or ran on nan estimates and exited 0
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert "usage error" in err
    assert out == ""


# -------------------------------------------------------- negative arguments


def test_merge_negative_values():
    assert _merge_negative_values(["--yrange", "-2,2"]) == ["--yrange=-2,2"]
    assert _merge_negative_values(["--box", "-0.1,0.1,-0.1,0.1"]) == [
        "--box=-0.1,0.1,-0.1,0.1"
    ]
    # plain values and non-numeric dashes stay untouched
    assert _merge_negative_values(["--point", "0.02,0"]) == ["--point", "0.02,0"]
    assert _merge_negative_values(["--out", "-x.csv"]) == ["--out", "-x.csv"]


def test_negative_box_parses_end_to_end(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "measure", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1",
            "--samples", "50", "--n", "100", "--eps", "0.05", "--seed", "1",
        ],
    )
    assert code == 0
    assert "fraction_negative" in out


# ----------------------------------------------------------------- commands


def test_trace_matches_engine(tmp_path, capsys):
    out_csv = tmp_path / "tr.csv"
    code, out, _ = run_capture(
        capsys,
        [
            "trace", "--map", "std:k=1", "--point", "0.02,0", "--n", "10",
            "--out", str(out_csv),
        ],
    )
    assert code == 0
    assert "torsion = " in out
    assert "first_overconjugate = 4" in out

    m = standard(1.0)
    trace = torsion_trace(m, (0.02, 0.0), n=10)
    assert f"torsion = {trace.torsion!r}" in out
    assert detect_overconjugate(m, (0.02, 0.0), 10) == 4

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# map=std:k=1.0"
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "step,x,y,delta,cumulative"
    rows = lines[header_idx + 1:]
    assert len(rows) == 11
    first = rows[0].split(",")
    assert first[0] == "0" and first[3] == ""
    last = rows[-1].split(",")
    assert float(last[4]) == trace.cumulative[-1]


def test_trace_default_vector_is_vertical(capsys):
    code, out, _ = run_capture(
        capsys, ["trace", "--map", "shear", "--point", "0.3,0.5", "--n", "4"]
    )
    assert code == 0
    assert "vector = 0.0,1.0" in out
    want = -math.atan(4) / (2.0 * math.pi * 4)
    assert f"torsion = {want!r}" in out
    assert "first_overconjugate = none" in out


def test_flux_drift_exact(capsys):
    code, out, _ = run_capture(
        capsys, ["flux", "--map", "drift:c=0.25", "--res", "128"]
    )
    assert code == 0
    assert "flux = 0.25" in out.splitlines()


def test_rotation_exact(capsys):
    code, out, _ = run_capture(
        capsys, ["rotation", "--map", "shear", "--point", "0,0.375", "--n", "100"]
    )
    assert code == 0
    assert "rotation = 0.375" in out.splitlines()


def test_classify_runs(capsys):
    code, out, _ = run_capture(
        capsys, ["classify", "--map", "shear", "--point", "0,0.3", "--n", "50"]
    )
    assert code == 0
    assert "classification = " in out


def test_linking_output(capsys):
    code, out, _ = run_capture(
        capsys,
        ["linking", "--map", "shear", "--point", "0,0", "--point2", "0,0.5",
         "--n", "100"],
    )
    assert code == 0
    want = -math.atan(100) / (2.0 * math.pi * 100)
    assert f"linking = {want!r}" in out
    assert "near_half_turn = False" in out


def test_field_csv_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "field.csv"
    code, out, _ = run_capture(
        capsys,
        ["field", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1",
         "--grid", "8x8", "--n", "200", "--eps", "0.05", "--out", str(out_csv)],
    )
    assert code == 0
    est = summarize_csv(str(out_csv))
    # printed floats are repr strings, so re-summarizing is bit-exact
    assert f"fraction_negative = {est.fraction_negative!r}" in out
    assert f"mean_torsion = {est.mean_torsion!r}" in out
    assert f"stderr = {est.stderr!r}" in out
    assert f"count = {est.count}" in out

    cfg = ScanConfig(box=(-0.1, 0.1, -0.1, 0.1), mode=GridMode(8, 8),
                     horizon=200, eps=0.05)
    direct = torsion_field(standard(1.0), cfg)
    assert est == direct.summary


def test_measure_csv_bytes_reproducible(tmp_path, capsys):
    args = ["measure", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1",
            "--samples", "300", "--n", "150", "--eps", "0.05", "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_field_svg_deterministic(tmp_path, capsys):
    args = ["field", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1",
            "--grid", "6x5", "--n", "100"]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    data = a.read_bytes()
    assert data == b.read_bytes()
    text = data.decode()
    assert text.count("<rect") == 1 + 30 + 2  # background + cells + legend
    assert "min = " in text and "max = " in text


def test_field_svg_single_cell(tmp_path, capsys):
    out_svg = tmp_path / "one.svg"
    code = run(["field", "--map", "shear", "--box", "0,1,0,1", "--grid", "1x1",
                "--n", "50", "--out", str(out_svg)])
    capsys.readouterr()
    assert code == 0
    assert out_svg.read_text().count("<rect") == 4


def test_field_svg_rejected_for_montecarlo(tmp_path, capsys):
    out_svg = tmp_path / "m.svg"
    code, _, err = run_capture(
        capsys,
        ["measure", "--map", "std:k=1", "--box", "0,1,0,1", "--samples", "10",
         "--n", "10", "--seed", "1", "--out", str(out_svg)],
    )
    assert code == 2
    assert "usage error" in err


def test_psi_sorts_rhos(capsys):
    code, out, _ = run_capture(
        capsys, ["psi", "--map", "shear", "--rho", "1/3,0,-1/2", "--res", "8"]
    )
    assert code == 0
    assert "rhos = -1/2,0,1/3" in out
    assert "all_fixed_ok = True" in out
    assert "monotone_ok = True" in out


def test_probe_no_obstruction(tmp_path, capsys):
    fam = tmp_path / "fam.csv"
    code, out, _ = run_capture(
        capsys,
        ["probe", "--map", "std:k=0", "--grid", "16x16", "--yrange", "-2,2",
         "--horizon", "500", "--out", str(fam)],
    )
    assert code == 0
    assert "verdict = NO_OBSTRUCTION_FOUND" in out
    assert "family_rhos = -1,-1/2,-1/3,0,1/3,1/2,1" in out
    assert "monotone_ok = True" in out
    lines = fam.read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "x,y,residual,label"
    assert len(lines) > header_idx + 7


def test_probe_conjugate_witness(capsys):
    code, out, _ = run_capture(
        capsys,
        ["probe", "--map", "std:k=1.5", "--grid", "32x32", "--yrange", "-2,2",
         "--horizon", "100"],
    )
    assert code == 0
    assert "verdict = CONJUGATE_POINTS_FOUND" in out
    time_line = next(ln for ln in out.splitlines() if ln.startswith("witness_time"))
    assert int(time_line.split(" = ")[1]) <= 10


def test_probe_not_applicable(capsys):
    code, out, _ = run_capture(
        capsys,
        ["probe", "--map", "drift:c=0.25", "--grid", "8x8", "--yrange", "-1,1",
         "--horizon", "100"],
    )
    assert code == 0
    assert "verdict = NOT_APPLICABLE" in out
    assert "flux = 0.25" in out


@pytest.mark.parametrize(
    "yrange, err",
    [("1e308,1.5e308", "orbit of (0.0625, 1.03125e+308) left the float range")],
    ids=["orbits-overflow"],
)
def test_probe_from_invalid_lanes_exits_one(capsys, yrange, err):
    # printed verdict = NO_OBSTRUCTION_FOUND and exited 0
    code, out, stderr = run_capture(
        capsys,
        ["probe", "--map", "std:k=1.5", "--grid", "8x8", f"--yrange={yrange}",
         "--horizon", "200", "--rho", "0,1/2"],
    )
    assert code == 1 and out == ""
    assert stderr.startswith(f"twistlab: error: {err}")


def test_probe_yrange_with_overflowing_width_is_usage_error(capsys):
    # its height overflowed inside the probe's ScanConfig, which exited 1
    # with an error about a box the command never took
    code, out, err = run_capture(
        capsys,
        ["probe", "--map", "std:k=1.5", "--grid", "8x8", "--yrange=-1.7e308,1.7e308",
         "--horizon", "200"],
    )
    assert code == 2 and out == ""
    assert err.startswith("twistlab: usage error: --yrange:")


def test_return_check_output(capsys):
    code, out, _ = run_capture(
        capsys,
        ["return-check", "--map", "std:k=1", "--window", "-0.05,0.05,-0.05,0.05",
         "--point", "0.02,0", "--returns", "3"],
    )
    assert code == 0
    assert "returns_found = 3" in out
    assert "complete = True" in out
    gap_line = next(ln for ln in out.splitlines() if ln.startswith("identity_gap"))
    assert float(gap_line.split(" = ")[1]) <= 1e-9


def test_out_file_mirrors_stdout(tmp_path, capsys):
    out_txt = tmp_path / "rot.txt"
    code, out, _ = run_capture(
        capsys,
        ["rotation", "--map", "shear", "--point", "0,0.375", "--n", "10",
         "--out", str(out_txt)],
    )
    assert code == 0
    assert out_txt.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "--grid", "2x2"],
        ["measure", "--samples", "4", "--seed", "1"],
    ],
)
def test_all_invalid_scan_summary(capsys, argv):
    # Every lane of an inverted map is invalid; the summary used to raise
    # "cannot summarize an empty sample" and the command exited 1.
    code, out, err = run_capture(
        capsys, argv + ["--map", "inverted(std:k=1)", "--box", "0,1,-0.5,0.5", "--n", "10"]
    )
    assert code == 0, err
    lines = out.splitlines()
    for key in ("fraction_negative", "fraction_nonzero", "mean_torsion", "stderr"):
        assert f"{key} = nan" in lines
    assert "count = 0" in lines
    assert lines[-1] == "lanes = 4"


def test_summary_prints_total_lanes(capsys):
    code, out, _ = run_capture(
        capsys,
        ["field", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1", "--grid", "3x2", "--n", "20"],
    )
    assert code == 0
    assert out.splitlines()[-2:] == ["count = 6", "lanes = 6"]
