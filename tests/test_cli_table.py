"""The CLI's command table: printed keys, --out policy, flag checks, help,
usage errors found before any computation, and the README's commands; the
package's argument checks and its public names."""

import io
import math
import re
import shlex
import types
from pathlib import Path

import numpy as np
import pytest

import twistlab
import twistlab.curves
import twistlab.stats
from twistlab import (
    GridMode,
    LiftedMap,
    ScanConfig,
    cocycle_scan,
    conjugate_report,
    detect_overconjugate,
    first_return_torsion,
    integrability_probe,
    linking_number,
    parse_map_spec,
    psi_family,
    read_scan_csv,
    region_x,
    shear,
    torsion_trace,
)
from twistlab.cli import run

ROOT = Path(__file__).resolve().parent.parent
BOX = "-0.1,0.1,-0.1,0.1"
WINDOW = "-0.05,0.05,-0.05,0.05"

# one small, valid invocation per subcommand
ARGV = {
    "trace": ["trace", "--map", "std:k=1", "--point", "0.02,0", "--n", "10"],
    "field": ["field", "--map", "std:k=1", "--box", BOX, "--grid", "3x2", "--n", "20"],
    "measure": ["measure", "--map", "std:k=1", "--box", BOX, "--samples", "10", "--n", "20"],
    "flux": ["flux", "--map", "drift:c=0.25", "--res", "16"],
    "psi": ["psi", "--map", "shear", "--rho", "0,1/2", "--res", "8"],
    "probe": ["probe", "--map", "std:k=0", "--grid", "4x4", "--horizon", "50"],
    "rotation": ["rotation", "--map", "shear", "--point", "0,0.375", "--n", "10"],
    "classify": ["classify", "--map", "shear", "--point", "0,0.3", "--n", "10"],
    "linking": ["linking", "--map", "shear", "--point", "0,0", "--point2", "0,0.5", "--n", "10"],
    "return-check": ["return-check", "--map", "std:k=1", "--window", WINDOW,
                     "--point", "0.02,0", "--returns", "2"],
}

SCAN_KEYS = ["map", "mode", "horizon", "eps", "fraction_negative", "fraction_nonzero",
             "mean_torsion", "stderr", "count", "lanes"]


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_keys(out: str) -> list[str]:
    return [line.split(" = ", 1)[0] for line in out.splitlines()]


@pytest.mark.parametrize(
    "argv, keys",
    [
        pytest.param(ARGV["trace"], ["map", "point", "vector", "n", "torsion",
                                     "first_overconjugate"], id="trace"),
        pytest.param(ARGV["field"], SCAN_KEYS, id="field"),
        pytest.param(ARGV["measure"], SCAN_KEYS, id="measure"),
        pytest.param(ARGV["flux"], ["flux"], id="flux"),
        pytest.param(ARGV["psi"], ["map", "rhos", "max_root_residual", "all_fixed_ok",
                                   "monotone_ok"], id="psi"),
        pytest.param(ARGV["probe"], ["map", "verdict", "flux", "family_rhos",
                                     "max_root_residual", "monotone_ok"], id="probe-family"),
        pytest.param(["probe", "--map", "std:k=1.5", "--grid", "8x8", "--horizon", "100"],
                     ["map", "verdict", "flux", "witness", "witness_time"], id="probe-witness"),
        pytest.param(["probe", "--map", "drift:c=0.25", "--grid", "4x4", "--horizon", "10"],
                     ["map", "verdict", "flux"], id="probe-not-applicable"),
        pytest.param(ARGV["rotation"], ["map", "point", "n", "rotation"], id="rotation"),
        pytest.param(ARGV["classify"], ["map", "point", "n", "classification"], id="classify"),
        pytest.param(ARGV["linking"], ["map", "point", "point2", "n", "linking",
                                       "near_half_turn"], id="linking"),
        pytest.param(ARGV["return-check"], ["map", "window", "point", "returns_found",
                                            "return_times", "total_steps", "complete",
                                            "torsion_ratio", "torsion_direct", "identity_gap"],
                     id="return-check"),
        pytest.param(["return-check", "--map", "drift:c=0.25", "--window", "0,0.5,0.2,0.3",
                      "--point", "0.1,0.25"],
                     ["map", "window", "point", "returns_found", "return_times", "total_steps",
                      "complete"], id="return-check-none"),
    ],
)
def test_printed_keys_in_order(capsys, argv, keys):
    code, out, err = run_capture(capsys, argv)
    assert code == 0, err
    assert printed_keys(out) == keys


# what --out writes: "mirror" (stdout), a CSV with this header line, "svg",
# or "rejected" (usage error, nothing written)
OUT_POLICY = {
    "trace": ("step,x,y,delta,cumulative", "rejected"),
    "field": ("x,y,torsion,overconj_time,rotation", "svg"),
    "measure": ("x,y,torsion,overconj_time,rotation", "rejected"),
    "flux": ("mirror", "rejected"),
    "psi": ("x,y,residual,label", "svg"),
    "probe": ("x,y,residual,label", "svg"),
    "rotation": ("mirror", "rejected"),
    "classify": ("mirror", "rejected"),
    "linking": ("mirror", "rejected"),
    "return-check": ("mirror", "rejected"),
}


@pytest.mark.parametrize("suffix", [".csv", ".svg"])
@pytest.mark.parametrize("sub", sorted(OUT_POLICY))
def test_out_policy(tmp_path, capsys, sub, suffix):
    path = tmp_path / f"out{suffix}"
    code, out, err = run_capture(capsys, ARGV[sub] + ["--out", str(path)])
    want = OUT_POLICY[sub][suffix == ".svg"]
    if want == "rejected":
        assert code == 2 and "usage error" in err
        assert out == "" and not path.exists()
        return
    assert code == 0, err
    text = path.read_text()
    if want == "mirror":
        assert text == out
    elif want == "svg":
        assert text.startswith("<svg ") and text.endswith("</svg>\n")
    else:
        lines = text.splitlines()
        assert lines[0].startswith("# map=")
        assert next(ln for ln in lines if not ln.startswith("#")) == want


def test_probe_witness_out(tmp_path, capsys):
    # without a curve family the probe writes its witness as CSV and has no SVG
    argv = ["probe", "--map", "std:k=1.5", "--grid", "8x8", "--horizon", "100"]
    csv = tmp_path / "w.csv"
    code, out, _ = run_capture(capsys, argv + ["--out", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[:4] == ["# map=std:k=1.5", "# verdict=CONJUGATE_POINTS_FOUND",
                         f"# flux={printed_value(out, 'flux')}", "x,y,overconj_time"]
    assert lines[4] == f"{printed_value(out, 'witness')},{printed_value(out, 'witness_time')}"
    svg = tmp_path / "w.svg"
    code, _, err = run_capture(capsys, argv + ["--out", str(svg)])
    assert code == 1 and "no curve family" in err
    assert not svg.exists()


def printed_value(out: str, key: str) -> str:
    return next(ln.split(" = ", 1)[1] for ln in out.splitlines() if ln.startswith(f"{key} = "))


# a negative value for each numeric flag that fails that flag's own check
NEGATIVE = [
    ("trace", "--point", "-1"),
    ("trace", "--vector", "-0,0"),
    ("trace", "--n", "-1"),
    ("field", "--box", "-1"),
    ("field", "--grid", "-2x2"),
    ("field", "--n", "-3"),
    ("field", "--eps", "-0.5"),
    ("measure", "--box", "-1,0,1"),
    ("measure", "--samples", "-10"),
    ("measure", "--n", "-1"),
    ("measure", "--eps", "-1"),
    ("measure", "--seed", "-1"),
    ("flux", "--res", "-16"),
    ("psi", "--rho", "-1/0"),
    ("psi", "--res", "-8"),
    ("psi", "--tol", "-1e-10"),
    ("probe", "--grid", "-4x4"),
    ("probe", "--yrange", "-1,-2"),
    ("probe", "--horizon", "-50"),
    ("probe", "--rho", "-1/0,0"),
    ("rotation", "--point", "-1"),
    ("rotation", "--n", "-1"),
    ("classify", "--point", "-1"),
    ("classify", "--n", "-1"),
    ("linking", "--point", "-1"),
    ("linking", "--point2", "-1"),
    ("linking", "--n", "-1"),
    ("return-check", "--window", "-1"),
    ("return-check", "--point", "-1"),
    ("return-check", "--returns", "-1"),
]


def with_flag(argv: list[str], flag: str, value: str) -> list[str]:
    if flag in argv:
        i = argv.index(flag)
        return argv[: i + 1] + [value] + argv[i + 2:]
    return argv + [flag, value]


def help_flags(capsys, sub: str) -> set[str]:
    assert run([sub, "--help"]) == 0
    return set(re.findall(r"^  (--[a-z0-9]+) [A-Z0-9]+", capsys.readouterr().out, re.M))


@pytest.mark.parametrize("sub", sorted(ARGV))
def test_negative_cases_cover_every_numeric_flag(capsys, sub):
    assert help_flags(capsys, sub) - {"--map", "--out"} == {f for s, f, _ in NEGATIVE if s == sub}


@pytest.mark.parametrize("sub, flag, value", NEGATIVE)
def test_negative_value_reaches_flag_check(capsys, sub, flag, value):
    code, out, err = run_capture(capsys, with_flag(ARGV[sub], flag, value))
    assert code == 2
    assert out == ""
    assert f"usage error: {flag}: " in err


def test_valid_negative_values_run(capsys):
    argv = ["rotation", "--map", "shear", "--point", "-0.5,-0.25", "--n", "4"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert "point = -0.5,-0.25" in out.splitlines()


@pytest.mark.parametrize("sub", sorted(ARGV))
def test_help_exits_zero(capsys, sub):
    code, out, _ = run_capture(capsys, [sub, "--help"])
    assert code == 0
    assert out.startswith(f"usage: twistlab {sub} [-h] --map MAP [--out OUT]")


# -------------------------------------------- usage errors fixed in the table


@pytest.mark.parametrize(
    "argv",
    [
        ARGV["field"] + ["--eps", "inf"],
        ARGV["measure"] + ["--eps", "nan"],
        ARGV["psi"] + ["--tol", "inf"],
    ],
)
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    # --eps inf ran and printed fraction_nonzero = 0.0; --tol inf ran too
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(ARGV["field"][:5] + ["--grid", "8by8", "--n", "20"],
                     "^twistlab: usage error: --grid: must look like 64x64, got '8by8'\n$",
                     id="cli-grid"),
        pytest.param(lambda: region_x(shear(), "up"), "^sign must be 'minus' or 'plus'$",
                     id="region_x-sign"),
        pytest.param(lambda: psi_family(shear(), []), "^need at least one rotation number$",
                     id="psi_family-empty"),
        pytest.param(lambda: LiftedMap("nope"), "^unknown map family 'nope'$",
                     id="LiftedMap-family"),
        pytest.param(lambda: LiftedMap("shear", (), 2), "^twist_sign must be \\+1 or -1$",
                     id="LiftedMap-twist_sign"),
        pytest.param(lambda: LiftedMap("shear", (), True), "^twist_sign must be \\+1 or -1$",
                     id="LiftedMap-twist_sign-bool"),
        # a float was kept as given: 1.0 printed twist_sign=1.0, and
        # np.float64(-1.0) built inverted(shear)
        pytest.param(lambda: LiftedMap("shear", (), 1.0), "^twist_sign must be \\+1 or -1$",
                     id="LiftedMap-twist_sign-float"),
        pytest.param(lambda: LiftedMap("shear", (), np.float64(-1.0)),
                     "^twist_sign must be \\+1 or -1$", id="LiftedMap-twist_sign-numpy-float"),
        pytest.param(lambda: cocycle_scan(shear(), np.zeros(3), np.zeros(2), 5),
                     "^x and y must be 1-d arrays of equal length$", id="cocycle_scan-lengths"),
        pytest.param(lambda: read_scan_csv(io.StringIO("x,y\n")),
                     "^unexpected CSV header 'x,y'$", id="read_scan_csv-header"),
        # these two raised "box must satisfy x0 < x1 and y0 < y1" and "box
        # width, height and area must be finite", naming no y_range
        pytest.param(lambda: integrability_probe(shear(), (2, 2), (2, -2), 5),
                     r"^y_range must satisfy y0 < y1 with a finite height, got \(2.0, -2.0\)$",
                     id="probe-y_range-reversed"),
        pytest.param(lambda: integrability_probe(shear(), (2, 2), (-1e308, 1e308), 5),
                     "^y_range must satisfy y0 < y1 with a finite height",
                     id="probe-y_range-height"),
    ],
)
def test_argument_checks_name_the_argument(capsys, call, message):
    # no other tier-1 test reaches these raises
    if callable(call):
        with pytest.raises(ValueError, match=message):
            call()
    else:
        code, out, err = run_capture(capsys, call)
        assert (code, out) == (2, "")
        assert re.search(message, err)


def test_twist_sign_is_stored_as_an_int():
    # a numpy integer was kept as given, and the repr printed np.int64(-1)
    m = LiftedMap("shear", (), np.int64(-1))
    assert type(m.twist_sign) is int and repr(m).endswith("twist_sign=-1)")
    assert m == shear().inverted() and m.to_spec() == "inverted(shear)"


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(lambda v: conjugate_report(shear(), v, 5), "p", (1, 2, 3), id="point-long"),
        pytest.param(lambda v: conjugate_report(shear(), v, 5), "p", (1,), id="point-short"),
        pytest.param(lambda v: torsion_trace(shear(), (0, 0), v, 3), "direction", (1, 0, 0),
                     id="direction"),
        pytest.param(lambda v: linking_number(shear(), (0, 0), v, 3), "q", 0.5, id="q-number"),
        pytest.param(lambda v: integrability_probe(shear(), v, horizon=5), "grid", (8, 8, 8),
                     id="grid-long"),
        pytest.param(lambda v: integrability_probe(shear(), v, horizon=5), "grid", (2,),
                     id="grid-short"),
        pytest.param(lambda v: integrability_probe(shear(), v, horizon=5), "grid", 2,
                     id="grid-number"),
        pytest.param(lambda v: integrability_probe(shear(), (2, 2), v, 5), "y_range", (-1, 0, 1),
                     id="y_range"),
        pytest.param(lambda v: ScanConfig(box=v, mode=GridMode(2, 2), horizon=5), "box",
                     (0, 1, 2), id="box"),
        pytest.param(lambda v: first_return_torsion(shear(), v, (0.5, 0.5), 5), "window",
                     (0, 1, 0), id="window"),
    ],
)
def test_fixed_length_arguments_name_themselves(call, name, value):
    # (1, 2, 3) was read as the point (1, 2) and grid=(8, 8, 8) as 8x8; (1,)
    # and grid=(2,) raised IndexError, grid=2 TypeError, and a y_range, box
    # or window of the wrong length Python's unpack text
    count = 4 if name in ("box", "window") else 2
    with pytest.raises(ValueError, match=f"^{name} must hold {count} numbers, got "
                                         f"{re.escape(repr(value))}$"):
        call(value)


def test_all_holds_every_public_name():
    # vertical_step_variation was imported but left out of __all__
    public = {name for name, value in vars(twistlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(twistlab.__all__) == sorted(public)
    assert len(twistlab.__all__) == len(set(twistlab.__all__))


def test_scan_config_rejects_non_finite_eps():
    # eps=True was kept, and the scan CSV recorded "# eps=True"; "0.1"
    # raised TypeError and 10**400 OverflowError
    for eps in (math.inf, math.nan, 0.0, -1.0, True, False, "0.1", 10**400):
        with pytest.raises(ValueError, match=f"^eps must be finite and positive, got {re.escape(repr(eps))}$"):
            ScanConfig(box=(0, 1, 0, 1), mode=GridMode(2, 2), horizon=5, eps=eps)


@pytest.mark.parametrize(
    "window, point",
    [
        ("0.05,-0.05,-0.05,0.05", "0.02,0"),  # reversed x range
        (WINDOW, "0.5,0.5"),  # start point outside the window
        ("-0.05,0.05,0.05,-0.05", "0.02,0"),  # reversed y range
        ("0,2,-1,1", "0.5,0"),  # wider than one period
    ],
)
def test_bad_return_window_is_usage_error(capsys, monkeypatch, window, point):
    # these exited 1 after the command had started
    calls = []
    monkeypatch.setattr(twistlab.stats, "first_return_torsion",
                        lambda *a, **k: calls.append(a))
    argv = ["return-check", "--map", "std:k=1", "--window", window, "--point", point]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == "" and "usage error" in err
    assert calls == []


def test_coincident_linking_points_are_usage_error(capsys):
    # exited 1 from inside linking_number
    for point2 in ("0,0", "-0,0", "0.0,-0.0"):
        argv = ["linking", "--map", "shear", "--point", "0,0", "--point2", point2, "--n", "10"]
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == "" and "usage error: --point and --point2" in err


def test_flux_resolution_below_two_is_usage_error(capsys, monkeypatch, tmp_path):
    # exited 1 from inside flux ("resolution must be an integer >= 2")
    calls = []
    monkeypatch.setattr(twistlab.curves, "flux", lambda *a, **k: calls.append(a))
    out_path = tmp_path / "flux.txt"
    code, out, err = run_capture(capsys, ["flux", "--map", "shear", "--res", "1",
                                          "--out", str(out_path)])
    assert code == 2
    assert out == "" and err == "twistlab: usage error: --res: must be >= 2\n"
    assert calls == [] and not out_path.exists()


# ------------------------------------------------------ trace walks once


def test_vertical_trace_walks_the_orbit_once(capsys, kernels):
    # the over-conjugate time comes from the trace itself: 500 steps, not
    # 1000, also for a vertical vector that is not of unit length
    for vector in ("0,1", "0,5"):
        kernels.calls.clear()
        argv = ["trace", "--map", "std:k=0", "--point", "0.1,0.2", "--vector", vector, "--n", "500"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0 and "first_overconjugate = none\n" in out
        assert kernels.calls == {"_walk_k": 500}, vector


@pytest.mark.parametrize("vector", ["0,1", "0,3", "1,2"])
@pytest.mark.parametrize(
    "spec, point",
    [("std:k=1", "0.02,0"), ("std:k=1.5", "0.3,0.1"), ("std:k=0.5", "0.5,0"),
     ("shear", "0.3,0.5"), ("genfun:a1=0.02,a2=-0.007", "0.1,0.2")],
)
def test_trace_overconjugate_matches_detector(capsys, spec, point, vector):
    argv = ["trace", "--map", spec, "--point", point, "--vector", vector, "--n", "200"]
    code, out, _ = run_capture(capsys, argv)
    oc = detect_overconjugate(parse_map_spec(spec), tuple(map(float, point.split(","))), 200)
    assert code == 0
    assert f"first_overconjugate = {'none' if oc is None else oc}\n" in out


# ---------------------------------------------------------------- README


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("twistlab ")]


def test_readme_lists_every_subcommand():
    assert sorted({argv[0] for argv in readme_commands()}) == sorted(ARGV)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_capture(capsys, argv)
    assert code == 0, err
    assert out
