"""The CLI's command table: printed keys, --out policy, flag checks, help,
usage errors found before any computation, and the README's commands."""

import math
import re
import shlex
from pathlib import Path

import pytest

import twistlab.stats
from twistlab import GridMode, LiftedMap, ScanConfig, detect_overconjugate, parse_map_spec
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


def test_scan_config_rejects_non_finite_eps():
    for eps in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="eps"):
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


# ------------------------------------------------------ trace walks once


def test_vertical_trace_walks_the_orbit_once(capsys, monkeypatch):
    # the over-conjugate time comes from the trace itself: 500 steps, not 1000
    calls = [0]
    step = LiftedMap.step_scalar

    def counted(self, x, y):
        calls[0] += 1
        return step(self, x, y)

    monkeypatch.setattr(LiftedMap, "step_scalar", counted)
    argv = ["trace", "--map", "std:k=0", "--point", "0.1,0.2", "--n", "500"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0 and "first_overconjugate = none\n" in out
    assert calls[0] == 500


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
