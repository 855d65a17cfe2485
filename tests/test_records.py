"""The one record format: each written file's # key order, and the
formatter and table writer that every file goes through."""

import io
from fractions import Fraction

import numpy as np
import pytest

from twistlab import (
    GridMode,
    MonteCarloMode,
    ScanConfig,
    psi_family,
    read_scan_csv,
    shear,
    standard,
    torsion_field,
    write_curves_csv,
    write_scan_csv,
)
from twistlab.cli import run
from twistlab.stats import format_value, write_table

SUMMARY = ["fraction_negative", "fraction_nonzero", "mean_torsion", "stderr", "count"]
SCAN = ["map", "box", "horizon", "eps", "period", "mode", *SUMMARY]

# subcommand argv, the # keys of its --out CSV in order, and its header
RECORDS = {
    "trace": (["trace", "--map", "std:k=1", "--point", "0.02,0", "--n", "5"],
              ["map", "point", "vector", "n"], "step,x,y,delta,cumulative"),
    "field": (["field", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1", "--grid", "3x2",
               "--n", "20"], SCAN, "x,y,torsion,overconj_time,rotation"),
    "measure": (["measure", "--map", "std:k=1", "--box", "-0.1,0.1,-0.1,0.1", "--samples", "4",
                 "--n", "20", "--seed", "3"], SCAN, "x,y,torsion,overconj_time,rotation"),
    "measure_invalid": (["measure", "--map", "inverted(std:k=1)", "--box", "0,1,-0.5,0.5",
                         "--samples", "3", "--n", "10"], SCAN,
                        "x,y,torsion,overconj_time,rotation"),
    "psi": (["psi", "--map", "shear", "--rho", "0,1/2", "--res", "4"],
            ["map", "res", "tol"], "x,y,residual,label"),
    "probe": (["probe", "--map", "std:k=0", "--grid", "4x4", "--horizon", "20", "--rho", "0,1/2"],
              ["map", "verdict", "flux"], "x,y,residual,label"),
}


def meta_lines(text):
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("# ")]
    assert lines[: len(head)] == head
    return [ln[2:].split("=", 1) for ln in head], lines[len(head)]


@pytest.mark.parametrize("name", RECORDS)
def test_out_key_order(tmp_path, capsys, name):
    argv, keys, header = RECORDS[name]
    path = tmp_path / "out.csv"
    assert run(argv + ["--out", str(path)]) == 0
    printed = dict(ln.split(" = ", 1) for ln in capsys.readouterr().out.splitlines())
    pairs, first = meta_lines(path.read_text())
    assert [key for key, _ in pairs] == keys
    assert first == header
    meta = dict(pairs)
    # every value the command also prints is written the same way
    for key in set(meta) & set(printed):
        assert meta[key] == printed[key], key


def test_config_fields():
    cfg = ScanConfig((0, 1, -0.5, 0.5), MonteCarloMode(40, 11), 200, eps=0.02, period=3)
    assert cfg.fields() == [
        ("box", (0.0, 1.0, -0.5, 0.5)),
        ("horizon", 200),
        ("eps", 0.02),
        ("period", 3),
        ("mode", "montecarlo:samples=40,seed=11"),
    ]
    assert ScanConfig((0, 1, 0, 1), GridMode(7, 5), 1).fields()[-1] == ("mode", "grid:7x5")


@pytest.mark.parametrize("m", [standard(1.0), standard(1.0).inverted(), shear()])
def test_scan_csv_path_and_file_agree(tmp_path, m):
    cfg = ScanConfig((-0.1, 0.1, -0.1, 0.1), GridMode(4, 3), 30)
    result = torsion_field(m, cfg)
    path = tmp_path / "scan.csv"
    write_scan_csv(result, path)
    buf = io.StringIO()
    write_scan_csv(result, buf)
    assert path.read_bytes() == buf.getvalue().encode()
    cols, meta = read_scan_csv(path)
    assert list(meta) == ["map", "box", "horizon", "eps", "period", "mode", *SUMMARY]
    assert np.array_equal(cols["torsion"], result.torsion, equal_nan=True)


def test_format_value():
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.float32(0.5)) == "0.5"
    assert format_value(1e-17) == "1e-17"
    assert format_value(float("nan")) == "nan"
    assert format_value(3) == "3"
    assert format_value(True) == "True"
    assert format_value(Fraction(-1, 2)) == "-1/2"
    assert format_value((np.float64(0.25), 1, [Fraction(1, 3)])) == "0.25,1,1/3"
    assert format_value(standard(1.0).inverted()) == "inverted(std:k=1.0)"
    assert format_value("grid:2x2") == "grid:2x2"


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, [("a", 0.1), ("b", (1, 2.0))], {"u": [1, 3], "v": iter([2, 4])})
    assert path.read_bytes() == b"# a=0.1\n# b=1,2.0\nu,v\n1,2\n3,4\n"
    buf = io.StringIO()
    write_table(buf, [], {"u": [], "v": []})
    assert buf.getvalue() == "u,v\n"


def test_write_table_cells():
    # an array's cells are repr of its Python items, any other column's str
    # of its items; a missing value is the "" in the column
    buf = io.StringIO()
    write_table(buf, [], {
        "f": np.array([0.1, 1e-17, -0.0, np.nan, 1e300]),
        "f32": np.array([0.1, 1, 2, 3, 4], dtype=np.float32),
        "i": np.array([-2, -1, 0, 7, 2**40]),
        "o": ["", 5, 2.5, "s", True],
        "r": range(5),
    })
    assert buf.getvalue().splitlines() == [
        "f,f32,i,o,r",
        f"0.1,{float(np.float32(0.1))!r},-2,,0",
        "1e-17,1.0,-1,5,1",
        "-0.0,2.0,0,2.5,2",
        "nan,3.0,7,s,3",
        f"1e+300,4.0,{2**40},True,4",
    ]


def test_curves_csv_metadata_through_the_formatter(tmp_path):
    fam = psi_family(shear(), [Fraction(0)], resolution=2)
    path = tmp_path / "c.csv"
    meta = {"map": shear(), "rhos": (Fraction(0), Fraction(1, 2)), "tol": np.float64(1e-10)}
    write_curves_csv(fam.curves, path, meta)
    lines = path.read_text().splitlines()
    assert lines[:4] == ["# map=shear", "# rhos=0,1/2", "# tol=1e-10", "x,y,residual,label"]
    assert len(lines) == 6
