"""The golden CLI corpus: every invocation's stdout, stderr, exit code and
--out bytes, as tests/golden/regenerate.py wrote them.

Bytes must match exactly, except the fields a walk's angle sum feeds in a
`trace` run (the printed torsion and the CSV's delta and cumulative),
which may differ by 1e-12 relative: the walk's per-step angle may move
by an ulp across arctan2 builds.
"""

import importlib.util
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SUFFIXES = ("stdout", "stderr", "exit", "out")

_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

NAMES = sorted(path.stem for path in GOLDEN.glob("*.argv"))


def test_corpus_matches_cases():
    assert NAMES == sorted(regenerate.CASES)


def close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def trace_lines_match(got: bytes, want: bytes) -> bool:
    """Line by line: a `torsion = ` line and a CSV row's last two fields
    within 1e-12 relative, everything else exact."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for g, w in zip(got_lines, want_lines):
        if g.startswith("torsion = ") and w.startswith("torsion = "):
            ok = close(g[len("torsion = "):], w[len("torsion = "):])
        elif g.count(",") == 4 and not g.startswith(("#", "step,")):
            gf, wf = g.split(","), w.split(",")
            ok = gf[:3] == wf[:3] and len(wf) == 5 and all(map(close, gf[3:], wf[3:]))
        else:
            ok = g == w
        if not ok:
            return False
    return True


@pytest.mark.parametrize("name", NAMES)
def test_golden(name, tmp_path):
    argv = (GOLDEN / f"{name}.argv").read_text().splitlines()
    got = regenerate.run_case(argv, tmp_path)
    want = {s: (GOLDEN / f"{name}.{s}").read_bytes()
            for s in SUFFIXES if (GOLDEN / f"{name}.{s}").exists()}
    assert sorted(got) == sorted(want)
    for suffix, data in want.items():
        if got[suffix] != data and argv[0] == "trace" and suffix in ("stdout", "out"):
            assert trace_lines_match(got[suffix], data), (name, suffix)
        else:
            assert got[suffix] == data, (name, suffix)
