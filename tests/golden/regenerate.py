"""Write the golden CLI corpus that tests/test_golden.py checks.

Each case is one `twistlab` invocation, run in-process through `cli.run`
in a fresh temporary directory.  Its files, next to this script, are
<name>.argv (one argument per line), <name>.stdout, <name>.stderr,
<name>.exit and, when the run wrote its --out file, <name>.out (its
bytes; --out paths are relative, so no file names a directory).

Usage: PYTHONPATH=src python tests/golden/regenerate.py

Regenerating is for new cases or an intended change of output; a change
that regenerates files lists each changed file and its reason.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

STD = ["--map", "std:k=1"]
INV = ["--map", "inverted(std:k=1)"]
BOX = ["--box", "0,1,-0.5,0.5"]

CASES = {
    # trace: stdout, CSV, --vector, overflow, the inverted map's twist
    "trace": ["trace", *STD, "--point", "0.1,0.2", "--n", "20"],
    "trace_csv": ["trace", "--map", "std:k=0.5", "--point", "0.3,0.1", "--n", "12",
                  "--out", "trace.csv"],
    "trace_vector": ["trace", "--map", "genfun:a1=0.02,a2=-0.007", "--point", "0.2,0.3",
                     "--vector", "1,1", "--n", "15"],
    "trace_vector_csv": ["trace", "--map", "drift:c=0.25", "--point", "-0.4,0.1",
                         "--vector", "1,-2", "--n", "6", "--out", "trace.csv"],
    "trace_overflow": ["trace", "--map", "shear", "--point", "0,1e308", "--n", "5"],
    "trace_inverted": ["trace", *INV, "--point", "0.1,0.2", "--n", "3"],
    # field and measure: summaries, CSV, SVG, all-invalid samples
    "field_csv": ["field", *STD, "--box", "-0.1,0.1,-0.1,0.1", "--grid", "3x2", "--n", "20",
                  "--out", "field.csv"],
    "field_svg": ["field", "--map", "std:k=1.5", *BOX, "--grid", "4x3", "--n", "10",
                  "--out", "field.svg"],
    "field_inverted": ["field", *INV, *BOX, "--grid", "3x3", "--n", "10"],
    "field_overflow_csv": ["field", "--map", "shear", "--box", "0,1,1e308,1.7e308",
                           "--grid", "2x2", "--n", "4", "--out", "field.csv"],
    "field_overflow_svg": ["field", "--map", "shear", "--box", "0,1,1e308,1.7e308",
                           "--grid", "2x2", "--n", "4", "--out", "field.svg"],
    "measure_csv": ["measure", *STD, *BOX, "--samples", "8", "--n", "10", "--seed", "3",
                    "--eps", "1e-9", "--out", "measure.csv"],
    "measure_all_invalid_csv": ["measure", *INV, *BOX, "--samples", "4", "--n", "10",
                                "--seed", "1", "--out", "measure.csv"],
    # flux: exact, mirrored to a file, the inverted drift
    "flux_drift": ["flux", "--map", "drift:c=0.25"],
    "flux_mirror": ["flux", *STD, "--res", "16", "--out", "flux.txt"],
    "flux_inverted_drift": ["flux", "--map", "inverted(drift:c=0.25)"],
    # psi and probe: curve CSV and SVG, a bracket error, witness CSV, no
    # family to render
    "psi_csv": ["psi", "--map", "std:k=0.5", "--rho", "1/2,0", "--res", "16",
                "--out", "psi.csv"],
    "psi_svg": ["psi", "--map", "shear", "--rho", "1/3,0,-1/2", "--res", "8",
                "--out", "psi.svg"],
    "psi_bracket_error": ["psi", "--map", "std:k=3", "--rho=-3/2,-1/3,3/2", "--res", "16"],
    "probe_family_csv": ["probe", "--map", "std:k=0", "--grid", "8x8", "--horizon", "50",
                         "--rho", "-1/2,0,1/2", "--out", "probe.csv"],
    "probe_family_svg": ["probe", "--map", "genfun:a1=0.001", "--grid", "8x8",
                         "--yrange", "-1,1", "--horizon", "30", "--rho", "0,1/3",
                         "--out", "probe.svg"],
    "probe_witness_csv": ["probe", "--map", "std:k=1.5", "--grid", "8x8", "--horizon", "20",
                          "--out", "witness.csv"],
    "probe_witness_svg": ["probe", "--map", "std:k=1.5", "--grid", "8x8", "--horizon", "20",
                          "--out", "witness.svg"],
    "probe_not_applicable": ["probe", "--map", "drift:c=0.25", "--grid", "8x8",
                             "--yrange", "-1,1", "--horizon", "20"],
    # orbit statistics, forward and inverted
    "rotation": ["rotation", *STD, "--point", "0.1,0.2", "--n", "50"],
    "rotation_mirror": ["rotation", "--map", "shear", "--point", "0,0.375", "--n", "10",
                        "--out", "rotation.txt"],
    "rotation_inverted": ["rotation", *INV, "--point", "0.1,0.2", "--n", "20"],
    "classify": ["classify", "--map", "std:k=0.5", "--point", "0.1,0.2", "--n", "20"],
    "classify_inverted": ["classify", *INV, "--point", "0.1,0.2", "--n", "20"],
    "linking": ["linking", *STD, "--point", "0.1,0.2", "--point2", "0.3,0.4", "--n", "30"],
    "linking_inverted": ["linking", *INV, "--point", "0.1,0.2", "--point2", "0.3,0.4",
                         "--n", "30"],
    "return_check": ["return-check", *STD, "--window", "-0.05,0.05,-0.05,0.05",
                     "--point", "0.02,0", "--returns", "3"],
    # usage errors, exit 2
    "usage_n_zero": ["trace", "--map", "shear", "--point", "0,0", "--n", "0"],
    "usage_unknown_family": ["flux", "--map", "nope:k=1"],
    "usage_genfun_past_a64": ["flux", "--map", "genfun:a65=1"],
    "usage_measure_svg": ["measure", *STD, *BOX, "--samples", "4", "--n", "5",
                          "--out", "measure.svg"],
}


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one invocation in workdir; the bytes of each file it would have."""
    from twistlab.cli import run

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    files = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode(),
             "exit": f"{code}\n".encode()}
    if "--out" in argv and (workdir / argv[argv.index("--out") + 1]).exists():
        files["out"] = (workdir / argv[argv.index("--out") + 1]).read_bytes()
    return files


def main() -> None:
    for old in HERE.glob("*.*"):
        if old.suffix in (".argv", ".stdout", ".stderr", ".exit", ".out"):
            old.unlink()
    for name, argv in CASES.items():
        (HERE / f"{name}.argv").write_text("".join(f"{arg}\n" for arg in argv))
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in run_case(argv, Path(tmp)).items():
                (HERE / f"{name}.{suffix}").write_bytes(data)
        print(name, file=sys.stderr)


if __name__ == "__main__":
    main()
