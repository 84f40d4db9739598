"""Golden reports: every subcommand in every format, byte for byte.

Each case runs the CLI in process and compares its exit code, stdout and
stderr with the files under tests/golden/: `<case>.out` holds stdout, and
`exit_codes.json` maps each case to its exit code and stderr. Inputs are
small, seeded explicitly and run with --jobs 1.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stablecoh.cli import SEED_ENV_VAR, main

GOLDEN = Path(__file__).parent / "golden"
# Fractional and non-primitive coordinates; normalization must not leak into
# the echoed points.
POINTS = str(GOLDEN / "points.json")
FORMATS = ("json", "csv", "table")

# name -> argv without --format; every name runs in every format.
REPORTS = {
    "codim": ["codim", "--d", "3", "--n", "2", "--N", "2", "--seed", "5"],
    "codim-points": ["codim", "--d", "3", "--points", POINTS],
    "verify-lemma": ["verify-lemma", "--d", "3", "--n", "1", "--N", "2",
                     "--trials", "3", "--seed", "7"],
    "hilbert": ["hilbert", "--d", "4", "--n", "2", "--N", "3", "--seed", "3"],
    "hilbert-points": ["hilbert", "--d", "5", "--points", POINTS],
    "regularity": ["regularity", "--n", "1", "--N", "2", "--seed", "2", "--d-max", "5"],
    "regularity-points": ["regularity", "--points", POINTS],
    "d0-scan": ["d0-scan", "--n", "1", "--N", "2", "--trials", "3", "--seed", "2",
                "--d-max", "4"],
    "d0-scan-exhausted": ["d0-scan", "--n", "1", "--N", "2", "--trials", "2",
                          "--seed", "1", "--d-max", "2"],
    "grassmann": ["grassmann", "--l", "2", "--n", "3"],
    "config-homology": ["config-homology", "--l", "2", "--n", "2"],
    "gl-cohomology": ["gl-cohomology", "--n", "4"],
    "e1-page": ["e1-page", "--d", "19", "--n", "1", "--N", "10"],
    "stable-verify": ["stable-verify", "--n", "3"],
    "band": ["band", "--d", "19", "--n", "1", "--N", "10"],
    "stable-range": ["stable-range", "--d", "5", "--n", "2"],
}

# Usage errors print nothing to stdout, so one format suffices.
USAGE_ERRORS = {
    "negative-seed": ["codim", "--d", "3", "--n", "1", "--N", "2", "--seed", "-1"],
    "jobs-zero": ["verify-lemma", "--d", "3", "--n", "1", "--N", "2", "--jobs", "0"],
    "dimension-mismatch": ["codim", "--d", "3", "--n", "3", "--points", POINTS],
    "hilbert-dimension-mismatch": ["hilbert", "--d", "3", "--n", "5", "--points", POINTS],
    "regularity-count-mismatch": ["regularity", "--N", "9", "--points", POINTS],
    "bad-token": ["hilbert", "--d", "3", "--points", '[["1", "0"], ["1/2", "x"]]'],
    "duplicate-points": ["regularity", "--points", '[["1", "2"], ["-1/2", "-1"]]'],
    "tiny-degree": ["stable-range", "--d", "2", "--n", "1"],
    # Sampling refuses no points or dimension 0 before drawing any.
    "regularity-zero-points": ["regularity", "--n", "2", "--N", "0"],
    "d0-scan-dimension-zero": ["d0-scan", "--n", "0", "--N", "3"],
    # 14 x 90,858,768 singularity matrix: refused before enumerating monomials.
    "too-large": ["codim", "--d", "60", "--n", "6", "--N", "2"],
    # n above e1.MAX_E1_DIMENSION: refused before any column is built.
    "band-too-large": ["band", "--d", "5", "--n", "1100", "--N", "3"],
    # N above e1.MAX_E1_POINTS: refused before the N substratum bounds are built.
    "e1-page-too-large": ["e1-page", "--d", "3", "--n", "1", "--N", "100001"],
    # The same limit for the general-linear table, which grows as n^4.
    "gl-cohomology-too-large": ["gl-cohomology", "--n", "100"],
    # N = (d+1)//2 above e1.MAX_E1_POINTS: refused before any stable-range row is built.
    "stable-range-too-large": ["stable-range", "--d", "200001", "--n", "1"],
    # 50,177 Gaussian-binomial coefficients: refused before any is computed.
    "grassmann-too-large": ["grassmann", "--l", "224", "--n", "447"],
    # Refused before the report is computed.
    "output-unwritable": ["grassmann", "--l", "2", "--n", "3",
                          "--output", "/nonexistent/dir/r.json"],
}


def cases() -> dict[str, list[str]]:
    out = {}
    for name, argv in REPORTS.items():
        for fmt in FORMATS:
            out[f"{name}.{fmt}"] = argv + ["--format", fmt, "--jobs", "1"]
    for name, argv in USAGE_ERRORS.items():
        jobs = [] if "--jobs" in argv else ["--jobs", "1"]
        out[f"{name}.json"] = argv + ["--format", "json"] + jobs
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def regenerate() -> None:
    os.environ.pop(SEED_ENV_VAR, None)
    index = {}
    for case, argv in cases().items():
        code, out, err = run(argv)
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8", newline="")
        index[case] = {"exit": code, "stderr": err}
    text = json.dumps(index, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def index():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_subcommand_format_and_exit_code_is_covered(index):
    assert set(index) == set(cases())
    # A half-added case or a stale file shows up here.
    assert {path.name for path in GOLDEN.glob("*.out")} == {f"{case}.out" for case in cases()}
    commands = {argv[0] for argv in REPORTS.values()}
    assert len(commands) == 12
    assert {entry["exit"] for entry in index.values()} == {0, 1, 2}


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden_report(case, index, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, out, err = run(cases()[case])
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert (code, err) == (index[case]["exit"], index[case]["stderr"])
    assert out == expected


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
