"""The benchmark's frozen reports: each seedless quick-commands invocation, byte for byte.

The benchmark checks these reports against the sha256 digests in
bench/digests.json. This module runs the same invocations in process, with
the argument list read from bench/run.py, so a change of their bytes fails
here and not only in a benchmark run.
"""

import hashlib
import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stablecoh.cli import SEED_ENV_VAR, main

ROOT = Path(__file__).resolve().parents[1]


def seedless_invocations() -> tuple[tuple[str, ...], ...]:
    saved = list(sys.path)  # run.py puts bench/ on the path to import its tracer
    try:
        return runpy.run_path(str(ROOT / "bench" / "run.py"))["SEEDLESS"]
    finally:
        sys.path[:] = saved


SEEDLESS = seedless_invocations()
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("args", SEEDLESS, ids=" ".join)
def test_seedless_report_matches_its_digest(args, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    monkeypatch.chdir(ROOT)  # the points file is named relative to the root
    argv = list(args) + ["--jobs", "1"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == DIGESTS[" ".join(argv)]
