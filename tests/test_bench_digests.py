"""The benchmark's frozen reports: each seedless quick-commands invocation, byte for byte.

The benchmark checks these reports against the sha256 digests in
bench/digests.json. This module runs the same invocations, with the argument
list read from bench/run.py, so a change of their bytes fails here and not
only in a benchmark run: once in process, and once as the fresh processes
that bench/run.py launches, where a report lost at exit would show.
"""

import hashlib
import io
import json
import runpy
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stablecoh.cli import SEED_ENV_VAR, main

ROOT = Path(__file__).resolve().parents[1]


def bench_runner() -> dict:
    saved = list(sys.path)  # run.py puts bench/ on the path to import its tracer
    try:
        return runpy.run_path(str(ROOT / "bench" / "run.py"))
    finally:
        sys.path[:] = saved


RUNNER = bench_runner()
SEEDLESS = RUNNER["SEEDLESS"]
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


@pytest.mark.parametrize("args", SEEDLESS, ids=" ".join)
def test_seedless_process_matches_its_digest(args):
    inv = RUNNER["Invocation"](tuple(args) + ("--jobs", "1"), None)
    env = RUNNER["child_env"]()
    env.pop("PYTHONUNBUFFERED", None)  # a report left in the buffer at exit must show
    result = subprocess.run(RUNNER["cli_argv"](inv), cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[inv.key]
