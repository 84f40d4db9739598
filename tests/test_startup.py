"""What start-up loads, and the traced-run contract the benchmark tracer relies on.

Both run a fresh interpreter, since the test process has long since loaded
everything. Neither measures time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stablecoh

SRC = Path(stablecoh.__file__).resolve().parents[1]
ROOT = SRC.parent
SUBMODULES = ("cli", "conditions", "e1", "linalg", "monomials", "points", "tables")
SPAN_MARKER = "stablecoh-spans "


def run_python(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("STABLECOH_SEED", None)
    return subprocess.run([sys.executable, *flags, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_pool_dataclass_and_fraction_modules_unloaded():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import stablecoh.cli\n"
        "print(json.dumps({'added': sorted(set(sys.modules) - before),"
        " 'loaded': sorted(sys.modules)}))\n"
    )
    # Under -S no site hook (such as a .pth file importing typing) runs first
    # and hides a module from the "added" set.
    for flags in ((), ("-S",)):
        result = run_python(code, flags=flags)
        assert result.returncode == 0, result.stderr
        modules = json.loads(result.stdout)
        added = set(modules["added"])
        for name in ("concurrent.futures", "multiprocessing", "dataclasses", "fractions", "csv",
                     "typing"):
            assert name not in added, (flags, name)
        # The benchmark tracer looks every submodule up in sys.modules.
        loaded = set(modules["loaded"])
        assert {f"stablecoh.{short}" for short in SUBMODULES} <= loaded


def test_cli_import_compiles_no_source():
    # Under -S, functools builds its own namedtuple, compiling source, on
    # import; the standard-library modules stablecoh uses are loaded before
    # the hook, so only compile() calls made by stablecoh itself are seen.
    code = (
        "import argparse, bisect, collections.abc, functools, io, itertools, json, math,"
        " operator, os, random, re, sys\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and args[1] == '<string>'"
        " and compiled.append(str(args[0])))\n"
        "import stablecoh.cli\n"
        "print(json.dumps(compiled))\n"
    )
    result = run_python(code, flags=("-S",))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_pool_class_is_loaded_on_first_use():
    code = (
        "import sys\n"
        "from stablecoh import conditions\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "pool = conditions.ProcessPoolExecutor\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "assert pool is ProcessPoolExecutor\n"
        "assert vars(conditions)['ProcessPoolExecutor'] is pool\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr


def run_traced(*cli_args: str) -> tuple[dict, dict]:
    """The JSON report and the span document of one run under bench/tracer.py."""
    # Two CPUs are claimed, and the head start is dropped, so that --jobs 2
    # starts a pool on any machine.
    code = (
        "import os, runpy, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from stablecoh import conditions\n"
        "conditions.POOL_START_S = 0\n"
        "sys.argv = ['tracer.py', *sys.argv[1:]]\n"
        "runpy.run_path('bench/tracer.py', run_name='__main__')\n"
    )
    result = run_python(code, "contract", *cli_args, "--format", "json")
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stderr.splitlines() if line.startswith(SPAN_MARKER)]
    assert len(lines) == 1
    doc = json.loads(lines[0][len(SPAN_MARKER):])
    assert doc["invocation"] == "contract"
    return json.loads(result.stdout), doc


def test_traced_run_writes_spans_and_counts_one_pool_start():
    report, doc = run_traced("d0-scan", "--n", "2", "--N", "3", "--trials", "4", "--jobs", "2")
    assert report["report"]["d0"] >= 1
    assert doc["counters"]["pool_starts"] == 1
    names = {span[0] for span in doc["spans"]}
    assert {"cli.main", "conditions.general_position_bound"} <= names


def test_traced_matrix_builds_and_ranks_carry_their_shapes():
    # The tracer reads .rows/.cols off the builders' results and the shape
    # of integer_rank's argument; the ordinary square runs both.
    _, doc = run_traced("hilbert", "--d", "4", "--n", "2", "--N", "3", "--seed", "3",
                        "--jobs", "1")
    for name in ("conditions.evaluation_matrix", "linalg.integer_rank"):
        attrs = [span[4] for span in doc["spans"] if span[0] == name]
        assert attrs, name
        for attr in attrs:
            assert attr["rows"] >= 1 and attr["cols"] >= 1, (name, attr)


def test_traced_frame_ranks_are_certified_ranks_inside_codimension():
    # Below 2N - 1 every trial's rank is the frame's block, certified by
    # certified_rank, so the tracer sees it under the codimension that asked.
    _, doc = run_traced("d0-scan", "--n", "3", "--N", "6", "--trials", "3", "--jobs", "1")
    spans = doc["spans"]

    def ancestors(span):
        while span[3] != -1:
            span = spans[span[3]]
            yield span[0]

    ranks = [span for span in spans if span[0] == "linalg.certified_rank"]
    assert ranks
    assert all("conditions.codimension" in ancestors(span) for span in ranks)
