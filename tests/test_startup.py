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


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("STABLECOH_SEED", None)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_pool_dataclass_and_fraction_modules_unloaded():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import stablecoh.cli\n"
        "print(json.dumps({'added': sorted(set(sys.modules) - before),"
        " 'loaded': sorted(sys.modules)}))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    added = set(modules["added"])
    for name in ("concurrent.futures", "multiprocessing", "dataclasses", "fractions", "csv"):
        assert name not in added, name
    # The benchmark tracer looks every submodule up in sys.modules.
    loaded = set(modules["loaded"])
    assert {f"stablecoh.{short}" for short in SUBMODULES} <= loaded


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


def test_traced_run_writes_spans_and_counts_one_pool_start():
    # Two CPUs are claimed so that --jobs 2 starts a pool on any machine.
    code = (
        "import os, runpy, sys\n"
        "os.cpu_count = lambda: 2\n"
        "sys.argv = ['tracer.py', *sys.argv[1:]]\n"
        "runpy.run_path('bench/tracer.py', run_name='__main__')\n"
    )
    result = run_python(code, "contract", "d0-scan", "--n", "2", "--N", "3",
                        "--trials", "4", "--jobs", "2", "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["report"]["d0"] >= 1
    lines = [line for line in result.stderr.splitlines() if line.startswith(SPAN_MARKER)]
    assert len(lines) == 1
    doc = json.loads(lines[0][len(SPAN_MARKER):])
    assert doc["invocation"] == "contract"
    assert doc["counters"]["pool_starts"] == 1
    names = {span[0] for span in doc["spans"]}
    assert {"cli.main", "conditions.general_position_bound"} <= names
