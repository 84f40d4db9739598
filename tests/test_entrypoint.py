"""The process exit contract of `python -m stablecoh`, through real processes.

The entry point flushes the report and ends the process without interpreter
teardown. Each test runs a fresh interpreter with PYTHONUNBUFFERED removed,
so a report left in the stdout buffer at exit would be lost and show here.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablecoh

from test_golden import GOLDEN, cases

SRC = Path(stablecoh.__file__).resolve().parents[1]
ROOT = SRC.parent
INDEX = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def child_env(**extra: str) -> dict[str, str]:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("STABLECOH_SEED", None)
    return env


def run_module(*args: str, **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("capture_output", True)
    kwargs.setdefault("env", child_env())
    return subprocess.run([sys.executable, "-m", "stablecoh", *args], cwd=ROOT,
                          stdin=subprocess.DEVNULL, timeout=120, **kwargs)


@pytest.mark.parametrize("case", ["verify-lemma.json", "d0-scan-exhausted.table",
                                  "jobs-zero.json"])
def test_exit_code_and_report_bytes_match_the_golden(case):
    result = run_module(*cases()[case])
    assert result.returncode == INDEX[case]["exit"]
    assert result.stdout == (GOLDEN / f"{case}.out").read_bytes()
    assert result.stderr.decode("utf-8") == INDEX[case]["stderr"]


def test_output_file_holds_the_whole_report(tmp_path):
    path = tmp_path / "report.json"
    result = run_module(*cases()["grassmann.json"], "--output", str(path))
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert path.read_bytes() == (GOLDEN / "grassmann.json.out").read_bytes()


def test_no_pool_worker_outlives_the_process(tmp_path):
    # Two CPUs are claimed so that --jobs 2 starts a pool on any machine.
    code = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "sys.argv = ['stablecoh', *sys.argv[1:]]\n"
        "from stablecoh.cli import entrypoint\n"
        "entrypoint()\n"
    )
    args = ("d0-scan", "--n", "2", "--N", "3", "--trials", "4", "--jobs", "2",
            "--format", "json")
    # Files, not pipes: a leaked worker would hold a pipe open and delay the
    # wait below until it exited.
    with open(tmp_path / "out", "w+b") as out, open(tmp_path / "err", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                start_new_session=True)
        status = proc.wait(timeout=120)
        # The new session's process group id is the child's pid; no member may remain.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        out.seek(0)
        err.seek(0)
        assert status == 0, err.read()
        assert json.loads(out.read())["report"]["d0"] >= 1


def test_closed_stdout_pipe_exits_120_through_the_normal_shutdown():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        # A small report waits in the buffer, so the flush is the first write.
        # PYTHONIOENCODING fixes the encoding that the message names.
        result = run_module(*cases()["grassmann.json"], stdout=write_end, stderr=subprocess.PIPE,
                            capture_output=False, env=child_env(PYTHONIOENCODING="utf-8"))
    finally:
        os.close(write_end)
    assert result.returncode == 120
    assert result.stderr == (
        b"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
        b"BrokenPipeError: [Errno 32] Broken pipe\n"
    )


def test_closed_stdout_pipe_exits_120_on_a_report_larger_than_the_buffer():
    args = ("gl-cohomology", "--n", "14", "--format", "json", "--jobs", "1")
    assert len(run_module(*args).stdout) > 4 * io.DEFAULT_BUFFER_SIZE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        # The report outgrows the buffer, so emit's write meets the closed pipe.
        result = run_module(*args, stdout=write_end, stderr=subprocess.PIPE,
                            capture_output=False)
    finally:
        os.close(write_end)
    assert result.returncode == 120
    assert b"Traceback" not in result.stderr
