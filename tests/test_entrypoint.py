"""The process exit contract of `python -m stablecoh`, through real processes.

The report goes to stdout in blocks and is flushed before the entry point
ends the process without interpreter teardown. Each test runs a fresh
interpreter with PYTHONUNBUFFERED removed, so a report left in the stdout
buffer at exit would be lost and show here; the closed-pipe, full-device and
golden tests run with it set as well.
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("STABLECOH_SEED", None)
    return {**env, **extra}


# PYTHONUNBUFFERED unset, and set as a measuring harness may pass it on.
BUFFERING = [pytest.param({}, id="buffered"),
             pytest.param({"PYTHONUNBUFFERED": "1"}, id="unbuffered")]


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
    # Two CPUs are claimed, and the head start is dropped, so that --jobs 2
    # starts a pool on any machine.
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.argv = ['stablecoh', *sys.argv[1:]]\n"
        "from stablecoh import conditions\n"
        "conditions.POOL_START_S = 0\n"
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


def run_into_closed_pipe(args, buffering) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_module(*args, stdout=write_end, stderr=subprocess.PIPE, capture_output=False,
                          env=child_env(**buffering))
    finally:
        os.close(write_end)


@pytest.mark.parametrize("buffering", BUFFERING)
def test_closed_stdout_pipe_exits_120_when_the_flush_meets_it(buffering):
    # A small report waits in the buffer, so emit's flush is the first write.
    result = run_into_closed_pipe(cases()["grassmann.json"], buffering)
    assert (result.returncode, result.stderr) == (120, b"")


@pytest.mark.parametrize("buffering", BUFFERING)
def test_closed_stdout_pipe_exits_120_on_a_report_larger_than_the_buffer(buffering):
    args = ("gl-cohomology", "--n", "14", "--format", "json", "--jobs", "1")
    assert len(run_module(*args).stdout) > 4 * io.DEFAULT_BUFFER_SIZE
    # The report outgrows the buffer, so one of emit's writes meets the closed pipe.
    result = run_into_closed_pipe(args, buffering)
    assert (result.returncode, result.stderr) == (120, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize("n", ["2", "14"])
def test_stdout_on_a_full_device_is_a_usage_error(n, buffering):
    # --n 2 fits in the buffer and fails in the flush; --n 14 fails in a write.
    with open("/dev/full", "wb") as full:
        result = run_module("gl-cohomology", "--n", n, "--format", "json", "--jobs", "1",
                            stdout=full, stderr=subprocess.PIPE, capture_output=False,
                            env=child_env(**buffering))
    assert result.returncode == 2
    assert result.stderr == (
        b"stablecoh: error: cannot write report: [Errno 28] No space left on device\n")


# A write-through text stream over a raw stream that marks each write on stderr,
# as sys.stdout is under PYTHONUNBUFFERED.
COUNTED_STDOUT = (
    "import io, os, sys\n"
    "class Counted(io.RawIOBase):\n"
    "    def writable(self):\n"
    "        return True\n"
    "    def write(self, data):\n"
    "        os.write(2, b'.')\n"
    "        return os.write(1, data)\n"
    "sys.stdout = io.TextIOWrapper(Counted(), encoding='utf-8', write_through=True)\n"
    "sys.argv = ['stablecoh', *sys.argv[1:]]\n"
    "from stablecoh.cli import entrypoint\n"
    "entrypoint()\n"
)


def test_write_through_stdout_gets_the_report_in_blocks():
    args = ("gl-cohomology", "--n", "14", "--format", "json", "--jobs", "1")
    result = subprocess.run([sys.executable, "-c", COUNTED_STDOUT, *args], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
                            timeout=120)
    assert result.returncode == 0
    assert result.stdout == run_module(*args).stdout
    # 35 KB in 8 KB blocks; written as the encoder yields it, it takes 4,344 writes.
    assert len(result.stdout) > 32_000
    assert 1 <= len(result.stderr) <= 8 and set(result.stderr) == {ord(".")}


# Each golden case in a forked copy of one interpreter, its stdout and stderr
# in files: the real standard streams, as that interpreter's start set them up.
FORKED_CASES = (
    "import json, os, sys\n"
    "from stablecoh.cli import entrypoint\n"
    "codes = {}\n"
    "for case, argv in json.loads(sys.argv[1]).items():\n"
    "    pid = os.fork()\n"
    "    if pid == 0:\n"
    "        for fd, suffix in ((1, '.out'), (2, '.err')):\n"
    "            os.dup2(os.open(case + suffix, os.O_WRONLY | os.O_CREAT), fd)\n"
    "        sys.argv = ['stablecoh', *argv]\n"
    "        entrypoint()\n"
    "    codes[case] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
    "print(json.dumps(codes))\n"
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("buffering", BUFFERING)
def test_golden_reports_leave_the_process_whole(buffering, tmp_path):
    all_cases = cases()
    result = subprocess.run([sys.executable, "-c", FORKED_CASES, json.dumps(all_cases)],
                            cwd=tmp_path, env=child_env(**buffering), stdin=subprocess.DEVNULL,
                            capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr
    codes = json.loads(result.stdout)
    assert len(codes) == len(all_cases) == 76
    for case in all_cases:
        assert codes[case] == INDEX[case]["exit"], case
        assert (tmp_path / f"{case}.out").read_bytes() == (GOLDEN / f"{case}.out").read_bytes()
        assert (tmp_path / f"{case}.err").read_text(encoding="utf-8") == INDEX[case]["stderr"]
