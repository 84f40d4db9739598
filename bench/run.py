"""End-to-end benchmark of the stablecoh CLI, with an optional traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every invocation is a fresh
``python3 -m stablecoh <subcommand> ... --format json`` process with an
explicit ``--jobs``, launched one at a time. A pass runs every invocation of
the workload once; passes repeat, each with fresh per-invocation seeds
derived from ``--seed``, until the next one would end after ``--seconds``
(at least MIN_PASSES). Every report goes through the correctness gate, and
an invocation that exits non-zero or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced pass on the same inputs (see tracer.py) and
prints the per-layer metrics plus ``trace.overhead_frac``. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "stablecoh"
DIGESTS = BENCH_DIR / "digests.json"
POINTS_FILE = "bench/points.json"

sys.path.insert(0, str(BENCH_DIR))
from tracer import SPAN_MARKER  # noqa: E402

WORKLOADS = ("lemma-wide", "plane-squares", "quick-commands")
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3

# On a shared VM the cost of starting an interpreter drifts by 30-60% over
# minutes, which no run length averages out. setup_s is therefore scaled by a
# reference probe timed next to it: a fresh interpreter that imports the
# standard-library modules stablecoh uses, and nothing from src/. The reported
# setup_s is raw * REFERENCE_S / median reference-probe wall time.
SETUP_CODE = "import stablecoh.cli"
REFERENCE_CODE = ("import argparse, collections, concurrent.futures, csv, dataclasses,"
                  " fractions, functools, io, itertools, json, math, random, re, typing,"
                  " warnings")
REFERENCE_S = 0.125
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "cmd_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.bareiss_s": "s",
    "linalg.gram_s": "s",
    "linalg.gram_share": "1",
    "linalg.rank_deficient_share": "1",
    "linalg.rank_max_bits": "bit",
    "linalg.rank_cells": "count",
    "linalg.kernel_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.clear_denominators_s": "s",
    "conditions.build_s": "s",
    "conditions.build_cells": "count",
    "conditions.square_self_s": "s",
    "conditions.square_rows": "count",
    "conditions.scan_self_s": "s",
    "conditions.pool_starts": "count",
    "monomials.enumerate_s": "s",
    "monomials.cache_hit_ratio": "1",
    "points.sample_s": "s",
    "points.gp_checks": "count",
    "points.gp_accept_ratio": "1",
    "points.parse_s": "s",
    "tables.gl_s": "s",
    "tables.gaussian_s": "s",
    "tables.config_bm_s": "s",
    "e1.assemble_s": "s",
    "e1.dual_s": "s",
    "e1.band_s": "s",
    "e1.stable_match_s": "s",
    "e1.stable_range_s": "s",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "trace.overhead_frac": "1",
}


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One CLI process: its arguments and the check its JSON report must pass."""

    args: tuple[str, ...]
    check: Callable[[dict], bool] | None  # None: stdout must match a frozen digest

    @property
    def key(self) -> str:
        return " ".join(self.args)


def derive_seed(seed: int, pass_index: int, slot: int) -> int:
    digest = hashlib.sha256(f"{seed}/{pass_index}/{slot}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def lemma_ok(d: int, n: int, N: int, trials: int) -> Callable[[dict], bool]:
    expected = N * (n + 1)

    def check(doc: dict) -> bool:
        report = doc["report"]
        probe = report["collinear_probe"]
        return (
            report["verified"] is True
            and len(report["results"]) == trials
            and all(r["codimension"] == expected for r in report["results"])
            and not report["counterexamples"]
            and probe is not None
            and probe["below_generic"] is True
            and probe["within_line_bound"] is True
        )

    return check


def hilbert_ok(n: int, N: int) -> Callable[[dict], bool]:
    # Only valid at d >= 2N-1, where both squares reach N(n+1).
    def check(doc: dict) -> bool:
        report = doc["report"]
        return report["symbolic"] == report["ordinary"] == N * (n + 1)

    return check


def regularity_ok(N: int) -> Callable[[dict], bool]:
    return lambda doc: doc["report"]["stabilization_degree"] <= 2 * N - 1


def d0_ok(N: int) -> Callable[[dict], bool]:
    return lambda doc: doc["report"]["d0"] <= 2 * N - 1


def verify_lemma(d, n, N, trials, seed) -> Invocation:
    args = ("verify-lemma", "--d", str(d), "--n", str(n), "--N", str(N),
            "--trials", str(trials), "--seed", str(seed), "--jobs", "1")
    return Invocation(args, lemma_ok(d, n, N, trials))


def hilbert(d, n, N, seed) -> Invocation:
    if d < 2 * N - 1:
        raise ValueError(f"hilbert check needs d >= 2N-1, got d={d}, N={N}")
    args = ("hilbert", "--d", str(d), "--n", str(n), "--N", str(N),
            "--seed", str(seed), "--jobs", "1")
    return Invocation(args, hilbert_ok(n, N))


# Seedless reports of quick-commands; their bytes are checked against digests.json.
SEEDLESS = (
    ("gl-cohomology", "--n", "14"),
    ("gl-cohomology", "--n", "6"),
    ("stable-verify", "--n", "8"),
    ("stable-verify", "--n", "3"),
    ("band", "--d", "35", "--n", "3", "--N", "18"),
    ("band", "--d", "19", "--n", "1", "--N", "10"),
    ("e1-page", "--d", "23", "--n", "2", "--N", "12"),
    ("e1-page", "--d", "35", "--n", "3", "--N", "18"),
    ("stable-range", "--d", "41", "--n", "6"),
    ("grassmann", "--l", "4", "--n", "9"),
    ("config-homology", "--l", "3", "--n", "6"),
    ("codim", "--d", "3", "--points", POINTS_FILE),
)


def plan(workload: str, seed: int, pass_index: int, jobs_cap: int) -> list[Invocation]:
    """The invocations of one pass; the same arguments always give the same list."""
    s = [derive_seed(seed, pass_index, slot) for slot in range(4)]
    # In the two heavy workloads one invocation kind outnumbers the other, so
    # cmd_p50_s lands inside one cluster of similar invocations.
    if workload == "lemma-wide":
        # Wide, low-bit, full-rank condition matrices (32x816 and 30x1365).
        return [
            verify_lemma(15, 3, 8, 4, s[0]),
            verify_lemma(11, 4, 6, 4, s[1]),
            verify_lemma(15, 3, 8, 4, s[2]),
        ]
    if workload == "plane-squares":
        # P^2: at most 300 columns, 150-180-bit entries, a rank-deficient
        # product matrix and Fraction-RREF kernels in the ordinary square.
        return [
            verify_lemma(23, 2, 12, 1, s[0]),
            hilbert(8, 2, 4, s[1]),
            verify_lemma(23, 2, 12, 1, s[2]),
            verify_lemma(23, 2, 12, 1, s[3]),
        ]
    if workload == "quick-commands":
        pool_jobs = str(min(2, jobs_cap))
        invocations = [Invocation(args + ("--jobs", "1"), None) for args in SEEDLESS]
        invocations.append(Invocation(
            ("regularity", "--n", "2", "--N", "4", "--seed", str(s[0]), "--jobs", "1"),
            regularity_ok(4)))
        invocations.append(Invocation(
            ("d0-scan", "--n", "3", "--N", "6", "--trials", "50", "--seed", str(s[1]),
             "--jobs", pool_jobs),
            d0_ok(6)))
        return invocations
    raise ValueError(f"unknown workload {workload!r}")


# --- running and checking -----------------------------------------------------


@dataclass
class Outcome:
    """What one child process did: times, memory, exit code and output.

    net_s is the wall time minus the time the VM host took from this machine's
    CPUs (steal) meanwhile; on a machine without steal accounting it is wall_s.
    """

    wall_s: float
    net_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STABLECOH_SEED", None)  # seeds come only from the flags
    # Time imports from the bytecode cache, as an installed package runs.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def stolen_s() -> float:
    """Steal time of all CPUs so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


def launch(argv: list[str], env: dict[str, str]) -> Outcome:
    """Run one child to exit; CPU and memory include its own children."""
    stolen = stolen_s()
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            err: list[bytes] = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # leaving the with block then reaps it
            raise
        wall = time.perf_counter() - start
        stolen = stolen_s() - stolen
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, max(wall - stolen, 0.0), usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, proc.returncode, out, err[0])


def passes_gate(inv: Invocation, code: int, stdout: bytes, digests: dict[str, str]) -> bool:
    """True when the invocation exited 0 and its report passes the workload's check."""
    if code != 0:
        return False
    if inv.check is None:
        return hashlib.sha256(stdout).hexdigest() == digests.get(inv.key)
    try:
        doc = json.loads(stdout)
        return bool(inv.check(doc))
    except (ValueError, KeyError, TypeError):
        return False


def failed_frac(attempted: int, failed: int) -> float:
    return failed / attempted


def cli_argv(inv: Invocation) -> list[str]:
    return [sys.executable, "-m", "stablecoh", *inv.args, "--format", "json"]


def traced_argv(inv: Invocation, invocation_id: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), invocation_id,
            *inv.args, "--format", "json"]


def split_spans(stderr: bytes) -> dict | None:
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith(SPAN_MARKER):
            return json.loads(line[len(SPAN_MARKER):])
    return None


@dataclass
class PassResult:
    """Sums over one pass; commands holds each invocation's net time."""

    wall_s: float = 0.0
    net_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    commands: list[float] = field(default_factory=list)
    traces: list[tuple[dict, int]] = field(default_factory=list)  # (spans, stdout bytes)


def run_pass(invocations: list[Invocation], env: dict[str, str], digests: dict[str, str],
             trace_prefix: str | None = None) -> PassResult:
    result = PassResult()
    for i, inv in enumerate(invocations):
        if trace_prefix is None:
            outcome = launch(cli_argv(inv), env)
        else:
            outcome = launch(traced_argv(inv, f"{trace_prefix}.{i}"), env)
            doc = split_spans(outcome.stderr)
            if doc is not None:
                result.traces.append((doc, len(outcome.stdout)))
        ok = passes_gate(inv, outcome.code, outcome.stdout, digests)
        if not ok:
            tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED (exit {outcome.code}): {inv.key} {' '.join(tail)}"[:400],
                  file=sys.stderr)
        result.attempted += 1
        result.failed += not ok
        result.wall_s += outcome.wall_s
        result.net_s += outcome.net_s
        result.cpu_s += outcome.cpu_s
        result.rss_mb = max(result.rss_mb, outcome.rss_mb)
        result.commands.append(outcome.net_s)
    return result


def probe(code: str, env: dict[str, str]) -> float:
    """Net wall time of a fresh interpreter running `code`."""
    outcome = launch([sys.executable, "-c", code], env)
    if outcome.code != 0:
        raise RuntimeError(f"probe {code!r} failed: "
                           + outcome.stderr.decode(errors="replace").strip())
    return outcome.net_s


# --- per-layer aggregation ----------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


BUILD_SPANS = {"conditions.singularity_matrix", "conditions.evaluation_matrix"}
SCAN_SPANS = {"conditions.verify_codim_lemma", "conditions.general_position_bound",
              "conditions.regularity_profile"}
SAMPLE_SPANS = {"points.random_configuration", "points.random_general_position_configuration",
                "points.random_point"}


def layer_totals(doc: dict, report_bytes: int) -> dict[str, float]:
    """Raw per-invocation sums from one span document."""
    spans = doc["spans"]
    own = self_times(spans)
    names = [span[0] for span in spans]

    def outermost(wanted: set[str]) -> float:
        total = 0.0
        for name, start, end, parent, _ in spans:
            if name not in wanted:
                continue
            while parent >= 0 and names[parent] not in wanted:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_of(wanted: set[str]) -> float:
        return sum(t for name, t in zip(names, own) if name in wanted)

    def calls(name: str) -> int:
        return names.count(name)

    ranks = [s[4] for s in spans if s[0] == "linalg.integer_rank"]
    builds = [s[4] for s in spans if s[0] in BUILD_SPANS]
    gp = [s[4]["ok"] for s in spans if s[0] == "points.in_general_linear_position"]
    square_rows = sum(s[4]["rows"] for s in spans
                      if s[0] == "linalg.integer_rank" and s[3] >= 0
                      and names[s[3]] == "conditions.ordinary_square_dim")
    counters = doc["counters"]
    return {
        "rank_s": outermost({"linalg.integer_rank"}),
        "rank_calls": len(ranks),
        "rank_deficient": sum(r["deficient"] for r in ranks),
        "rank_max_bits": max((r["bits"] for r in ranks), default=0),
        "rank_cells": sum(r["rows"] * r["cols"] for r in ranks),
        "bareiss_s": outermost({"linalg.bareiss_rank"}),
        "gram_s": outermost({"linalg.gram_matrix"}),
        "gram_calls": calls("linalg.gram_matrix"),
        "kernel_s": outermost({"linalg.kernel_basis"}),
        "kernel_calls": calls("linalg.kernel_basis"),
        "clear_denominators_s": outermost({"linalg.clear_denominators"}),
        "build_s": self_of(BUILD_SPANS),
        "build_cells": sum(b["rows"] * b["cols"] for b in builds),
        "square_self_s": self_of({"conditions.ordinary_square_dim"}),
        "square_rows": square_rows,
        "scan_self_s": self_of(SCAN_SPANS),
        "pool_starts": counters["pool_starts"],
        "enumerate_s": outermost({"monomials.enumerate_monomials", "monomials.monomial_index"}),
        "monomial_hits": counters["monomial_hits"],
        "monomial_misses": counters["monomial_misses"],
        "sample_s": outermost(SAMPLE_SPANS),
        "gp_checks": len(gp),
        "gp_accepted": sum(gp),
        "parse_s": outermost({"points.parse_points_json"}),
        "gl_s": outermost({"tables.gl_cohomology"}),
        "gaussian_s": outermost({"tables.gaussian_binomial"}),
        "config_bm_s": outermost({"tables.twisted_config_bm"}),
        "assemble_s": outermost({"e1.assemble_e1"}),
        "dual_s": outermost({"e1.alexander_dual", "e1.dual_classes"}),
        "band_s": outermost({"e1.vanishing_band"}),
        "stable_match_s": outermost({"e1.verify_stable_match"}),
        "stable_range_s": outermost({"e1.stable_range_report"}),
        "import_s": counters["import_s"],
        "main_self_s": sum(t for name, t in zip(names, own)
                           if name.startswith("cli.") and name != "cli.emit"),
        "emit_s": outermost({"cli.emit"}),
        "emit_bytes": report_bytes,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its invocations' raw sums."""
    t = {key: sum(x[key] for x in totals) for key in totals[0]}
    t["rank_max_bits"] = max(x["rank_max_bits"] for x in totals)
    return {
        "linalg.rank_s": t["rank_s"],
        "linalg.rank_calls": t["rank_calls"],
        "linalg.bareiss_s": t["bareiss_s"],
        "linalg.gram_s": t["gram_s"],
        "linalg.gram_share": ratio(t["gram_calls"], t["rank_calls"]),
        "linalg.rank_deficient_share": ratio(t["rank_deficient"], t["rank_calls"]),
        "linalg.rank_max_bits": t["rank_max_bits"],
        "linalg.rank_cells": t["rank_cells"],
        "linalg.kernel_s": t["kernel_s"],
        "linalg.kernel_calls": t["kernel_calls"],
        "linalg.clear_denominators_s": t["clear_denominators_s"],
        "conditions.build_s": t["build_s"],
        "conditions.build_cells": t["build_cells"],
        "conditions.square_self_s": t["square_self_s"],
        "conditions.square_rows": t["square_rows"],
        "conditions.scan_self_s": t["scan_self_s"],
        "conditions.pool_starts": t["pool_starts"],
        "monomials.enumerate_s": t["enumerate_s"],
        "monomials.cache_hit_ratio": ratio(
            t["monomial_hits"], t["monomial_hits"] + t["monomial_misses"]),
        "points.sample_s": t["sample_s"],
        "points.gp_checks": t["gp_checks"],
        "points.gp_accept_ratio": ratio(t["gp_accepted"], t["gp_checks"]),
        "points.parse_s": t["parse_s"],
        "tables.gl_s": t["gl_s"],
        "tables.gaussian_s": t["gaussian_s"],
        "tables.config_bm_s": t["config_bm_s"],
        "e1.assemble_s": t["assemble_s"],
        "e1.dual_s": t["dual_s"],
        "e1.band_s": t["band_s"],
        "e1.stable_match_s": t["stable_match_s"],
        "e1.stable_range_s": t["stable_range_s"],
        "cli.import_s": t["import_s"],
        "cli.main_self_s": t["main_self_s"],
        "cli.emit_s": t["emit_s"],
        "cli.emit_bytes": t["emit_bytes"],
    }


# --- the benchmark ------------------------------------------------------------


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def freeze_digests() -> None:
    """Rewrite digests.json from the current program's seedless reports."""
    env = child_env()
    digests = {}
    for args in SEEDLESS:
        inv = Invocation(args + ("--jobs", "1"), None)
        outcome = launch(cli_argv(inv), env)
        if outcome.code != 0:
            raise RuntimeError(f"{inv.key} exited {outcome.code}")
        digests[inv.key] = hashlib.sha256(outcome.stdout).hexdigest()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "workload": workload,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    digests = load_digests()
    jobs_cap = len(os.sched_getaffinity(0))
    probe(SETUP_CODE, env)  # untimed: compiles the bytecode cache a user already has
    start = time.perf_counter()
    setups: list[float] = []
    references: list[float] = []
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    index = 0
    while True:
        invocations = plan(workload, seed, index, jobs_cap)
        if trace:
            traced.append(run_pass(invocations, env, digests, trace_prefix=f"p{index}"))
        else:
            for _ in range(SETUP_PROBES_PER_PASS):
                setups.append(probe(SETUP_CODE, env))
                references.append(probe(REFERENCE_CODE, env))
        passes.append(run_pass(invocations, env, digests))
        index += 1
        elapsed = time.perf_counter() - start
        # Stop before a pass that would end past the deadline.
        if index >= MIN_PASSES and elapsed * (index + 1) / index > seconds:
            break

    done = passes + traced
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    if trace:
        per_pass = [layer_metrics([layer_totals(doc, size) for doc, size in p.traces])
                    for p in traced if p.traces]
        if not per_pass:
            raise RuntimeError("no traced invocation wrote its spans")
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_frac"] = statistics.median(
            t.net_s / u.net_s - 1 for t, u in zip(traced, passes))
        units = PER_LAYER
    else:
        setup_raw = statistics.median(setups)
        reference = statistics.median(references)
        metrics = {
            "wall_s": statistics.median(p.net_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "cmd_p50_s": statistics.median(t for p in passes for t in p.commands),
            "setup_s": setup_raw * REFERENCE_S / reference,
            "peak_rss_mb": max(p.rss_mb for p in passes),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{workload:15s} {name:30s} {value:14.6f} {units[name]}")
    if not trace:
        print(f"{workload:15s} {'setup_s unscaled':30s} {setup_raw:14.6f} s"
              f"  (reference probe {reference:.6f} s)")
        print(f"{workload:15s} {'wall_s with steal':30s} "
              f"{statistics.median(p.wall_s for p in passes):14.6f} s")
    print(f"{workload:15s} {'failed_frac':30s} {failed_frac(attempted, failed):14.6f} 1"
          f"  ({failed} of {attempted} invocations, {len(passes)} passes)")
    print(json.dumps({"provenance": provenance(workload, seed)}))
    print(json.dumps({"samples": {"pass_wall_s": [p.wall_s for p in passes],
                                  "pass_net_s": [p.net_s for p in passes],
                                  "traced_pass_net_s": [p.net_s for p in traced],
                                  "setup_s": setups,
                                  "reference_s": references,
                                  "pass_cpu_s": [p.cpu_s for p in passes],
                                  "commands_s": [c for p in passes for c in p.commands]}}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through launch(), which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (PACKAGE / "cli.py").is_file():
        print(f"bench: no stablecoh sources under {PACKAGE.parent}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
