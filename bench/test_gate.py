"""Checks of the benchmark's own correctness gate and span arithmetic.

    python3 -m pytest -q bench/test_gate.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


@pytest.fixture(scope="module")
def lemma_report():
    """A real verify-lemma run: its invocation and the process outcome."""
    inv = run.verify_lemma(3, 1, 2, 2, seed=5)
    outcome = run.launch(run.cli_argv(inv), run.child_env())
    assert outcome.code == 0, outcome.stderr
    return inv, outcome


def doctored(outcome, edit):
    doc = json.loads(outcome.stdout)
    edit(doc["report"])
    return run.Outcome(outcome.wall_s, outcome.net_s, outcome.cpu_s, outcome.rss_mb,
                       outcome.code, json.dumps(doc).encode(), b"")


def test_doctored_report_is_counted_in_failed_frac(monkeypatch, lemma_report):
    inv, outcome = lemma_report

    def wrong_trial(report):
        report["results"][0]["codimension"] -= 1

    outcomes = iter([outcome, doctored(outcome, wrong_trial)])
    monkeypatch.setattr(run, "launch", lambda argv, env: next(outcomes))
    result = run.run_pass([inv, inv], env={}, digests={})
    assert (result.attempted, result.failed) == (2, 1)
    assert run.failed_frac(result.attempted, result.failed) == 0.5


@pytest.mark.parametrize("edit", [
    lambda r: r.update(verified=False),
    lambda r: r["results"].pop(),
    lambda r: r["counterexamples"].append({"trial": 0}),
    lambda r: r["collinear_probe"].update(below_generic=False),
    lambda r: r["collinear_probe"].update(within_line_bound=False),
    lambda r: r.update(collinear_probe=None),
    lambda r: r.pop("results"),
])
def test_gate_rejects_doctored_lemma_reports(lemma_report, edit):
    inv, outcome = lemma_report
    assert run.passes_gate(inv, 0, outcome.stdout, {})
    bad = doctored(outcome, edit)
    assert not run.passes_gate(inv, 0, bad.stdout, {})


def test_gate_rejects_nonzero_exit_and_bad_json(lemma_report):
    inv, outcome = lemma_report
    assert not run.passes_gate(inv, 1, outcome.stdout, {})
    assert not run.passes_gate(inv, 0, outcome.stdout[:-20], {})


@pytest.mark.parametrize("inv, good, bad", [
    (run.hilbert(8, 2, 4, 1), {"symbolic": 12, "ordinary": 12}, {"symbolic": 12, "ordinary": 13}),
    (run.plan("quick-commands", 0, 0, 2)[-2], {"stabilization_degree": 7},
     {"stabilization_degree": 8}),
    (run.plan("quick-commands", 0, 0, 2)[-1], {"d0": 11}, {"d0": 12}),
])
def test_gate_checks_degrees_and_squares(inv, good, bad):
    assert run.passes_gate(inv, 0, json.dumps({"report": good}).encode(), {})
    assert not run.passes_gate(inv, 0, json.dumps({"report": bad}).encode(), {})


def test_seedless_reports_are_checked_by_digest():
    digests = run.load_digests()
    seedless = [inv for inv in run.plan("quick-commands", 0, 0, 2) if inv.check is None]
    assert sorted(inv.key for inv in seedless) == sorted(digests)
    inv = seedless[0]
    assert not run.passes_gate(inv, 0, b"{}\n", digests)


def test_jobs_never_exceed_available_cpus():
    for workload in run.WORKLOADS:
        for inv in run.plan(workload, 3, 0, jobs_cap=1):
            args = list(inv.args)
            assert args[args.index("--jobs") + 1] == "1"


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["conditions.codimension", 1.0, 7.0, 0, None],
        ["linalg.integer_rank", 2.0, 6.0, 1, None],
        ["cli.emit", 8.0, 9.0, 0, None],
    ]
    assert run.self_times(spans) == [3.0, 2.0, 4.0, 1.0]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
