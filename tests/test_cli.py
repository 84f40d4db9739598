"""CLI contract: formats, exit codes, determinism, schema validation."""

import argparse
import json
import os
import warnings
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest

from stablecoh import cli
from stablecoh.cli import COMMANDS, SEED_ENV_VAR, build_parser, main
from stablecoh.tables import GradedTateVector, gl_cohomology

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def validator():
    text = resources.files("stablecoh").joinpath("schemas/report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


JSON_INVOCATIONS = [
    ["codim", "--d", "3", "--n", "1", "--N", "2", "--seed", "4"],
    ["codim", "--d", "3", "--points", '[["1","0","0"],["0","1","0"],["0","0","1"]]'],
    ["verify-lemma", "--d", "3", "--n", "1", "--N", "2", "--trials", "5", "--seed", "7"],
    ["hilbert", "--d", "3", "--points", '[["1","0","0"],["0","1","0"],["0","0","1"]]'],
    ["regularity", "--n", "1", "--N", "2", "--seed", "2", "--d-max", "5"],
    ["d0-scan", "--n", "1", "--N", "2", "--trials", "3", "--seed", "2", "--d-max", "4"],
    ["grassmann", "--l", "2", "--n", "3"],
    ["config-homology", "--l", "2", "--n", "1"],
    ["gl-cohomology", "--n", "4"],
    ["e1-page", "--d", "19", "--n", "1", "--N", "10"],
    ["stable-verify", "--n", "2"],
    ["band", "--d", "19", "--n", "1", "--N", "10"],
    ["stable-range", "--d", "5", "--n", "2"],
]


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: " ".join(a[:3]))
def test_json_reports_validate_against_schema(capsys, validator, argv):
    code, out = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    validator.validate(doc)
    assert doc["artifact"] == "stablecoh"
    assert doc["command"] == argv[0]
    assert "seed" in doc and "params" in doc


def test_golden_json_reports_match_schema(validator):
    # The golden reports pin every subcommand's bytes, so validating them keeps
    # the hand-kept schema from drifting away from the CLI.
    docs = [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(GOLDEN.glob("*.json.out")) if path.stat().st_size]
    for doc in docs:
        validator.validate(doc)
    commands = validator.schema["properties"]["command"]["enum"]
    assert commands == list(COMMANDS)
    assert {doc["command"] for doc in docs} == set(COMMANDS)


def test_exit_zero_on_verified(capsys):
    code, _ = run_cli(capsys, ["stable-verify", "--n", "3"])
    assert code == 0


def test_exit_one_on_scan_failure(capsys, validator):
    # d_max below the guaranteed degree: the scan cannot reach stability
    code, out = run_cli(
        capsys,
        ["d0-scan", "--n", "1", "--N", "2", "--trials", "2", "--d-max", "2",
         "--seed", "1", "--format", "json"],
    )
    assert code == 1
    doc = json.loads(out)
    validator.validate(doc)
    assert "error" in doc["report"]


def test_hilbert_reports_both_squares(capsys):
    coords = '[["1","0","0"],["0","1","0"],["0","0","1"]]'
    _, out = run_cli(capsys, ["hilbert", "--d", "3", "--points", coords,
                              "--format", "json"])
    report = json.loads(out)["report"]
    assert report["symbolic"] == 9
    assert report["ordinary"] == 10
    assert report["agree"] is False
    _, out = run_cli(capsys, ["hilbert", "--d", "6", "--points", coords,
                              "--format", "json"])
    report = json.loads(out)["report"]
    assert report["symbolic"] == report["ordinary"] == 9


def test_codim_dimension_mismatch_is_usage_error(capsys):
    code = main(["codim", "--d", "3", "--n", "3",
                 "--points", '[["1","0"],["0","1"]]'])
    captured = capsys.readouterr()
    assert code == 2
    assert "does not match" in captured.err


def test_exit_two_on_usage_error(capsys):
    code, _ = run_cli(capsys, ["codim", "--d", "3"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", "--d", "3"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# The golden set pins `regularity --N 0` and `d0-scan --n 0` byte for byte.
@pytest.mark.parametrize("argv", [
    ["codim", "--d", "3", "--n", "0", "--N", "3"],
    ["codim", "--d", "3", "--n", "2", "--N", "0"],
    ["hilbert", "--d", "3", "--n", "-1", "--N", "2"],
    ["d0-scan", "--n", "2", "--N", "0"],
])
def test_sampling_refuses_dimension_or_count_below_one(capsys, argv):
    code = main(argv + ["--jobs", "1"])
    assert code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_malformed_points_file_reports_position(capsys, tmp_path):
    bad = tmp_path / "points.json"
    bad.write_text('[["1", "0"], ["2", "oops"]]')
    code = main(["codim", "--d", "3", "--points", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "point 1, coordinate 1" in captured.err
    assert "'oops'" in captured.err


def test_missing_points_file_is_usage_error(capsys):
    code = main(["codim", "--d", "3", "--points", "/nonexistent/points.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read points file" in captured.err


def test_points_file_roundtrip(capsys, tmp_path):
    fname = tmp_path / "pts.json"
    fname.write_text('[["1", "0"], ["0", "1"]]')
    code, out = run_cli(capsys, ["codim", "--d", "3", "--points", str(fname),
                                 "--format", "json"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["codimension"] == 4
    assert report["points"] == [["1", "0"], ["0", "1"]]


def test_env_seed_is_honored_and_echoed(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "17")
    code, out = run_cli(capsys, ["codim", "--d", "3", "--n", "1", "--N", "2",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 17
    assert doc["seed_source"] == "env"
    # explicit flag wins over the environment
    _, out2 = run_cli(capsys, ["codim", "--d", "3", "--n", "1", "--N", "2",
                               "--seed", "3", "--format", "json"])
    doc2 = json.loads(out2)
    assert doc2["seed"] == 3 and doc2["seed_source"] == "flag"


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    for value in ("not-a-number", "-5"):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        code = main(["codim", "--d", "3", "--n", "1", "--N", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert SEED_ENV_VAR in captured.err
        assert captured.out == ""


def test_negative_seed_and_jobs_below_one_are_usage_errors(capsys):
    base = ["verify-lemma", "--d", "3", "--n", "1", "--N", "2", "--trials", "4"]
    for extra, flag in [(["--seed", "-5"], "--seed"),
                        (["--jobs", "0"], "--jobs"),
                        (["--jobs", "-2"], "--jobs")]:
        code = main(base + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {flag}" in captured.err
        assert captured.out == ""


def test_jobs_flag_does_not_change_bytes(capsys):
    base = ["verify-lemma", "--d", "3", "--n", "1", "--N", "2", "--trials", "6",
            "--seed", "11", "--format", "json"]
    _, out1 = run_cli(capsys, base + ["--jobs", "1"])
    _, out2 = run_cli(capsys, base + ["--jobs", "2"])
    assert out1 == out2
    assert "jobs" not in json.loads(out1)


def test_repeated_invocations_identical(capsys):
    argv = ["d0-scan", "--n", "2", "--N", "2", "--trials", "3", "--seed", "5",
            "--d-max", "3", "--format", "json"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2


def test_gl_cohomology_csv(capsys):
    code, out = run_cli(capsys, ["gl-cohomology", "--n", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim,tate"
    assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
        ("0", "1"), ("1", "1"), ("3", "1"), ("4", "1")
    ]


def test_pure_table_refuses_a_mixed_degree():
    # grassmann, config-homology and the e1-page columns write one (dim, tate) per degree.
    table = GradedTateVector.from_components([(2, 1, 1), (0, 1, 0)])
    assert cli._pure(table) == {0: (1, 0), 2: (1, 1)}
    with pytest.raises(ValueError, match="degree 9 has 2 components, expected 1"):
        cli._pure(gl_cohomology(4))


def test_grassmann_of_large_space_has_no_recursion_limit(capsys):
    # [1501, 3]_q needs no recursion depth that grows with n.
    code, out = run_cli(capsys, ["grassmann", "--l", "3", "--n", "1500", "--format", "json"])
    assert code == 0
    assert json.loads(out)["report"]["total_dim"] == comb(1501, 3) == 562_499_750


def test_e1_page_csv_columns(capsys):
    code, out = run_cli(capsys, ["e1-page", "--d", "19", "--n", "1", "--N", "10",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,bm_degree,dual_degree,dim,weight"
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert (1, 38, 1, 1, 2) in rows
    assert (2, 35, 4, 1, 6) in rows
    for l, bm, dual, dim, weight in rows:
        assert weight - dual == l


def test_table_format_embeds_params_seed_version(capsys):
    code, out = run_cli(capsys, ["grassmann", "--l", "1", "--n", "1"])
    assert code == 0
    head = out.splitlines()
    assert head[0].startswith("stablecoh 0.")
    assert head[1] == "params: l=1 n=1"
    assert head[2].startswith("seed: 0 (default)")


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, ["band", "--d", "19", "--n", "1", "--N", "10",
                                 "--format", "json", "--output", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["report"]["verified"] is True


def test_unwritable_output_is_refused_before_the_handler(capsys, monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("handler ran")

    monkeypatch.setattr(cli, "verify_codim_lemma", never)
    target = tmp_path / "missing" / "r.json"
    code = main(["verify-lemma", "--d", "19", "--n", "3", "--N", "10", "--trials", "100",
                 "--output", str(target)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"stablecoh: error: cannot write report: [Errno 2] No such file or directory: "
        f"'{target}'\n"
    )


def test_failed_run_creates_no_output_and_keeps_an_existing_one(capsys, tmp_path):
    too_large = ["codim", "--d", "60", "--n", "6", "--N", "2", "--output"]
    target = tmp_path / "r.json"
    assert main(too_large + [str(target)]) == 2
    assert not target.exists()
    target.write_bytes(b"earlier report\n")
    assert main(too_large + [str(target)]) == 2
    assert target.read_bytes() == b"earlier report\n"
    assert "too large" in capsys.readouterr().err


def test_e1_page_outside_regime_writes_nothing_to_stderr(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["e1-page", "--d", "3", "--n", "1", "--N", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err, caught) == (0, "", [])
    report = json.loads(captured.out)["report"]
    assert report["guaranteed"] is False
    assert len(report["regime_notes"]) == 2


def test_band_exit_matches_verified(capsys):
    code, out = run_cli(capsys, ["band", "--d", "19", "--n", "1", "--N", "10",
                                 "--format", "json"])
    assert code == 0 and json.loads(out)["report"]["verified"]


def test_stable_range_refusal_is_usage_error(capsys):
    code = main(["stable-range", "--d", "2", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "degree must be >= 3" in captured.err


def test_verify_lemma_table_output(capsys):
    code, out = run_cli(capsys, ["verify-lemma", "--d", "3", "--n", "1", "--N", "2",
                                 "--trials", "4", "--seed", "7"])
    assert code == 0
    assert "expected codimension: 4" in out
    assert "collinear probe at d=2" in out
    assert "verified: True" in out


# Each subcommand's options in parser order: (flag, required, default, type,
# choices). JOBS stands for the --jobs default, which is os.cpu_count().
JOBS = object()
FORMAT = ("--format", False, "table", None, ("json", "csv", "table"))
OUTPUT = ("--output", False, None, None, None)
JOBS_FLAG = ("--jobs", False, JOBS, "int", None)
SEED = ("--seed", False, None, "int", None)


def _int(flag, required=True, default=None):
    return (flag, required, default, "int", None)


POINTS_FLAGS = [_int("--n", False), _int("--N", False), ("--points", False, None, None, None)]
ARGUMENT_SURFACE = {
    "codim": [_int("--d")] + POINTS_FLAGS + [FORMAT, OUTPUT, JOBS_FLAG, SEED],
    "verify-lemma": [_int("--d"), _int("--n"), _int("--N"), _int("--trials", False, 50),
                     FORMAT, OUTPUT, JOBS_FLAG, SEED],
    "hilbert": [_int("--d")] + POINTS_FLAGS + [FORMAT, OUTPUT, JOBS_FLAG, SEED],
    "regularity": POINTS_FLAGS + [_int("--d-max", False), FORMAT, OUTPUT, JOBS_FLAG, SEED],
    "d0-scan": [_int("--n"), _int("--N"), _int("--trials", False, 50),
                _int("--d-max", False), FORMAT, OUTPUT, JOBS_FLAG, SEED],
    "grassmann": [_int("--l"), _int("--n"), FORMAT, OUTPUT, JOBS_FLAG],
    "config-homology": [_int("--l"), _int("--n"), FORMAT, OUTPUT, JOBS_FLAG],
    "gl-cohomology": [_int("--n"), FORMAT, OUTPUT, JOBS_FLAG],
    "e1-page": [_int("--d"), _int("--n"), _int("--N"), FORMAT, OUTPUT, JOBS_FLAG],
    "stable-verify": [_int("--n"), FORMAT, OUTPUT, JOBS_FLAG],
    "band": [_int("--d"), _int("--n"), _int("--N"), FORMAT, OUTPUT, JOBS_FLAG],
    "stable-range": [_int("--d"), _int("--n"), FORMAT, OUTPUT, JOBS_FLAG],
}


def test_argument_surface():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(ARGUMENT_SURFACE)
    jobs = os.cpu_count() or 1
    for name, expected in ARGUMENT_SURFACE.items():
        actual = [
            (a.option_strings[0], a.required, a.default,
             a.type.__name__ if a.type else None, a.choices)
            for a in sub.choices[name]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert actual == [
            (flag, req, jobs if default is JOBS else default, typ, choices)
            for flag, req, default, typ, choices in expected
        ], name


@pytest.mark.parametrize("name", list(COMMANDS))
def test_subcommand_help_matches_the_full_parser(name, capsys):
    # main builds flags for the invoked subcommand only; its help is unchanged.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([name, "--help"])
    assert exc.value.code == 0
    full = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == full
    assert f"usage: stablecoh {name}" in full
