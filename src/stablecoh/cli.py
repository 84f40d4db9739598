"""Command-line surface: reproducible, machine-readable verification runs.

One subcommand per verifiable artifact, declared in the COMMANDS table. Each
handler builds one Report from the library's plain records, which `emit`
writes as JSON, CSV or a table, so all three formats live in this module.
Every report embeds the parameters, the effective seed, and the library
version; JSON output is byte-identical for identical (subcommand, flags,
seed) regardless of --jobs, because trial seeds are derived up front and
aggregation is order-independent. Exit codes are the machine contract: 0
computed/verified, 1 falsified or unverified, 2 usage error or a report that
cannot be written, 120 a closed pipe. `main` returns the code and never ends
the process; `entrypoint`, which `python -m stablecoh` and the `stablecoh`
script run, exits with it, skipping interpreter teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from ._record import record
from .conditions import (
    StabilizationError,
    available_cpus,
    codimension,
    general_position_bound,
    hilbert_function,
    regularity_profile,
    verify_codim_lemma,
)
from .e1 import (
    alexander_dual,
    assemble_e1,
    dual_classes,
    stable_range_report,
    vanishing_band,
    verify_stable_match,
)
from .params import ParameterTriple, check_dimension_and_count
from .points import (
    PointConfiguration,
    SamplingError,
    parse_points_json,
    random_configuration,
)
from .tables import gl_cohomology, grassmannian_poincare, twisted_config_bm

SEED_ENV_VAR = "STABLECOH_SEED"


Report = record("Report", [
    "params",    # dict
    "payload",   # dict
    "csv_rows",  # list[tuple]
    "lines",     # list[str]
    "ok",        # bool, default True
], defaults=(True,))
Report.__doc__ = """One subcommand's outcome: the JSON payload, CSV rows and table lines.

    `ok` False means a checked property failed or a scan gave up (exit 1).
    """


def resolve_seed(flag_value: int | None) -> tuple[int, str]:
    """Seed precedence: explicit flag, then the environment, then 0.

    Negative seeds are refused: random.Random(-s) draws the same stream as
    Random(s), so two reports would claim different seeds for identical runs.
    """
    if flag_value is not None:
        if flag_value < 0:
            raise ValueError(f"--seed must be nonnegative, got {flag_value}")
        return flag_value, "flag"
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
        if seed < 0:
            raise ValueError(f"{SEED_ENV_VAR} must be nonnegative, got {seed}")
        return seed, "env"
    return 0, "default"


def load_configuration(args, seed: int) -> PointConfiguration:
    """Points from --points (inline JSON or a file path), else sampled.

    --n and --N are optional next to --points, but must then agree with it.
    """
    if args.points is None:
        if args.N is None:
            raise ValueError("either --points or --N is required")
        if args.n is None:
            raise ValueError("--n is required when sampling points")
        check_dimension_and_count(args.n, args.N)
        return random_configuration(args.n, args.N, random.Random(seed))
    text = args.points
    if not text.lstrip().startswith("["):
        try:
            with open(args.points, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read points file: {exc}") from None
    config = parse_points_json(text)
    if args.n is not None and args.n != config.dimension:
        raise ValueError(f"--n {args.n} does not match points of dimension {config.dimension}")
    if args.N is not None and args.N != config.count:
        raise ValueError(f"--N {args.N} does not match the {config.count} points given")
    return config


def _check_output(path: str) -> None:
    """Refuse an unopenable --output before any work; change no file's bytes."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write report: {exc}") from None
    if not existed:
        os.remove(path)


def _render_json(out, args, seed: int, seed_source: str, report: Report) -> None:
    envelope = {"artifact": "stablecoh", "version": __version__, "command": args.command,
                "params": report.params, "seed": seed, "seed_source": seed_source,
                "report": report.payload}
    json.dump(envelope, out, indent=2)
    out.write("\n")


def _render_csv(out, args, seed: int, seed_source: str, report: Report) -> None:
    import csv
    csv.writer(out, lineterminator="\n").writerows(report.csv_rows)


def _render_table(out, args, seed: int, seed_source: str, report: Report) -> None:
    header = [
        f"stablecoh {__version__} {args.command}",
        "params: " + " ".join(f"{k}={v}" for k, v in report.params.items()),
        f"seed: {seed} ({seed_source})",
    ]
    out.write("\n".join(header + report.lines) + "\n")


def emit(args, seed: int, seed_source: str, report: Report) -> None:
    """Render the report into --output or stdout and flush it, holding no copy of it.

    A closed pipe raises BrokenPipeError; any other failed write is a usage error.
    """
    render = {"json": _render_json, "csv": _render_csv, "table": _render_table}[args.format]
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                render(fh, args, seed, seed_source, report)
        else:
            render(sys.stdout, args, seed, seed_source, report)
            sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot write report: {exc}") from None


def _failed(params: dict, payload: dict) -> Report:
    """Report of a scan that gave up; payload["error"] holds the reason."""
    error = payload["error"]
    return Report(params, payload, [("error",), (error,)], [f"error: {error}"], ok=False)


def _pure(table) -> dict:
    """A pure table's {degree: (dim, tate)} JSON form; a mixed degree raises."""
    for deg, comps in table.items():
        if len(comps) != 1:
            raise ValueError(f"degree {deg} has {len(comps)} components, expected 1")
    return {deg: comps[0] for deg, comps in table.items()}


def _table_report(params: dict, payload: dict, table, *, total_line: bool = False) -> Report:
    """Report of one graded table: a degree/dim/tate row and line per component."""
    rows = list(table.iter_components())
    total = sum(dim for _, dim, _ in rows)
    lines = [f"degree {deg}: dim {dim}, tate {tate}" for deg, dim, tate in rows]
    if total_line:
        lines.append(f"total dimension: {total}")
    return Report(params, {**payload, "total_dim": total},
                  [("degree", "dim", "tate")] + rows, lines)


# --- subcommand handlers ------------------------------------------------------


def cmd_codim(args, seed):
    config = load_configuration(args, seed)
    n, N = config.dimension, config.count
    value = codimension(args.d, config)
    expected = N * (n + 1)
    payload = {
        "n": n,
        "N": N,
        "points": config.json_points(),
        "codimension": value,
        "expected_codimension": expected,
        "matches_expected": value == expected,
        "in_guaranteed_range": args.d >= 2 * N - 1,
    }
    params = {"d": args.d, "n": n, "N": N}
    csv_rows = [("d", "n", "N", "codimension", "expected"), (args.d, n, N, value, expected)]
    lines = [f"codimension: {value}", f"expected N(n+1): {expected}"]
    return Report(params, payload, csv_rows, lines)


def cmd_verify_lemma(args, seed):
    params_t = ParameterTriple(args.d, args.n, args.N)
    report = verify_codim_lemma(params_t, args.trials, seed, jobs=args.jobs)
    probe = report.collinear
    expected = params_t.expected_codimension
    payload = {
        "expected_codimension": expected,
        "in_guaranteed_range": params_t.in_guaranteed_range,
        "results": [{"trial": i, "codimension": v} for i, v in enumerate(report.codimensions)],
        "counterexamples": report.counterexamples,
        "collinear_probe": probe._asdict() if probe else None,
        "verified": report.verified,
        "trials": args.trials,
    }
    params = {"d": args.d, "n": args.n, "N": args.N, "trials": args.trials}
    csv_rows = [("trial", "codimension", "ok")] + [
        (i, v, v == expected) for i, v in enumerate(report.codimensions)
    ]
    lines = [
        f"expected codimension: {expected}",
        f"trials: {args.trials}, distinct codimensions seen: "
        + ",".join(str(v) for v in sorted(set(report.codimensions))),
        f"counterexamples: {len(report.counterexamples)}",
    ]
    if probe:
        lines.append(
            f"collinear probe at d={probe.degree}: codimension {probe.codimension} "
            f"(ceiling {probe.max_allowed}, line bound {probe.line_bound})"
        )
    lines.append(f"verified: {report.verified}")
    return Report(params, payload, csv_rows, lines, report.verified)


def cmd_hilbert(args, seed):
    config = load_configuration(args, seed)
    n, N = config.dimension, config.count
    symbolic = hilbert_function(args.d, config, "symbolic")
    ordinary = hilbert_function(args.d, config, "ordinary")
    payload = {
        "n": n,
        "N": N,
        "points": config.json_points(),
        "symbolic": symbolic,
        "ordinary": ordinary,
        "agree": symbolic == ordinary,
        "stable_value": N * (n + 1),
    }
    params = {"d": args.d, "n": n, "N": N}
    csv_rows = [("d", "symbolic", "ordinary"), (args.d, symbolic, ordinary)]
    lines = [f"symbolic: {symbolic}", f"ordinary: {ordinary}", f"agree: {symbolic == ordinary}"]
    return Report(params, payload, csv_rows, lines)


def cmd_regularity(args, seed):
    config = load_configuration(args, seed)
    n, N = config.dimension, config.count
    d_max = args.d_max if args.d_max is not None else 2 * N + 3
    params = {"n": n, "N": N, "d_max": d_max}
    head = {"n": n, "N": N, "points": config.json_points(), "d_max": d_max}
    try:
        scan = regularity_profile(config, d_max)
    except StabilizationError as exc:
        return _failed(params, {**head, "error": str(exc)})
    payload = {
        **head,
        "target": scan.target,
        "stabilization_degree": scan.stabilization_degree,
        "bound": 2 * N - 1,
        "within_bound": scan.stabilization_degree <= 2 * N - 1,
        "values": {str(d): v for d, v in scan.values.items()},
    }
    csv_rows = [("degree", "symbolic_hilbert")] + list(scan.values.items())
    lines = [
        f"stabilization degree: {scan.stabilization_degree} (bound {2 * N - 1})",
        f"stable value: {scan.target}",
    ]
    return Report(params, payload, csv_rows, lines)


def cmd_d0_scan(args, seed):
    check_dimension_and_count(args.n, args.N)
    d_max = args.d_max if args.d_max is not None else 2 * args.N - 1
    params = {"n": args.n, "N": args.N, "trials": args.trials, "d_max": d_max}
    try:
        d0 = general_position_bound(args.n, args.N, args.trials, seed, d_max, jobs=args.jobs)
    except (StabilizationError, SamplingError) as exc:
        return _failed(params, {"error": str(exc), "d_max": d_max, "empirical": True})
    payload = {
        "d0": d0,
        "d_max": d_max,
        "guaranteed_bound": 2 * args.N - 1,
        "empirical": True,
    }
    csv_rows = [("d0", "guaranteed_bound"), (d0, 2 * args.N - 1)]
    lines = [f"empirical general-position degree: {d0} (guaranteed {2 * args.N - 1})"]
    return Report(params, payload, csv_rows, lines)


def cmd_grassmann(args, seed):
    table = grassmannian_poincare(args.l, args.n)
    params = {"l": args.l, "n": args.n}
    return _table_report(params, {**params, "table": _pure(table)}, table, total_line=True)


def cmd_config_homology(args, seed):
    table = twisted_config_bm(args.l, args.n)
    params = {"l": args.l, "n": args.n}
    return _table_report(params, {**params, "table": _pure(table)}, table)


def cmd_gl_cohomology(args, seed):
    table = gl_cohomology(args.n)
    payload = {
        "n": args.n,
        "generators": [
            {"index": k, "degree": 2 * k + 1, "hodge": [k + 1, k + 1]} for k in range(args.n + 1)
        ],
        "table": table,
    }
    return _table_report({"n": args.n}, payload, table)


def cmd_e1_page(args, seed):
    page = assemble_e1(ParameterTriple(args.d, args.n, args.N))
    params = {"d": args.d, "n": args.n, "N": args.N}
    payload = {
        "params": params,
        "c": page.coefficient_dim,
        "columns": {l: _pure(table) for l, table in page.columns.items()},
        "fN_threshold": page.fn_threshold,
        "phi_bounds": dict(enumerate(page.phi_dim_bounds)),
        "guaranteed": page.guaranteed,
        "regime_notes": page.regime_notes,
        "dual": alexander_dual(page),
    }
    csv_rows = [("l", "bm_degree", "dual_degree", "dim", "weight")] + [
        (cls.column, cls.bm_degree, cls.dual_degree, cls.dim, cls.weight)
        for cls in dual_classes(page)
    ]
    lines = [
        f"c = {page.coefficient_dim}, column-N threshold {page.fn_threshold}",
        "supported BM degrees: " + ",".join(str(x) for x in page.supported_degrees()),
        f"guaranteed regime: {page.guaranteed}",
    ]
    return Report(params, payload, csv_rows, lines)


def cmd_stable_verify(args, seed):
    report = verify_stable_match(args.n)
    all_degrees = sorted(set(report.stratum_degrees) | set(report.gl_degrees))
    csv_rows = [("degree", "stratum_dim", "gl_dim")] + [
        (k, report.stratum_degrees.get(k, 0), report.gl_degrees.get(k, 0))
        for k in all_degrees
    ]
    lines = [
        "stratum degrees: " + ",".join(map(str, report.stratum_degrees)),
        "gl degrees:      " + ",".join(map(str, report.gl_degrees)),
        f"matched: {report.matched} (weights: {report.weights_matched})",
    ]
    return Report({"n": args.n}, report._asdict(), csv_rows, lines, report.matched)


def cmd_band(args, seed):
    report = vanishing_band(ParameterTriple(args.d, args.n, args.N))
    params = {"d": args.d, "n": args.n, "N": args.N}
    payload = {
        "params": params,
        "c": report.coefficient_dim,
        "band": report.band,
        "bm_window": report.bm_window,
        "supports": report.supports,
        "minimal_support": report.minimal_support,
        "verified": report.verified,
        "guaranteed": report.guaranteed,
        "regime_notes": report.regime_notes,
    }
    lo, hi = report.bm_window
    csv_rows = [("bm_degree", "in_forbidden_window")] + [
        (deg, lo <= deg <= hi) for deg in report.supports
    ]
    lines = [
        f"cohomological band: ({report.band[0]}, {report.band[1]})",
        f"forbidden BM window: [{lo}, {hi}]",
        "supports: " + ",".join(map(str, report.supports)),
        f"verified: {report.verified}",
    ]
    return Report(params, payload, csv_rows, lines, report.verified)


def cmd_stable_range(args, seed):
    report = stable_range_report(args.d, args.n)
    payload = {
        "params": {"d": args.d, "n": args.n, "N": report.N},
        "max_stable_degree": report.max_stable_degree,
        "rows": [row._asdict() for row in report.rows],
        "band_covers_gl": report.band_covers_gl,
        "stable_positive_dim": report.stable_positive_dim,
    }
    csv_rows = [("degree", "dim", "tate", "weight", "factors")]
    for row in report.rows:
        if row.components:
            for dim, tate, weight, factors in row.components:
                csv_rows.append((row.degree, dim, tate, weight, factors))
        else:
            csv_rows.append((row.degree, 0, "", "", ""))
    lines = [f"stable band: k <= {report.max_stable_degree} (N = {report.N})"]
    lines += [f"H^{row.degree}: dim {row.dim}" for row in report.rows]
    return Report({"d": args.d, "n": args.n}, payload, csv_rows, lines)


# --- the command table --------------------------------------------------------


def _ints(*flags: str, required: bool = True) -> tuple:
    return tuple((flag, {"type": int, "required": required}) for flag in flags)


_POINTS = _ints("--n", "--N", required=False) + (
    ("--points", {"help": "JSON file path or inline JSON array"}),
)
_TRIALS = (("--trials", {"type": int, "default": 50}),)
_D_MAX = _ints("--d-max", required=False)

# name -> (handler, help, flags beyond --format/--output/--jobs, takes --seed)
COMMANDS = {
    "codim": (cmd_codim, "codimension of singularity conditions",
              _ints("--d") + _POINTS, True),
    "verify-lemma": (cmd_verify_lemma, "randomized codimension check plus sharpness probe",
                     _ints("--d", "--n", "--N") + _TRIALS, True),
    "hilbert": (cmd_hilbert, "symbolic and ordinary Hilbert values",
                _ints("--d") + _POINTS, True),
    "regularity": (cmd_regularity, "stabilization degree of the symbolic Hilbert value",
                   _POINTS + _D_MAX, True),
    "d0-scan": (cmd_d0_scan, "empirical general-position degree bound",
                _ints("--n", "--N") + _TRIALS + _D_MAX, True),
    "grassmann": (cmd_grassmann, "Poincare table of a complex Grassmannian",
                  _ints("--l", "--n"), False),
    "config-homology": (cmd_config_homology, "twisted Borel-Moore table of point configurations",
                        _ints("--l", "--n"), False),
    "gl-cohomology": (cmd_gl_cohomology, "exterior-algebra table of GL_{n+1}(C)",
                      _ints("--n"), False),
    "e1-page": (cmd_e1_page, "assembled first page and its Alexander dual",
                _ints("--d", "--n", "--N"), False),
    "stable-verify": (cmd_stable_verify, "dual-degree multiset versus the GL table",
                      _ints("--n"), False),
    "band": (cmd_band, "vanishing of the band between (n+1)^2 and N",
             _ints("--d", "--n", "--N"), False),
    "stable-range": (cmd_stable_range, "stable-band predictions for fixed (d, n)",
                     _ints("--d", "--n"), False),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given a command, it has only that subparser.

    A one-command parser names every command in its usage line through the
    metavar, as the full parser does through its choices. The full parser
    sets none: argparse would print it in place of "command" in the
    invalid-choice and missing-command errors.
    """
    parser = argparse.ArgumentParser(
        prog="stablecoh",
        description="Exact verification runs for discriminant-complement bookkeeping.",
    )
    parser.add_argument("--version", action="version", version=f"stablecoh {__version__}")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_text, flags, seeded) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--output", default=None, help="write the report to this path")
        # Accepted everywhere; only verify-lemma and d0-scan start workers.
        p.add_argument("--jobs", type=int, default=available_cpus(),
                       help="most worker processes for independent trials")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (default 0, or ${SEED_ENV_VAR})")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        seed, seed_source = resolve_seed(getattr(args, "seed", None))
        if args.output:
            _check_output(args.output)
        report = COMMANDS[args.command][0](args, seed)
        emit(args, seed, seed_source, report)
        return 0 if report.ok else 1
    except SamplingError as exc:
        print(f"stablecoh: sampling failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # PointsParseError is a ValueError
        print(f"stablecoh: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run main() as a process and exit with its code, skipping interpreter teardown.

    stdout goes out in 8 KB blocks whatever PYTHONUNBUFFERED says, and emit
    flushes it, so the report is complete once main() returns: a worker pool is
    joined and --output closed by then. A closed pipe exits 120.
    """
    sys.stdout.reconfigure(write_through=False)
    try:
        code = main()
    except BrokenPipeError:
        code = 120
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
