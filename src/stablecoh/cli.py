"""Command-line surface: reproducible, machine-readable verification runs.

One subcommand per verifiable artifact. Every report embeds the parameters,
the effective seed, and the library version; JSON output is byte-identical
for identical (subcommand, flags, seed) regardless of --jobs, because trial
seeds are derived up front and aggregation is order-independent. Exit codes
are the machine contract: 0 computed/verified, 1 falsified or unverified,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys

from . import __version__
from .conditions import (
    StabilizationError,
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
from .params import ParameterTriple
from .points import (
    PointConfiguration,
    PointsParseError,
    SamplingError,
    parse_points_json,
    random_configuration,
)
from .tables import gl_cohomology, grassmannian_poincare, twisted_config_bm

SEED_ENV_VAR = "STABLECOH_SEED"

COMMANDS = (
    "codim",
    "verify-lemma",
    "hilbert",
    "regularity",
    "d0-scan",
    "grassmann",
    "config-homology",
    "gl-cohomology",
    "e1-page",
    "stable-verify",
    "band",
    "stable-range",
)


class UsageError(Exception):
    """Invalid invocation detected after argparse; maps to exit code 2."""


def _default_jobs() -> int:
    return os.cpu_count() or 1


def resolve_seed(flag_value: int | None) -> tuple[int, str]:
    """Seed precedence: explicit flag, then the environment, then 0.

    Negative seeds are refused: random.Random(-s) draws the same stream as
    Random(s), so two reports would claim different seeds for identical runs.
    """
    if flag_value is not None:
        if flag_value < 0:
            raise UsageError(f"--seed must be nonnegative, got {flag_value}")
        return flag_value, "flag"
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
        if seed < 0:
            raise UsageError(f"{SEED_ENV_VAR} must be nonnegative, got {seed}")
        return seed, "env"
    return 0, "default"


def load_configuration(args, seed: int) -> PointConfiguration:
    """Points from --points (inline JSON or a file path), else sampled."""
    if args.points is not None:
        text = args.points
        if not text.lstrip().startswith("["):
            try:
                with open(args.points, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read points file: {exc}") from None
        return parse_points_json(text)
    if args.N is None:
        raise UsageError("either --points or --N is required")
    if args.n is None:
        raise UsageError("--n is required when sampling points")
    return random_configuration(args.n, args.N, random.Random(seed))


# --- emission ----------------------------------------------------------------


def _csv_text(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(command: str, params: dict, seed: int, seed_source: str, lines: list[str]) -> str:
    header = [
        f"stablecoh {__version__} {command}",
        "params: " + (" ".join(f"{k}={v}" for k, v in params.items()) or "(none)"),
        f"seed: {seed} ({seed_source})",
    ]
    return "\n".join(header + lines) + "\n"


def emit(args, command: str, params: dict, seed: int, seed_source: str,
         payload: dict, csv_rows: list[tuple], table_lines: list[str]) -> None:
    if args.format == "json":
        envelope = {
            "artifact": "stablecoh",
            "version": __version__,
            "command": command,
            "params": params,
            "seed": seed,
            "seed_source": seed_source,
            "report": payload,
        }
        text = json.dumps(envelope, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_text(csv_rows)
    else:
        text = _table_text(command, params, seed, seed_source, table_lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ------------------------------------------------------


def cmd_codim(args, seed, seed_source):
    config = load_configuration(args, seed)
    n, N = config.dimension, config.count
    if args.n is not None and args.n != n:
        raise UsageError(f"--n {args.n} does not match points of dimension {n}")
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
    return params, payload, csv_rows, lines, 0


def cmd_verify_lemma(args, seed, seed_source):
    params_t = ParameterTriple(args.d, args.n, args.N)
    report = verify_codim_lemma(params_t, args.trials, seed, jobs=args.jobs)
    payload = report.to_json_obj()
    payload["trials"] = args.trials
    params = {"d": args.d, "n": args.n, "N": args.N, "trials": args.trials}
    csv_rows = [("trial", "codimension", "ok")] + [
        (i, v, v == report.expected) for i, v in enumerate(report.codimensions)
    ]
    lines = [
        f"expected codimension: {report.expected}",
        f"trials: {args.trials}, distinct codimensions seen: "
        + ",".join(str(v) for v in sorted(set(report.codimensions))),
        f"counterexamples: {len(report.counterexamples)}",
    ]
    if report.collinear:
        pr = report.collinear
        lines.append(
            f"collinear probe at d={pr.degree}: codimension {pr.codimension} "
            f"(ceiling {pr.max_allowed}, line bound {pr.line_bound})"
        )
    lines.append(f"verified: {report.verified}")
    return params, payload, csv_rows, lines, 0 if report.verified else 1


def cmd_hilbert(args, seed, seed_source):
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
    return params, payload, csv_rows, lines, 0


def cmd_regularity(args, seed, seed_source):
    config = load_configuration(args, seed)
    n, N = config.dimension, config.count
    d_max = args.d_max if args.d_max is not None else 2 * N + 3
    params = {"n": n, "N": N, "d_max": d_max}
    try:
        scan = regularity_profile(config, d_max)
    except StabilizationError as exc:
        payload = {
            "n": n,
            "N": N,
            "points": config.json_points(),
            "d_max": d_max,
            "error": str(exc),
        }
        return params, payload, [("error",), (str(exc),)], [f"error: {exc}"], 1
    payload = {
        "n": n,
        "N": N,
        "points": config.json_points(),
        "d_max": d_max,
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
    return params, payload, csv_rows, lines, 0


def cmd_d0_scan(args, seed, seed_source):
    d_max = args.d_max if args.d_max is not None else 2 * args.N - 1
    params = {"n": args.n, "N": args.N, "trials": args.trials, "d_max": d_max}
    try:
        d0 = general_position_bound(
            args.n, args.N, args.trials, seed, d_max, jobs=args.jobs
        )
    except (StabilizationError, SamplingError) as exc:
        payload = {"error": str(exc), "d_max": d_max, "empirical": True}
        return params, payload, [("error",), (str(exc),)], [f"error: {exc}"], 1
    payload = {
        "d0": d0,
        "d_max": d_max,
        "guaranteed_bound": 2 * args.N - 1,
        "empirical": True,
    }
    csv_rows = [("d0", "guaranteed_bound"), (d0, 2 * args.N - 1)]
    lines = [f"empirical general-position degree: {d0} (guaranteed {2 * args.N - 1})"]
    return params, payload, csv_rows, lines, 0


def cmd_grassmann(args, seed, seed_source):
    table = grassmannian_poincare(args.l, args.n)
    payload = {
        "l": args.l,
        "n": args.n,
        "table": table.to_json_obj(),
        "total_dim": table.total_dimension(),
    }
    params = {"l": args.l, "n": args.n}
    csv_rows = [("degree", "dim", "tate")] + table.csv_rows()
    lines = [f"degree {deg}: dim {dim}, tate {tate}" for deg, dim, tate in table.csv_rows()]
    lines.append(f"total dimension: {table.total_dimension()}")
    return params, payload, csv_rows, lines, 0


def cmd_config_homology(args, seed, seed_source):
    table = twisted_config_bm(args.l, args.n)
    payload = {
        "l": args.l,
        "n": args.n,
        "table": table.to_json_obj(),
        "total_dim": table.total_dimension(),
    }
    params = {"l": args.l, "n": args.n}
    csv_rows = [("degree", "dim", "tate")] + table.csv_rows()
    lines = [f"degree {deg}: dim {dim}, tate {tate}" for deg, dim, tate in table.csv_rows()]
    return params, payload, csv_rows, lines, 0


def cmd_gl_cohomology(args, seed, seed_source):
    generators, table = gl_cohomology(args.n)
    payload = {
        "n": args.n,
        "generators": [
            {"index": g.index, "degree": g.degree, "hodge": list(g.hodge_type)}
            for g in generators
        ],
        "table": table.to_json_multi(),
        "total_dim": table.total_dimension(),
    }
    params = {"n": args.n}
    csv_rows = [("degree", "dim", "tate")] + table.csv_rows()
    lines = [f"degree {deg}: dim {dim}, tate {tate}" for deg, dim, tate in table.csv_rows()]
    return params, payload, csv_rows, lines, 0


def cmd_e1_page(args, seed, seed_source):
    page = assemble_e1(ParameterTriple(args.d, args.n, args.N))
    dual = alexander_dual(page)
    payload = page.to_json_obj()
    payload["dual"] = dual.to_json_multi()
    params = {"d": args.d, "n": args.n, "N": args.N}
    csv_rows = [("l", "bm_degree", "dual_degree", "dim", "weight")] + [
        (cls.column, cls.bm_degree, cls.dual_degree, cls.dim, cls.weight)
        for cls in dual_classes(page)
    ]
    lines = [
        f"c = {page.coefficient_dim}, column-N threshold {page.fn_threshold}",
        "supported BM degrees: " + ",".join(str(x) for x in page.supported_degrees()),
        f"guaranteed regime: {page.guaranteed}",
    ]
    return params, payload, csv_rows, lines, 0


def cmd_stable_verify(args, seed, seed_source):
    report = verify_stable_match(args.n)
    payload = report.to_json_obj()
    params = {"n": args.n}
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
    return params, payload, csv_rows, lines, 0 if report.matched else 1


def cmd_band(args, seed, seed_source):
    report = vanishing_band(ParameterTriple(args.d, args.n, args.N))
    payload = report.to_json_obj()
    params = {"d": args.d, "n": args.n, "N": args.N}
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
    return params, payload, csv_rows, lines, 0 if report.verified else 1


def cmd_stable_range(args, seed, seed_source):
    report = stable_range_report(args.d, args.n)
    payload = report.to_json_obj()
    params = {"d": args.d, "n": args.n}
    csv_rows = [("degree", "dim", "tate", "weight", "factors")]
    for row in report.rows:
        if row.components:
            for dim, tate, weight, factors in row.components:
                csv_rows.append((row.degree, dim, tate, weight, factors))
        else:
            csv_rows.append((row.degree, 0, "", "", ""))
    lines = [f"stable band: k <= {report.max_stable_degree} (N = {report.N})"]
    for row in report.rows:
        lines.append(f"H^{row.degree}: dim {row.dim}")
    return params, payload, csv_rows, lines, 0


_HANDLERS = {
    "codim": cmd_codim,
    "verify-lemma": cmd_verify_lemma,
    "hilbert": cmd_hilbert,
    "regularity": cmd_regularity,
    "d0-scan": cmd_d0_scan,
    "grassmann": cmd_grassmann,
    "config-homology": cmd_config_homology,
    "gl-cohomology": cmd_gl_cohomology,
    "e1-page": cmd_e1_page,
    "stable-verify": cmd_stable_verify,
    "band": cmd_band,
    "stable-range": cmd_stable_range,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablecoh",
        description="Exact verification runs for discriminant-complement bookkeeping.",
    )
    parser.add_argument("--version", action="version", version=f"stablecoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seedable=True):
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--output", default=None, help="write the report to this path")
        p.add_argument("--jobs", type=int, default=_default_jobs(),
                       help="worker processes for independent trials")
        if seedable:
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (default 0, or ${SEED_ENV_VAR})")

    p = sub.add_parser("codim", help="codimension of singularity conditions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--points", default=None, help="JSON file path or inline JSON array")
    common(p)

    p = sub.add_parser("verify-lemma", help="randomized codimension check plus sharpness probe")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    common(p)

    p = sub.add_parser("hilbert", help="symbolic and ordinary Hilbert values")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--points", default=None)
    common(p)

    p = sub.add_parser("regularity", help="stabilization degree of the symbolic Hilbert value")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--points", default=None)
    p.add_argument("--d-max", type=int, default=None)
    common(p)

    p = sub.add_parser("d0-scan", help="empirical general-position degree bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--d-max", type=int, default=None)
    common(p)

    p = sub.add_parser("grassmann", help="Poincare table of a complex Grassmannian")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, seedable=False)

    p = sub.add_parser("config-homology", help="twisted Borel-Moore table of point configurations")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, seedable=False)

    p = sub.add_parser("gl-cohomology", help="exterior-algebra table of GL_{n+1}(C)")
    p.add_argument("--n", type=int, required=True)
    common(p, seedable=False)

    p = sub.add_parser("e1-page", help="assembled first page and its Alexander dual")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p, seedable=False)

    p = sub.add_parser("stable-verify", help="dual-degree multiset versus the GL table")
    p.add_argument("--n", type=int, required=True)
    common(p, seedable=False)

    p = sub.add_parser("band", help="vanishing of the band between (n+1)^2 and N")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p, seedable=False)

    p = sub.add_parser("stable-range", help="stable-band predictions for fixed (d, n)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, seedable=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        seed, seed_source = resolve_seed(getattr(args, "seed", None))
        handler = _HANDLERS[args.command]
        params, payload, csv_rows, table_lines, code = handler(args, seed, seed_source)
        emit(args, args.command, params, seed, seed_source, payload, csv_rows, table_lines)
        return code
    except (UsageError, PointsParseError) as exc:
        print(f"stablecoh: error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"stablecoh: sampling failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"stablecoh: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
