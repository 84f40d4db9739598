"""Run one stablecoh CLI invocation with every public library function timed.

    PYTHONPATH=src python3 bench/tracer.py INVOCATION_ID CLI_ARG...

The tracer imports stablecoh, replaces each public function of the traced
modules with a timing wrapper in every namespace that binds it (``from .x
import y`` makes copies), and then calls ``stablecoh.cli.main``. The report
goes to stdout as usual. Spans stay in memory and are written to stderr as
one line, prefixed by SPAN_MARKER, when the invocation ends.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list, or -1. Matrix shapes and bit counts
are computed when the spans are written, never inside a timed interval.
Spans inside process-pool workers are not recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPAN_MARKER = "stablecoh-spans "
MODULES = ("cli", "conditions", "linalg", "monomials", "points", "tables", "e1")


def _rank_attrs(args, result) -> dict:
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
    return {"rows": len(rows), "cols": cols, "bits": bits,
            "deficient": result < min(len(rows), cols)}


def _matrix_attrs(args, result) -> dict:
    return {"rows": result.rows, "cols": result.cols}


def _verdict_attrs(args, result) -> dict:
    return {"ok": bool(result)}


# Attributes recorded per span, by span name; computed after the run ends.
DESCRIBE = {
    "linalg.integer_rank": _rank_attrs,
    "conditions.singularity_matrix": _matrix_attrs,
    "conditions.evaluation_matrix": _matrix_attrs,
    "points.in_general_linear_position": _verdict_attrs,
}


class Tracer:
    """Span recorder for one process; wrappers append to its span list."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pending: list[tuple] = []  # (span, describe, args, result)
        self.counters: dict[str, float] = {}

    def wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self.stack, self.pending
        describe = DESCRIBE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if describe is not None:
                pending.append((span, describe, args, result))
            return result

        return timed

    def dump(self) -> str:
        for span, describe, args, result in self.pending:
            span[4] = describe(args, result)
        doc = {"invocation": self.invocation, "spans": self.spans,
               "counters": self.counters}
        return SPAN_MARKER + json.dumps(doc, separators=(",", ":"))


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of MODULES wherever a stablecoh namespace binds them."""
    # Keyed by id(): every original stays alive inside its wrapper's closure.
    wrappers: dict[int, object] = {}
    for short in MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, fn in _public_functions(module):
            wrappers[id(fn)] = tracer.wrap(f"{short}.{attr}", fn)
    for name, module in list(sys.modules.items()):
        if name != package.__name__ and not name.startswith(package.__name__ + "."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in wrappers:
                namespace[attr] = wrappers[id(value)]
            elif isinstance(value, dict):
                # Dispatch tables such as cli._HANDLERS hold their own references.
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]

    conditions = sys.modules[f"{package.__name__}.conditions"]
    pool_class = conditions.ProcessPoolExecutor
    tracer.counters["pool_starts"] = 0

    class CountedPool(pool_class):
        def __init__(self, *args, **kwargs):
            tracer.counters["pool_starts"] += 1
            super().__init__(*args, **kwargs)

    conditions.ProcessPoolExecutor = CountedPool


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py INVOCATION_ID CLI_ARG...", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    start = time.perf_counter()
    import stablecoh
    import stablecoh.cli
    tracer.counters["import_s"] = time.perf_counter() - start
    enumerate_monomials = stablecoh.monomials.enumerate_monomials
    install(tracer, stablecoh)
    try:
        code = stablecoh.cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        info = enumerate_monomials.cache_info()
        tracer.counters["monomial_hits"] = info.hits
        tracer.counters["monomial_misses"] = info.misses
        sys.stderr.write(tracer.dump() + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
