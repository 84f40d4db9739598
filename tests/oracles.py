"""Independent oracles used to pin expected values in the tests.

Nothing here shares code with the library paths under test: subspaces are
counted by explicit row-echelon enumeration over the two-element field,
condition ranks are recomputed with sympy's own differentiation and rank, and
kernel bases come from sympy's nullspace.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm

import sympy


def count_subspaces_f2(m: int, l: int) -> int:
    """Count l-dimensional subspaces of F_2^m.

    Enumerates every reduced row-echelon matrix (pivot columns, then all
    assignments of the free cells), materializes each row space as a set of
    vectors, and counts the distinct spans. Distinctness is asserted, which
    checks the enumeration itself.
    """
    if l < 0 or l > m:
        return 0
    if l == 0:
        return 1
    spans = set()
    for pivots in combinations(range(m), l):
        pivot_set = set(pivots)
        free_cells = [
            (r, c)
            for r in range(l)
            for c in range(pivots[r] + 1, m)
            if c not in pivot_set
        ]
        for bits in product((0, 1), repeat=len(free_cells)):
            rows = [1 << pivots[r] for r in range(l)]
            for (r, c), bit in zip(free_cells, bits):
                if bit:
                    rows[r] |= 1 << c
            span = frozenset(_span_f2(rows))
            assert span not in spans, "row-echelon enumeration produced a duplicate"
            spans.add(span)
    return len(spans)


def _span_f2(rows: list[int]) -> set[int]:
    vectors = {0}
    for row in rows:
        vectors |= {v ^ row for v in vectors}
    return vectors


def sympy_codimension(d: int, points: list[tuple]) -> int:
    """Rank of the singularity conditions, recomputed from scratch with sympy."""
    n = len(points[0]) - 1
    xs = sympy.symbols(f"y0:{n + 1}")
    monomial_supports = sorted(set(combinations_with_replacement(range(n + 1), d)))
    polys = [sympy.prod([xs[i] for i in support]) for support in monomial_supports]
    rows = []
    for point in points:
        subs = {xs[i]: sympy.Rational(point[i]) for i in range(n + 1)}
        for i in range(n + 1):
            rows.append([sympy.diff(poly, xs[i]).subs(subs) for poly in polys])
    return sympy.Matrix(rows).rank()


def sympy_rank(rows: list[list]) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def sympy_kernel_basis(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """sympy's nullspace, each vector scaled by a positive rational to be primitive.

    sympy reads one vector per free column off the reduced row echelon form,
    with that free coordinate equal to 1, so the scaled vectors keep it positive.
    """
    basis = []
    for vec in sympy.Matrix(rows).nullspace():
        scale = lcm(*(sympy.Rational(x).q for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return tuple(basis)
