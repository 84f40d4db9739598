#!/usr/bin/env python3
"""Walkthrough: when do singular points impose independent conditions?

Requiring a degree-d form to be singular at a point costs n+1 linear
conditions, so N points should cost N(n+1) of them. This holds for every
distinct configuration once d >= 2N-1, and fails below that bound already
for points on a line. The script shows both halves at desk scale.
"""

import random

from stablecoh import (
    ParameterTriple,
    codimension,
    collinear_configuration,
    coordinate_configuration,
    random_configuration,
    verify_codim_lemma,
)
from stablecoh.conditions import symbolic_square_basis
from stablecoh.monomials import enumerate_monomials


def monomial_text(exponents):
    """Render an exponent tuple as x0^a*x1^b*..., omitting zero exponents."""
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exponents) if e]
    return "*".join(parts) or "1"


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Three coordinate points in the plane, cubics (d=3, n=2, N=3)")
cfg = coordinate_configuration(2, 3)
print("points:", cfg.points)
print("conditions imposed:", codimension(3, cfg), "out of an expected", 3 * 3)
basis = symbolic_square_basis(3, cfg)
mons = enumerate_monomials(3, 2)
for vec in basis:
    poly = " + ".join(monomial_text(m) for c, m in zip(vec, mons) if c)
    print("the one cubic singular at all three points:", poly)

show("Random configurations at the guaranteed degree d = 2N-1")
for n, N in [(1, 2), (2, 3), (3, 4)]:
    params = ParameterTriple(2 * N - 1, n, N)
    report = verify_codim_lemma(params, trials=20, seed=7)
    print(
        f"n={n} N={N} d={params.d}: codimensions {sorted(set(report.codimensions))},"
        f" expected {report.expected}, verified={report.verified}"
    )

show("Sharpness: collinear points one degree too low (d = 2N-2)")
for n, N in [(1, 2), (2, 3), (3, 4)]:
    d = 2 * N - 2
    line = collinear_configuration(n, N)
    value = codimension(d, line)
    print(
        f"n={n} N={N} d={d}: collinear codimension {value}"
        f" < {N * (n + 1)}; line ceiling N(n-1)+d+1 = {N * (n - 1) + d + 1}"
    )

show("A single random configuration, degree by degree (n=2, N=3)")
cfg = random_configuration(2, 3, random.Random(11))
for d in range(1, 8):
    print(f"  d={d}: codimension {codimension(d, cfg)}")
print("stabilizes at N(n+1) = 9 from d =", 2 * 3 - 1, "at the latest")
