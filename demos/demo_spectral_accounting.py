#!/usr/bin/env python3
"""Walkthrough: assembling the first page and reading off the stable band.

Strata indexed by the number of prescribed singular points contribute
Borel-Moore classes in degrees just below 2c (c the coefficient-space
dimension); Alexander duality reflects them to low cohomological degrees of
the complement, where their degrees and weights reproduce the general
linear group, and the gap down to the last stratum's threshold forces a
vanishing band.
"""

from stablecoh import ParameterTriple, alexander_dual, assemble_e1, vanishing_band
from stablecoh.e1 import dual_classes, verify_stable_match

params = ParameterTriple(d=19, n=1, N=10)
page = assemble_e1(params)
print(f"parameters d={params.d}, n={params.n}, N={params.N}")
print(f"coefficient-space dimension c = {page.coefficient_dim}")
print()
print("columns (number of prescribed singular points -> BM degrees):")
for l, support in sorted(page.columns.items()):
    degs = ", ".join(
        f"{deg} (dim {dim}, Q({tate}))"
        for deg, dim, tate in support.bm_table.iter_components()
    )
    print(f"  l={l}: {degs}   predicted window {support.degree_range}")
print(f"column N={params.N} vanishes from BM degree {page.fn_threshold} upward")
print()

print("Alexander duality sends BM degree D to cohomological degree 2c-1-D:")
for cls in dual_classes(page):
    print(
        f"  l={cls.column}: BM {cls.bm_degree} -> H^{cls.dual_degree},"
        f" weight {cls.weight} (weight - degree = {cls.weight - cls.dual_degree} = l)"
    )
print()

band = vanishing_band(params)
lo, hi = band.bm_window
print(f"forbidden BM window [{lo}, {hi}] against supports {band.supports}:"
      f" empty = {band.verified}")
print(f"hence the complement's cohomology bound vanishes for"
      f" {band.band[0]} < k < {band.band[1]}")
print()

print("the dual degrees match the general linear group's (independent of d):")
for n in range(0, 4):
    report = verify_stable_match(n)
    print(f"  n={n}: degrees {sorted(report.stratum_degrees)} matched={report.matched}")
print()

dual = alexander_dual(page)
print("dual table:", {deg: dual.components(deg) for deg in dual.degrees()})
