#!/usr/bin/env python3
"""Walkthrough: the three closed-form tables and their cross-checks.

Grassmannian Poincare polynomials come from Gaussian binomials; the twisted
configuration-space tables are the same numbers shifted in degree with a
fixed Tate twist; and the general linear group contributes an exterior
algebra on one odd generator per dimension.
"""

from stablecoh import (
    gaussian_binomial,
    gl_cohomology,
    grassmannian_poincare,
    twisted_config_bm,
)


def render(table):
    return ", ".join(
        f"H_{deg} = Q({tate})^{dim}" if dim > 1 else f"H_{deg} = Q({tate})"
        for deg, dim, tate in table.iter_components()
    )


print("Gaussian binomials [m, l]_q")
for m in range(1, 6):
    row = "   ".join(str(gaussian_binomial(m, l)) for l in range(m + 1))
    print(f"  m={m}: {row}")
print()
print("At q=1 these are binomial coefficients; at q=2 they count")
print("subspaces over the two-element field, e.g. [4,2] at q=2 =",
      sum(c * 2**i for i, c in enumerate(gaussian_binomial(4, 2))))

print()
print("Grassmannians of subspaces of C^4")
for l in range(0, 5):
    print(f"  G({l}, C^4): {render(grassmannian_poincare(l, 3))}")

print()
print("Twisted Borel-Moore homology of configurations in the projective plane")
for l in range(1, 4):
    table = twisted_config_bm(l, 2)
    print(f"  {l} points: {render(table)}")
    print(f"    (shift l(l-1) = {l * (l - 1)}, total dim preserved ="
          f" {table.total_dimension()})")

print()
print("Cohomology of the general linear group")
for n in range(0, 4):
    gens, table = gl_cohomology(n)
    gen_str = ", ".join(f"degree {g.degree} type {g.hodge_type}" for g in gens)
    print(f"  GL_{n + 1}(C): generators {gen_str}")
    print(f"    table: {render(table)}")
print()
print("Each table at t=1 doubles with every generator: totals",
      [gl_cohomology(n)[1].total_dimension() for n in range(0, 5)])
