"""Frobenius traces of the tables against point counts over prime fields.

A table entry of Tate index m stands for Q(m). By Poincare duality and the
Grothendieck-Lefschetz trace formula, a smooth variety of dimension D whose
cohomology has such a table has q^D * sum (-1)^deg * dim * q^tate points
over F_q. This checks the Tate twists, which the weight law only compares
with each other, against counts that share no code with the library.
"""

import pytest

from stablecoh.e1 import stable_range_report
from stablecoh.tables import gl_cohomology

from oracles import count_invertible_matrices, count_nonsingular_binary_forms, gl_order


@pytest.mark.parametrize("q", [2, 3, 5])
def test_general_linear_trace_is_the_group_order(q):
    for n in range(5):
        dim_gl = (n + 1) ** 2
        trace = sum(
            (-1) ** degree * dim * q ** (dim_gl + tate)
            for degree, dim, tate in gl_cohomology(n).iter_components()
        )
        assert trace == gl_order(n + 1, q), (n, q)


@pytest.mark.parametrize("m, p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_group_order_formula_matches_brute_force(m, p):
    assert count_invertible_matrices(m, p) == gl_order(m, p)


@pytest.mark.parametrize("d, q, count", [(8, 3, 11_664), (9, 2, 384), (10, 2, 768)])
def test_stable_range_trace_counts_nonsingular_binary_forms(d, q, count):
    # For n = 1 and d >= 8 the band reaches degree (n+1)^2 = 4, so it holds
    # the whole GL_2 table, and the space of nonsingular binary forms, open
    # in the (d+1)-dimensional space of forms, has the trace it predicts
    # (Vakil and Wood, Discriminants in the Grothendieck ring, Duke 2015).
    report = stable_range_report(d, 1)
    assert report.band_covers_gl
    trace = sum(
        (-1) ** row.degree * dim * q ** (d + 1 + tate)
        for row in report.rows
        for dim, tate, _, _ in row.components
    )
    assert count_nonsingular_binary_forms(d, q) == count
    assert trace == count
