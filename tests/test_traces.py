"""Frobenius traces of the tables against point counts over prime fields.

A table entry of Tate index m stands for Q(m). By Poincare duality and the
Grothendieck-Lefschetz trace formula, a smooth variety of dimension D whose
cohomology has such a table has q^D * sum (-1)^deg * dim * q^tate points
over F_q. A Borel-Moore table needs no q^D: its trace is the point count
itself, signed by the Frobenius permutation for the sign-twisted
configuration tables. This checks the Tate twists, which the weight law
only compares with each other, against counts that share no code with the
library.
"""

from math import comb

import pytest

from stablecoh.e1 import stable_range_report, stratum_bm
from stablecoh.tables import gl_cohomology, twisted_config_bm

from oracles import (
    count_invertible_matrices,
    count_nonsingular_binary_forms,
    gl_order,
    signed_stable_subsets,
)


def trace(table, q):
    """sum (-1)^deg * dim * q^tate over the table's components."""
    return sum((-1) ** degree * dim * q**tate for degree, dim, tate in table.iter_components())


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


@pytest.mark.parametrize("q", [2, 3])
def test_configuration_trace_is_the_signed_count_of_stable_subsets(q):
    # Each Frobenius-stable l-subset of P^n counts with the sign of the
    # permutation Frobenius induces on it (Vakil and Wood, Duke 2015).
    for n in range(1, 4):
        for l in range(1, n + 2):
            assert trace(twisted_config_bm(l, n), q) == signed_stable_subsets(l, n, q), (l, n)
        # Vassiliev's vanishing: the sign-twisted table is zero above n+1 points.
        for l in range(n + 2, n + 4):
            assert signed_stable_subsets(l, n, q) == 0, (l, n)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_e1_column_traces_count_the_singular_forms(q):
    # Columns 1..n+1 together carry the trace of the forms singular at some
    # point: all q^c forms less the nonsingular ones, q^(c-(n+1)^2)|GL_{n+1}|.
    for n in range(1, 6):
        for d in (3, 4, 7):
            c = comb(d + n, n)
            columns = sum(trace(stratum_bm(d, n, l), q) for l in range(1, n + 2))
            assert columns == q**c - q ** (c - (n + 1) ** 2) * gl_order(n + 1, q), (n, d)
