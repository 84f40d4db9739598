"""Monomial enumeration: counts, order, derivatives and values at points."""

from fractions import Fraction
from math import comb

import pytest

from stablecoh.conditions import evaluation_matrix
from stablecoh.monomials import enumerate_monomials, monomial_index
from stablecoh.points import PointConfiguration

from oracles import singularity_columns


def test_linear_forms_in_two_variables():
    assert enumerate_monomials(1, 1) == ((1, 0), (0, 1))


def test_count_cubics_plane():
    assert len(enumerate_monomials(3, 2)) == 10 == comb(5, 2)


def test_constants():
    mons = enumerate_monomials(0, 3)
    assert mons == ((0, 0, 0, 0),)


@pytest.mark.parametrize("d,n", [(0, 0), (1, 3), (4, 2), (7, 1), (9, 3)])
def test_counts_match_binomial(d, n):
    assert len(enumerate_monomials(d, n)) == comb(d + n, n)


def test_graded_lex_order_is_descending():
    mons = enumerate_monomials(3, 2)
    exps = list(mons)
    assert exps == sorted(exps, reverse=True)
    assert exps[0] == (3, 0, 0)
    assert exps[-1] == (0, 0, 3)


def test_enumeration_is_deterministic():
    assert enumerate_monomials(5, 3) == enumerate_monomials(5, 3)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        enumerate_monomials(-1, 2)
    with pytest.raises(ValueError):
        enumerate_monomials(2, -1)


def test_partial_derivative():
    # Column x0^2*x1 of the cubic conditions at [3 : 5 : 7]: 2*x0*x1, x0^2, 0,
    # found in the reference stream, nonzero everywhere there, by its graded-lex index.
    columns = list(singularity_columns(3, 2, [(3, 5, 7)]))
    assert columns[monomial_index(3, 2)[(2, 1, 0)]] == [30, 9, 0]


def test_evaluate_rational_point():
    # Monomials are evaluated at the normal form: [1/2 : 3] becomes (1, 6).
    config = PointConfiguration(1, ((Fraction(1, 2), 3), (0, 5)))
    assert evaluation_matrix(2, config).entries == ((1, 6, 36), (0, 0, 1))


def test_monomial_index_roundtrip():
    index = monomial_index(4, 2)
    mons = enumerate_monomials(4, 2)
    for i, m in enumerate(mons):
        assert index[m] == i
