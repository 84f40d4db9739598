"""Exact linear algebra: rank engines agree and kernels annihilate."""

import pytest
from hypothesis import given, settings, strategies as st

from stablecoh.linalg import (
    PRIME,
    ExactMatrix,
    bareiss_rank,
    integer_rank,
    kernel_basis,
    modular_rank,
    primitive_vector,
)

from oracles import sympy_kernel_basis, sympy_rank


def test_known_ranks():
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 0, 0], [0, 1, 0]]) == 2


def test_rank_of_empty():
    assert integer_rank([]) == 0
    assert ExactMatrix(0, 3, ()).rank() == 0


def test_multiples_of_the_prime_fall_back_to_exact_rank():
    rows = [[PRIME * x for x in row] for row in ([1, 2, 3], [4, 5, 6], [7, 8, 10])]
    assert modular_rank(rows) == 0
    assert integer_rank(rows) == sympy_rank(rows) == 3


def test_upper_bound_is_used_and_checked():
    assert integer_rank([[1, 2, 3], [2, 4, 6]], upper=1) == 1
    with pytest.raises(ValueError):
        integer_rank([[1, 0], [0, 1]], upper=1)
    # The modular rank is 0 here, so the false bound surfaces in the fallback.
    with pytest.raises(ValueError):
        integer_rank([[PRIME, 0], [0, PRIME]], upper=1)


def test_primitive_vector():
    assert primitive_vector([4, 6, -2]) == (2, 3, -1)
    assert primitive_vector([-2, 3]) == (-2, 3)
    assert primitive_vector([0, 0]) == (0, 0)


def test_rref_pivots():
    # Column 1 is the only pivot: columns 0 and 2 are free, in that order.
    assert kernel_basis([[0, 1, 1], [0, 2, 2]], 3) == ((1, 0, 0), (0, -1, 1))
    # The pivots are negative here; the free coordinate still comes out positive.
    assert kernel_basis([[-3, 1, 2], [6, 0, 1]], 3) == ((-1, -15, 6),)


def test_kernel_annihilates():
    rows = [[1, 2, 3], [4, 5, 6]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_of_full_rank_is_empty():
    assert kernel_basis([[1, 0], [0, 1]], 2) == ()


def test_exact_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        ExactMatrix(1, 2, ((1, 2, 3),))


def test_transpose_preserves_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    transposed = list(zip(*rows))
    assert ExactMatrix.from_rows(rows).rank() == ExactMatrix.from_rows(transposed).rank() == 2


def matrices(entries):
    return st.lists(
        st.lists(entries, min_size=1, max_size=6), min_size=1, max_size=6
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)


small_entries = st.integers(min_value=-9, max_value=9)
small_matrix = matrices(small_entries)
# Entries near 0, +-p and +-2p reduce to small residues mod p, so the modular
# rank can drop below the true rank and the exact fallback has to decide.
near_prime_entries = st.builds(
    lambda k, e: k * PRIME + e, st.integers(min_value=-2, max_value=2), small_entries
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_matrix)
def test_rank_engines_agree(rows):
    direct = bareiss_rank(rows)
    certified = integer_rank(rows)
    via_kernel = len(rows[0]) - len(kernel_basis(rows, len(rows[0])))
    assert direct == certified == via_kernel


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(small_entries | near_prime_entries))
def test_rank_matches_sympy(rows):
    assert integer_rank(rows) == sympy_rank(rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_matrix)
def test_kernel_dimension_complements_rank(rows):
    n_cols = len(rows[0])
    basis = kernel_basis(rows, n_cols)
    assert len(basis) == n_cols - integer_rank(rows)
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(small_entries | st.integers(min_value=-10**12, max_value=10**12)))
def test_kernel_basis_matches_sympy(rows):
    n_cols = len(rows[0])
    assert kernel_basis(rows, n_cols) == sympy_kernel_basis(rows)
