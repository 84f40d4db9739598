"""Exact linear algebra: rank engines agree and kernels annihilate."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from stablecoh import linalg
from stablecoh.linalg import (
    PRIME,
    bareiss_rank,
    certified_rank,
    integer_rank,
    kernel_basis,
    modular_column_rank,
    primitive_vector,
)

from oracles import sympy_kernel_basis, sympy_rank


def test_known_ranks():
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 0, 0], [0, 1, 0]]) == 2


def test_rank_of_empty():
    assert integer_rank([]) == bareiss_rank([]) == 0
    assert kernel_basis([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_multiples_of_the_prime_fall_back_to_exact_rank():
    rows = [[PRIME * x for x in row] for row in ([1, 2, 3], [4, 5, 6], [7, 8, 10])]
    assert modular_column_rank(zip(*rows), 3) == []
    assert integer_rank(rows) == sympy_rank(rows) == 3


def test_upper_bound_is_used_and_checked():
    assert integer_rank([[1, 2, 3], [2, 4, 6]], upper=1) == 1
    with pytest.raises(ValueError):
        integer_rank([[1, 0], [0, 1]], upper=1)
    # The modular rank is 0 here, so the false bound surfaces in the fallback.
    with pytest.raises(ValueError):
        integer_rank([[PRIME, 0], [0, PRIME]], upper=1)


def counted(columns, reads):
    for column in columns:
        reads.append(column)
        yield column


def test_certificate_stops_at_the_bound_plus_one(monkeypatch):
    runs = []
    bareiss = linalg.bareiss_rank
    monkeypatch.setattr(linalg, "bareiss_rank", lambda rows: runs.append(rows) or bareiss(rows))
    # Full rank 2 is met after two of four columns; the rest are never read.
    rows = [[1, 0, 1, 2], [0, 1, 1, 3]]
    reads = []
    assert certified_rank(counted(zip(*rows), reads)) == 2
    assert len(reads) == 2 and runs == []
    # With upper = 1 every column is read in search of a second pivot.
    rows = [[1, 2, 3], [2, 4, 6]]
    reads.clear()
    assert certified_rank(counted(zip(*rows), reads), upper=1) == 1
    assert len(reads) == 3 and runs == []
    # A second pivot disproves upper = 1 as soon as it is read.
    rows = [[1, 0, 5], [0, 1, 7]]
    reads.clear()
    with pytest.raises(ValueError):
        certified_rank(counted(zip(*rows), reads), upper=1)
    assert len(reads) == 2 and runs == []
    # Below the bound the pivot minor and an exact left kernel prove rank 1.
    rows = [[1, 2, 3], [2, 4, 6]]
    assert certified_rank(zip(*rows)) == 1 == sympy_rank(rows)
    assert runs == []
    # Rank 1 mod p but 2 over Z: the left kernel fails, and Bareiss decides
    # once, on the kept columns as rows.
    rows = [[1, 2, 3], [2, 4, 6 + PRIME]]
    assert certified_rank(zip(*rows)) == 2 == sympy_rank(rows)
    assert [[list(r) for r in m] for m in runs] == [rows]


def test_modular_column_rank_reads_dependent_columns_until_stop():
    columns = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [1, 0, 0], [3, 0, 0], [0, 1, 0]]
    reads = []
    assert modular_column_rank(counted(columns, reads), 3) == [(0, 1), (1, 3), (2, 5)]
    assert len(reads) == 6
    reads.clear()
    assert len(modular_column_rank(counted(columns, reads), 2)) == 2
    assert len(reads) == 4
    assert modular_column_rank(columns, 0) == []


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


def test_transpose_preserves_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    transposed = list(zip(*rows))
    assert integer_rank(rows) == integer_rank(transposed) == bareiss_rank(transposed) == 2


def test_rank_deficient_wide_and_tall_matrices_are_certified(monkeypatch):
    # integer_rank streams the rows: a wide matrix gives fewer vectors than
    # their length, and the certificate transposes them for its proof.
    def no_bareiss(rows):
        raise AssertionError("Bareiss ran on a rank a certificate proves")

    monkeypatch.setattr(linalg, "bareiss_rank", no_bareiss)
    wide = [[1, 2, 0, 3, -1, 4], [0, 1, 5, 2, 2, -3], [1, 4, 10, 7, 3, -2]]
    tall = [list(column) for column in zip(*wide)]
    for rows in (wide, tall):
        assert integer_rank(rows) == sympy_rank(rows) == 2


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
    # bareiss_rank and kernel_basis share one elimination; sympy is independent.
    direct = bareiss_rank(rows)
    certified = integer_rank(rows)
    via_kernel = len(rows[0]) - len(kernel_basis(rows, len(rows[0])))
    assert direct == certified == via_kernel == sympy_rank(rows)


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


@st.composite
def planted_low_rank(draw):
    """B.C with B rows x k and C k x cols, k below both, and a copy shifted by multiples of p."""
    n_rows, n_cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    k = draw(st.integers(0, min(n_rows, n_cols) - 1))
    entries = st.integers(min_value=-3, max_value=3)
    b = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n_rows, max_size=n_rows))
    c = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols), min_size=k, max_size=k))
    planted = [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(n_cols)] for i in range(n_rows)]
    shifts = st.lists(st.integers(min_value=-2, max_value=2), min_size=n_cols, max_size=n_cols)
    multiples = draw(st.lists(shifts, min_size=n_rows, max_size=n_rows))
    shifted = [[x + s * PRIME for x, s in zip(row, ks)] for row, ks in zip(planted, multiples)]
    return planted, shifted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted_low_rank())
def test_planted_rank_is_certified_and_shifted_copies_fall_back(case):
    planted, shifted = case
    with mock.patch.object(linalg, "bareiss_rank", wraps=linalg.bareiss_rank) as bareiss:
        rank = certified_rank(zip(*planted))
        assert rank == sympy_rank(planted) and bareiss.call_count == 0
        # The shifted copy has the same rank mod p; where its rank over the
        # rationals is larger, only the exact kernel check can notice.
        exact = sympy_rank(shifted)
        assume(exact > rank)
        assert certified_rank(zip(*shifted)) == exact and bareiss.call_count == 1
