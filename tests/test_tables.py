"""Homology tables: Gaussian binomials, Grassmannians, configurations, GL."""

from fractions import Fraction
from math import comb

import pytest

from stablecoh.tables import (
    MAX_E1_DIMENSION,
    GradedTateVector,
    gaussian_binomial,
    gl_cohomology,
    grassmannian_poincare,
    twisted_config_bm,
)

from oracles import count_subspaces_f2


# --- Gaussian binomials ---------------------------------------------------------


def test_small_gaussian_binomials():
    assert gaussian_binomial(2, 1) == (1, 1)
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 0) == (1,)
    assert gaussian_binomial(3, 3) == (1,)
    assert gaussian_binomial(3, 4) == ()


def test_gaussian_symmetry_and_unimodality():
    for m in range(0, 9):
        for l in range(0, m + 1):
            coeffs = gaussian_binomial(m, l)
            assert coeffs == gaussian_binomial(m, m - l)
            assert coeffs == coeffs[::-1]
            mid = len(coeffs) // 2
            ascending = coeffs[: mid + 1]
            assert all(a <= b for a, b in zip(ascending, ascending[1:]))


def test_gaussian_specializes_to_binomial_at_one():
    for m in range(0, 9):
        for l in range(0, m + 1):
            assert sum(gaussian_binomial(m, l)) == comb(m, l)


def test_gaussian_at_two_counts_binary_subspaces():
    for m in range(1, 6):
        for l in range(0, m + 1):
            value = sum(c * 2**i for i, c in enumerate(gaussian_binomial(m, l)))
            assert value == count_subspaces_f2(m, l)


def test_gaussian_matches_q_pascal_recurrence():
    # Reference: [m, l] = [m-1, l-1] + q^l [m-1, l], built row by row.
    row = [(1,)]
    for m in range(1, 40):
        above = row + [()]
        row = [(1,)]
        for l in range(1, m + 1):
            out = [0] * (l * (m - l) + 1)
            for i, c in enumerate(above[l - 1]):
                out[i] += c
            for i, c in enumerate(above[l]):
                out[i + l] += c
            row.append(tuple(out))
        assert [gaussian_binomial(m, l) for l in range(m + 1)] == row, m


def test_oversize_gaussian_binomial_is_refused():
    # [m, 1]_q = 1 + q + ... + q^(m-1) has m coefficients: the guard's edge.
    assert gaussian_binomial(50_000, 1) == (1,) * 50_000
    with pytest.raises(ValueError, match="problem too large: 50001 coefficients exceeds 50000"):
        gaussian_binomial(50_001, 1)
    # The grassmann-too-large case, called from Python: 224 * 224 + 1 coefficients.
    with pytest.raises(ValueError, match="problem too large: 50177 coefficients exceeds 50000"):
        gaussian_binomial(448, 224)


# --- graded Tate tables -----------------------------------------------------------


def total_dimension(table):
    return sum(dim for _, dim, _ in table.iter_components())


def test_graded_tate_merges_components():
    t = GradedTateVector.from_components([(2, 1, 1), (2, 2, 1), (0, 1, 0)])
    assert t == {0: ((1, 0),), 2: ((3, 1),)}
    assert list(t) == [0, 2]  # degrees in increasing order, as JSON writes them
    assert total_dimension(t) == 4
    assert all(len(t.components(deg)) == 1 for deg in t)


def test_graded_tate_keeps_distinct_twists_apart():
    t = GradedTateVector.from_components([(9, 1, -5), (9, 1, -6)])
    assert t.components(9) == ((1, -6), (1, -5))
    assert t.dimension(9) == 2
    assert t == {9: ((1, -6), (1, -5))}


def test_graded_tate_rejects_half_integral_twist():
    with pytest.raises(ValueError, match="non-integral"):
        GradedTateVector.from_components([(3, 1, Fraction(1, 2))])


def test_graded_tate_rejects_negative_dimension():
    with pytest.raises(ValueError, match="negative dimension -1 in degree 4"):
        GradedTateVector.from_components([(4, 2, 2), (4, -1, 2)])


def test_graded_tate_drops_zero_dimensions():
    t = GradedTateVector.from_components([(1, 0, 0)])
    assert t == {}
    assert t.components(1) == () and t.dimension(1) == 0


# --- Grassmannians ------------------------------------------------------------------


def test_projective_line_table():
    t = grassmannian_poincare(1, 1)
    assert t == {0: ((1, 0),), 2: ((1, 1),)}


def test_full_flag_is_point():
    for n in range(0, 5):
        assert grassmannian_poincare(n + 1, n) == {0: ((1, 0),)}


def test_empty_grassmannian():
    assert not grassmannian_poincare(3, 1)


def test_grassmannian_two_planes_in_four_space():
    t = grassmannian_poincare(2, 3)
    assert [t.dimension(2 * i) for i in range(5)] == [1, 1, 2, 1, 1]
    assert t == {2 * i: ((dim, i),) for i, dim in enumerate([1, 1, 2, 1, 1])}


# --- twisted configuration tables ----------------------------------------------------


def test_single_point_configurations_give_projective_space():
    for n in (1, 2, 3):
        assert twisted_config_bm(1, n) == grassmannian_poincare(1, n)


def test_two_points_on_line():
    assert twisted_config_bm(2, 1) == {2: ((1, 1),)}


def test_top_configuration_single_class():
    for n in (1, 2, 3, 4):
        t = twisted_config_bm(n + 1, n)
        degree = n * (n + 1)
        assert t == {degree: ((1, degree // 2),)}


def test_twist_shift_preserves_total_dimension():
    for n in range(1, 6):
        for l in range(1, n + 2):
            assert (
                total_dimension(twisted_config_bm(l, n))
                == total_dimension(grassmannian_poincare(l, n))
            )


def test_twisted_support_window_and_parity():
    for n in range(1, 6):
        for l in range(1, n + 2):
            degrees = tuple(twisted_config_bm(l, n))
            low = l * (l - 1)
            high = low + 2 * l * (n + 1 - l)
            assert degrees[0] == low and degrees[-1] == high
            assert all(d % 2 == 0 for d in degrees)


def test_twisted_config_range_errors():
    with pytest.raises(ValueError):
        twisted_config_bm(0, 2)
    with pytest.raises(ValueError):
        twisted_config_bm(4, 2)


# --- general linear group --------------------------------------------------------------


def test_gl2_table():
    table = gl_cohomology(1)
    assert tuple(table) == (0, 1, 3, 4)
    assert all(table.dimension(k) == 1 for k in (0, 1, 3, 4))


def test_gl3_table():
    table = gl_cohomology(2)
    assert tuple(table) == (0, 1, 3, 4, 5, 6, 8, 9)


def test_gl_top_degree_and_total():
    for n in range(0, 7):
        table = gl_cohomology(n)
        top = (n + 1) ** 2
        assert list(table) == sorted(table) and max(table) == top
        assert table[top] == ((1, -(n + 1) * (n + 2) // 2),)
        assert total_dimension(table) == 2 ** (n + 1)


def test_oversize_general_linear_table_is_refused():
    message = f"problem too large: n = {MAX_E1_DIMENSION + 1} exceeds {MAX_E1_DIMENSION}"
    assert message == "problem too large: n = 65 exceeds 64"
    with pytest.raises(ValueError, match=message):
        gl_cohomology(MAX_E1_DIMENSION + 1)


def test_gl5_mixes_weights_in_degree_nine():
    table = gl_cohomology(4)
    assert table.components(9) == ((1, -6), (1, -5))


def test_csv_rows_are_sorted_components():
    table = gl_cohomology(1)
    assert list(table.iter_components()) == [(0, 1, 0), (1, 1, -1), (3, 1, -2), (4, 1, -3)]
