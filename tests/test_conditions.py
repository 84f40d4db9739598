"""Singularity conditions: matrices, codimensions, squares, scans."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from stablecoh import conditions, linalg
from stablecoh.conditions import (
    StabilizationError,
    codimension,
    general_position_bound,
    hilbert_function,
    ideal_degree_part,
    ordinary_square_dim,
    regularity_profile,
    singularity_matrix,
    symbolic_square_basis,
    symbolic_square_dim,
    verify_codim_lemma,
)
from stablecoh.linalg import bareiss_rank
from stablecoh.params import ParameterTriple
from stablecoh.points import (
    PointConfiguration,
    coordinate_configuration,
    random_configuration,
)

from oracles import sympy_codimension


def plane_coords():
    return coordinate_configuration(2, 3)


def p1_pair():
    return PointConfiguration(1, ((1, 0), (0, 1)))


# --- singularity matrix -------------------------------------------------------


def test_matrix_binary_quadrics_at_origin_chart():
    m = singularity_matrix(2, PointConfiguration(1, ((1, 0),)))
    assert m.entries == ((2, 0, 0), (0, 1, 0))


def test_matrix_linear_forms_constant_partials():
    m = singularity_matrix(1, PointConfiguration(1, ((3, 5),)))
    assert (m.rows, m.cols) == (2, 2)
    assert m.rank() == 2


def test_matrix_shape_and_rank_plane_conic():
    m = singularity_matrix(2, PointConfiguration(2, ((1, 0, 0),)))
    assert (m.rows, m.cols) == (3, 6)
    assert m.rank() == 3


def test_matrix_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        PointConfiguration(1, ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        PointConfiguration(1, ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        singularity_matrix(0, p1_pair())


def test_kernel_is_order_two_vanishing():
    basis = symbolic_square_basis(3, plane_coords())
    assert len(basis) == 1
    # the only cubic doubly vanishing at all three coordinate points is x0*x1*x2
    assert basis[0] == (0, 0, 0, 0, 1, 0, 0, 0, 0, 0)


# --- codimension ---------------------------------------------------------------


def test_codimension_examples():
    assert codimension(3, p1_pair()) == 4
    assert codimension(2, p1_pair()) == 3
    assert codimension(3, plane_coords()) == 9


def test_codimension_agrees_with_sympy():
    rng = random.Random(2024)
    for n, N, d in [(1, 2, 3), (2, 2, 3), (2, 3, 4), (3, 2, 2)]:
        cfg = random_configuration(n, N, rng, coord_bound=9)
        assert codimension(d, cfg) == sympy_codimension(d, list(cfg.points))


def test_codimension_upper_bound():
    rng = random.Random(7)
    for n, N, d in [(1, 3, 2), (2, 2, 1), (2, 4, 3)]:
        cfg = random_configuration(n, N, rng)
        value = codimension(d, cfg)
        assert value <= min(N * (n + 1), comb(d + n, n))


def test_single_point_codimension_is_n_plus_1():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for d in (2, 3, 5):
            cfg = random_configuration(n, 1, rng)
            assert codimension(d, cfg) == n + 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_codimension_invariant_under_scaling_and_permutation(n, N, d, seed, data):
    cfg = random_configuration(n, N, random.Random(seed), coord_bound=10)
    base = codimension(d, cfg)
    scales = data.draw(
        st.lists(
            st.fractions(
                min_value=Fraction(-5), max_value=Fraction(5)
            ).filter(lambda f: f != 0),
            min_size=N,
            max_size=N,
        )
    )
    order = data.draw(st.permutations(range(N)))
    rescaled = PointConfiguration(
        n,
        tuple(
            tuple(scales[j] * c for c in cfg.points[j]) for j in range(N)
        ),
    ).permuted(order)
    assert codimension(d, rescaled) == base


# --- ideal degree parts and squares --------------------------------------------


def test_ideal_degree_part_examples():
    assert ideal_degree_part(1, p1_pair()) == ()
    basis = ideal_degree_part(2, plane_coords())
    assert basis == (
        (0, 1, 0, 0, 0, 0),  # x0*x1
        (0, 0, 1, 0, 0, 0),  # x0*x2
        (0, 0, 0, 0, 1, 0),  # x1*x2
    )
    assert len(ideal_degree_part(2, PointConfiguration(1, ((1, 0),)))) == 2


def test_ideal_dimension_for_independent_degrees():
    rng = random.Random(31)
    for n, N in [(1, 3), (2, 3), (2, 4)]:
        cfg = random_configuration(n, N, rng)
        for e in range(N - 1, N + 2):
            if e < 1:
                continue
            assert len(ideal_degree_part(e, cfg)) == comb(e + n, n) - N


def test_ordinary_square_examples():
    assert ordinary_square_dim(3, plane_coords()) == 0
    d4 = ordinary_square_dim(4, plane_coords())
    assert d4 == comb(6, 2) - hilbert_function(4, plane_coords(), "symbolic") == 6
    assert ordinary_square_dim(2, PointConfiguration(1, ((1, 0),))) == 1


def test_ordinary_square_never_exceeds_symbolic():
    rng = random.Random(17)
    for n, N in [(1, 2), (2, 2), (2, 3)]:
        cfg = random_configuration(n, N, rng, coord_bound=20)
        for d in range(2, 2 * N + 2):
            assert ordinary_square_dim(d, cfg) <= symbolic_square_dim(d, cfg)


def test_ordinary_square_is_exact_rank_of_products(monkeypatch):
    seen = []
    certified = linalg.integer_rank

    def recording(rows, upper=None):
        seen.append((rows, upper))
        return certified(rows, upper)

    monkeypatch.setattr(linalg, "integer_rank", recording)
    cfg = coordinate_configuration(3, 3)
    # At d = 3 < 2N the square of the ideal misses xyz: the product rank stays
    # below its bound dim I^(2)_3 = 8, so Bareiss decides. d = 4 is certified.
    for d, dim, upper in [(3, 7, 8), (4, 23, 23)]:
        seen.clear()
        assert ordinary_square_dim(d, cfg) == dim
        [(rows, bound)] = seen
        assert bound == upper == symbolic_square_dim(d, cfg)
        assert bareiss_rank(rows) == dim


# --- Hilbert functions ----------------------------------------------------------


def test_hilbert_examples():
    cfg = plane_coords()
    assert hilbert_function(5, cfg, "symbolic") == 9
    assert hilbert_function(5, cfg, "ordinary") == 9
    assert hilbert_function(3, cfg, "symbolic") == 9
    assert hilbert_function(3, cfg, "ordinary") == 10
    single = PointConfiguration(1, ((2, 7),))
    assert hilbert_function(1, single, "symbolic") == 2


def test_hilbert_modes_agree_past_twice_n():
    rng = random.Random(23)
    for n, N in [(1, 2), (2, 2), (2, 3)]:
        cfg = random_configuration(n, N, rng, coord_bound=20)
        for d in range(2 * N, 2 * N + 3):
            assert hilbert_function(d, cfg, "symbolic") == hilbert_function(
                d, cfg, "ordinary"
            ) == N * (n + 1)


def test_hilbert_bad_mode():
    with pytest.raises(ValueError):
        hilbert_function(2, p1_pair(), "floating")


# --- lemma verification ----------------------------------------------------------


def test_verify_lemma_binary_cubics():
    report = verify_codim_lemma(ParameterTriple(3, 1, 2), trials=50, seed=41)
    assert report.verified
    assert set(report.codimensions) == {4}
    assert report.collinear.degree == 2
    assert report.collinear.codimension == 3
    assert report.collinear.equals_line_bound


def test_verify_lemma_plane_quintics():
    report = verify_codim_lemma(ParameterTriple(5, 2, 3), trials=50, seed=42)
    assert report.verified
    assert set(report.codimensions) == {9}
    assert report.collinear.degree == 4
    assert report.collinear.codimension <= 8
    assert report.collinear.line_bound == 8


def test_verify_lemma_single_point_linear():
    report = verify_codim_lemma(ParameterTriple(1, 1, 1), trials=10, seed=1)
    assert report.verified
    assert set(report.codimensions) == {2}
    assert report.collinear is None


def test_verify_lemma_below_bound_is_stamped_not_failed():
    report = verify_codim_lemma(ParameterTriple(2, 1, 2), trials=5, seed=3)
    assert not report.in_guaranteed_range
    assert report.counterexamples == ()
    assert set(report.codimensions) == {3}  # below N(n+1) = 4, recorded as data


def test_verify_lemma_deterministic_and_parallel_identical():
    params = ParameterTriple(3, 1, 2)
    a = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    b = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    c = verify_codim_lemma(params, trials=8, seed=5, jobs=2)
    assert a == b == c


def test_pool_size_is_clamped_to_tasks_and_cpus(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(conditions, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 3)
    params = ParameterTriple(3, 1, 2)
    serial = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    pair = verify_codim_lemma(params, trials=2, seed=5, jobs=5000)
    assert pair.codimensions == serial.codimensions[:2]
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=5000) == serial
    assert general_position_bound(1, 2, trials=1, seed=8, d_max=3, jobs=5000) == 3
    assert sizes == [2, 3]
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: None)
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=5000) == serial
    assert sizes == [2, 3]


# --- scans -----------------------------------------------------------------------


def test_regularity_scan_examples():
    assert regularity_profile(plane_coords(), 8).stabilization_degree == 3
    assert regularity_profile(p1_pair(), 6).stabilization_degree == 3
    single = PointConfiguration(1, ((1, 3),))
    assert regularity_profile(single, 4).stabilization_degree == 1


def test_regularity_scan_profile_values():
    scan = regularity_profile(p1_pair(), 6)
    assert scan.target == 4
    assert scan.values[2] == 3
    assert all(scan.values[d] == 4 for d in range(3, 7))


def test_regularity_scan_requires_room():
    with pytest.raises(ValueError):
        regularity_profile(p1_pair(), 3)


def test_general_position_bound_examples():
    assert general_position_bound(2, 3, trials=10, seed=8, d_max=5) == 3
    assert general_position_bound(1, 2, trials=10, seed=8, d_max=3) == 3
    assert general_position_bound(3, 2, trials=10, seed=8, d_max=3) <= 3


def test_general_position_bound_exhaustion():
    with pytest.raises(StabilizationError):
        general_position_bound(1, 2, trials=3, seed=8, d_max=2)
