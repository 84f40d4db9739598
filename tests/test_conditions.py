"""Singularity conditions: matrices, codimensions, squares, scans."""

import multiprocessing
import random
import sys
import types
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stablecoh import conditions, linalg
from stablecoh.conditions import (
    RegularityScan,
    StabilizationError,
    codimension,
    derive_trial_seeds,
    general_position_bound,
    hilbert_function,
    ideal_degree_part,
    ordinary_square_dim,
    regularity_profile,
    symbolic_square_dim,
    verify_codim_lemma,
)
from stablecoh.linalg import PRIME, integer_rank
from stablecoh.monomials import enumerate_monomials
from stablecoh.params import ParameterTriple
from stablecoh.points import (
    PointConfiguration,
    collinear_configuration,
    coordinate_configuration,
    parse_points_json,
    random_configuration,
)

from oracles import (
    downward_regularity_scan,
    linear_invariance_violations,
    partial_columns,
    points_regularity,
    projective_points_mod_p,
    rank_mod_p,
    singularity_columns,
    singularity_rows_mod_p,
    sympy_certified_rank,
    sympy_codimension,
    sympy_determinant,
    sympy_frame_ranks,
    sympy_rank,
)


def plane_coords():
    return coordinate_configuration(2, 3)


def p1_pair():
    return PointConfiguration(1, ((1, 0), (0, 1)))


# --- singularity columns -------------------------------------------------------


def ordered_points(cfg):
    """The integer points, coordinates reordered by how many points vanish there, fewest first."""
    ints = cfg.integer_points
    order = sorted(range(cfg.dimension + 1), key=lambda i: sum(p[i] == 0 for p in ints))
    return [[p[i] for i in order] for p in ints]


def reordered_partials(d, cfg):
    """(e, column) for every degree-d monomial e, zero or not, at the reordered points."""
    return partial_columns(d, cfg.dimension, ordered_points(cfg))


def reference_columns(d, cfg):
    """The reference stream of every nonzero condition column, at the reordered points."""
    return singularity_columns(d, cfg.dimension, ordered_points(cfg))


def condition_rows(d, cfg):
    """The reference stream's columns, transposed to one row per condition."""
    return list(zip(*reference_columns(d, cfg)))


def counted(columns, reads):
    """The columns, one at a time, counted in a new last entry of reads."""
    reads.append(0)
    for column in columns:
        reads[-1] += 1
        yield column


def stream_rank(d, cfg, reads=None):
    """The rank certified_rank gives on the reference stream, with no split, witness or frame.

    With reads given, a new last entry counts the columns it read.
    """
    columns = reference_columns(d, cfg)
    return linalg.certified_rank(columns if reads is None else counted(columns, reads))


def frame_stream_rank(d, cfg):
    """The rank certified_rank gives on the library's stream of the columns the frame leaves."""
    return linalg.certified_rank(conditions._singularity_columns(d, cfg))


def lower_monomials(monomials):
    """The degree-(d-1) monomials e - eps_i that the partials of these monomials read."""
    return {e[:i] + (k - 1,) + e[i + 1:] for e in monomials for i, k in enumerate(e) if k}


def test_matrix_binary_quadrics_at_origin_chart():
    # x1^2 vanishes to second order at [1 : 0], so its zero column is not in the stream.
    assert condition_rows(2, PointConfiguration(1, ((1, 0),))) == [(2, 0), (0, 1)]


def test_matrix_linear_forms_constant_partials():
    rows = condition_rows(1, PointConfiguration(1, ((3, 5),)))
    assert (len(rows), len(rows[0])) == (2, 2)
    assert integer_rank(rows) == 2


def test_matrix_shape_and_rank_plane_conic():
    # Only x0^2, x0*x1 and x0*x2 have a nonzero partial at [1 : 0 : 0].
    rows = condition_rows(2, PointConfiguration(2, ((1, 0, 0),)))
    assert (len(rows), len(rows[0])) == (3, 3)
    assert integer_rank(rows) == 3


def test_matrix_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        PointConfiguration(1, ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        PointConfiguration(1, ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        codimension(0, p1_pair())


# --- codimension ---------------------------------------------------------------


def test_codimension_examples():
    assert codimension(3, p1_pair()) == 4
    assert codimension(2, p1_pair()) == 3
    assert codimension(3, plane_coords()) == 9


def test_codimension_agrees_with_sympy():
    rng = random.Random(2024)
    for n, N, d in [(1, 2, 3), (2, 2, 3), (2, 3, 4), (3, 2, 2)]:
        cfg = random_configuration(n, N, rng)
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
    cfg = random_configuration(n, N, random.Random(seed))
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
        n, tuple(tuple(scales[j] * c for c in cfg.points[j]) for j in order)
    )
    assert codimension(d, rescaled) == base


# The Alexander-Hirschowitz theorem (J. Algebraic Geom. 4, 1995): N general
# double points impose min(N(n+1), C(d+n, n)) conditions on degree-d forms,
# except for quadrics through 2 <= N <= n points and these four (n, d, N).
SPORADIC = {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}


def generic_codimension(d, n, N):
    """min(N(n+1), C(d+n, n)): the value for general points, and a cap on every configuration."""
    return min(N * (n + 1), comb(d + n, n))


def alexander_hirschowitz_cases():
    """(n, d, N, configuration) for n <= 4 and d >= 2, each at its own pinned seed.

    Two ranges are joined. For 2 <= d <= 5, N runs up to one past filling
    every column; the longest ranges keep only N <= 12 and their top two
    values. For N up to 10, or 14 in P^4 to reach (4, 4, 14), the degrees are
    those up to one past lo, the least d with C(d+n, n) >= N(n+1), and then
    2N-2 and 2N-1: where the exceptions lie, where the conditions fill the
    columns and where the lemma takes over. The rest is left out to bound the
    run time, and so are matrices past the size guard.
    """
    triples = set()
    for n in range(1, 5):
        for d in range(2, 6):
            top = comb(d + n, n) // (n + 1) + 1
            triples.update((n, d, N) for N in {*range(1, min(top, 12) + 1), top - 1, top})
        for N in range(1, (14 if n == 4 else 10) + 1):
            lo = next(d for d in range(1, 2 * N) if comb(d + n, n) >= N * (n + 1))
            triples.update((n, d, N) for d in range(2, 2 * N)
                           if (d <= lo + 1 or d >= 2 * N - 2)
                           and N * (n + 1) * comb(d + n, n) <= conditions.MAX_MATRIX_ENTRIES)
    for n, d, N in sorted(triples):
        yield n, d, N, random_configuration(n, N, random.Random(f"AH {n} {d} {N}"))


def test_codimension_matches_alexander_hirschowitz():
    exceptions = set()
    for n, d, N, cfg in alexander_hirschowitz_cases():
        value = codimension(d, cfg)
        generic = generic_codimension(d, n, N)
        if (d == 2 and 2 <= N <= n) or (n, d, N) in SPORADIC:
            assert value < generic, (n, d, N)
            exceptions.add((n, d, N))
        else:
            assert value == generic, (n, d, N)
    # Every exception with N <= 10, or N <= 14 in P^4, was read and found deficient.
    assert exceptions == SPORADIC | {(n, 2, N) for n in range(2, 5) for N in range(2, n + 1)}


def test_lemma_holds_at_every_four_points_of_the_plane_over_f3():
    # Each 4-subset of P^2(F_3), lifted to coordinates in {0, 1, 2}, has
    # conditions of rank 12 = N(n+1) over F_3 at d = 7 = 2N - 1. The rank
    # over Q is at least that, and 12 is the cap, so codimension must be 12.
    # Most coordinates are 0, which exercises the support skip and the
    # coordinate order.
    plane = projective_points_mod_p(2, 3)
    rows = {point: singularity_rows_mod_p(7, point, 3) for point in plane}
    subsets = list(combinations(plane, 4))
    assert (len(plane), len(subsets)) == (13, 715)
    for subset in subsets:
        assert rank_mod_p([row for point in subset for row in rows[point]], 3) == 12
        cfg = PointConfiguration(2, subset)
        assert codimension(7, cfg) == stream_rank(7, cfg) == 12, subset
        assert codimension(8, cfg) == 12, subset


# --- the streamed certificate ----------------------------------------------------


ZERO_HEAVY = [
    # (d, configuration) with zero coordinates; the last three reorder them.
    (3, coordinate_configuration(2, 3)),
    (5, collinear_configuration(2, 3)),
    (4, PointConfiguration(2, ((0, 1, 2), (3, 0, 5), (1, 4, 0), (0, 0, 1)))),
    (5, PointConfiguration(3, ((0, 0, 1, 2), (0, 3, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0)))),
    (6, PointConfiguration(3, ((0, 2, 3, 5), (1, 0, 0, 0), (0, 1, 0, 0)))),
]


def test_streamed_columns_are_the_partial_derivatives():
    # The stream is exactly the nonzero columns of the full matrix of partials
    # at the reordered points, in graded-lex order, less the frame's: those of
    # the monomials with an exponent >= d - 1.
    cases = [(d, cfg) for _, d, _, cfg in alexander_hirschowitz_cases() if 3 <= d <= 5]
    for d, cfg in cases + ZERO_HEAVY:
        streamed = list(conditions._singularity_columns(d, cfg))
        nonzero = [column for e, column in reordered_partials(d, cfg)
                   if any(column) and max(e) < d - 1]
        assert streamed == nonzero, (d, cfg)
    # The first point of each of the last three cases, reordered.
    assert [ordered_points(cfg)[0] for _, cfg in ZERO_HEAVY[2:]] == [
        [2, 0, 1], [0, 1, 2, 0], [2, 0, 3, 5]
    ]


@pytest.fixture
def columns_read(monkeypatch):
    """Patch the library's column stream to count what the certificate reads; one entry per stream."""
    reads = []
    stream = conditions._singularity_columns
    monkeypatch.setattr(conditions, "_singularity_columns",
                        lambda d, config: counted(stream(d, config), reads))
    return reads


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Patch the exact fallback to record the (rows, cols) of every Bareiss run."""
    shapes = []
    bareiss = linalg.bareiss_rank

    def recording(rows):
        shapes.append((len(rows), len(rows[0])))
        return bareiss(rows)

    monkeypatch.setattr(linalg, "bareiss_rank", recording)
    return shapes


@pytest.fixture
def products(monkeypatch):
    """Patch the product behind every monomial value to record one entry per call."""
    calls = []

    def recording(factors):
        calls.append(None)
        return prod(factors)

    monkeypatch.setattr(conditions, "prod", recording)
    return calls


@pytest.mark.parametrize("d, cfg, rank, read", [
    # x0*x1*x2 vanishes to second order at every coordinate point, so its
    # column is not streamed; rank 9 needs the 9 others.
    (3, coordinate_configuration(2, 3), 9, 9),
    # Points on the line x2 = 0 at d = 5 >= 2N - 1: the 11 columns of degree
    # <= 1 in x2 are streamed, and rank 9 is reached at the tenth.
    (5, collinear_configuration(2, 3), 9, 10),
])
def test_certificate_reads_past_dependent_leading_columns(d, cfg, rank, read, bareiss_calls):
    reads = []
    assert stream_rank(d, cfg, reads) == rank == sympy_codimension(d, list(cfg.points))
    assert reads == [read]
    assert bareiss_calls == []


def test_points_equal_mod_p_fall_back_to_bareiss(bareiss_calls):
    # (1, 0) and (1, p) are distinct points that coincide mod p: the rank mod
    # p is that of one double point, so the certificate fails and Bareiss decides.
    reads = []
    cfg = PointConfiguration(1, ((1, 0), (1, PRIME)))
    assert stream_rank(3, cfg, reads) == 4 == sympy_codimension(3, list(cfg.points))
    assert reads == [4]
    assert bareiss_calls == [(4, 4)]
    # Of the 21 quintic columns, the 14 of degree <= 1 in x2 or of degree
    # >= 4 in x2 are nonzero, and Bareiss runs on those 9 x 14.
    plane = PointConfiguration(2, ((1, 0, 0), (1, PRIME, 0), (0, 0, 1)))
    assert stream_rank(5, plane, reads) == 9 == sympy_codimension(5, list(plane.points))
    assert reads == [4, 14]
    assert bareiss_calls == [(4, 4), (9, 14)]


def test_certificate_work_count(bareiss_calls):
    # Full rank at seeded points: the certificate reads 32 of the 816 columns.
    reads = []
    for seed in range(4):
        assert stream_rank(15, random_configuration(3, 8, random.Random(seed)), reads) == 32
    assert reads == [32] * 4
    assert bareiss_calls == []
    # The collinear probe is rank-deficient: it reads every nonzero column,
    # 43 of the 680, and the pivot minor with an exact left kernel proves
    # rank 31 without Bareiss.
    reads.clear()
    assert stream_rank(14, collinear_configuration(3, 8), reads) == 31
    assert reads == [43]
    assert bareiss_calls == []


def test_column_reads_stay_output_sensitive(columns_read, bareiss_calls):
    # The larger probe's points lie in V(x2, x3, x4): of its 14,950 columns,
    # the 89 of degree <= 1 there are nonzero, and 79 of them have every
    # exponent below 21. The rank falls short, so all 79 are streamed.
    assert frame_stream_rank(22, collinear_configuration(4, 12)) == 52
    assert columns_read == [79]
    # The coordinate points of P^4 and seven points of a seeded trial, one of
    # them on x0 = 0. The coordinate points are the frame and move nowhere,
    # so the block keeps that zero; x0 goes last, and at d = 22 < 2N - 1 the
    # block reads one column per row. With x0 first, 12,648 are read.
    trial = random_configuration(4, 12, random.Random(derive_trial_seeds(0, 8)[2]))
    cfg = PointConfiguration(4, coordinate_configuration(4, 5).points + trial.points[-7:])
    assert [point[0] for point in trial.integer_points[-7:]].count(0) == 1
    columns_read.clear()
    assert codimension(22, cfg) == 60
    assert columns_read == [35]
    # The same with x0 = 0 set at one of four points of a (15, 3, 8) trial,
    # after the coordinate points of P^3, at d = 14.
    points = list(random_configuration(3, 8, random.Random(0)).points[:4])
    points[3] = (0,) + points[3][1:]
    columns_read.clear()
    assert codimension(14, PointConfiguration(3, coordinate_configuration(3, 4).points
                                              + tuple(points))) == 32
    assert columns_read == [16]
    assert bareiss_calls == []


def test_each_point_is_evaluated_once(columns_read, bareiss_calls, products):
    # The probe's stream is rank-deficient, so every one of its 35 columns is
    # read; each degree-13 value those columns need is computed once at each
    # of the 8 points.
    cfg = collinear_configuration(3, 8)
    assert frame_stream_rank(14, cfg) == 25
    needed = [e for e, column in reordered_partials(14, cfg) if any(column) and max(e) < 13]
    assert columns_read == [len(needed)] == [35]
    assert len(products) == 8 * len(lower_monomials(needed))
    # A full-rank trial computes only the values of the columns it reads: 33,
    # since one of the first 32 depends on the others.
    products.clear()
    assert frame_stream_rank(15, random_configuration(3, 8, random.Random(0))) == 32
    inner = [e for e in enumerate_monomials(15, 3) if max(e) < 14]
    assert len(products) == 8 * len(lower_monomials(inner[:33]))
    # Eight points on a line through no coordinate point: rank-deficient
    # with no zero column, so all 664 columns with every exponent below 13
    # are read, and each of the C(16, 3) - 4 = 556 degree-13 values with
    # every exponent below 13 is computed once per point.
    products.clear()
    line = PointConfiguration(3, tuple((1, t + 2, 2 * t + 3, t + 5) for t in range(8)))
    assert frame_stream_rank(14, line) == 31
    assert columns_read == [35, 33, 664]
    assert len(products) == 8 * (comb(16, 3) - 4)
    assert bareiss_calls == []


def test_zero_heavy_codimension_never_enumerates_the_whole_basis(monkeypatch, columns_read):
    # The probe lies in V(x2, x3, x4), so codimension splits it onto its line:
    # the 23 degree-22 columns there less the frame's 4, and the degree-21
    # values on the line.
    enumerate_all = conditions.enumerate_monomials

    def refuse_whole_basis(d, n):
        assert (d, n) != (22, 4), "the whole degree-22 basis was enumerated"
        return enumerate_all(d, n)

    monkeypatch.setattr(conditions, "enumerate_monomials", refuse_whole_basis)
    assert codimension(22, collinear_configuration(4, 12)) == 59
    assert columns_read == [19]


# --- the split along the points' span -------------------------------------------


# Points of P^4 in V(x_z : z in Z) for |Z| = 1, 2 and 3, with zeros elsewhere
# that no other coordinate shares at every point.
SUBSPACE_CONFIGS = [
    PointConfiguration(4, ((1, 2, 0, 3, 5), (2, 0, 0, 1, 1), (0, 3, 0, 1, 2))),
    PointConfiguration(4, ((0, 1, 2, 0, 3), (0, 2, 0, 0, 1), (0, 1, 1, 0, 0))),
    PointConfiguration(4, ((1, 0, 0, 2, 0), (3, 0, 0, 1, 0), (1, 0, 0, 1, 0))),
]

# The collinear probes (d, n, N) of the benchmark rungs and of two larger sizes.
PROBES = [(14, 3, 8), (10, 4, 6), (22, 2, 12), (22, 4, 12), (26, 4, 14)]


def line_without_zero_coordinates(n, N):
    """The points (1 + 2t, 1 + 3t, ..., 1 + (n+2)t) for t < N: collinear, no coordinate zero."""
    return PointConfiguration(n, tuple(tuple(1 + (i + 2) * t for i in range(n + 1))
                                       for t in range(N)))


# Points of P^4 in no coordinate subspace: u, v and u - 2v on the line through
# u = (1, 2, 0, 3, 1) and v = (2, 1, 1, 0, 3); u, v, w and u + v - w on the
# plane through them and w = (1, 1, 2, 1, 1).
SPAN_CONFIGS = [
    PointConfiguration(4, ((1, 2, 0, 3, 1), (2, 1, 1, 0, 3), (-3, 0, -2, 3, -5))),
    PointConfiguration(4, ((1, 2, 0, 3, 1), (2, 1, 1, 0, 3), (1, 1, 2, 1, 1), (2, 2, -1, 2, 3))),
]


def spanning_configurations():
    """Seeded random points spanning P^n, n = 1..4, N = n+1 and 2n+2, with no zero coordinate."""
    configs = []
    for n in range(1, 5):
        for N in (n + 1, 2 * n + 2):
            rng = random.Random(f"span {n} {N}")
            cfg = random_configuration(n, N, rng)
            while (any(0 in point for point in cfg.integer_points)
                   or len(linalg._eliminate(cfg.integer_points, n + 1)[1]) <= n):
                cfg = random_configuration(n, N, rng)
            configs.append(cfg)
    return configs


@pytest.fixture(scope="module")
def split_oracle():
    """(d, configuration, rank): sympy's rank of the nonzero partials, or the probes' line bound."""
    cases = list(ZERO_HEAVY)
    # Spanning points at d <= 2, where codimension takes the closed form.
    cases += [(d, cfg) for cfg in spanning_configurations() for d in (1, 2)]
    cases += [(d, coordinate_configuration(n, N))
              for n in range(1, 5) for N in range(1, n + 2) for d in range(1, 2 * N + 2)]
    cases += [(d, cfg) for cfg in SUBSPACE_CONFIGS for d in range(1, 2 * cfg.count + 2)]
    # Spans that are no coordinate subspace: lines of P^3 and a line and a plane of P^4.
    spans = [line_without_zero_coordinates(3, N) for N in (3, 4)] + SPAN_CONFIGS
    cases += [(d, cfg) for cfg in spans for d in range(1, 2 * cfg.count + 2)]
    oracle = []
    for d, cfg in cases:
        oracle.append((d, cfg, sympy_rank(condition_rows(d, cfg))))
    return oracle + [(d, collinear_configuration(n, N), N * (n - 1) + d + 1) for d, n, N in PROBES]


def test_split_matches_the_stream_and_sympy(split_oracle):
    common_zeros = [[z for z in range(5) if not any(p[z] for p in cfg.integer_points)]
                    for cfg in SUBSPACE_CONFIGS]
    assert common_zeros == [[2], [0, 3], [1, 2, 4]]
    # The spans share no zero coordinate; their pivot columns are a line's and a plane's.
    assert all(any(column) for cfg in SPAN_CONFIGS for column in zip(*cfg.integer_points))
    assert [linalg._eliminate(cfg.integer_points, 5)[1] for cfg in SPAN_CONFIGS] == [
        [0, 1], [0, 1, 2]]
    for d, cfg, rank in split_oracle:
        assert codimension(d, cfg) == rank <= generic_codimension(d, cfg.dimension, cfg.count)
    # The certified rank of the reference stream meets sympy's. The probes'
    # reference streams walk up to 27,405 columns, so three of their sizes
    # are certified in test_collinear_probe_certificates_pass_the_oracle instead.
    for d, cfg, rank in split_oracle[:-len(PROBES)]:
        assert stream_rank(d, cfg) == rank, (d, cfg)


@pytest.mark.parametrize("d, n, N", PROBES)
def test_collinear_probe_splits_into_full_rank_blocks(d, n, N, columns_read, certificates,
                                                      bareiss_calls):
    # 2N - 1 columns of full rank on the line, then n - 1 evaluation blocks of rank N.
    # On the line, two points' frame peels 4 of those columns off unread.
    assert codimension(d, collinear_configuration(n, N)) == (2 * N - 1) + (n - 1) * N
    assert columns_read == [2 * N - 5]
    assert certificates == [] and bareiss_calls == []


@pytest.mark.parametrize("n", [3, 4])
def test_lines_without_zero_coordinates_split_onto_their_line(n, certificates, bareiss_calls):
    # Eight points on a line in no coordinate subspace: the pivot columns of the
    # points put every degree on the line, where no rank needs a certificate.
    target = 8 * (n + 1)
    scan = regularity_profile(line_without_zero_coordinates(n, 8), 19)
    values = {14: target - 1, **dict.fromkeys(range(15, 20), target)}
    assert scan == RegularityScan(15, target, values)
    assert certificates == [] and bareiss_calls == []


def test_lines_without_zero_coordinates_meet_the_line_bound():
    # Binary forms at N double points of the line, plus n - 1 evaluation blocks on it.
    for n in (2, 3, 4):
        for N in (3, 5, 8):
            cfg = line_without_zero_coordinates(n, N)
            degrees = range(1, 2 * N + 2)
            assert [codimension(d, cfg) for d in degrees] == [
                min(2 * N, d + 1) + (n - 1) * min(N, d) for d in degrees], (n, N)


def mutant_conditions(old, new):
    """The conditions module with one source edit, loaded under another name."""
    source = Path(conditions.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    mutant = types.ModuleType("stablecoh.conditions_mutant")
    mutant.__package__ = "stablecoh"
    exec(compile(source.replace(old, new), conditions.__file__, "exec"), mutant.__dict__)
    return mutant


BLOCK_MUTATIONS = {
    "without-the-Z-factor": ("(n + 1 - len(support)) * certified_rank", "certified_rank"),
    "evaluation-at-degree-d": ("evaluation_matrix(d - 1, dropped)", "evaluation_matrix(d, dropped)"),
}
SPLIT_MUTATIONS = {
    **BLOCK_MUTATIONS,
    # Drops a pivot again at each recursion, so every configuration ends in a ValueError.
    "one-pivot-dropped": ("_eliminate(config.integer_points, n + 1)[1]",
                          "_eliminate(config.integer_points, n + 1)[1][:-1]"),
}


def value_or_error(function, d, cfg):
    """function(d, cfg), or the ValueError it raised: either can fail an oracle."""
    try:
        return function(d, cfg)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("old, new", SPLIT_MUTATIONS.values(), ids=SPLIT_MUTATIONS)
def test_split_mutants_fail_the_oracle(old, new, split_oracle):
    mutant = mutant_conditions(old, new)
    assert any(value_or_error(mutant.codimension, d, cfg) != rank
               for d, cfg, rank in split_oracle)


@pytest.mark.parametrize("old, new", BLOCK_MUTATIONS.values(), ids=BLOCK_MUTATIONS)
def test_block_mutants_leave_spanning_points_alone(old, new):
    # Three general points span the plane and take no split.
    cfg = random_configuration(2, 3, random.Random(0))
    assert mutant_conditions(old, new).codimension(3, cfg) == 9


def invariance_cases():
    """(d, integer points) of random, collinear and coordinate configurations, n <= 4, N <= 7, d <= 2N."""
    for n in range(1, 5):
        for N in range(1, 8):
            configs = [random_configuration(n, N, random.Random(f"GL {n} {N}")),
                       collinear_configuration(n, N)]
            configs += [coordinate_configuration(n, N)] if N <= n + 1 else []
            for cfg in configs:
                yield from ((d, cfg.integer_points) for d in range(1, 2 * cfg.count + 1))


def invariance_violations(module):
    def codim(d, points):
        return module.codimension(d, PointConfiguration(len(points[0]) - 1, tuple(points)))

    return linear_invariance_violations(codim, invariance_cases(), seed=2013)


def test_codimension_is_invariant_under_unimodular_changes_of_coordinates():
    # g.P spans no coordinate subspace, so the split, the witness and the frame
    # run on other supports and larger entries than at P.
    assert list(invariance_violations(conditions)) == []


# The Z factor counts the same blocks at P and g.P, so only the other two fail here.
@pytest.mark.parametrize("name", ["evaluation-at-degree-d", "one-pivot-dropped"])
def test_split_mutants_fail_the_invariance_check(name):
    mutant = mutant_conditions(*SPLIT_MUTATIONS[name])
    try:
        caught = next(invariance_violations(mutant), None) is not None
    except ValueError:
        caught = True
    assert caught


# --- the points' own frame -------------------------------------------------------


def small_configuration(n, N, rng, bound=2, line=0):
    """N points of P^n that span it, coordinates in [-bound, bound]; the first `line` collinear."""
    while True:
        u, v = ([rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(2))
        points = {}
        for t in range(line):
            points.setdefault(tuple(a + t * b for a, b in zip(u, v)), None)
        while len(points) < N:
            points.setdefault(tuple(rng.randint(-bound, bound) for _ in range(n + 1)), None)
        try:
            cfg = PointConfiguration(n, tuple(points))
        except ValueError:  # a zero vector or a projective repeat: draw again
            continue
        if len(linalg._eliminate(cfg.integer_points, n + 1)[1]) == n + 1:
            return cfg


def frame_cases():
    """(d, configuration) of points spanning P^n, n <= 4, at 3 <= d < 2N-1: the frame's range.

    Pinned random points, points partly on a line, the coordinate points
    with and without others, and the Alexander-Hirschowitz sporadic cases,
    which are rank-deficient at their own degree. Other matrices above 1,500
    entries are left out to bound sympy's run time, so every degree is read
    for the smaller sizes and the lowest ones for the larger.
    """
    rng = random.Random("frame")
    configs = [small_configuration(n, N, rng) for n, N in
               [(1, 3), (1, 6), (2, 4), (2, 6), (3, 5), (3, 6), (4, 6), (4, 7)]]
    configs += [small_configuration(n, N, rng, line=k) for n, N, k in
                [(2, 6, 4), (3, 6, 3), (3, 7, 5), (4, 7, 4)]]
    configs += [coordinate_configuration(n, n + 1) for n in range(1, 5)]
    configs += [PointConfiguration(n, coordinate_configuration(n, n + 1).points
                                   + ((1,) * (n + 1), tuple(range(1, n + 2))))
                for n in range(1, 5)]
    # Every configuration is deficient where general points are.
    configs += [small_configuration(n, N, rng) for n, _, N in sorted(SPORADIC)]
    for cfg in configs:
        n, N = cfg.dimension, cfg.count
        for d in range(3, 2 * N - 1):
            if N * (n + 1) * comb(d + n, n) <= 1500 or (n, d, N) in SPORADIC:
                yield d, cfg


@pytest.fixture(scope="module")
def frame_oracle():
    """(d, configuration, full rank, block rank), the ranks by sympy (see sympy_frame_ranks)."""
    return [(d, cfg, *sympy_frame_ranks(d, list(cfg.integer_points))) for d, cfg in frame_cases()]


def test_frame_peels_the_coordinate_points_rows_off(frame_oracle):
    assert len(frame_oracle) >= 70
    assert {cfg.dimension for _, cfg, _, _ in frame_oracle} == {1, 2, 3, 4}
    deficient = set()
    for d, cfg, full, block in frame_oracle:
        n, N = cfg.dimension, cfg.count
        # The frame proves every rank itself, a block short of its bound included.
        assert codimension(d, cfg) == conditions._frame_rank(d, cfg) == full, (d, cfg)
        assert full == (n + 1) ** 2 + block, (d, cfg)
        if full < generic_codimension(d, n, N):
            deficient.add((n, d, N))
    assert SPORADIC <= deficient and len(deficient) < len(frame_oracle) // 5


FRAME_MUTATIONS = {
    "frame-columns-streamed": (">= d - 1", "> d - 1"),
    "peeled-count-one-short": ("peeled = (n + 1) ** 2", "peeled = (n + 1) ** 2 - 1"),
}


@pytest.mark.parametrize("old, new", FRAME_MUTATIONS.values(), ids=FRAME_MUTATIONS)
def test_frame_mutants_fail_the_oracle(old, new, frame_oracle):
    mutant = mutant_conditions(old, new)
    assert any(value_or_error(mutant.codimension, d, cfg) != full
               for d, cfg, full, _ in frame_oracle)


DISPATCH_MUTATIONS = {
    "closed-form-at-d-3": ("if d <= 2:", "if d <= 3:"),
    "frame-at-d-2": ("if d <= 2:", "if d <= 1:"),
    "witness-at-2N-2": ("d >= 2 * config.count - 1", "d >= 2 * config.count - 2"),
}


@pytest.mark.parametrize("old, new", DISPATCH_MUTATIONS.values(), ids=DISPATCH_MUTATIONS)
def test_dispatch_mutants_fail_an_oracle(old, new, split_oracle, frame_oracle):
    mutant = mutant_conditions(old, new)
    cases = split_oracle + [(d, cfg, full) for d, cfg, full, _ in frame_oracle]
    assert any(value_or_error(mutant.codimension, d, cfg) != rank for d, cfg, rank in cases)


def test_coordinate_points_read_no_column(columns_read, certificates):
    # n+1 points spanning P^n are their own frame: (n+1)^2 with no column read.
    for n in range(1, 5):
        for d in range(3, 2 * n + 1):
            assert codimension(d, coordinate_configuration(n, n + 1)) == (n + 1) ** 2
    # At d <= 2 spanning points take the closed form, every column.
    for cfg in [coordinate_configuration(n, n + 1) for n in range(1, 5)] + spanning_configurations():
        for d in (1, 2):
            assert codimension(d, cfg) == comb(d + cfg.dimension, d), (d, cfg)
    assert columns_read == [] and certificates == []


def test_sporadic_cases_stream_once(columns_read):
    # The short block is certified in the stream it was read in, on the frame.
    cases = {(n, d, N): cfg for n, d, N, cfg in alexander_hirschowitz_cases()}
    for n, d, N in sorted(SPORADIC):
        columns_read.clear()
        assert codimension(d, cases[n, d, N]) == min(N * (n + 1), comb(d + n, n)) - 1
        assert len(columns_read) == 1, (n, d, N)


def test_frame_block_equal_mod_p_falls_back_to_bareiss_on_the_frame(columns_read,
                                                                     bareiss_calls):
    # (1, p) is (1, 0) mod p, so the block's one column, x0^2 x1^2's, is zero
    # mod p: the certificate fails and Bareiss decides the 1 x 2 block.
    line = PointConfiguration(1, ((1, 0), (0, 1), (1, PRIME)))
    assert codimension(4, line) == 5 == sympy_codimension(4, list(line.points))
    assert columns_read == [1] and bareiss_calls == [(1, 2)]
    # In the plane, the moved fourth point's 3 rows meet the monomials with
    # every exponent below d - 1: 6, 12 and 19 columns, none of them a pivot mod p.
    plane = PointConfiguration(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, PRIME, PRIME)))
    for d, cols in [(4, 6), (5, 12), (6, 19)]:
        columns_read.clear()
        bareiss_calls.clear()
        full, _ = sympy_frame_ranks(d, list(plane.integer_points))
        assert codimension(d, plane) == 12 == full, d
        assert columns_read == [cols] and bareiss_calls == [(3, cols)], d


# --- the lemma's witness ---------------------------------------------------------


LEMMA_SIZES = [(15, 3, 8), (11, 4, 6), (23, 2, 12)]


def test_witness_agrees_with_the_stream(columns_read):
    # codimension reads no column, and the reference stream alone gives the same value.
    configs = [(d, random_configuration(n, N, random.Random(s)))
               for d, n, N in LEMMA_SIZES for s in derive_trial_seeds(5, 4)]
    x0_seed = derive_trial_seeds(0, 8)[2]
    configs.append((23, random_configuration(4, 12, random.Random(x0_seed))))
    configs.append((20, collinear_configuration(3, 8)))  # points on a line, d > 2N-1
    for d, cfg in configs:
        expected = cfg.count * (cfg.dimension + 1)
        assert codimension(d, cfg) == expected
        assert columns_read == []
        assert stream_rank(d, cfg) == expected
        columns_read.clear()


@pytest.mark.parametrize("d, n, N", LEMMA_SIZES + [(23, 4, 12)])
def test_sampled_lemma_trials_never_fall_back(d, n, N, columns_read, certificates, bareiss_calls):
    report = verify_codim_lemma(ParameterTriple(d, n, N), trials=4, seed=9)
    assert report.verified and set(report.codimensions) == {N * (n + 1)}
    # Only the collinear probe at 2N-2 streams, on its line, where its 2N-1
    # columns have full rank and the frame reads 4 fewer: no rank needs a
    # certificate or Bareiss.
    assert columns_read == [2 * N - 5]
    assert certificates == [] and bareiss_calls == []


def test_witness_certifies_points_equal_mod_p(columns_read, bareiss_calls):
    # (1, 0) and (1, p): each K_a(p_a) is p^2, so each block is singular mod
    # p. The blocks are decided by exact elimination over Z, with no prime,
    # so neither the stream nor the Bareiss fallback runs.
    cfg = PointConfiguration(1, ((1, 0), (1, PRIME)))
    assert codimension(3, cfg) == 4
    assert columns_read == []
    assert bareiss_calls == []


def test_failed_witness_falls_back_to_the_frame(monkeypatch, columns_read):
    # Four points spanning P^3 are their own frame, so the fallback reads no column.
    cfg = random_configuration(3, 4, random.Random(3))
    separate = conditions._separating_form
    frame_rank = conditions._frame_rank
    framed = []
    monkeypatch.setattr(conditions, "_frame_rank",
                        lambda d, config: framed.append(d) or frame_rank(d, config))

    def not_vanishing(p, q):
        # Still nonzero at p, but no longer zero at q.
        return [c + x for c, x in zip(separate(p, q), p)]

    monkeypatch.setattr(conditions, "_separating_form", not_vanishing)
    assert conditions._witness_blocks(7, cfg) is None
    assert codimension(7, cfg) == 16
    assert framed == [7] and columns_read == []
    # A block of rank below n+1 also hands the degree to the frame.
    monkeypatch.setattr(conditions, "_separating_form", separate)
    blocks = conditions._witness_blocks(7, cfg)
    blocks[2] = [[row[0]] * 4 for row in blocks[2]]
    monkeypatch.setattr(conditions, "_witness_blocks", lambda d, config: blocks)
    assert codimension(7, cfg) == 16
    assert framed == [7, 7] and columns_read == []


def witness_polynomial(d, points, a):
    """K_a as {exponent: coefficient}, built from the lemma's recipe by polynomial products."""
    p, n1 = points[a], len(points[a])
    m = next(i for i, c in enumerate(p) if c)
    forms = [[int(i == m) for i in range(n1)]] * (d + 1 - 2 * len(points))
    for b, q in enumerate(points):
        if b != a:
            i, j = next((i, j) for i, j in combinations(range(n1), 2)
                        if p[i] * q[j] != p[j] * q[i])
            form = [0] * n1
            form[i], form[j] = q[j], -q[i]
            forms += [form, form]
    poly = {(0,) * n1: 1}
    for form in forms:
        product = {}
        for e, c in poly.items():
            for i, f in enumerate(form):
                if f:
                    key = e[:i] + (e[i] + 1,) + e[i + 1:]
                    product[key] = product.get(key, 0) + c * f
        poly = product
    return poly


@pytest.mark.parametrize("d, n, N, seed", [(3, 1, 2, 0), (5, 2, 3, 1), (6, 2, 3, 2),
                                           (4, 3, 2, 3), (7, 1, 3, 4)])
def test_witness_blocks_are_the_conditions_of_the_witness_forms(d, n, N, seed):
    # Points with no zero coordinate, so M_a = x0 at every point, and not all with x0 = 1.
    rng = random.Random(seed)
    cfg = random_configuration(n, N, rng)
    while any(0 in point for point in cfg.integer_points):
        cfg = random_configuration(n, N, rng)
    assert any(point[0] != 1 for point in cfg.integer_points)
    columns = list(partial_columns(d, n, cfg.integer_points))
    blocks = conditions._witness_blocks(d, cfg)
    for a in range(N):
        kpoly = witness_polynomial(d, cfg.integer_points, a)
        for j in range(n + 1):
            form = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in kpoly.items()}
            conditions_of_form = [
                sum(form.get(e, 0) * column[r] for e, column in columns)
                for r in range(N * (n + 1))
            ]
            expected = [0] * (N * (n + 1))
            for i in range(n + 1):
                expected[a * (n + 1) + i] = blocks[a][i][j]
            assert conditions_of_form == expected, (a, j)


@pytest.mark.parametrize("d, n, N", LEMMA_SIZES + [(8, 2, 4)])
def test_witness_block_determinant_is_d_times_a_power_of_k(d, n, N):
    # B_a = K I + grad K p_a^T has det K^n (K + grad K . p_a), and by Euler's
    # identity grad K . p_a = (d - 1) K at p_a: det B_a = d K_a(p_a)^(n+1) != 0.
    for seed in range(3):
        cfg = random_configuration(n, N, random.Random(seed))
        for a, block in enumerate(conditions._witness_blocks(d, cfg)):
            p = cfg.integer_points[a]
            kpoly = witness_polynomial(d, cfg.integer_points, a)
            k = sum(c * prod(map(pow, p, e)) for e, c in kpoly.items())
            assert k != 0 and sympy_determinant(block) == d * k ** (n + 1), (seed, a)


@pytest.fixture
def certificates(monkeypatch):
    """Patch the rank certificate to record each matrix it saw, as rows, and its result."""
    issued = []
    certify = linalg._rank_certificate

    def recording(columns, pivots):
        certificate = certify(columns, pivots)
        issued.append(([list(row) for row in zip(*columns)], certificate))
        return certificate

    monkeypatch.setattr(linalg, "_rank_certificate", recording)
    return issued


def check_issued_certificate(value, certificates, bareiss_calls):
    """The one certificate issued for this rank passes the sympy oracle, without Bareiss."""
    [(rows, certificate)] = certificates
    assert certificate is not None and bareiss_calls == []
    assert sympy_certified_rank(rows, *certificate[1:]) == value
    return value


@pytest.mark.parametrize("d, n, N", [(14, 3, 8), (10, 4, 6), (22, 2, 12)])
def test_collinear_probe_certificates_pass_the_oracle(d, n, N, certificates, bareiss_calls):
    # The sharpness probes of the benchmark rungs, every nonzero column of them in P^n
    # (codimension splits them onto their line instead): rank N(n+1) - 1 at degree 2N-2.
    value = stream_rank(d, collinear_configuration(n, N))
    assert check_issued_certificate(value, certificates, bareiss_calls) == N * (n + 1) - 1


def test_sporadic_certificates_pass_the_oracle(certificates, bareiss_calls):
    # The one certificate is the frame's block's: the rank less the (n+1)^2 peeled off.
    cases = {(n, d, N): cfg for n, d, N, cfg in alexander_hirschowitz_cases()}
    for n, d, N in sorted(SPORADIC):
        certificates.clear()
        value = codimension(d, cases[n, d, N])
        assert value == min(N * (n + 1), comb(d + n, n)) - 1, (n, d, N)
        check_issued_certificate(value - (n + 1) ** 2, certificates, bareiss_calls)


def test_golden_configuration_certificates_pass_the_oracle():
    # Full rank at every degree, so codimension never needs the certificate;
    # the helper still proves the rank of every nonzero column, in both
    # orientations (12 x 3 to 12 x 36).
    cfg = parse_points_json((Path(__file__).parent / "golden" / "points.json").read_text())
    for d in range(1, 8):
        columns = list(reference_columns(d, cfg))
        pivots = linalg.modular_column_rank(columns, len(columns))
        certificate = linalg._rank_certificate(columns, pivots)
        rows = [list(row) for row in zip(*columns)]
        assert sympy_certified_rank(rows, *certificate[1:]) == len(pivots) == codimension(d, cfg)


def test_full_column_rank_needs_no_certificate(certificates, bareiss_calls):
    # x0^2 vanishes to order two at both points, so 5 columns are nonzero for
    # 6 rows. Rank 5 meets min(rows, columns read), which proves it exact.
    cfg = PointConfiguration(2, ((0, 0, 1), (0, 1, 0)))
    columns = list(reference_columns(2, cfg))
    assert len(columns) == 5 and {len(column) for column in columns} == {6}
    assert stream_rank(2, cfg) == codimension(2, cfg) == 5 == sympy_codimension(2, list(cfg.points))
    assert certificates == [] and bareiss_calls == []


# --- problem-size guard ---------------------------------------------------------


def test_oversize_matrices_are_refused_before_enumeration(monkeypatch):
    def refuse(d, n):
        raise AssertionError("monomials enumerated")

    monkeypatch.setattr(conditions, "enumerate_monomials", refuse)
    monkeypatch.setattr(conditions, "monomial_index", refuse)
    cfg = random_configuration(6, 2, random.Random(0))
    with pytest.raises(ValueError, match="too large"):
        codimension(60, cfg)
    with pytest.raises(ValueError, match="too large"):
        conditions.evaluation_matrix(60, cfg)
    # The degree-60 index alone would hold C(66, 6) = 90,858,768 monomials;
    # the symbolic bound's guard must refuse before it is built.
    with pytest.raises(ValueError, match="too large"):
        ordinary_square_dim(60, cfg)
    with pytest.raises(ValueError, match="too large"):
        hilbert_function(60, cfg, "ordinary")


def test_oversize_ordinary_square_is_refused_before_products(monkeypatch):
    class NoLookup(dict):
        def __getitem__(self, key):
            raise AssertionError("product loop reached")

    index = conditions.monomial_index
    # Only the degree-30 index feeds the product loop.
    monkeypatch.setattr(
        conditions, "monomial_index", lambda d, n: NoLookup(index(d, n)) if d == 30 else index(d, n)
    )
    cfg = random_configuration(2, 4, random.Random(0))
    with pytest.raises(ValueError, match="too large"):
        hilbert_function(30, cfg, "ordinary")
    # Collinear points impose dependent conditions, so their ideal has more
    # forms than C(e+n, n) - N: the lower bound on the pairs passes
    # (1,720,004 entries) and only the exact count after the kernels refuses.
    monkeypatch.setattr(
        conditions, "monomial_index", lambda d, n: NoLookup(index(d, n)) if d == 10 else index(d, n)
    )
    with pytest.raises(ValueError, match="too large: 8125 x 286"):
        hilbert_function(10, collinear_configuration(3, 8), "ordinary")


def test_oversize_ordinary_square_is_refused_before_any_kernel(monkeypatch):
    # Each degree-e basis has at least C(e+4, 4) - 2 forms, so at d = 18 the
    # pairs number at least 2,537,650, each a 7,315-entry product: refused
    # before the lower-degree kernels, which take seconds and 300 MB to build.
    def refuse(e, config):
        raise AssertionError("kernel built")

    monkeypatch.setattr(conditions, "ideal_degree_part", refuse)
    cfg = random_configuration(4, 2, random.Random(0))
    with pytest.raises(ValueError, match="too large: 2537650 x 7315"):
        ordinary_square_dim(18, cfg)
    with pytest.raises(ValueError, match="too large"):
        hilbert_function(18, cfg, "ordinary")


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
        cfg = random_configuration(n, N, rng)
        for d in range(2, 2 * N + 2):
            assert ordinary_square_dim(d, cfg) <= symbolic_square_dim(d, cfg)


def test_ordinary_square_is_exact_rank_of_products(monkeypatch):
    seen = []
    certified = conditions.integer_rank

    def recording(rows, upper=None):
        seen.append((rows, upper))
        return certified(rows, upper)

    monkeypatch.setattr(conditions, "integer_rank", recording)
    cfg = coordinate_configuration(3, 3)
    # At d = 3 < 2N the square of the ideal misses xyz: the product rank stays
    # below its bound dim I^(2)_3 = 8, so Bareiss decides. d = 4 is certified.
    for d, dim, upper in [(3, 7, 8), (4, 23, 23)]:
        seen.clear()
        assert ordinary_square_dim(d, cfg) == dim
        [(rows, bound)] = seen
        assert bound == upper == symbolic_square_dim(d, cfg)
        assert sympy_rank(rows) == dim


def square_regularity_cases():
    """(d, cfg) at 2·reg(I) and 2·reg(I) + 1, for n <= 3 and N <= 6."""
    for n in range(1, 4):
        for N in range(1, 7):
            configs = [random_configuration(n, N, random.Random(f"reg {n} {N}"))]
            # Five or more collinear points of P^3 reach d = 10, past the size guard.
            configs += [collinear_configuration(n, N)] if n < 3 or N < 5 else []
            configs += [coordinate_configuration(n, N)] if N <= n + 1 else []
            for cfg in configs:
                reg = points_regularity(cfg.integer_points)
                yield from ((d, cfg) for d in (2 * reg, 2 * reg + 1))


def test_ordinary_square_meets_the_symbolic_from_twice_the_regularity():
    # reg(I^2) <= 2·reg(I) for the ideal I of points: Chandler, Comm. Algebra
    # 25 (1997); Geramita, Gimigliano and Pitteloud, Math. Ann. 301 (1995).
    # I^2 saturates to I^(2), and an ideal agrees with its saturation from
    # its regularity on, so dim I^2_d = dim I^(2)_d for every d >= 2·reg(I).
    cases = list(square_regularity_cases())
    # The benchmark's hilbert sizes (d, n, N), on the configurations of seeds 0 and 1.
    for d, n, N in [(8, 2, 4), (7, 3, 4)]:
        for seed in (0, 1):
            cfg = random_configuration(n, N, random.Random(seed))
            assert d >= 2 * points_regularity(cfg.integer_points)
            cases.append((d, cfg))
    assert len(cases) == 90
    for d, cfg in cases:
        assert ordinary_square_dim(d, cfg) == symbolic_square_dim(d, cfg), (d, cfg)


SQUARE_MUTATIONS = {
    "one-coefficient-dropped": ("+= ga * hb", "+= hb"),
    "middle-split-dropped": ("range(1, d // 2 + 1):", "range(1, (d + 1) // 2):"),
    "bound-one-short": ("integer_rank(list(products), bound)",
                        "integer_rank(list(products), bound - 1)"),
}


@pytest.fixture(scope="module")
def square_oracle():
    """(d, cfg, dim I^(2)_d) on the cases where the two squares agree."""
    return [(d, cfg, symbolic_square_dim(d, cfg)) for d, cfg in square_regularity_cases()]


@pytest.mark.parametrize("old, new", SQUARE_MUTATIONS.values(), ids=SQUARE_MUTATIONS)
def test_square_mutants_fail_the_oracle(old, new, square_oracle):
    mutant = mutant_conditions(old, new)
    assert any(value_or_error(mutant.ordinary_square_dim, d, cfg) != dim
               for d, cfg, dim in square_oracle)


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
        cfg = random_configuration(n, N, rng)
        for d in range(2 * N, 2 * N + 3):
            assert hilbert_function(d, cfg, "symbolic") == hilbert_function(
                d, cfg, "ordinary"
            ) == N * (n + 1)


def test_hilbert_bad_mode():
    with pytest.raises(ValueError):
        hilbert_function(2, p1_pair(), "floating")


def test_degree_one_takes_the_general_path_in_both_squares():
    # No split 1 <= a <= d/2 exists at d = 1, so the product list is empty.
    configs = [random_configuration(3, 4, random.Random(5)), plane_coords(),
               collinear_configuration(3, 4)]
    for cfg in configs:
        assert ordinary_square_dim(1, cfg) == 0
        assert hilbert_function(1, cfg, "ordinary") == cfg.dimension + 1


@pytest.mark.parametrize("mode", ["symbolic", "ordinary"])
@pytest.mark.parametrize("d", [0, -1])
def test_each_square_refuses_degrees_below_one(d, mode):
    with pytest.raises(ValueError, match=rf"^degree must be >= 1, got {d}$"):
        hilbert_function(d, plane_coords(), mode)


def test_a_configuration_of_no_points_is_refused_where_it_is_built():
    entry_points = [
        lambda: codimension(3, PointConfiguration(2, ())),
        lambda: regularity_profile(PointConfiguration(2, ()), 4),
        lambda: ordinary_square_dim(3, PointConfiguration(2, ())),
        lambda: general_position_bound(2, 0, 3, 0, 5),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match=r"^point count must be >= 1, got 0$"):
            call()


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
    params = ParameterTriple(2, 1, 2)
    assert not params.in_guaranteed_range
    report = verify_codim_lemma(params, trials=5, seed=3)
    assert report.counterexamples == ()
    assert set(report.codimensions) == {3}  # below N(n+1) = 4, recorded as data


def test_verify_lemma_deterministic_and_parallel_identical():
    params = ParameterTriple(3, 1, 2)
    a = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    b = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    c = verify_codim_lemma(params, trials=8, seed=5, jobs=2)
    assert a == b == c


def test_counterexamples_and_probe_echo_json_points(monkeypatch):
    monkeypatch.setattr(conditions, "codimension", lambda d, config: 0)
    report = verify_codim_lemma(ParameterTriple(3, 1, 2), trials=3, seed=9, jobs=1)
    sampled = [random_configuration(1, 2, random.Random(s)) for s in derive_trial_seeds(9, 3)]
    assert [c["points"] for c in report.counterexamples] == [
        config.json_points() for config in sampled
    ]
    assert report.collinear.points == collinear_configuration(1, 2).json_points()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit the patched pickling")
def test_pool_workers_return_integers_and_counterexamples_echo_their_seed(monkeypatch):
    # A trial crosses the pool as its seed and comes back as an integer: with
    # every PointConfiguration unpicklable in the workers, two-worker runs give
    # the one-worker results, and a counterexample's points are those of its seed.
    params = ParameterTriple(3, 1, 2)
    failing = random_configuration(1, 2, random.Random(derive_trial_seeds(5, 8)[1]))
    codim = conditions.codimension
    monkeypatch.setattr(conditions, "codimension",
                        lambda d, config: 0 if config == failing else codim(d, config))
    monkeypatch.setattr(conditions, "POOL_START_S", 0)
    claim_cpus(monkeypatch, 2)
    runs = (lambda jobs: verify_codim_lemma(params, trials=8, seed=5, jobs=jobs),
            lambda jobs: general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=jobs))
    serial = [run(1) for run in runs]
    assert [c["trial"] for c in serial[0].counterexamples] == [1]
    assert serial[0].counterexamples[0]["points"] == failing.json_points()

    def refuse(self, protocol):
        raise TypeError("a PointConfiguration crossed the process pool")

    monkeypatch.setattr(PointConfiguration, "__reduce_ex__", refuse)
    assert [run(2) for run in runs] == serial


def claim_cpus(monkeypatch, count):
    """Let this process run on `count` CPUs, as its affinity mask reads."""
    monkeypatch.setattr(conditions.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process stand-in; returns the sizes asked for.

    With no head start every trial goes to the pool, as it did before there was one.
    """
    sizes = []
    monkeypatch.setattr(conditions, "POOL_START_S", 0)

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
    return sizes


def test_pool_size_is_clamped_to_tasks_and_cpus(monkeypatch, pool_sizes):
    claim_cpus(monkeypatch, 3)
    params = ParameterTriple(3, 1, 2)
    serial = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    pair = verify_codim_lemma(params, trials=2, seed=5, jobs=5000)
    assert pair.codimensions == serial.codimensions[:2]
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=5000) == serial
    assert general_position_bound(1, 2, trials=1, seed=8, d_max=3, jobs=5000) == 3
    assert pool_sizes == [2, 3]
    # Where the OS keeps no affinity mask, the CPU count stands in, and an unknown one is 1.
    monkeypatch.delattr(conditions.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: None)
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=5000) == serial
    assert pool_sizes == [2, 3]


def test_one_cpu_affinity_starts_no_pool(monkeypatch, pool_sizes):
    # The machine has four CPUs, but this process may run on one of them.
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 4)
    claim_cpus(monkeypatch, 1)
    params = ParameterTriple(3, 1, 2)
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=4) == verify_codim_lemma(
        params, trials=8, seed=5, jobs=1)
    assert pool_sizes == []


def test_trials_within_the_head_start_start_no_pool(monkeypatch):
    # The trials finish inside the head start, so --jobs 2 runs them all in
    # this process and never looks up, let alone imports, the pool.
    monkeypatch.setattr(conditions, "POOL_START_S", 3600)
    claim_cpus(monkeypatch, 2)
    monkeypatch.delitem(sys.modules, "concurrent.futures", raising=False)
    monkeypatch.delitem(vars(conditions), "ProcessPoolExecutor", raising=False)
    params = ParameterTriple(3, 1, 2)
    serial = (verify_codim_lemma(params, trials=8, seed=5, jobs=1),
              general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=1))
    assert (verify_codim_lemma(params, trials=8, seed=5, jobs=2),
            general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=2)) == serial
    assert "concurrent.futures" not in sys.modules
    assert "ProcessPoolExecutor" not in vars(conditions)


def test_trial_counts_above_the_limit_are_refused_before_any_seed(monkeypatch):
    class Derived(Exception):
        pass

    def derive(seed, trials):
        raise Derived(trials)

    monkeypatch.setattr(conditions, "derive_trial_seeds", derive)
    limit = conditions.MAX_TRIALS
    runs = (lambda trials: verify_codim_lemma(ParameterTriple(3, 1, 2), trials, seed=0),
            lambda trials: general_position_bound(1, 2, trials, seed=0, d_max=3))
    for run in runs:
        with pytest.raises(ValueError, match=f"^problem too large: {limit + 1} trials "
                                             f"exceeds {limit}$"):
            run(limit + 1)
        with pytest.raises(Derived):  # the limit itself gets as far as its seeds
            run(limit)


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


# Stand-ins for codimension at two points of P^1 (target 4, bound 2N-1 = 3)
# that the lemma rules out, so only a fake reaches regularity_profile's errors.
UNSTABLE_SCANS = {
    "unstable-at-d-max": (lambda d, config: 3,
                          "symbolic Hilbert value at degree 6 is 3, expected 4"),
    "onset-above-the-bound": (lambda d, config: 4 if d >= 4 else 3,
                              "stabilization only from degree 4, above the bound 3"),
}


@pytest.mark.parametrize("fake, message", UNSTABLE_SCANS.values(), ids=UNSTABLE_SCANS)
def test_regularity_scan_refuses_an_unstable_profile(fake, message, monkeypatch):
    monkeypatch.setattr(conditions, "codimension", fake)
    with pytest.raises(StabilizationError) as raised:
        regularity_profile(p1_pair(), 6)
    assert str(raised.value) == message


@pytest.fixture(scope="module")
def regularity_oracle():
    """(configuration, d_max, (stabilization degree, values)) by the downward scan."""
    golden = Path(__file__).parent / "golden" / "points.json"
    configs = [random_configuration(n, N, random.Random(seed))
               for n in range(1, 5) for N in range(1, 9) for seed in range(3)]
    configs += [collinear_configuration(n, N) for n in range(1, 5) for N in range(1, 9)]
    configs += [coordinate_configuration(n, N) for n in range(1, 5) for N in range(1, n + 2)]
    configs += [line_without_zero_coordinates(n, N) for n in (2, 3) for N in range(2, 6)]
    configs += [cfg for _, cfg in ZERO_HEAVY]
    # The regularity goldens, the quick-commands workload's (2, 4) samples and the
    # (4, 12) configuration of `regularity --n 4 --N 12 --seed 0`.
    configs += [random_configuration(1, 2, random.Random(2)), parse_points_json(golden.read_text())]
    configs += [random_configuration(2, 4, random.Random(seed)) for seed in range(12)]
    configs.append(random_configuration(4, 12, random.Random(0)))
    oracle = []
    for cfg in configs:
        target = cfg.count * (cfg.dimension + 1)
        for d_max in (2 * cfg.count, 2 * cfg.count + 3):
            scan = downward_regularity_scan(lambda d: codimension(d, cfg), d_max, target)
            assert scan[0] <= 2 * cfg.count - 1, cfg
            oracle.append((cfg, d_max, scan))
    return oracle


def scan_or_error(module, cfg, d_max):
    try:
        scan = module.regularity_profile(cfg, d_max)
    except module.StabilizationError as exc:  # a mutant has its own class
        return str(exc)
    return scan.stabilization_degree, scan.values


def test_regularity_profile_matches_the_downward_scan(regularity_oracle, degrees_read):
    assert len(regularity_oracle) >= 300
    for cfg, d_max, scan in regularity_oracle:
        assert scan_or_error(conditions, cfg, d_max) == scan, (cfg, d_max)
        n, N = cfg.dimension, cfg.count
        assert all(v <= generic_codimension(d, n, N) for d, v in scan[1].items()), (cfg, d_max)
    assert min(degrees_read) >= 1


ONSET_MUTATIONS = {
    "first-full-probe": (
        "return below + 1 + bisect_left(range(below + 1, d), True, key=lambda e: h(e) == full)",
        "return d"),
    "bracket-one-too-high": ("below + 1 + bisect_left(range(below + 1, d)",
                             "below + 2 + bisect_left(range(below + 2, d)"),
}


@pytest.mark.parametrize("old, new", ONSET_MUTATIONS.values(), ids=ONSET_MUTATIONS)
def test_onset_mutants_fail_the_oracle(old, new, regularity_oracle):
    mutant = mutant_conditions(old, new)
    # Probes 4, 5 and 7 for four collinear points of the plane: both mutants find 7.
    assert mutant.regularity_profile(collinear_configuration(2, 4), 8).stabilization_degree == 7
    assert any(scan_or_error(mutant, cfg, d_max) != scan for cfg, d_max, scan in regularity_oracle)


@pytest.fixture
def degrees_read(monkeypatch):
    """Patch codimension to record each degree it is asked for, in order."""
    reads = []
    codim = conditions.codimension

    def counted(d, config):
        reads.append(d)
        return codim(d, config)

    monkeypatch.setattr(conditions, "codimension", counted)
    return reads


def test_regularity_reads_d_max_the_onset_and_the_degree_below(degrees_read):
    # lo = 4 for 12 points of P^4: C(8, 4) = 70 >= 60 > C(7, 4) = 35.
    scan = regularity_profile(random_configuration(4, 12, random.Random(0)), 27)
    assert (scan.stabilization_degree, scan.values[3], len(scan.values)) == (4, 35, 25)
    assert degrees_read == [27, 4, 3]


def test_regularity_read_count_does_not_grow_with_d_max(degrees_read):
    scan = regularity_profile(p1_pair(), 20_000)
    assert scan.values == {2: 3, **dict.fromkeys(range(3, 20_001), 4)}
    assert len(degrees_read) <= 20


def test_d0_scan_reads_the_degrees_of_the_upward_scan(degrees_read):
    # Five points of the plane lie on a conic, whose square is singular at all
    # of them: lo = 4 is short and the onset is 5 (Alexander-Hirschowitz).
    assert general_position_bound(2, 5, trials=6, seed=0, d_max=10_000) == 5
    assert degrees_read == [4, 5] * 6


def test_one_point_of_p0_is_full_from_degree_one(degrees_read):
    # lo would be 0 here, as C(0, 0) = 1 = N(n+1), but no degree below 1 is read.
    scan = regularity_profile(PointConfiguration(0, ((3,),)), 5)
    assert scan == RegularityScan(1, 1, dict.fromkeys(range(1, 6), 1))
    assert general_position_bound(0, 1, trials=2, seed=0, d_max=1) == 1
    assert degrees_read == [5, 1, 1, 1]


def predicted_onset(n, N):
    """lo, the least d >= 1 with C(d+n, n) >= N(n+1), or lo + 1 where (n, lo, N) is deficient."""
    lo = next(d for d in range(1, 2 * N) if comb(d + n, n) >= N * (n + 1))
    return lo + ((lo == 2 and 2 <= N <= n) or (n, lo, N) in SPORADIC)


def test_general_position_bound_is_the_alexander_hirschowitz_onset():
    # N <= 10 with three trials, and (4, 14) with one: its 2,002 subsets of
    # five points and its deficient 70 x 70 degree-4 matrix take most of the time.
    pairs = [(n, N, 3) for n in range(1, 5) for N in range(1, 11)] + [(4, 14, 1)]
    deficient = set()
    for n, N, trials in pairs:
        onset = general_position_bound(n, N, trials, seed=N, d_max=2 * N - 1)
        assert onset == predicted_onset(n, N), (n, N)
        if generic_codimension(onset - 1, n, N) == N * (n + 1):
            deficient.add((n, onset - 1, N))
    assert deficient == {(2, 2, 2), (3, 2, 2), (4, 2, 2), (4, 2, 3), (2, 4, 5), (4, 3, 7),
                         (4, 4, 14)}


def test_general_position_bound_examples():
    assert general_position_bound(2, 3, trials=10, seed=8, d_max=5) == 3
    assert general_position_bound(1, 2, trials=10, seed=8, d_max=3) == 3
    assert general_position_bound(3, 2, trials=10, seed=8, d_max=3) <= 3


def test_general_position_bound_exhaustion():
    with pytest.raises(StabilizationError):
        general_position_bound(1, 2, trials=3, seed=8, d_max=2)


def per_degree_scan(n, N, trials, seed, d_max):
    """Brute force: every trial at every degree, lowest degree first; None if none works."""
    configs = [
        conditions.random_general_position_configuration(n, N, random.Random(s))
        for s in derive_trial_seeds(seed, trials)
    ]
    for d in range(1, d_max + 1):
        if all(codimension(d, c) == N * (n + 1) for c in configs):
            return d
    return None


def bound_or_none(n, N, trials, seed, d_max, jobs=1):
    try:
        return general_position_bound(n, N, trials, seed, d_max, jobs=jobs)
    except StabilizationError:
        return None


def test_general_position_bound_matches_per_degree_scan(monkeypatch):
    cases = [(1, 2, 3, 2, 4), (2, 3, 4, 1, 5), (2, 4, 3, 0, 7), (3, 4, 2, 5, 7),
             (2, 5, 2, 3, 9), (1, 2, 2, 1, 2), (2, 4, 3, 0, 3)]
    for case in cases:
        assert bound_or_none(*case) == per_degree_scan(*case), case
    # Sampled configurations all share one first degree, so mix in collinear
    # ones (first degree 2N-1): only the maximum over trials matches the scan.
    sample = conditions.random_general_position_configuration

    def mixed(n, N, rng):
        config = sample(n, N, rng)
        return collinear_configuration(n, N) if rng.getrandbits(1) else config

    monkeypatch.setattr(conditions, "random_general_position_configuration", mixed)
    firsts = {conditions._first_full_degree(2, 4, 7, s) for s in derive_trial_seeds(3, 6)}
    assert firsts == {4, 7}
    for d_max in (6, 7, 9):
        assert bound_or_none(2, 4, 6, 3, d_max) == per_degree_scan(2, 4, 6, 3, d_max)
    assert bound_or_none(2, 4, 6, 3, 9) == 7


def test_general_position_bound_starts_one_pool(monkeypatch, pool_sizes):
    serial = general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=1)
    claim_cpus(monkeypatch, 4)
    assert general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=2) == serial
    assert pool_sizes == [2]
