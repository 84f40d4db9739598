"""Singularity conditions: matrices, codimensions, squares, scans."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stablecoh import conditions, linalg
from stablecoh.conditions import (
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
    projective_points_mod_p,
    rank_mod_p,
    singularity_rows_mod_p,
    sympy_certified_rank,
    sympy_codimension,
    sympy_rank,
)


def plane_coords():
    return coordinate_configuration(2, 3)


def p1_pair():
    return PointConfiguration(1, ((1, 0), (0, 1)))


# --- singularity columns -------------------------------------------------------


def condition_rows(d, cfg):
    """The streamed singularity columns, transposed to one row per condition."""
    return list(zip(*conditions._singularity_columns(d, cfg)))


def stream_rank(d, cfg):
    """The rank the column stream certifies, with no witness in front of it."""
    shape = (cfg.count * (cfg.dimension + 1), comb(d + cfg.dimension, cfg.dimension))
    return linalg.certified_rank(conditions._singularity_columns(d, cfg), shape)


def ordered_points(cfg):
    """The integer points, coordinates reordered by how many points vanish there, fewest first."""
    ints = cfg.integer_points
    order = sorted(range(cfg.dimension + 1), key=lambda i: sum(p[i] == 0 for p in ints))
    return [[p[i] for i in order] for p in ints]


def partial_columns(d, cfg):
    """(e, column) for every degree-d monomial e, zero or not, at the reordered points.

    The entry for (point, i) is d/dx_i x^e = e_i * prod_j c_j^(e_j - delta_ij),
    computed from the exponents alone.
    """
    n = cfg.dimension
    return [
        (e, [
            e[i] * prod(c ** (e[j] - (i == j)) for j, c in enumerate(point)) if e[i] else 0
            for point in ordered_points(cfg)
            for i in range(n + 1)
        ])
        for e in enumerate_monomials(d, n)
    ]


def lower_monomials(monomials):
    """The degree-(d-1) monomials e - eps_i that the partials of these monomials read."""
    return {e[:i] + (k - 1,) + e[i + 1:] for e in monomials for i, k in enumerate(e) if k}


def test_matrix_binary_quadrics_at_origin_chart():
    # x1^2 vanishes to second order at [1 : 0], so its zero column is not streamed.
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


def alexander_hirschowitz_cases():
    """(n, d, N, configuration) for n <= 4 and 2 <= d <= 5, seeded."""
    rng = random.Random(1995)
    for n in range(1, 5):
        for d in range(2, 6):
            cols = comb(d + n, n)
            # N runs up to one past filling every column; the longest ranges keep
            # only N <= 12 and their top two values, to bound the run time.
            top = cols // (n + 1) + 1
            for N in sorted({*range(1, min(top, 12) + 1), top - 1, top}):
                yield n, d, N, random_configuration(n, N, rng)


def test_codimension_matches_alexander_hirschowitz():
    exceptions = set()
    for n, d, N, cfg in alexander_hirschowitz_cases():
        value = codimension(d, cfg)
        generic = min(N * (n + 1), comb(d + n, n))
        if (d == 2 and 2 <= N <= n) or (n, d, N) in SPORADIC:
            assert value < generic, (n, d, N)
            exceptions.add((n, d, N))
        else:
            assert value == generic, (n, d, N)
    assert SPORADIC <= exceptions


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
    # at the reordered points, in graded-lex order.
    cases = [(d, cfg) for _, d, _, cfg in alexander_hirschowitz_cases()] + ZERO_HEAVY
    for d, cfg in cases:
        streamed = list(conditions._singularity_columns(d, cfg))
        nonzero = [column for _, column in partial_columns(d, cfg) if any(column)]
        assert streamed == nonzero, (d, cfg)
    # The first point of each of the last three cases, reordered.
    assert [ordered_points(cfg)[0] for _, cfg in ZERO_HEAVY[2:]] == [
        [2, 0, 1], [0, 1, 2, 0], [2, 0, 3, 5]
    ]


@pytest.fixture
def columns_read(monkeypatch):
    """Patch the column stream to count what the certificate reads; one entry per stream."""
    reads = []
    stream = conditions._singularity_columns

    def counted(d, config):
        reads.append(0)
        for column in stream(d, config):
            reads[-1] += 1
            yield column

    monkeypatch.setattr(conditions, "_singularity_columns", counted)
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
def test_certificate_reads_past_dependent_leading_columns(
    d, cfg, rank, read, columns_read, bareiss_calls
):
    assert stream_rank(d, cfg) == rank == sympy_codimension(d, list(cfg.points))
    assert columns_read == [read]
    assert bareiss_calls == []


def test_points_equal_mod_p_fall_back_to_bareiss(columns_read, bareiss_calls):
    # (1, 0) and (1, p) are distinct points that coincide mod p: the rank mod
    # p is that of one double point, so the certificate fails and Bareiss decides.
    cfg = PointConfiguration(1, ((1, 0), (1, PRIME)))
    assert stream_rank(3, cfg) == 4 == sympy_codimension(3, list(cfg.points))
    assert columns_read == [4]
    assert bareiss_calls == [(4, 4)]
    # Of the 21 quintic columns, the 14 of degree <= 1 in x2 or of degree
    # >= 4 in x2 are nonzero, and Bareiss runs on those 9 x 14.
    plane = PointConfiguration(2, ((1, 0, 0), (1, PRIME, 0), (0, 0, 1)))
    assert stream_rank(5, plane) == 9 == sympy_codimension(5, list(plane.points))
    assert columns_read == [4, 14]
    assert bareiss_calls == [(4, 4), (9, 14)]


def test_certificate_work_count(columns_read, bareiss_calls):
    # Full rank at seeded points: the certificate reads 32 of the 816 columns.
    for seed in range(4):
        assert stream_rank(15, random_configuration(3, 8, random.Random(seed))) == 32
    assert columns_read == [32] * 4
    assert bareiss_calls == []
    # The collinear probe is rank-deficient: it reads every streamed column,
    # 43 of the 680, and the pivot minor with an exact left kernel proves
    # rank 31 without Bareiss.
    columns_read.clear()
    assert stream_rank(14, collinear_configuration(3, 8)) == 31
    assert columns_read == [43]
    assert bareiss_calls == []


def test_column_reads_stay_output_sensitive(columns_read, bareiss_calls):
    # The larger probe streams 89 of its 14,950 columns.
    assert stream_rank(22, collinear_configuration(4, 12)) == 59
    assert columns_read[-1] <= 89
    # A seeded trial with a point on x0 = 0: that coordinate goes last, so
    # the trial reads as few columns as a trial with no zero coordinate.
    cfg = random_configuration(4, 12, random.Random(derive_trial_seeds(0, 8)[2]))
    assert any(point[0] == 0 for point in cfg.integer_points)
    assert stream_rank(23, cfg) == 60
    assert columns_read[-1] == 60
    # The same with x0 = 0 set at one point of a (15, 3, 8) trial.
    points = list(random_configuration(3, 8, random.Random(0)).points)
    points[3] = (0,) + points[3][1:]
    assert stream_rank(15, PointConfiguration(3, tuple(points))) == 32
    assert columns_read[-1] == 32
    assert bareiss_calls == []


def test_each_point_is_evaluated_once(columns_read, bareiss_calls, products):
    # The probe reads every nonzero column; each degree-13 value those
    # columns need is computed once at each of the 8 points.
    cfg = collinear_configuration(3, 8)
    assert stream_rank(14, cfg) == 31
    needed = [e for e, column in partial_columns(14, cfg) if any(column)]
    assert columns_read == [len(needed)] == [43]
    assert len(products) == 8 * len(lower_monomials(needed))
    # A full-rank trial computes only the values its first 32 columns read.
    products.clear()
    assert stream_rank(15, random_configuration(3, 8, random.Random(0))) == 32
    assert len(products) == 8 * len(lower_monomials(enumerate_monomials(15, 3)[:32]))
    # Eight points on a line through no coordinate point: rank-deficient
    # with no zero column, so all 680 columns are read, and each of the
    # C(16, 3) = 560 degree-13 values is computed once per point.
    products.clear()
    line = PointConfiguration(3, tuple((1, t + 2, 2 * t + 3, t + 5) for t in range(8)))
    assert stream_rank(14, line) == 31
    assert columns_read == [43, 32, 680]
    assert len(products) == 8 * comb(16, 3)
    assert bareiss_calls == []


def test_zero_heavy_stream_never_enumerates_the_whole_basis(monkeypatch):
    # Every point of the probe has a zero coordinate, so the stream builds its
    # columns from the monomials on the coordinates off each zero set.
    enumerate_all = conditions.enumerate_monomials

    def refuse_whole_basis(d, n):
        assert (d, n) != (22, 4), "the whole degree-22 basis was enumerated"
        return enumerate_all(d, n)

    monkeypatch.setattr(conditions, "enumerate_monomials", refuse_whole_basis)
    cfg = collinear_configuration(4, 12)
    assert len(list(conditions._singularity_columns(22, cfg))) == 89
    assert stream_rank(22, cfg) == 59


# --- the lemma's witness ---------------------------------------------------------


LEMMA_SIZES = [(15, 3, 8), (11, 4, 6), (23, 2, 12)]


def test_witness_agrees_with_the_stream(columns_read):
    # codimension reads no column, and the stream alone gives the same value.
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
def test_sampled_lemma_trials_never_fall_back(d, n, N, columns_read):
    report = verify_codim_lemma(ParameterTriple(d, n, N), trials=4, seed=9)
    assert report.verified and set(report.codimensions) == {N * (n + 1)}
    assert len(columns_read) == 1  # the collinear probe at 2N-2 only


def test_witness_certifies_points_equal_mod_p(columns_read, bareiss_calls):
    # (1, 0) and (1, p): each K_a(p_a) is p^2, so each block is singular mod
    # p, and Bareiss proves its full rank over Q without the stream.
    cfg = PointConfiguration(1, ((1, 0), (1, PRIME)))
    assert codimension(3, cfg) == 4
    assert columns_read == []
    assert bareiss_calls == [(2, 2), (2, 2)]


def test_failed_witness_falls_back_to_the_stream(monkeypatch, columns_read):
    cfg = random_configuration(3, 4, random.Random(3))
    separate = conditions._separating_form

    def not_vanishing(p, q):
        # Still nonzero at p, but no longer zero at q.
        return [c + x for c, x in zip(separate(p, q), p)]

    monkeypatch.setattr(conditions, "_separating_form", not_vanishing)
    assert conditions._witness_blocks(7, cfg) is None
    assert codimension(7, cfg) == 16
    assert columns_read == [16]
    # A block of rank below n+1 also hands the degree to the stream.
    monkeypatch.setattr(conditions, "_separating_form", separate)
    blocks = conditions._witness_blocks(7, cfg)
    blocks[2] = [[row[0]] * 4 for row in blocks[2]]
    monkeypatch.setattr(conditions, "_witness_blocks", lambda d, config: blocks)
    assert codimension(7, cfg) == 16
    assert columns_read == [16, 16]


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
    # With no zero coordinate, the stream is every column in graded-lex order.
    rng = random.Random(seed)
    cfg = random_configuration(n, N, rng)
    while any(0 in point for point in cfg.integer_points):
        cfg = random_configuration(n, N, rng)
    assert any(point[0] != 1 for point in cfg.integer_points)
    matrix = list(conditions._singularity_columns(d, cfg))
    monomials = enumerate_monomials(d, n)
    blocks = conditions._witness_blocks(d, cfg)
    for a in range(N):
        kpoly = witness_polynomial(d, cfg.integer_points, a)
        for j in range(n + 1):
            form = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in kpoly.items()}
            conditions_of_form = [
                sum(form.get(e, 0) * column[r] for e, column in zip(monomials, matrix))
                for r in range(N * (n + 1))
            ]
            expected = [0] * (N * (n + 1))
            for i in range(n + 1):
                expected[a * (n + 1) + i] = blocks[a][i][j]
            assert conditions_of_form == expected, (a, j)


@pytest.fixture
def certificates(monkeypatch):
    """Patch the rank certificate to record each matrix it saw, as rows, and its result."""
    issued = []
    certify = linalg._rank_certificate

    def recording(columns, pivots, n_rows):
        certificate = certify(columns, pivots, n_rows)
        issued.append(([list(row) for row in zip(*columns)], certificate))
        return certificate

    monkeypatch.setattr(linalg, "_rank_certificate", recording)
    return issued


def check_issued_certificate(d, cfg, certificates, bareiss_calls):
    """The one certificate codimension issued passes the sympy oracle, without Bareiss."""
    value = codimension(d, cfg)
    [(rows, certificate)] = certificates
    assert certificate is not None and bareiss_calls == []
    assert sympy_certified_rank(rows, *certificate[1:]) == value
    return value


@pytest.mark.parametrize("d, n, N", [(14, 3, 8), (10, 4, 6), (22, 2, 12)])
def test_collinear_probe_certificates_pass_the_oracle(d, n, N, certificates, bareiss_calls):
    # The sharpness probes of the benchmark rungs: rank N(n+1) - 1 at degree 2N-2.
    cfg = collinear_configuration(n, N)
    assert check_issued_certificate(d, cfg, certificates, bareiss_calls) == N * (n + 1) - 1


def test_sporadic_certificates_pass_the_oracle(certificates, bareiss_calls):
    cases = {(n, d, N): cfg for n, d, N, cfg in alexander_hirschowitz_cases()}
    for n, d, N in sorted(SPORADIC):
        certificates.clear()
        value = check_issued_certificate(d, cases[n, d, N], certificates, bareiss_calls)
        assert value == min(N * (n + 1), comb(d + n, n)) - 1, (n, d, N)


def test_golden_configuration_certificates_pass_the_oracle():
    # Full rank at every degree, so codimension never needs the certificate;
    # the helper still proves the rank, in both orientations (12 x 3 to 12 x 36).
    cfg = parse_points_json((Path(__file__).parent / "golden" / "points.json").read_text())
    for d in range(1, 8):
        columns = list(conditions._singularity_columns(d, cfg))
        pivots = linalg.modular_column_rank(columns, len(columns))
        certificate = linalg._rank_certificate(columns, pivots, len(columns[0]))
        rows = [list(row) for row in zip(*columns)]
        assert sympy_certified_rank(rows, *certificate[1:]) == len(pivots) == codimension(d, cfg)


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


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process stand-in; returns the sizes asked for."""
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
    return sizes


def test_pool_size_is_clamped_to_tasks_and_cpus(monkeypatch, pool_sizes):
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 3)
    params = ParameterTriple(3, 1, 2)
    serial = verify_codim_lemma(params, trials=8, seed=5, jobs=1)
    pair = verify_codim_lemma(params, trials=2, seed=5, jobs=5000)
    assert pair.codimensions == serial.codimensions[:2]
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=5000) == serial
    assert general_position_bound(1, 2, trials=1, seed=8, d_max=3, jobs=5000) == 3
    assert pool_sizes == [2, 3]
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: None)
    assert verify_codim_lemma(params, trials=8, seed=5, jobs=5000) == serial
    assert pool_sizes == [2, 3]


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
    firsts = {conditions._first_full_degree((2, 4, 7, s)) for s in derive_trial_seeds(3, 6)}
    assert firsts == {4, 7}
    for d_max in (6, 7, 9):
        assert bound_or_none(2, 4, 6, 3, d_max) == per_degree_scan(2, 4, 6, 3, d_max)
    assert bound_or_none(2, 4, 6, 3, 9) == 7


def test_general_position_bound_starts_one_pool(monkeypatch, pool_sizes):
    serial = general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=1)
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 4)
    assert general_position_bound(2, 3, trials=6, seed=4, d_max=5, jobs=2) == serial
    assert pool_sizes == [2]
