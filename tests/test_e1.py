"""First-page assembly, Alexander duality, stable match, bands, weights."""

import io
from contextlib import redirect_stderr

import pytest

from stablecoh import cli, e1
from stablecoh.e1 import (
    MAX_E1_DIMENSION,
    MAX_E1_POINTS,
    E1Page,
    alexander_dual,
    assemble_e1,
    dual_classes,
    stable_range_report,
    stratum_bm,
    vanishing_band,
    verify_stable_match,
)
from stablecoh.params import ParameterTriple, coefficient_space_dim
from stablecoh.tables import gl_cohomology, grassmannian_poincare, twisted_config_bm


def page_of(d, n, N):
    return assemble_e1(ParameterTriple(d, n, N))


def window(d, n, l):
    """Predicted BM support of column l: 2c - l(2n+2-l) - 1 to 2c - l^2 - 1."""
    c = coefficient_space_dim(d, n)
    return 2 * c - l * (2 * n + 2 - l) - 1, 2 * c - l * l - 1


# --- strata -------------------------------------------------------------------


def test_stratum_line_column_one():
    c = coefficient_space_dim(19, 1)
    s = stratum_bm(19, 1, 1)
    assert tuple(s) == (2 * c - 4, 2 * c - 2)
    assert window(19, 1, 1) == (2 * c - 4, 2 * c - 2)


def test_stratum_line_column_two():
    c = coefficient_space_dim(19, 1)
    s = stratum_bm(19, 1, 2)
    assert tuple(s) == (2 * c - 5,)
    assert window(19, 1, 2) == (2 * c - 5, 2 * c - 5)
    # minimal possible degree over all columns is 2c - (n+1)^2 - 1
    assert min(s) == 2 * c - 4 - 1


def test_stratum_plane_top_column():
    c = coefficient_space_dim(5, 2)
    s = stratum_bm(5, 2, 3)
    assert s == {2 * c - 10: ((1, c - 6),)}


def test_stratum_range_endpoints_attained():
    for d, n in [(9, 1), (9, 2), (11, 3)]:
        for l in range(1, n + 2):
            degrees = tuple(stratum_bm(d, n, l))
            assert (degrees[0], degrees[-1]) == window(d, n, l)
            parity = degrees[0] % 2
            assert all(deg % 2 == parity for deg in degrees)


def test_stratum_column_out_of_range():
    with pytest.raises(ValueError):
        stratum_bm(9, 2, 0)
    with pytest.raises(ValueError):
        stratum_bm(9, 2, 4)


def test_configuration_and_stratum_tables_are_shifted_grassmannians():
    def shifted(table, degree, tate):
        return [(deg + degree, ((dim, t + tate),)) for deg, dim, t in table.iter_components()]

    for n in range(7):
        for l in range(1, n + 2):
            config = twisted_config_bm(l, n)
            expected = shifted(grassmannian_poincare(l, n), l * (l - 1), l * (l - 1) // 2)
            assert list(config.items()) == expected
            for d in (3, 8):
                # Configuration degree j lands in 2c - 2ln - l - 1 + j, with Tate
                # index j/2 + c - l(n+1), where j/2 is the configuration's index.
                c = coefficient_space_dim(d, n)
                expected = shifted(config, 2 * c - 2 * l * n - l - 1, c - l * (n + 1))
                assert list(stratum_bm(d, n, l).items()) == expected, (d, n, l)


# --- page assembly ---------------------------------------------------------------


def test_assemble_binary_degree_nineteen():
    page = assemble_e1(ParameterTriple(19, 1, 10))
    assert page.coefficient_dim == 20
    assert sorted(page.columns) == [1, 2]
    assert tuple(page.columns[1]) == (36, 38)
    assert tuple(page.columns[2]) == (35,)
    assert page.fn_threshold == 30
    assert page.phi_dim_bounds == tuple(20 + l for l in range(10))
    assert page.guaranteed


def test_assemble_notes_outside_regime():
    page = assemble_e1(ParameterTriple(5, 2, 3))
    assert not page.guaranteed
    assert page.regime_notes == ("N = 3 does not exceed n+1 = 3",)
    assert tuple(page.columns[3]) == (32,)


def test_assemble_column_count():
    for d, n, N in [(19, 1, 10), (23, 2, 12), (11, 3, 6)]:
        page = page_of(d, n, N)
        assert len(page.columns) == n + 1
        assert all(page.columns.values())


# --- duality ----------------------------------------------------------------------


def test_dual_degrees_binary():
    page = assemble_e1(ParameterTriple(19, 1, 10))
    dual = alexander_dual(page)
    assert tuple(dual) == (1, 3, 4)
    assert all(dual.dimension(k) == 1 for k in (1, 3, 4))


def test_dual_top_class():
    for d, n in [(5, 2), (9, 2), (11, 3)]:
        page = page_of(d, n, (d + 1) // 2)
        dual = alexander_dual(page)
        top = (n + 1) ** 2
        assert dual.components(top) == ((1, -(n + 1) * (n + 2) // 2),)


def test_dual_of_empty_page_is_empty():
    page = E1Page(
        coefficient_dim=10,
        columns={},
        fn_threshold=15,
        phi_dim_bounds=(),
        guaranteed=False,
        regime_notes=("artificial empty page",),
    )
    assert not alexander_dual(page)


def test_degree_sum_and_weight_law():
    for d, n, N in [(19, 1, 10), (13, 2, 7), (11, 3, 6)]:
        page = page_of(d, n, N)
        c = page.coefficient_dim
        for cls in dual_classes(page):
            assert cls.dual_degree + 1 + cls.bm_degree == 2 * c
            assert cls.weight - cls.dual_degree == cls.column


def test_dual_multiset_is_degree_independent():
    for n, N in [(1, 4), (2, 5)]:
        duals = [alexander_dual(page_of(d, n, N)) for d in (2 * N - 1, 2 * N + 1, 2 * N + 4)]
        tables = [{deg: dual.dimension(deg) for deg in dual} for dual in duals]
        assert tables[0] == tables[1] == tables[2]


# --- stable match -------------------------------------------------------------------


def test_stable_match_small_cases():
    assert dict(verify_stable_match(1).stratum_degrees) == {1: 1, 3: 1, 4: 1}
    assert dict(verify_stable_match(2).stratum_degrees) == {
        1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 8: 1, 9: 1
    }
    assert dict(verify_stable_match(0).stratum_degrees) == {1: 1}


def test_stable_match_through_n_twelve():
    for n in range(0, 13):
        report = verify_stable_match(n)
        assert report.matched, (n, report.missing, report.extra)
        assert report.weights_matched
        assert not report.missing and not report.extra
    with pytest.raises(ValueError):
        verify_stable_match(-1)


def test_large_dimension_is_refused_before_any_table(monkeypatch):
    top = (MAX_E1_DIMENSION + 1) ** 2
    assert vanishing_band(ParameterTriple(5, MAX_E1_DIMENSION, 3)).band == (top, 3)

    def no_table(*args):
        raise AssertionError("a table was built for an oversize dimension")

    monkeypatch.setattr(e1, "stratum_bm", no_table)
    monkeypatch.setattr(e1, "gaussian_binomial", no_table)
    monkeypatch.setattr(e1, "gl_cohomology", no_table)
    large = ParameterTriple(5, MAX_E1_DIMENSION + 1, 3)
    message = f"problem too large: n = {MAX_E1_DIMENSION + 1} exceeds {MAX_E1_DIMENSION}"
    for call in (lambda: assemble_e1(large), lambda: vanishing_band(large),
                 lambda: verify_stable_match(MAX_E1_DIMENSION + 1)):
        with pytest.raises(ValueError, match=message):
            call()


def test_large_point_count_is_refused_before_any_column(monkeypatch):
    assert len(page_of(3, 1, MAX_E1_POINTS).phi_dim_bounds) == MAX_E1_POINTS

    def no_table(*args):
        raise AssertionError("a column was built for an oversize point count")

    monkeypatch.setattr(e1, "stratum_bm", no_table)
    large = ParameterTriple(3, 1, MAX_E1_POINTS + 1)
    message = f"problem too large: N = {MAX_E1_POINTS + 1} exceeds {MAX_E1_POINTS}"
    for call in (lambda: assemble_e1(large), lambda: vanishing_band(large)):
        with pytest.raises(ValueError, match=message):
            call()


def test_stable_range_point_count_is_refused_before_any_row(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(e1, "gl_cohomology", reached)
    # d = 2 * MAX_E1_POINTS takes N = MAX_E1_POINTS and passes the guard.
    with pytest.raises(Reached):
        stable_range_report(2 * MAX_E1_POINTS, 1)
    message = f"problem too large: N = {MAX_E1_POINTS + 1} exceeds {MAX_E1_POINTS}"
    for d in (2 * MAX_E1_POINTS + 1, 2 * MAX_E1_POINTS + 2):
        with pytest.raises(ValueError, match=message):
            stable_range_report(d, 1)


def test_general_linear_table_is_refused_above_the_same_dimension(monkeypatch):
    assert not stable_range_report(5, MAX_E1_DIMENSION).band_covers_gl

    def no_table(*args):
        raise AssertionError("a table was built for an oversize dimension")

    monkeypatch.setattr(e1, "gl_cohomology", no_table)
    message = f"problem too large: n = {MAX_E1_DIMENSION + 1} exceeds {MAX_E1_DIMENSION}"
    with pytest.raises(ValueError, match=message):
        stable_range_report(5, MAX_E1_DIMENSION + 1)
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main(["gl-cohomology", "--n", str(MAX_E1_DIMENSION + 1)])
    assert code == 2 and message in err.getvalue()


def test_stable_match_total_dimension():
    for n in range(0, 7):
        report = verify_stable_match(n)
        assert sum(report.stratum_degrees.values()) == 2 ** (n + 1) - 1


# --- vanishing band ---------------------------------------------------------------------


def test_band_binary_degree_nineteen():
    report = vanishing_band(ParameterTriple(19, 1, 10))
    assert report.band == (4, 10)
    assert report.bm_window == (30, 34)
    assert report.supports == (35, 36, 38)
    assert report.minimal_support == 35
    assert report.verified and report.guaranteed


def test_band_trivial_when_empty():
    report = vanishing_band(ParameterTriple(5, 2, 3))
    assert report.band == (9, 3)
    assert report.verified
    assert not report.guaranteed  # N does not exceed n+1


def test_band_binary_degree_eleven():
    report = vanishing_band(ParameterTriple(11, 1, 6))
    assert report.band == (4, 6)
    assert report.bm_window == (18, 18)
    assert report.verified
    # dual degree 5 is the single banned degree and carries no classes
    dual = alexander_dual(page_of(11, 1, 6))
    assert dual.dimension(5) == 0


def test_band_minimal_support_identity():
    for d, n, N in [(19, 1, 10), (23, 2, 12), (15, 3, 8)]:
        report = vanishing_band(ParameterTriple(d, n, N))
        c = report.coefficient_dim
        assert report.minimal_support == 2 * c - (n + 1) ** 2 - 1
        assert report.verified


def test_band_below_degree_bound_not_guaranteed():
    report = vanishing_band(ParameterTriple(9, 1, 10))
    assert not report.guaranteed
    assert any("degree bound" in note for note in report.regime_notes)


# --- stable range ------------------------------------------------------------------------


def test_stable_range_binary_nineteen():
    report = stable_range_report(19, 1)
    assert report.N == 10
    assert report.max_stable_degree == 9
    nonzero = {r.degree for r in report.rows if r.dim and r.degree > 0}
    assert nonzero == {1, 3, 4}
    assert report.band_covers_gl
    assert report.stable_positive_dim == 3


def test_stable_range_plane_quintics():
    report = stable_range_report(5, 2)
    assert report.max_stable_degree == 2
    dims = {r.degree: r.dim for r in report.rows}
    assert dims == {0: 1, 1: 1, 2: 0}
    assert not report.band_covers_gl


def test_stable_range_minimal_degree():
    report = stable_range_report(3, 1)
    dims = {r.degree: r.dim for r in report.rows}
    assert dims == {0: 1, 1: 1}


def test_stable_range_weight_annotations():
    report = stable_range_report(19, 1)
    by_degree = {r.degree: r for r in report.rows}
    assert by_degree[1].components == ((1, -1, 2, 1),)
    assert by_degree[3].components == ((1, -2, 4, 1),)
    assert by_degree[4].components == ((1, -3, 6, 2),)
    for row in report.rows:
        for dim, tate, weight, factors in row.components:
            assert weight == -2 * tate
            assert factors == weight - row.degree


def test_stable_range_rows_match_the_full_general_linear_table():
    for n in range(1, 12):
        full = gl_cohomology(n)
        for d in range(3, 30):
            expected = [(full.dimension(k), full.components(k)) for k in range(d // 2 + 1)]
            rows = stable_range_report(d, n).rows
            assert [(r.dim, tuple(c[:2] for c in r.components)) for r in rows] == expected


def test_stable_range_builds_only_the_generators_in_its_band(monkeypatch):
    calls = []
    table = e1.gl_cohomology
    monkeypatch.setattr(e1, "gl_cohomology", lambda n: calls.append(n) or table(n))
    report = stable_range_report(5, 64)
    assert calls == [0]
    assert not report.band_covers_gl


def test_stable_range_full_band_total():
    # band reaches past (n+1)^2, so the positive stable classes total 2^(n+1)-1
    report = stable_range_report(9, 1)
    assert report.band_covers_gl
    assert report.stable_positive_dim == 3
    report = stable_range_report(19, 2)
    assert report.band_covers_gl
    assert report.stable_positive_dim == 7


def test_stable_range_moduli_prediction():
    report = stable_range_report(7, 2)
    for row in report.rows:
        assert row.moduli_dim == (1 if row.degree == 0 else 0)


def test_stable_range_refuses_tiny_degree():
    with pytest.raises(ValueError):
        stable_range_report(2, 1)
