"""Result records: construction checks, pickling across the pool, equality; exports."""

import ast
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stablecoh
from stablecoh import cli, conditions, e1, linalg, params, points
from stablecoh.conditions import CodimLemmaReport, CollinearProbe, verify_codim_lemma
from stablecoh.params import ParameterTriple
from stablecoh.points import PointConfiguration

# Every result record and its fields, in order.
RECORD_FIELDS = {
    cli.Report: ("params", "payload", "csv_rows", "lines", "ok"),
    conditions.CollinearProbe: (
        "degree", "points", "codimension", "max_allowed", "line_bound", "below_generic",
        "within_line_bound", "equals_line_bound",
    ),
    conditions.CodimLemmaReport: ("codimensions", "counterexamples", "collinear", "verified"),
    conditions.RegularityScan: ("stabilization_degree", "target", "values"),
    e1.E1Page: (
        "coefficient_dim", "columns", "fn_threshold", "phi_dim_bounds", "guaranteed",
        "regime_notes",
    ),
    e1.DualClass: ("column", "bm_degree", "dual_degree", "dim", "tate"),
    e1.StableMatchReport: (
        "n", "matched", "stratum_degrees", "gl_degrees", "missing", "extra", "weights_matched",
    ),
    e1.BandReport: (
        "coefficient_dim", "band", "bm_window", "supports", "minimal_support", "verified",
        "guaranteed", "regime_notes",
    ),
    e1.PredictionRow: ("degree", "dim", "components", "moduli_dim"),
    e1.StableRangeReport: (
        "N", "max_stable_degree", "rows", "band_covers_gl", "stable_positive_dim",
    ),
    linalg.ExactMatrix: ("rows", "cols", "entries"),
    params._Triple: ("d", "n", "N"),
    points._Configuration: ("dimension", "points", "integer_points"),
}


def one_of_each_record() -> list:
    """One instance of each class in RECORD_FIELDS and of its two validating subclasses."""
    triple = ParameterTriple(5, 1, 3)
    config = points.collinear_configuration(2, 3)
    lemma = verify_codim_lemma(ParameterTriple(3, 1, 2), trials=2, seed=4, jobs=1)
    page = e1.assemble_e1(triple)
    stable_range = e1.stable_range_report(5, 1)
    return [
        cli.Report({"n": 1}, {"n": 1}, [("n",), (1,)], ["n = 1"]),
        lemma.collinear,
        lemma,
        conditions.regularity_profile(config, 6),
        page,
        e1.dual_classes(page)[0],
        e1.verify_stable_match(2),
        e1.vanishing_band(triple),
        stable_range.rows[0],
        stable_range,
        conditions.evaluation_matrix(2, config),
        params._Triple(5, 1, 3),
        points._Configuration(1, ((1, 0),), ((1, 0),)),
        triple,
        config,
    ]


def roundtrip(record):
    return pickle.loads(pickle.dumps(record))


def test_point_configuration_pickles_with_its_normal_forms():
    config = PointConfiguration(2, ((Fraction(1, 2), 3, -1), (0, -4, 2), (6, 0, 0)))
    copy = roundtrip(config)
    assert type(copy) is PointConfiguration
    assert copy == config
    assert copy.points == config.points
    assert copy.integer_points == config.integer_points == ((1, 6, -2), (0, 2, -1), (1, 0, 0))
    assert copy.json_points() == config.json_points()


def test_lemma_report_and_probe_pickle_and_compare_equal():
    report = verify_codim_lemma(ParameterTriple(3, 1, 2), trials=3, seed=4, jobs=1)
    assert isinstance(report, CodimLemmaReport)
    assert isinstance(report.collinear, CollinearProbe)
    copy = roundtrip(report)
    assert type(copy) is CodimLemmaReport and type(copy.collinear) is CollinearProbe
    assert copy == report
    assert copy.collinear == report.collinear

    records = one_of_each_record()
    assert {type(record) for record in records} >= set(RECORD_FIELDS)
    for record in records:
        name = type(record).__name__
        record_class = next(cls for cls in type(record).__mro__ if cls in RECORD_FIELDS)
        assert record._fields == RECORD_FIELDS[record_class], name
        copy = roundtrip(record)
        assert type(copy) is type(record) and copy == record, name
        assert not hasattr(record, "__dict__"), name
        # The namedtuple contract, on the record class itself: the validating
        # subclasses take other arguments.
        fields, values = record_class._fields, tuple(record)
        by_name = record_class(**dict(zip(fields, values)))
        assert type(by_name) is record_class and by_name == record_class(*values) == values, name
        required = len(fields) - len(record_class._field_defaults)
        assert record_class(*values[:required])[required:] == tuple(
            record_class._field_defaults.values()), name
        for args, kwargs in [(values[:required - 1], {}),
                             ((), dict(zip(fields[1:], values[1:]))),
                             (values, {"unknown": 0}),
                             (values[:1], {fields[0]: values[0]})]:
            with pytest.raises(TypeError):
                record_class(*args, **kwargs)
        assert record_class._make(iter(values)) == values, name
        with pytest.raises(TypeError):
            record_class._make(values[:-1])
        replaced = by_name._replace(**{fields[-1]: "new"})
        assert type(replaced) is record_class and replaced == values[:-1] + ("new",), name
        assert by_name._asdict() == dict(zip(fields, values)), name
        assert record_class.__match_args__ == fields, name
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, replaced))
        assert repr(replaced) == f"{record_class.__name__}({shown})", name
        # pickle finds the class by its module and name.
        assert vars(sys.modules[record_class.__module__])[record_class.__name__] is record_class
    assert cli.Report._field_defaults == {"ok": True}
    assert records[0].ok is True


def test_result_records_carry_results_not_their_inputs():
    from stablecoh.e1 import BandReport, E1Page, StableRangeReport

    assert CodimLemmaReport._fields == ("codimensions", "counterexamples", "collinear", "verified")
    assert E1Page._fields == (
        "coefficient_dim", "columns", "fn_threshold", "phi_dim_bounds", "guaranteed",
        "regime_notes",
    )
    assert BandReport._fields == (
        "coefficient_dim", "band", "bm_window", "supports", "minimal_support", "verified",
        "guaranteed", "regime_notes",
    )
    assert StableRangeReport._fields == (
        "N", "max_stable_degree", "rows", "band_covers_gl", "stable_positive_dim",
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 1, 1), "degree must be >= 1, got 0"),
        ((1, 0, 1), "projective dimension must be >= 1, got 0"),
        ((1, 1, 0), "point count must be >= 1, got 0"),
    ],
)
def test_parameter_triple_still_validates(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ParameterTriple(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ParameterTriple(d=args[0], n=args[1], N=args[2])


@pytest.mark.parametrize(
    "dimension, points, message",
    [
        (-1, (), "projective dimension must be >= 0, got -1"),
        (2, ((1, 0),), "point 0 has 2 coordinates, expected 3"),
        (1, ((1, 0), (0, 0)), "point 1 is the zero vector"),
        (1, ((1, 2), (Fraction(-1, 2), -1)), "points 0 and 1 coincide projectively"),
    ],
)
def test_point_configuration_still_validates(dimension, points, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PointConfiguration(dimension, points)


def test_records_are_immutable():
    with pytest.raises(AttributeError):
        ParameterTriple(3, 1, 2).d = 4
    with pytest.raises(AttributeError):
        PointConfiguration(1, ((1, 0),)).integer_points = ()


def test_two_worker_pool_matches_one_job(monkeypatch):
    """A real two-process pool gives the one-job report; each trial crosses it as a seed."""
    sizes = []

    class CountingPool(conditions.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(conditions, "ProcessPoolExecutor", CountingPool)
    # No head start and two CPUs: every --jobs 2 trial goes to the pool.
    monkeypatch.setattr(conditions, "POOL_START_S", 0)
    monkeypatch.setattr(conditions.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    params = ParameterTriple(3, 1, 2)
    serial = verify_codim_lemma(params, trials=6, seed=11, jobs=1)
    assert sizes == []
    assert verify_codim_lemma(params, trials=6, seed=11, jobs=2) == serial
    assert sizes == [2]


def test_package_exports_every_public_name_it_imports():
    tree = ast.parse(Path(stablecoh.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(stablecoh.__all__)) == len(stablecoh.__all__)
    assert set(stablecoh.__all__) - {"__version__"} == imported
    assert all(hasattr(stablecoh, name) for name in stablecoh.__all__)
