"""Result records: construction checks, pickling across the pool, equality; exports."""

import ast
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import stablecoh
from stablecoh import conditions
from stablecoh.conditions import CodimLemmaReport, CollinearProbe, verify_codim_lemma
from stablecoh.params import ParameterTriple
from stablecoh.points import PointConfiguration


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
    """A real two-process pool sends every configuration back pickled."""
    sizes = []

    class CountingPool(conditions.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(conditions, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 2)
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
