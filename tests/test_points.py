"""Point configurations: validation, normalization, parsing, sampling."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stablecoh.points import (
    PointConfiguration,
    PointsParseError,
    SamplingError,
    collinear_configuration,
    coordinate_configuration,
    in_general_linear_position,
    parse_points_json,
    random_configuration,
    random_general_position_configuration,
)


def test_valid_configuration():
    cfg = PointConfiguration(1, ((1, 0), (0, 1), (1, 1)))
    assert cfg.count == 3
    assert cfg.dimension == 1


def test_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        PointConfiguration(1, ((0, 0),))


def test_projective_duplicates_rejected():
    with pytest.raises(ValueError, match="coincide"):
        PointConfiguration(1, ((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="coincide"):
        PointConfiguration(1, ((1, 2), (Fraction(-1, 2), -1)))


def test_wrong_length_rejected():
    with pytest.raises(ValueError, match="coordinates"):
        PointConfiguration(2, ((1, 0),))


def test_normal_form_is_primitive_with_positive_lead():
    cfg = PointConfiguration(2, ((0, 3, 6), (Fraction(-1, 2), 1, 0),
                                 (Fraction(1, 2), Fraction(2, 3), 1)))
    assert cfg.integer_points == ((0, 1, 2), (1, -2, 0), (3, 4, 6))
    assert cfg.points[1] == (Fraction(-1, 2), 1, 0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_rescaling_keeps_normal_form_and_echo(seed, data):
    cfg = random_configuration(2, 4, random.Random(seed))
    nonzero = st.fractions(min_value=-20, max_value=20, max_denominator=50).filter(bool)
    scales = data.draw(st.lists(nonzero, min_size=4, max_size=4))
    points = tuple(tuple(s * c for c in p) for s, p in zip(scales, cfg.points))
    rescaled = PointConfiguration(2, points)
    assert rescaled.integer_points == cfg.integer_points
    assert rescaled.json_points() == [[str(c) for c in p] for p in points]
    # The echo is the as-given text, which parses back to the same points.
    assert parse_points_json(json.dumps(rescaled.json_points())) == rescaled


def test_coordinate_configuration():
    cfg = coordinate_configuration(2, 3)
    assert cfg.points == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        coordinate_configuration(1, 3)


def test_collinear_configuration_deterministic():
    cfg = collinear_configuration(2, 3)
    assert cfg.points == ((1, 0, 0), (1, 1, 0), (1, 2, 0))
    assert collinear_configuration(2, 3) == cfg
    line = collinear_configuration(1, 4)
    assert line.points == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_sampling_is_seed_deterministic():
    a = random_configuration(2, 4, random.Random(99))
    b = random_configuration(2, 4, random.Random(99))
    assert a == b
    c = random_configuration(2, 4, random.Random(100))
    assert a != c


def test_sampling_respects_bounds_and_distinctness():
    cfg = random_configuration(3, 6, random.Random(5))
    assert cfg.count == 6
    for p in cfg.points:
        assert all(-100 <= c <= 100 for c in p)


def test_sampling_failure_is_reported():
    # one projective point exists over {0, 1} coordinates in P^0
    with pytest.raises(SamplingError):
        random_configuration(0, 2, random.Random(0), coord_bound=1, max_attempts=50)


def test_general_linear_position_check():
    assert in_general_linear_position(coordinate_configuration(2, 3))
    collinear = collinear_configuration(2, 3)
    assert not in_general_linear_position(collinear)
    # every pair of distinct points of the line is in general position
    assert in_general_linear_position(collinear_configuration(1, 2))


def test_general_position_sampler():
    cfg = random_general_position_configuration(2, 4, random.Random(11))
    assert in_general_linear_position(cfg)


# --- parsing ------------------------------------------------------------------


def test_parse_integers_and_rationals():
    cfg = parse_points_json('[[1, 0], ["1/2", "-3"]]')
    assert cfg.points == ((1, 0), (Fraction(1, 2), -3))
    assert cfg.dimension == 1


def test_parse_reports_first_bad_token_position():
    with pytest.raises(PointsParseError) as exc:
        parse_points_json('[[1, 0], [2, "x"]]')
    assert exc.value.point == 1
    assert exc.value.coord == 1
    assert "'x'" in str(exc.value)


def test_parse_rejects_floats_and_bools():
    with pytest.raises(PointsParseError) as exc:
        parse_points_json("[[1.5, 0]]")
    assert exc.value.point == 0 and exc.value.coord == 0
    with pytest.raises(PointsParseError):
        parse_points_json("[[true, 1]]")


def test_parse_rejects_zero_denominator():
    with pytest.raises(PointsParseError, match="zero denominator"):
        parse_points_json('[["1/0", 1]]')


def test_parse_rejects_ragged_rows():
    with pytest.raises(PointsParseError) as exc:
        parse_points_json("[[1, 0], [1, 2, 3]]")
    assert exc.value.point == 1


def test_parse_reports_json_position():
    with pytest.raises(PointsParseError, match="line 1, column"):
        parse_points_json("[[1, 0], ")


def test_parse_rejects_non_array():
    with pytest.raises(PointsParseError):
        parse_points_json('{"points": []}')
    with pytest.raises(PointsParseError):
        parse_points_json("[]")


def test_parse_propagates_projective_validation():
    with pytest.raises(PointsParseError, match="coincide"):
        parse_points_json("[[1, 2], [2, 4]]")


def test_json_points_roundtrip():
    cfg = PointConfiguration(1, ((Fraction(1, 2), 1), (1, 0)))
    again = parse_points_json(json.dumps(cfg.json_points()))
    assert again == cfg
