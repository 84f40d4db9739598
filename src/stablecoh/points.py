"""Configurations of distinct points in projective space.

Each point keeps the coordinates it was given, integers or exact rationals,
and those are used only to echo the point back in reports. Everything that
computes with a point uses its normal form instead: the primitive integer
vector on the same line whose leftmost nonzero entry is positive. It is
computed once per point, when the configuration is built, and it is also
the key for detecting projective duplicates. Ranks and kernels of the
condition matrices do not change when a point is rescaled, so no rational
arithmetic happens past this module. Random sampling draws coordinates
uniformly from [-COORD_BOUND, COORD_BOUND] and skips the zero vector and
projective repeats, which hits the generic locus with overwhelming
probability while keeping matrix entries small. It gives up after
MAX_ATTEMPTS draws, a zero draw counting as one.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from itertools import combinations
from math import gcd, lcm

from ._record import record
from .linalg import _eliminate

# Annotations are strings, so their names need not exist at run time: Coord is
# int | fractions.Fraction, Point is tuple[Coord, ...], and rng is a random.Random.
# fractions is imported where a 'p/q' token is parsed.

COORD_BOUND = 100
MAX_ATTEMPTS = 1000


class SamplingError(RuntimeError):
    """Random sampling failed to produce a valid configuration in the attempt budget."""


class PointsParseError(ValueError):
    """A points document failed to parse; carries the position of the first bad token."""

    def __init__(self, message: str, *, point: int | None = None, coord: int | None = None):
        self.point = point
        self.coord = coord
        if point is not None and coord is not None:
            message = f"point {point}, coordinate {coord}: {message}"
        elif point is not None:
            message = f"point {point}: {message}"
        super().__init__(message)


def _normal_form(point: Sequence[Coord]) -> tuple[int, ...]:
    """The primitive integer multiple of a nonzero point with a positive leading entry."""
    scale = lcm(*(c.denominator for c in point))
    ints = [c.numerator * (scale // c.denominator) for c in point]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


_Configuration = record("_Configuration", [
    "dimension",       # int
    "points",          # tuple[Point, ...]
    # tuple[tuple[int, ...], ...]: the normal form of each point, in the same order;
    # see the module docstring.
    "integer_points",
])


class PointConfiguration(_Configuration):
    """N pairwise-distinct points of projective n-space."""

    __slots__ = ()

    def __new__(cls, dimension: int, points: tuple[Point, ...]) -> PointConfiguration:
        n = dimension
        if n < 0:
            raise ValueError(f"projective dimension must be >= 0, got {n}")
        if not points:
            raise ValueError("point count must be >= 1, got 0")
        seen: dict[tuple[int, ...], int] = {}
        for j, point in enumerate(points):
            if len(point) != n + 1:
                raise ValueError(
                    f"point {j} has {len(point)} coordinates, expected {n + 1}"
                )
            if all(c == 0 for c in point):
                raise ValueError(f"point {j} is the zero vector")
            key = _normal_form(point)
            if key in seen:
                raise ValueError(f"points {seen[key]} and {j} coincide projectively")
            seen[key] = j
        # The keys of `seen` are the normal forms, in point order.
        return super().__new__(cls, dimension, points, tuple(seen))

    def __getnewargs__(self) -> tuple[int, tuple[Point, ...]]:
        # Unpickling calls __new__ with these, which derives integer_points again.
        return self.dimension, self.points

    @property
    def count(self) -> int:
        return len(self.points)

    def json_points(self) -> list[list[str]]:
        """The as-given coordinates as 'p' or 'p/q' strings, the on-disk interchange form."""
        return [[str(c) for c in point] for point in self.points]


def coordinate_configuration(n: int, N: int) -> PointConfiguration:
    """The first N coordinate points e_0, .., e_{N-1} of projective n-space."""
    if N > n + 1:
        raise ValueError(f"only {n + 1} coordinate points exist in dimension {n}")
    points = tuple(
        tuple(1 if i == j else 0 for i in range(n + 1)) for j in range(N)
    )
    return PointConfiguration(n, points)


def collinear_configuration(n: int, N: int) -> PointConfiguration:
    """N distinct points [1 : t : 0 : .. : 0] on a fixed line, t = 0..N-1.

    Deterministic and seed-independent; used to probe the sharpness of the
    degree bound 2N-1.
    """
    if n < 1:
        raise ValueError("a line needs ambient dimension >= 1")
    points = tuple((1, t) + (0,) * (n - 1) for t in range(N))
    return PointConfiguration(n, points)


def random_configuration(n: int, N: int, rng: random.Random) -> PointConfiguration:
    """Sample N projectively distinct random points; see the module docstring."""
    drawn: dict[tuple[int, ...], Point] = {}  # normal form -> first draw, in draw order
    for _ in range(MAX_ATTEMPTS):
        if len(drawn) >= N:
            break
        point = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(n + 1))
        if any(point):
            drawn.setdefault(_normal_form(point), point)
    if len(drawn) < N:
        raise SamplingError(
            f"no distinct configuration of {N} points in dimension {n} "
            f"after {MAX_ATTEMPTS} attempts"
        )
    return PointConfiguration(n, tuple(drawn.values()))


def in_general_linear_position(config: PointConfiguration) -> bool:
    """No k+2 of the points lie in a k-dimensional linear subspace, k < n.

    Checked by one exact fraction-free elimination of the coordinates of each
    subset of size min(N, n+1); full rank there forces it on smaller subsets.
    """
    size = min(config.count, config.dimension + 1)
    for subset in combinations(config.integer_points, size):
        if len(_eliminate(subset, config.dimension + 1)[1]) < size:
            return False
    return True


def random_general_position_configuration(n: int, N: int, rng: random.Random) -> PointConfiguration:
    """Sample up to MAX_ATTEMPTS configurations until one is in general linear position."""
    for _ in range(MAX_ATTEMPTS):
        config = random_configuration(n, N, rng)
        if in_general_linear_position(config):
            return config
    raise SamplingError(
        f"no general-position configuration of {N} points in dimension {n} "
        f"after {MAX_ATTEMPTS} attempts"
    )


def _parse_coordinate(token: object, point: int, coord: int) -> Coord:
    if isinstance(token, bool):
        raise PointsParseError(f"bad token {token!r}", point=point, coord=coord)
    if isinstance(token, int):
        return token
    if isinstance(token, str):
        text = token.strip()
        if not re.fullmatch(r"[+-]?\d+(/\d+)?", text):
            raise PointsParseError(f"bad token {token!r}", point=point, coord=coord)
        from fractions import Fraction

        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise PointsParseError(
                f"zero denominator in {token!r}", point=point, coord=coord
            ) from None
        return int(value) if value.denominator == 1 else value
    raise PointsParseError(f"bad token {token!r}", point=point, coord=coord)


def parse_points_json(text: str) -> PointConfiguration:
    """Parse a JSON array of points, each an array of 'p/q' or integer entries.

    Raises PointsParseError locating the first bad token (point and
    coordinate index, or the JSON line/column for a malformed document).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PointsParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, list) or not doc:
        raise PointsParseError("document must be a non-empty array of points")
    points = []
    width = None
    for j, raw in enumerate(doc):
        if not isinstance(raw, list) or not raw:
            raise PointsParseError("expected a non-empty coordinate array", point=j)
        if width is None:
            width = len(raw)
        elif len(raw) != width:
            raise PointsParseError(
                f"expected {width} coordinates, got {len(raw)}", point=j
            )
        points.append(tuple(_parse_coordinate(tok, j, i) for i, tok in enumerate(raw)))
    try:
        return PointConfiguration(width - 1, tuple(points))
    except ValueError as exc:
        raise PointsParseError(str(exc)) from None
