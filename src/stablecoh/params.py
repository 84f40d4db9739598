"""Parameter triples (degree, projective dimension, point count)."""

from __future__ import annotations

from math import comb

from ._record import record


def coefficient_space_dim(d: int, n: int) -> int:
    """Dimension comb(d+n, n) of the space of degree-d forms in n+1 variables."""
    if d < 0 or n < 0:
        raise ValueError(f"degree and dimension must be nonnegative, got d={d}, n={n}")
    return comb(d + n, n)


def check_dimension_and_count(n: int, N: int) -> None:
    """Refuse a projective dimension or a point count below 1 with ValueError."""
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    if N < 1:
        raise ValueError(f"point count must be >= 1, got {N}")


_Triple = record("_Triple", ["d", "n", "N"])  # three ints


class ParameterTriple(_Triple):
    """A (d, n, N) triple: form degree, projective dimension, point count."""

    __slots__ = ()

    def __new__(cls, d: int, n: int, N: int) -> ParameterTriple:
        if d < 1:
            raise ValueError(f"degree must be >= 1, got {d}")
        check_dimension_and_count(n, N)
        return super().__new__(cls, d, n, N)

    @property
    def coefficient_dim(self) -> int:
        return coefficient_space_dim(self.d, self.n)

    @property
    def expected_codimension(self) -> int:
        """Conditions imposed by singularity at N independent points."""
        return self.N * (self.n + 1)

    @property
    def in_guaranteed_range(self) -> bool:
        """Whether d >= 2N-1, where the conditions are always independent."""
        return self.d >= 2 * self.N - 1
