"""Parameter triples (degree, projective dimension, point count)."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


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


@dataclass(frozen=True)
class ParameterTriple:
    """A (d, n, N) triple: form degree, projective dimension, point count."""

    d: int
    n: int
    N: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        check_dimension_and_count(self.n, self.N)

    @property
    def coefficient_dim(self) -> int:
        return coefficient_space_dim(self.d, self.n)

    @property
    def expected_codimension(self) -> int:
        """Conditions imposed by singularity at N independent points."""
        return self.N * (self.n + 1)

    @property
    def degree_bound(self) -> int:
        """Smallest degree 2N-1 at which the conditions are always independent."""
        return 2 * self.N - 1

    @property
    def in_guaranteed_range(self) -> bool:
        return self.d >= self.degree_bound
