"""Closed-form homology tables with Tate-twist bookkeeping.

Conventions, fixed here once and reused everywhere downstream:

* a table entry of Tate index m denotes a summand Q(m), of weight -2m;
* degree-2i homology of a smooth compact variety carries Tate index i
  (dual to the cohomological convention Q(-i));
* a Tate index j/2 is computed by integer halving, and every stored entry
  must be integral; a half-integral index is a hard error, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

TateComponent = tuple[int, int]  # (dimension, tate index)


class GradedTateVector:
    """Finitely supported table: degree -> Tate-twisted summands.

    Most tables here are pure, with a single (dimension, Tate index) pair
    per degree. Exterior-algebra products and Alexander-dual totals can mix
    weights within one degree, so a degree maps to a tuple of components
    sorted by Tate index.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[int, tuple[TateComponent, ...]]):
        self._entries = {deg: entries[deg] for deg in sorted(entries)}

    @classmethod
    def from_components(
        cls, components: Iterable[tuple[int, int, int]]
    ) -> "GradedTateVector":
        """Build from (degree, dimension, tate) triples, merging equal twists."""
        acc: dict[tuple[int, int], int] = {}
        for degree, dim, tate in components:
            if dim < 0:
                raise ValueError(f"negative dimension {dim} in degree {degree}")
            if dim == 0:
                continue
            if int(tate) != tate:
                raise ValueError(f"non-integral Tate index {tate} in degree {degree}")
            key = (degree, int(tate))
            acc[key] = acc.get(key, 0) + dim
        entries: dict[int, list[TateComponent]] = {}
        for (degree, twist), dim in sorted(acc.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            entries.setdefault(degree, []).append((dim, twist))
        return cls({deg: tuple(comps) for deg, comps in entries.items()})

    @property
    def entries(self) -> dict[int, tuple[TateComponent, ...]]:
        return dict(self._entries)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def components(self, degree: int) -> tuple[TateComponent, ...]:
        return self._entries.get(degree, ())

    def single(self, degree: int) -> TateComponent:
        comps = self.components(degree)
        if len(comps) != 1:
            raise ValueError(f"degree {degree} has {len(comps)} components, expected 1")
        return comps[0]

    def dimension(self, degree: int) -> int:
        return sum(dim for dim, _ in self.components(degree))

    def total_dimension(self) -> int:
        return sum(dim for comps in self._entries.values() for dim, _ in comps)

    def iter_components(self) -> Iterator[tuple[int, int, int]]:
        for degree, comps in self._entries.items():
            for dim, tate in comps:
                yield degree, dim, tate

    def mapped(self, fn) -> "GradedTateVector":
        """Apply fn(degree, dim, tate) -> (degree, dim, tate) to every component."""
        return GradedTateVector.from_components(
            fn(deg, dim, tate) for deg, dim, tate in self.iter_components()
        )

    def to_json_obj(self) -> dict[str, list[int]]:
        """The {degree: [dim, tate]} interchange form; requires a pure table."""
        return {str(deg): [dim, tate] for deg, (dim, tate) in
                ((d, self.single(d)) for d in self._entries)}

    def to_json_multi(self) -> dict[str, list[list[int]]]:
        """Mixed-weight form: each degree maps to a list of [dim, tate] pairs."""
        return {
            str(deg): [[dim, tate] for dim, tate in comps]
            for deg, comps in self._entries.items()
        }

    def csv_rows(self) -> list[tuple[int, int, int]]:
        return [(deg, dim, tate) for deg, dim, tate in self.iter_components()]

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedTateVector) and self._entries == other._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{deg}: {list(comps) if len(comps) > 1 else comps[0]}"
            for deg, comps in self._entries.items()
        )
        return f"GradedTateVector({{{inner}}})"


def half_tate(degree: int) -> int:
    """The Tate index degree/2 of a pure entry; an odd degree raises ValueError."""
    if degree % 2:
        raise ValueError(f"non-integral Tate index {degree}/2")
    return degree // 2


@lru_cache(maxsize=None)
def gaussian_binomial(m: int, l: int) -> tuple[int, ...]:
    """Coefficient tuple of the Gaussian binomial [m, l]_q.

    Computed without recursion by the product formula, the product over
    i < l of (1 - q^(m-i)) / (1 - q^(i+1)), each division exact; [m, l] =
    [m, m-l], so the shorter product is taken. Index i is the coefficient of
    q^i and the tuple has length l(m-l)+1.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if l < 0 or l > m:
        return ()
    coeffs = [1]
    for i in range(min(l, m - l)):
        up, down = m - i, i + 1
        coeffs += [0] * up
        for j in range(len(coeffs) - 1, up - 1, -1):
            coeffs[j] -= coeffs[j - up]
        del coeffs[len(coeffs) - down:]
        for j in range(down, len(coeffs)):
            coeffs[j] += coeffs[j - down]
    return tuple(coeffs)


def grassmannian_poincare(l: int, n: int) -> GradedTateVector:
    """Homology of the Grassmannian of l-dimensional subspaces of C^{n+1}.

    Degree 2i has dimension equal to the q^i coefficient of [n+1, l]_q and
    Tate index i. l = n+1 gives the one-point table; l > n+1 the empty one.
    """
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    coeffs = gaussian_binomial(n + 1, l)
    return GradedTateVector.from_components(
        (2 * i, c, i) for i, c in enumerate(coeffs) if c
    )


def twisted_config_bm(l: int, n: int) -> GradedTateVector:
    """Sign-twisted Borel-Moore homology of l distinct unordered points in P^n.

    The table is the Grassmannian one shifted up by l(l-1) in degree, and the
    entry in degree j is pure of weight -j, i.e. has Tate index j/2. Support
    is even degrees from l(l-1) to l(l-1) + 2l(n+1-l).
    """
    if not 1 <= l <= n + 1:
        raise ValueError(f"l must be between 1 and n+1 = {n + 1}, got {l}")
    shift = l * (l - 1)
    grass = grassmannian_poincare(l, n)
    return grass.mapped(lambda deg, dim, tate: (deg + shift, dim, half_tate(deg + shift)))


@dataclass(frozen=True)
class GlGenerator:
    """An odd-degree exterior generator of the cohomology of GL_{n+1}(C)."""

    index: int  # k = 0..n

    @property
    def degree(self) -> int:
        return 2 * self.index + 1

    @property
    def hodge_type(self) -> tuple[int, int]:
        return (self.index + 1, self.index + 1)

    @property
    def tate(self) -> int:
        return -(self.index + 1)


def gl_cohomology(n: int) -> tuple[tuple[GlGenerator, ...], GradedTateVector]:
    """Generators and full additive table of the cohomology of GL_{n+1}(C).

    An exterior algebra on n+1 generators of degree 2k+1 and Hodge type
    (k+1, k+1), k = 0..n. The table expands the product of
    (1 + t^{2k+1} u^{-(k+1)}), with t marking degree and u the Tate index: the
    class of a generator subset S sits in degree sum(2k+1) with Tate index
    -sum(k+1). Top degree is (n+1)^2, with a single class.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    generators = tuple(GlGenerator(k) for k in range(n + 1))
    # (degree, tate) -> coefficient of t^degree u^tate.
    product = {(0, 0): 1}
    for k in range(n + 1):
        for (degree, tate), dim in list(product.items()):
            key = (degree + 2 * k + 1, tate - k - 1)
            product[key] = product.get(key, 0) + dim
    components = [(degree, dim, tate) for (degree, tate), dim in product.items()]
    table = GradedTateVector.from_components(components)
    top = (n + 1) ** 2
    if table.degrees()[-1] != top or table.dimension(top) != 1:
        raise RuntimeError(f"GL_{n + 1} table must end in one class of degree {top}")
    return generators, table
