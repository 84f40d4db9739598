"""Closed-form homology tables with Tate-twist bookkeeping.

Conventions, fixed here once and reused everywhere downstream:

* a table entry of Tate index m denotes a summand Q(m), of weight -2m;
* degree-2i homology of a smooth compact variety carries Tate index i
  (dual to the cohomological convention Q(-i));
* configuration and stratum tables are Grassmannian ones shifted by one
  builder; the Tate shifts, such as l(l-1)/2, are integral by construction,
  and from_components still rejects a non-integral index, never rounded.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

TateComponent = tuple[int, int]  # (dimension, tate index)

# Largest Gaussian binomial [m, l]_q, in coefficients l(m-l)+1, that
# gaussian_binomial computes, and so the largest table grassmann and
# config-homology build (m = n+1). Cost grows faster than the count,
# since the coefficients also lengthen: 2.4 s and 73 MB at 49,730 (l = 223,
# n = 445), 6.6 s and 137 MB at 90,301 (l = 300, n = 600). Larger tables raise
# ValueError (exit 2 in the CLI) before any coefficient is computed.
MAX_TABLE_COEFFICIENTS = 50_000

# Largest projective dimension n that band, e1-page, stable-verify,
# stable-range and gl-cohomology accept. Time and memory grow as n^3 to n^4:
# at n = 64 each takes at most 0.7 s and 83 MB (e1-page), the general-linear
# table alone takes 4 s and 110 MB at n = 100, and band --n 1100 passed 2 GB.
# Every golden, acceptance and benchmark case has n <= 12. Larger n raise
# ValueError (exit 2 in the CLI) instead of running for minutes.
MAX_E1_DIMENSION = 64


def check_e1_dimension(n: int) -> None:
    if n > MAX_E1_DIMENSION:
        raise ValueError(f"problem too large: n = {n} exceeds {MAX_E1_DIMENSION}")


class GradedTateVector(dict):
    """Finitely supported table: a dict from degree to Tate-twisted summands.

    Degrees are keys in increasing order; each maps to a tuple of (dimension,
    Tate index) components sorted by Tate index. Most tables here are pure,
    with one component per degree; exterior-algebra products and
    Alexander-dual totals can mix weights within one degree.
    """

    __slots__ = ()

    @classmethod
    def from_components(cls, components: Iterable[tuple[int, int, int]]) -> GradedTateVector:
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
        for (degree, twist), dim in sorted(acc.items()):
            entries.setdefault(degree, []).append((dim, twist))
        return cls((deg, tuple(comps)) for deg, comps in entries.items())

    def components(self, degree: int) -> tuple[TateComponent, ...]:
        return self.get(degree, ())

    def dimension(self, degree: int) -> int:
        return sum(dim for dim, _ in self.components(degree))

    def iter_components(self) -> Iterator[tuple[int, int, int]]:
        for degree, comps in self.items():
            for dim, tate in comps:
                yield degree, dim, tate


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
    count = l * (m - l) + 1
    if count > MAX_TABLE_COEFFICIENTS:
        raise ValueError(f"problem too large: {count} coefficients exceeds {MAX_TABLE_COEFFICIENTS}")
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


def shifted_grassmannian(l: int, n: int, degree: int, tate: int) -> GradedTateVector:
    """The Gaussian binomial [n+1, l]_q as a table shifted by (degree, tate).

    The q^i coefficient lands in degree degree + 2i with Tate index tate + i.
    Every table built from a Grassmannian goes through here.
    """
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return GradedTateVector.from_components(
        (degree + 2 * i, c, tate + i) for i, c in enumerate(gaussian_binomial(n + 1, l))
    )


def grassmannian_poincare(l: int, n: int) -> GradedTateVector:
    """Homology of the Grassmannian of l-dimensional subspaces of C^{n+1}.

    Degree 2i has dimension equal to the q^i coefficient of [n+1, l]_q and
    Tate index i. l = n+1 gives the one-point table; l > n+1 the empty one.
    """
    return shifted_grassmannian(l, n, 0, 0)


def twisted_config_bm(l: int, n: int) -> GradedTateVector:
    """Sign-twisted Borel-Moore homology of l distinct unordered points in P^n.

    The table is the Grassmannian one shifted up by l(l-1) in degree, and the
    entry in degree j is pure of weight -j, i.e. has Tate index j/2. Support
    is even degrees from l(l-1) to l(l-1) + 2l(n+1-l).
    """
    if not 1 <= l <= n + 1:
        raise ValueError(f"l must be between 1 and n+1 = {n + 1}, got {l}")
    return shifted_grassmannian(l, n, l * (l - 1), l * (l - 1) // 2)


def gl_cohomology(n: int) -> GradedTateVector:
    """Additive table of the cohomology of GL_{n+1}(C).

    An exterior algebra on n+1 generators of degree 2k+1 and Hodge type
    (k+1, k+1), k = 0..n. The table expands the product of
    (1 + t^{2k+1} u^{-(k+1)}), with t marking degree and u the Tate index: the
    class of a generator subset S sits in degree sum(2k+1) with Tate index
    -sum(k+1). Top degree is (n+1)^2, with a single class.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_e1_dimension(n)
    # (degree, tate) -> coefficient of t^degree u^tate.
    product = {(0, 0): 1}
    for k in range(n + 1):
        for (degree, tate), dim in list(product.items()):
            key = (degree + 2 * k + 1, tate - k - 1)
            product[key] = product.get(key, 0) + dim
    components = [(degree, dim, tate) for (degree, tate), dim in product.items()]
    table = GradedTateVector.from_components(components)
    top = (n + 1) ** 2
    if max(table) != top or table.dimension(top) != 1:
        raise RuntimeError(f"GL_{n + 1} table must end in one class of degree {top}")
    return table
