"""Independent oracles used to pin expected values in the tests.

Nothing here shares code with the library paths under test: subspaces are
counted by explicit row-echelon enumeration over the two-element field,
condition ranks are recomputed with sympy's own differentiation and rank,
the reference stream of every nonzero condition column, which the tests
certify where the library streams only the frame's block, is built from
the exponents alone, the ranks on the points' own frame with sympy's
adjugate and domain-matrix rank, kernel bases come from sympy's
nullspace, rank certificates are checked with sympy determinants and
products, and point counts over prime fields come from the group-order
formula or from enumerating matrices and forms,
signed counts of Frobenius-stable subsets from orbit counts by Moebius
inversion, the ranks of singularity conditions over a prime field from
an elimination written here, stabilization degrees by reading a Hilbert
function at every degree from the top down, and invariance under linear
changes of coordinates by unimodular matrices drawn and checked here, and
the regularity of the ideal of points from evaluation ranks over a second
prime field.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Iterator
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd, lcm, prod

import sympy
from sympy.polys.matrices import DomainMatrix


def count_subspaces_f2(m: int, l: int) -> int:
    """Count l-dimensional subspaces of F_2^m.

    Enumerates every reduced row-echelon matrix (pivot columns, then all
    assignments of the free cells), materializes each row space as a set of
    vectors, and counts the distinct spans. Distinctness is asserted, which
    checks the enumeration itself.
    """
    if l < 0 or l > m:
        return 0
    if l == 0:
        return 1
    spans = set()
    for pivots in combinations(range(m), l):
        pivot_set = set(pivots)
        free_cells = [
            (r, c)
            for r in range(l)
            for c in range(pivots[r] + 1, m)
            if c not in pivot_set
        ]
        for bits in product((0, 1), repeat=len(free_cells)):
            rows = [1 << pivots[r] for r in range(l)]
            for (r, c), bit in zip(free_cells, bits):
                if bit:
                    rows[r] |= 1 << c
            span = frozenset(_span_f2(rows))
            assert span not in spans, "row-echelon enumeration produced a duplicate"
            spans.add(span)
    return len(spans)


def _span_f2(rows: list[int]) -> set[int]:
    vectors = {0}
    for row in rows:
        vectors |= {v ^ row for v in vectors}
    return vectors


def sympy_codimension(d: int, points: list[tuple]) -> int:
    """Rank of the singularity conditions, recomputed from scratch with sympy."""
    n = len(points[0]) - 1
    xs = sympy.symbols(f"y0:{n + 1}")
    monomial_supports = sorted(set(combinations_with_replacement(range(n + 1), d)))
    polys = [sympy.prod([xs[i] for i in support]) for support in monomial_supports]
    rows = []
    for point in points:
        subs = {xs[i]: sympy.Rational(point[i]) for i in range(n + 1)}
        for i in range(n + 1):
            rows.append([sympy.diff(poly, xs[i]).subs(subs) for poly in polys])
    return sympy.Matrix(rows).rank()


def sympy_rank(rows: list[list]) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def sympy_determinant(rows: list[list[int]]) -> int:
    return int(sympy.Matrix(rows).det())


def sympy_kernel_basis(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """sympy's nullspace, each vector scaled by a positive rational to be primitive.

    sympy reads one vector per free column off the reduced row echelon form,
    with that free coordinate equal to 1, so the scaled vectors keep it positive.
    """
    basis = []
    for vec in sympy.Matrix(rows).nullspace():
        scale = lcm(*(sympy.Rational(x).q for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return tuple(basis)


def sympy_certified_rank(rows: list[list[int]], pivot_rows, pivot_cols, kernel) -> int:
    """The rank a pivot-minor and left-kernel certificate proves, each check redone in sympy.

    A matrix with more rows than columns is certified as its transpose. With
    r pivots the minor at the pivot rows and columns must have a nonzero
    determinant (rank >= r), and the kernel vectors must be rows - r
    independent vectors y with y.A = 0 (rank <= r).
    """
    a = sympy.Matrix(rows)
    if a.rows > a.cols:
        a = a.T
    r = len(pivot_rows)
    assert len(pivot_cols) == r
    if r:
        minor = a.extract(list(pivot_rows), list(pivot_cols))
        assert DomainMatrix.from_Matrix(minor).det() != 0
    y = sympy.Matrix(len(kernel), a.rows, [x for vec in kernel for x in vec])
    assert y.rows == a.rows - r and y.rank() == y.rows
    assert (y * a).is_zero_matrix
    return r


def partial_columns(d: int, n: int, points) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(e, column) for every degree-d monomial e of P^n, zero or not, each built when read.

    The monomials come in graded-lex order, x0^d first, as multisets of d
    variables. The column holds d/dx_i x^e = e_i * prod_j c_j^(e_j - delta_ij)
    at each point, one entry per (point, i), point by point, computed from
    the exponents alone.
    """
    for support in combinations_with_replacement(range(n + 1), d):
        e = tuple(support.count(i) for i in range(n + 1))
        yield e, [e[i] * prod(c ** (e[j] - (i == j)) for j, c in enumerate(point)) if e[i] else 0
                  for point in points for i in range(n + 1)]


def singularity_columns(d: int, n: int, points) -> Iterator[list[int]]:
    """The reference stream: every nonzero column of partial_columns, in order, built when read."""
    return (column for _, column in partial_columns(d, n, points) if any(column))


def sympy_frame_ranks(d: int, points: list[tuple[int, ...]]) -> tuple[int, int]:
    """Ranks over QQ, by sympy, of the singularity matrix and of the block the frame leaves.

    The frame is the first n+1 independent points, taken in order; sympy's
    adjugate of their matrix A moves them to the coordinate points and each
    other point q to adj(A).q. The block is those moved points' rows on the
    monomials with every exponent below d-1. The points must span P^n.
    """
    n = len(points[0]) - 1

    def qq_rank(rows):
        return DomainMatrix.from_list(rows, sympy.QQ).rank() if rows and rows[0] else 0

    frame, others = [], []
    for point in points:
        if len(frame) <= n and qq_rank(frame + [point]) > len(frame):
            frame.append(point)
        else:
            others.append(point)
    assert len(frame) == n + 1, "the points do not span"
    adjugate = DomainMatrix.from_list(frame, sympy.ZZ).transpose().adjugate().to_list()
    moved = [[sum(map(operator.mul, row, q)) for row in adjugate] for q in others]
    # A matrix has the rank of its transpose, so the columns are ranked as rows.
    block = [column for e, column in partial_columns(d, n, moved) if max(e) < d - 1]
    return qq_rank([column for _, column in partial_columns(d, n, points)]), qq_rank(block)


def downward_regularity_scan(h, d_max: int, target: int) -> tuple[int, dict[int, int]]:
    """The least degree from which h holds target up to d_max, and every value read.

    Reads h at d_max, d_max - 1, ... until a degree is short of target (or
    degree 1 is read), and returns the degree above that one together with
    the values read, in increasing degree. The scan assumes nothing about h.
    """
    values = {}
    d = d_max
    while d >= 1:
        values[d] = h(d)
        if values[d] != target:
            break
        d -= 1
    return d + 1, dict(sorted(values.items()))


def unimodular_matrix(m: int, rng: random.Random) -> list[list[int]]:
    """A random m x m integer matrix of determinant +-1, checked with sympy over ZZ.

    The product of a lower and an upper unitriangular matrix with entries in
    [-2, 2], its rows then permuted and negated at random.
    """
    lower = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(m)]
             for i in range(m)]
    upper = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(m)]
             for i in range(m)]
    rows = [[sign * sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m)]
            for i, sign in zip(rng.sample(range(m), m), rng.choices((1, -1), k=m))]
    assert abs(DomainMatrix.from_list(rows, sympy.ZZ).det()) == 1
    return rows


def linear_invariance_violations(codimension, cases, seed: int):
    """Yield each case (d, points) that fails codimension(d, g.P) == codimension(d, P) <= cap.

    g is a fresh unimodular matrix per case, drawn from the seed, and cap is
    min(N(n+1), C(d+n, n)): the row count and the column count of the
    conditions. codimension is called with d and a list of integer points.
    """
    rng = random.Random(seed)
    for d, points in cases:
        n = len(points[0]) - 1
        g = unimodular_matrix(n + 1, rng)
        moved = [tuple(sum(x * c for x, c in zip(row, p)) for row in g) for p in points]
        value = codimension(d, points)
        if not codimension(d, moved) == value <= min(len(points) * (n + 1), comb(d + n, n)):
            yield d, points


def gl_order(m: int, q: int) -> int:
    """|GL_m(F_q)|: the product over i < m of q^m - q^i (ordered bases)."""
    order = 1
    for i in range(m):
        order *= q**m - q**i
    return order


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of an integer matrix, by row elimination written here."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def points_regularity(points: list[tuple[int, ...]]) -> int:
    """reg(I) = t + 1 for the ideal I of distinct points, by evaluation ranks.

    t is the least degree at which the points impose N conditions: where the
    matrix of every degree-t monomial at every point has rank N. The rank is
    read over F_p for p = 2^61 - 1. It is never above the rank over Q, so t
    is never read too low.
    """
    n = len(points[0]) - 1
    t = 0
    while rank_mod_p([[prod(point[i] for i in support)
                       for support in combinations_with_replacement(range(n + 1), t)]
                      for point in points], 2**61 - 1) < len(points):
        t += 1
    return t + 1


def count_invertible_matrices(m: int, p: int) -> int:
    """Count the m x m matrices over F_p of full rank, by enumeration."""
    return sum(
        rank_mod_p([list(entries[i * m:(i + 1) * m]) for i in range(m)], p) == m
        for entries in product(range(p), repeat=m * m)
    )


def projective_points_mod_p(n: int, p: int) -> list[tuple[int, ...]]:
    """The points of P^n(F_p), each as the vector in {0, .., p-1}^(n+1) led by a 1."""
    return [v for v in product(range(p), repeat=n + 1) if next((x for x in v if x), 0) == 1]


def singularity_rows_mod_p(d: int, point: tuple[int, ...], p: int) -> list[list[int]]:
    """The n+1 singularity conditions on degree-d forms at a point, reduced mod p.

    Row i holds d/dx_i x^e = e_i * prod_j c_j^(e_j - [i = j]) for every
    degree-d monomial e, listed as a multiset of d variables.
    """
    n = len(point) - 1
    monomials = [
        [support.count(j) for j in range(n + 1)]
        for support in combinations_with_replacement(range(n + 1), d)
    ]
    rows = []
    for i in range(n + 1):
        row = []
        for e in monomials:
            lower = [k - (i == j) for j, k in enumerate(e)]
            row.append(e[i] * prod(pow(c, k, p) for c, k in zip(point, lower)) % p if e[i] else 0)
        rows.append(row)
    return rows


def _poly_gcd_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """gcd over F_p of two coefficient lists (constant term first), trimmed."""

    def trim(h):
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = trim(f[:]), trim(g[:])
    while g:
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            factor = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - factor * c) % p
            trim(f)
        f, g = g, f
    return f


def count_nonsingular_binary_forms(d: int, p: int) -> int:
    """Count the degree-d binary forms over F_p with d distinct roots in P^1.

    The form a_0 y^d + a_1 x y^(d-1) + ... + a_d x^d restricts to the
    polynomial g(x) = sum a_i x^i on y = 1 and has a root of multiplicity
    d - deg g at infinity. It is nonsingular when g is squarefree,
    gcd(g, g') = 1, and that multiplicity is at most 1.
    """
    count = 0
    for coeffs in product(range(p), repeat=d + 1):
        g = list(coeffs)
        while g and g[-1] == 0:
            g.pop()
        if len(g) < d:  # the zero form, or a multiple root at infinity
            continue
        derivative = [i * c % p for i, c in enumerate(g)][1:]
        count += len(_poly_gcd_mod(g, derivative, p)) == 1
    return count


def projective_count(n: int, q: int) -> int:
    """|P^n(F_q)| = 1 + q + ... + q^n."""
    return sum(q**i for i in range(n + 1))


def frobenius_orbit_counts(n: int, q: int, k_max: int) -> list[int]:
    """M_k for k = 1..k_max: the number of size-k Frobenius orbits on P^n over F_q.

    A point of P^n(F_{q^j}) lies in an orbit whose size k divides j, so
    |P^n(F_{q^j})| = sum over k | j of k * M_k, inverted here by Moebius.
    """

    def mobius(m: int) -> int:
        sign, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if m > 1 else sign

    counts = []
    for k in range(1, k_max + 1):
        total = sum(mobius(k // j) * projective_count(n, q**j) for j in range(1, k + 1) if k % j == 0)
        assert total % k == 0
        counts.append(total // k)
    return counts


def signed_stable_subsets(l: int, n: int, q: int) -> int:
    """Signed count of the Frobenius-stable l-subsets of P^n over F_q.

    A stable subset is a union of Frobenius orbits, and Frobenius permutes
    it with sign the product of (-1)^(k-1) over its size-k orbits. The count
    is the coefficient of t^l in the product over k of
    (1 + (-1)^(k-1) t^k)^(M_k), expanded binomially.
    """
    series = [1] + [0] * l
    for k, orbits in enumerate(frobenius_orbit_counts(n, q, l), start=1):
        factor = [0] * (l + 1)
        for i in range(l // k + 1):
            factor[i * k] = comb(orbits, i) * (-1) ** ((k - 1) * i)
        series = [sum(series[a] * factor[b - a] for a in range(b + 1)) for b in range(l + 1)]
    return series[l]
