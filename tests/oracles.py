"""Independent oracles used to pin expected values in the tests.

Nothing here shares code with the library paths under test: subspaces are
counted by explicit row-echelon enumeration over the two-element field,
condition ranks are recomputed with sympy's own differentiation and rank,
kernel bases come from sympy's nullspace, rank certificates are checked
with sympy determinants and products, and point counts over prime fields
come from the group-order formula or from enumerating matrices and forms,
and the ranks of singularity conditions over a prime field from an
elimination written here.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm, prod

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
