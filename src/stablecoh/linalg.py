"""Dense integer matrices with certified rank and kernel bases.

Every matrix here holds plain Python integers. The ranks and kernels the
library needs are invariant under rescaling a row, so callers clear
denominators once, where the input is parsed, and no rational arithmetic
happens below that.

A rank is certified modulo one fixed prime p below 2^30, column by column.
Each column is reduced mod p against an echelon basis of the columns read
before it, and reading stops once the rank reaches min(rows, cols, bound+1).
The bound is proven: the smaller matrix dimension, or a tighter bound the
caller proves (the ordinary square passes dim I^(2)_d, since I^2 is
inside I^(2)). The rank mod p of any set of columns is at most
rank_Q(A), so a rank that meets the bound is exact, and one that reaches
bound + 1 proves a false `upper`. Only r independent columns are needed, so
a full-rank matrix is certified after reading about r of them; a caller
that passes a generator never builds the rest. The columns read are kept
exact; below the bound (a rank-deficient matrix or an unlucky prime) every
column has been read, and fraction-free Bareiss elimination over the
integers decides on the kept columns. Floating point never enters. The same
elimination, run as Gauss-Jordan, gives kernel bases as primitive integer
vectors, so identical inputs give byte-identical bases.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

# The largest prime below 2^30: every residue fits in one CPython digit, which
# keeps the elimination loop on single-digit integers.
PRIME = 1073741789


def modular_column_rank(columns: Iterable[Sequence[int]], stop: int) -> int:
    """Rank over the field with PRIME elements of the matrix with these columns.

    Columns are read one at a time against a reduced echelon basis of the
    columns before them: one pivot row per basis column, where that column
    is 1 and the others are 0. A column in the span is the combination of
    basis columns given by its pivot-row entries, so each other row's entry
    is a dot product with those entries, and the residual is the column
    minus them. Only a column with a nonzero residual updates the basis.
    Reading ends once the rank reaches `stop`, so columns past that point
    are never built when the caller passes a generator. The rank of a
    column subset mod p is at most the rank over the rationals of the whole
    matrix.
    """
    if stop < 1:
        return 0
    p = PRIME
    pivots: list[int] = []
    # Non-pivot row i -> c with v[i] = sum(c[j] * v[pivots[j]]) for v in the span.
    coeffs: dict[int, list[int]] | None = None
    for col in columns:
        v = [x % p for x in col]
        if coeffs is None:
            coeffs = {i: [] for i in range(len(v))}
        head = [v[q] for q in pivots]
        residual = {i: (v[i] - sum(map(mul, c, head))) % p for i, c in coeffs.items()}
        q = next((i for i, x in residual.items() if x), None)
        if q is None:
            continue
        # The residual scaled to 1 at row q joins the basis; clearing row q
        # from the old basis columns updates every other row's coefficients.
        inv = pow(residual[q], -1, p)
        top = coeffs.pop(q)
        for i, c in coeffs.items():
            t = residual[i] * inv % p
            if t:
                coeffs[i] = [(a - t * b) % p for a, b in zip(c, top)]
            coeffs[i].append(t)
        pivots.append(q)
        if len(pivots) == stop:
            break
    return len(pivots)


def _eliminate(
    rows: Sequence[Sequence[int]], n_cols: int, above: bool
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination: rows, pivot columns, last pivot.

    A pivot pv replaces each row it clears by (pv*row - f*head) / prev, an
    exact division. It clears the rows below it, and with `above` the rows
    above too (Gauss-Jordan), which leaves every pivot equal to the last one.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    pivots: list[int] = []
    prev = 1
    for col in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        head = m[r]
        pv = head[col]
        # Rows below the pivot are zero left of it; rows above are not.
        first = 0 if above else col + 1
        for i in range(0 if above else r + 1, n_rows):
            if i == r:
                continue
            row = m[i]
            f = row[col]
            for c in range(first, n_cols):
                row[c] = (pv * row[c] - f * head[c]) // prev
            row[col] = 0
        prev = pv
        pivots.append(col)
    return m, pivots, prev


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals, by forward fraction-free elimination."""
    n_cols = len(rows[0]) if rows else 0
    return len(_eliminate(rows, n_cols, above=False)[1])


def certified_rank(
    columns: Iterable[Sequence[int]], shape: tuple[int, int], upper: int | None = None
) -> int:
    """Exact rank over the rationals of an integer matrix given column by column.

    The bound is min(rows, cols), or min(upper, rows, cols) when the caller
    passes `upper`, which must be a proven upper bound on the rank. The
    columns are read mod PRIME until the rank reaches the bound plus one, or
    the smaller dimension: a rank mod p never exceeds the true rank, so one
    that meets the bound is exact, and one above it proves the bound false.
    Below the bound (a rank-deficient matrix, a loose bound or an unlucky
    prime) every column has been read, and Bareiss elimination decides on
    the kept columns, in the orientation with fewer rows. A rank above
    `upper` raises ValueError.
    """
    n_rows, n_cols = shape
    smaller = min(n_rows, n_cols)
    bound = smaller if upper is None else min(upper, smaller)
    kept: list[Sequence[int]] = []
    rank = modular_column_rank((kept.append(c) or c for c in columns), min(smaller, bound + 1))
    if rank < bound:
        rank = bareiss_rank(kept if n_cols < n_rows else list(zip(*kept)))
    if rank > bound:
        raise ValueError(f"rank {rank} exceeds the claimed upper bound {upper}")
    return rank


def integer_rank(rows: Sequence[Sequence[int]], upper: int | None = None) -> int:
    """Exact rank over the rationals of a built integer matrix; see certified_rank.

    The longer side is streamed, so the echelon basis holds vectors of the
    shorter length.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return 0
    if n_rows > n_cols:
        return certified_rank(rows, (n_cols, n_rows), upper)
    return certified_rank(zip(*rows), (n_rows, n_cols), upper)


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def kernel_basis(rows: Sequence[Sequence[int]], n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the right kernel as primitive integer vectors.

    One vector per free column, ordered by column index; the free coordinate
    of each vector is positive. The shared elimination in Gauss-Jordan mode
    leaves every pivot equal to one integer D, so D times the reduced row
    echelon form is integral and the kernel vectors are read off it exactly.
    The reduced form is unique, so the basis is deterministic byte for byte.
    """
    m, pivots, prev = _eliminate(rows, n_cols, above=True)
    sign = 1 if prev > 0 else -1
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [0] * n_cols
        v[free] = sign * prev
        for r, col in enumerate(pivots):
            v[col] = -sign * m[r][free]
        basis.append(primitive_vector(v))
    return tuple(basis)


class _Matrix(NamedTuple):
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]


class ExactMatrix(_Matrix):
    """Dense matrix of arbitrary-precision integers."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> ExactMatrix:
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int) -> "ExactMatrix":
        data = tuple(tuple(row) for row in rows)
        return cls(len(data), cols, data)
