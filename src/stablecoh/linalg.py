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
that passes a generator never builds the rest.

Below the bound every nonzero column has been read and kept exact, and the
rank r mod p is proven from both sides (Kaltofen, Nehring and Saunders,
ISSAC 2011): the pivot minor A[R, C] is nonzero mod p, hence over Z, and
rows - r independent integer vectors y spanning the left kernel of A[:, C],
an r x rows system, satisfy y.A = 0 over Z on every column. A matrix with
more rows than columns is certified as its transpose. Only an unlucky prime
fails the check, and then Bareiss elimination over the integers decides.
Floating point never enters. The same forward elimination, followed by a
fraction-free back-substitution, gives kernel bases as primitive integer
vectors, byte-identical for identical inputs.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

# The largest prime below 2^30: every residue fits in one CPython digit, which
# keeps the elimination loop on single-digit integers.
PRIME = 1073741789


def modular_column_rank(columns: Iterable[Sequence[int]], stop: int) -> list[tuple[int, int]]:
    """Pivots of the matrix with these columns over the field with PRIME elements.

    Columns are read one at a time against a reduced echelon basis of the
    columns before them: one pivot row per basis column, where that column
    is 1 and the others are 0. A column in the span is the combination of
    basis columns given by its pivot-row entries, so each other row's entry
    is a dot product with those entries, and the residual is the column
    minus them. Only a column with a nonzero residual updates the basis.
    Reading ends once the rank reaches `stop`, so columns past that point
    are never built when the caller passes a generator. The rank of a
    column subset mod p is at most the rank over the rationals of the whole
    matrix. Each pivot is returned as its row and the index of its column,
    so the rank mod p is their number; the minor at those rows and columns
    is nonzero mod p, as the basis they span is the identity on the pivot
    rows.
    """
    if stop < 1:
        return []
    p = PRIME
    heads: list[int] = []
    pivots: list[tuple[int, int]] = []
    # Non-pivot row i -> c with v[i] = sum(c[j] * v[heads[j]]) for v in the span.
    coeffs: dict[int, list[int]] | None = None
    for j, col in enumerate(columns):
        v = [x % p for x in col]
        if coeffs is None:
            coeffs = {i: [] for i in range(len(v))}
        head = [v[q] for q in heads]
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
        heads.append(q)
        pivots.append((q, j))
        if len(heads) == stop:
            break
    return pivots


def _eliminate(
    rows: Sequence[Sequence[int]], n_cols: int
) -> tuple[list[list[int]], list[int], int]:
    """Forward fraction-free (Bareiss) elimination: rows, pivot columns, last pivot.

    A pivot pv replaces each row below it by (pv*row - f*head) / prev, an
    exact division. Row k then holds minors of the first k+1 rows: its entry
    in column c is the minor on the first k pivot columns and c, so the last
    pivot is the minor on every pivot column.
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
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[col]
            for c in range(col + 1, n_cols):
                row[c] = (pv * row[c] - f * head[c]) // prev
            row[col] = 0
        prev = pv
        pivots.append(col)
    return m, pivots, prev


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals, by forward fraction-free elimination."""
    n_cols = len(rows[0]) if rows else 0
    return len(_eliminate(rows, n_cols)[1])


def _rank_certificate(
    columns: Sequence[Sequence[int]], pivots: list[tuple[int, int]], n_rows: int
) -> tuple[Sequence[Sequence[int]], list[int], list[int], tuple[tuple[int, ...], ...]] | None:
    """Proof that the matrix with these columns has rank r = len(pivots).

    The pivots' (row, column) pairs give a minor nonzero mod p; the kernel
    is the left kernel of the pivot columns, checked over the integers
    against every column. A matrix with fewer columns than rows is
    certified as its transpose. Returns the certified columns, pivot rows,
    pivot columns and kernel, or None when the check fails.
    """
    pivot_rows, pivot_cols = [i for i, _ in pivots], [j for _, j in pivots]
    if len(columns) < n_rows:
        columns, pivot_rows, pivot_cols = list(zip(*columns)), pivot_cols, pivot_rows
    kernel = kernel_basis([columns[j] for j in pivot_cols], len(columns[0]))
    if any(sum(map(mul, y, col)) for y in kernel for col in columns):
        return None
    return columns, pivot_rows, pivot_cols, kernel


def certified_rank(
    columns: Iterable[Sequence[int]], shape: tuple[int, int], upper: int | None = None
) -> int:
    """Exact rank over the rationals of an integer matrix given column by column.

    The bound is min(rows, cols), or min(upper, rows, cols) when the caller
    passes `upper`, which must be a proven upper bound on the rank. The
    columns are read mod PRIME until the rank reaches the bound plus one, or
    the smaller dimension: a rank mod p never exceeds the true rank, so one
    that meets the bound is exact, and one above it proves the bound false.
    Below the bound every column has been read, and the rank r mod p is
    proven by its pivot minor and an exact left kernel of dimension
    min(rows, cols) - r; only if the kernel check fails does Bareiss decide
    on the kept columns, in the orientation with fewer rows. A rank above
    `upper` raises ValueError.
    """
    n_rows, n_cols = shape
    smaller = min(n_rows, n_cols)
    bound = smaller if upper is None else min(upper, smaller)
    kept: list[Sequence[int]] = []
    stream = (kept.append(c) or c for c in columns)
    pivots = modular_column_rank(stream, min(smaller, bound + 1))
    rank = len(pivots)
    if rank < bound and _rank_certificate(kept, pivots, n_rows) is None:
        rank = bareiss_rank(kept if n_cols < n_rows else list(zip(*kept)))
    if rank > bound:
        raise ValueError(f"rank {rank} exceeds the claimed upper bound {upper}")
    return rank


def integer_rank(rows: Sequence[Sequence[int]], upper: int | None = None) -> int:
    """Exact rank over the rationals of a built integer matrix; see certified_rank.

    The rows are streamed as the columns of the transpose, which has the
    same rank, so the echelon basis holds vectors of the row length. When
    the rows are fewer than their length, a rank below the bound is proven
    on the rows themselves, as for any stream of fewer vectors than their
    length.
    """
    if not rows or not rows[0]:
        return 0
    return certified_rank(rows, (len(rows[0]), len(rows)), upper)


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def kernel_basis(rows: Sequence[Sequence[int]], n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the right kernel as primitive integer vectors.

    One vector per free column, ordered by column index; the free coordinate
    of each vector is positive. After forward fraction-free elimination, the
    vector for free column f sets v_f = |D|, D the last pivot, and 0 at the
    other free columns, then solves the echelon rows from the last one up.
    By Cramer's rule every pivot coordinate is then a minor, an integer, so
    each division is exact. That vector is the unique kernel vector with
    these free coordinates, so the basis is deterministic byte for byte.
    """
    m, pivots, last = _eliminate(rows, n_cols)
    scale = abs(last)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [0] * n_cols
        v[free] = scale
        for r in reversed(range(len(pivots))):
            row, col = m[r], pivots[r]
            later = sum(row[c] * v[c] for c in pivots[r + 1:])
            v[col] = -(row[free] * scale + later) // row[col]
        basis.append(primitive_vector(v))
    return tuple(basis)


class ExactMatrix(NamedTuple):
    """Dense matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
