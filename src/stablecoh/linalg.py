"""Dense exact-rational matrices with certified rank and kernel bases.

A rank is first computed modulo one fixed prime p below 2^30. Reduction mod
p can only lose rank, so rank(A mod p) <= rank_Q(A) <= bound, where the bound
is proven: the smaller matrix dimension, or a tighter bound the caller
proves (the ordinary square passes an upper bound on dim I^(2)_d, since I^2
is inside I^(2)). When the modular rank meets the bound it is the exact
rank; otherwise fraction-free Bareiss elimination over the integers decides.
Floating point never enters. Kernel bases are computed from the reduced row
echelon form over the rationals and returned as primitive integer vectors,
so identical inputs give byte-identical bases.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Scalar = int | Fraction

# The largest prime below 2^30: every residue fits in one CPython digit, which
# keeps the elimination loop on single-digit integers.
PRIME = 1073741789


def clear_denominators(row: Sequence[Scalar]) -> Sequence[int]:
    """Scale a rational row to integers; rescaling a row preserves rank.

    A row that is already integral is returned as is, not copied.
    """
    if all(type(x) is int for x in row):
        return row
    mult = lcm(*(Fraction(x).denominator for x in row)) if row else 1
    return [int(x * mult) for x in row]


def modular_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the field with PRIME elements.

    Reduction mod p can only lose rank, so the result is a lower bound on
    the rank over the rationals.
    """
    p = PRIME
    # Residues live in machine-word arrays, not as one int object per entry,
    # so the reduced copy costs less memory than the matrix it came from.
    m = [array("l", [x % p for x in row]) for row in rows]
    rank = 0
    # Each step retires the leading column; rows hold the remaining columns.
    while m and m[0]:
        pivot = next((i for i, row in enumerate(m) if row[0]), None)
        if pivot is None:
            m = [row[1:] for row in m]
            continue
        head = m.pop(pivot)
        inv = pow(head[0], -1, p)
        tail = [x * inv % p for x in head[1:]]
        for i, row in enumerate(m):
            f = row[0]
            m[i] = array("l", [(a - f * b) % p for a, b in zip(row[1:], tail)]) if f else row[1:]
        rank += 1
    return rank


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Every intermediate entry is an exact integer (the divisions are exact),
    so the returned rank is the true rank over the rationals.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_row = 0
    prev = 1
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        pivot = None
        for r in range(pivot_row, n_rows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        head = m[pivot_row]
        pv = head[col]
        for r in range(pivot_row + 1, n_rows):
            row = m[r]
            f = row[col]
            for c in range(col + 1, n_cols):
                row[c] = (pv * row[c] - f * head[c]) // prev
            row[col] = 0
        prev = pv
        pivot_row += 1
    return pivot_row


def integer_rank(rows: Sequence[Sequence[int]], upper: int | None = None) -> int:
    """Exact rank over the rationals of an integer matrix.

    The bound is min(rows, cols), or min(upper, rows, cols) when the caller
    passes `upper`, which must be a proven upper bound on the rank. The rank
    modulo PRIME is returned when it meets the bound; since it can never
    exceed the true rank, it is then exact. Otherwise (a rank-deficient
    matrix, a loose bound or an unlucky prime) Bareiss elimination decides.
    A rank above `upper` means the bound was false and raises ValueError.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return 0
    if n_rows > n_cols:
        rows = list(zip(*rows))
        n_rows, n_cols = n_cols, n_rows
    bound = n_rows if upper is None else min(upper, n_rows)
    rank = modular_rank(rows)
    if rank < bound:
        rank = bareiss_rank(rows)
    if rank > bound:
        raise ValueError(f"rank {rank} exceeds the claimed upper bound {upper}")
    return rank


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        if r >= n_rows:
            break
        pivot = None
        for i in range(r, n_rows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def primitive_vector(vec: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to a primitive integer one."""
    ints = clear_denominators(vec)
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def kernel_basis(rows: Sequence[Sequence[Scalar]], n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the right kernel as primitive integer vectors.

    One vector per free column, ordered by column index; the free coordinate
    of each vector is positive. The construction reads the basis off the
    reduced row echelon form, so it is deterministic byte for byte.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -reduced[r][free]
        basis.append(primitive_vector(v))
    return tuple(basis)


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalar]], cols: int | None = None) -> "ExactMatrix":
        data = tuple(tuple(row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for an empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data)

    def rank(self, upper: int | None = None) -> int:
        """Exact rank; `upper`, if given, must be a proven upper bound on it."""
        if self.rows == 0 or self.cols == 0:
            return 0
        return integer_rank([clear_denominators(row) for row in self.entries], upper)

    def modular_rank(self) -> int:
        """Rank modulo PRIME: a proven lower bound on the exact rank."""
        return modular_rank([clear_denominators(row) for row in self.entries])

    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        return kernel_basis(self.entries, self.cols)

    def transpose(self) -> "ExactMatrix":
        cols = tuple(
            tuple(self.entries[r][c] for r in range(self.rows)) for c in range(self.cols)
        )
        return ExactMatrix(self.cols, self.rows, cols)
