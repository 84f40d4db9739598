"""Monomial bases for homogeneous polynomials in n+1 variables.

All bases are in graded-lexicographic order (exponent tuples descending, so
x0^d comes first and xn^d last), which keeps every downstream matrix and
kernel basis reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence


@dataclass(frozen=True)
class Monomial:
    """A monomial of fixed total degree, stored as its exponent tuple."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def n_vars(self) -> int:
        return len(self.exponents)

    def evaluate(self, point: Sequence[int | Fraction]) -> int | Fraction:
        value: int | Fraction = 1
        for coord, e in zip(point, self.exponents):
            if e:
                value = value * coord**e
        return value

    def partial(self, i: int) -> tuple[int, "Monomial | None"]:
        """Coefficient and monomial of the i-th partial derivative."""
        e = self.exponents[i]
        if e == 0:
            return 0, None
        lowered = self.exponents[:i] + (e - 1,) + self.exponents[i + 1 :]
        return e, Monomial(lowered)

    def __str__(self) -> str:
        if not any(self.exponents):
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)


@lru_cache(maxsize=None)
def _exponent_tuples(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((d,),)
    out = []
    for e0 in range(d, -1, -1):
        for rest in _exponent_tuples(d - e0, n - 1):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_monomials(d: int, n: int) -> tuple[Monomial, ...]:
    """All monomials of degree d in x0..xn, in graded-lexicographic order.

    Exactly comb(d+n, n) monomials; d = 0 gives the single constant monomial.
    """
    if d < 0 or n < 0:
        raise ValueError(f"degree and dimension must be nonnegative, got d={d}, n={n}")
    mons = tuple(Monomial(e) for e in _exponent_tuples(d, n))
    if len(mons) != comb(d + n, n):
        raise RuntimeError(f"enumerated {len(mons)} monomials, expected comb({d + n}, {n})")
    return mons


@lru_cache(maxsize=None)
def monomial_index(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Exponent tuple -> column index in the graded-lex basis of degree d."""
    return {m.exponents: i for i, m in enumerate(enumerate_monomials(d, n))}
