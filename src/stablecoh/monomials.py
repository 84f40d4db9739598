"""Monomial bases for homogeneous polynomials in n+1 variables.

A monomial is its exponent tuple (e0, .., en), a plain tuple of ints. All
bases are in graded-lexicographic order (exponent tuples descending, so
x0^d comes first and xn^d last), which keeps every downstream matrix and
kernel basis reproducible byte for byte.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


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
def enumerate_monomials(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of all degree-d monomials in x0..xn, in graded-lex order.

    Exactly comb(d+n, n) monomials; d = 0 gives the single constant monomial.
    """
    if d < 0 or n < 0:
        raise ValueError(f"degree and dimension must be nonnegative, got d={d}, n={n}")
    mons = _exponent_tuples(d, n)
    if len(mons) != comb(d + n, n):
        raise RuntimeError(f"enumerated {len(mons)} monomials, expected comb({d + n}, {n})")
    return mons


@lru_cache(maxsize=None)
def monomial_index(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Exponent tuple -> column index in the graded-lex basis of degree d."""
    return {e: i for i, e in enumerate(enumerate_monomials(d, n))}
