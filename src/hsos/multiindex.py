"""Multi-index enumeration in graded-lex order and exact combinatorics.

Multi-indices are plain tuples of non-negative ints.  Within a fixed total
degree the canonical order is lexicographic with the largest leading exponent
first, so for n=2, M=3 the basis reads (3,0), (2,1), (1,2), (0,3).
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, Sequence

MultiIndex = tuple[int, ...]


def validate_index(alpha: Sequence[int]) -> MultiIndex:
    try:
        a = tuple(map(operator.index, alpha))  # an exponent that is not an integer is refused, not truncated
    except TypeError:
        raise ValueError(f"non-integer exponent in multi-index {tuple(alpha)}") from None
    if not a:
        raise ValueError("multi-index must have at least one entry")
    if any(x < 0 for x in a):
        raise ValueError(f"negative exponent in multi-index {a}")
    return a


def dim_homogeneous(n: int, M: int) -> int:
    """Number of degree-M monomials in n variables, C(M+n-1, n-1)."""
    if n < 1 or M < 0:
        raise ValueError(f"invalid (n, M) = ({n}, {M})")
    return math.comb(M + n - 1, n - 1)


def iter_degree(n: int, M: int) -> Iterator[MultiIndex]:
    """The multi-indices of degree M in graded-lex order."""
    if n < 1 or M < 0:
        raise ValueError(f"invalid (n, M) = ({n}, {M})")
    a = [M] + [0] * (n - 1)
    while True:
        yield tuple(a)
        # the successor takes one unit from the last nonzero entry before the
        # last one and puts it, with all of the last entry, on the entry after it
        tail, a[-1] = a[-1], 0
        j = n - 2
        while j >= 0 and not a[j]:
            j -= 1
        if j < 0:
            return
        a[j] -= 1
        a[j + 1] = tail + 1


def multinomial(alpha: Sequence[int]) -> int:
    """|alpha|! / alpha! = prod_k C(alpha_1 + ... + alpha_k, alpha_k), exact, with no factorial formed."""
    out, total = 1, 0
    try:
        for x in alpha:
            total += x
            out *= math.comb(total, x)
    except (TypeError, ValueError):  # math.comb refuses a negative or non-integer part; validate_index names it
        validate_index(alpha)
        raise
    return out


def index_factorial(alpha: Sequence[int]) -> int:
    """alpha! = prod_i alpha_i!, exact."""
    return math.prod(map(math.factorial, validate_index(alpha)))

