import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsos import multiindex as mi


def brute_force_degree(n, M):
    found = [alpha for alpha in product(range(M + 1), repeat=n) if sum(alpha) == M]
    return sorted(found, key=lambda a: tuple(-x for x in a))


def test_enumerate_examples():
    assert list(mi.iter_degree(2, 0)) == [(0, 0)]
    assert list(mi.iter_degree(2, 3)) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(list(mi.iter_degree(3, 2))) == 6


def test_enumerate_matches_brute_force():
    for n in range(1, 5):
        for M in range(0, 6):
            assert list(mi.iter_degree(n, M)) == brute_force_degree(n, M)


def test_dim_examples():
    assert mi.dim_homogeneous(2, 3) == 4
    assert mi.dim_homogeneous(1, 7) == 1
    assert mi.dim_homogeneous(4, 5) == 56 == len(list(mi.iter_degree(4, 5)))


def test_dim_pascal_recurrence():
    for n in range(2, 6):
        for M in range(0, 9):
            assert mi.dim_homogeneous(n, M) == sum(
                mi.dim_homogeneous(n - 1, j) for j in range(M + 1)
            )


def test_factorial_multinomial():
    assert mi.multinomial((2, 0)) == 1
    oracle = math.factorial(5) // (math.factorial(2) * math.factorial(2) * math.factorial(1))
    assert mi.multinomial((2, 2, 1)) == oracle == 30
    assert mi.multinomial((1, 1)) == 2
    assert mi.index_factorial((3, 2, 0)) == 12


def test_multinomial_theorem():
    for n in range(1, 5):
        for M in range(0, 11):
            total = sum(mi.multinomial(a) for a in mi.iter_degree(n, M))
            assert total == n**M


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=5))
def test_multinomial_is_the_factorial_ratio(alpha):
    assert mi.multinomial(alpha) == math.factorial(sum(alpha)) // math.prod(map(math.factorial, alpha))


def test_validation():
    with pytest.raises(ValueError):
        mi.validate_index((1, -1))
    with pytest.raises(ValueError):
        mi.dim_homogeneous(0, 3)


def test_a_non_integer_exponent_is_refused_not_truncated():
    with pytest.raises(ValueError, match=re.escape("non-integer exponent in multi-index (1.9, 1.2)")):
        mi.multinomial((1.9, 1.2))
    assert mi.validate_index(np.array([2, 0])) == (2, 0)  # integer types that operator.index accepts are kept
