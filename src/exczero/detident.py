"""Determinant expansion for zero-row-sum matrices: the determinant of the
left k x k block of a k x m matrix whose rows sum to zero equals
(-1)^k times the sum over "escaping" maps f: {1..k} -> {1..m} of the
products a_{1 f(1)} ... a_{k f(k)}.

A map is admissible when f(S) is not contained in S for any nonempty
S of {1..k}; equivalently, iterating f from any start in {1..k}
eventually escapes past k (any trapped orbit ends in a cycle C with
f(C) = C)."""

from functools import lru_cache
from itertools import product
from math import prod

from .linalg import det

__all__ = ["is_admissible", "admissible_maps", "det_fixedpointfree_expansion"]


def is_admissible(f, k):
    """f given 0-based as a tuple of length k with values in 0..m-1."""
    for start in range(k):
        seen = set()
        i = start
        while i < k:
            if i in seen:
                return False
            seen.add(i)
            i = f[i]
    return True


@lru_cache(maxsize=64)
def admissible_maps(k, m):
    """The admissible maps {0..k-1} -> {0..m-1}, as a tuple of tuples."""
    return tuple(f for f in product(range(m), repeat=k) if is_admissible(f, k))


def det_fixedpointfree_expansion(rows):
    """Both sides of the identity for a k x m zero-row-sum matrix: the
    determinant of the left k x k block, and the signed admissible-map sum,
    both over the entries as given (ints stay ints).
    Returns (lhs, rhs); the contract is lhs == rhs."""
    k = len(rows)
    m = len(rows[0])
    assert 1 <= k <= m, "need 1 <= k <= m"
    for i, row in enumerate(rows):
        assert sum(row) == 0, f"row {i} does not sum to zero"
    lhs = det([row[:k] for row in rows])
    rhs = sum(prod(row[j] for row, j in zip(rows, f))
              for f in admissible_maps(k, m))
    return lhs, (-1) ** k * rhs
