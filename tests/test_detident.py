import random
from fractions import Fraction

import pytest

from exczero.detident import (
    admissible_maps, det_fixedpointfree_expansion, is_admissible,
)
from exczero.linalg import det


def random_zero_row_sum(rng, k, m, lo=-9, hi=9):
    rows = []
    for _ in range(k):
        row = [rng.randint(lo, hi) for _ in range(m - 1)]
        row.append(-sum(row))
        rows.append(row)
    return rows


def test_small_examples():
    lhs, rhs = det_fixedpointfree_expansion([[3, -3]])
    assert lhs == rhs == 3
    lhs, rhs = det_fixedpointfree_expansion([[1, -1], [-1, 1]])
    assert lhs == rhs == 0
    assert list(admissible_maps(2, 2)) == []


def test_admissibility_characterization():
    # brute-force f(S) subset-of S check against the orbit-escape test
    for k, m in [(2, 3), (3, 4), (3, 3)]:
        from itertools import combinations, product
        for f in product(range(m), repeat=k):
            trapped = False
            for r in range(1, k + 1):
                for S in combinations(range(k), r):
                    if all(f[i] in S for i in S):
                        trapped = True
            assert is_admissible(f, k) == (not trapped)


def test_row_sum_violation_rejected():
    with pytest.raises(AssertionError):
        det_fixedpointfree_expansion([[1, 2]])


def test_identity_random_matrices():
    rng = random.Random(139)
    for _ in range(1000):
        k = rng.randint(1, 4)
        m = rng.randint(k, 5)
        rows = random_zero_row_sum(rng, k, m)
        lhs, rhs = det_fixedpointfree_expansion(rows)
        assert lhs == rhs, rows


def test_column_shuffle_beyond_k():
    rng = random.Random(149)
    for _ in range(50):
        k = rng.randint(1, 3)
        m = rng.randint(k + 1, 5)
        rows = random_zero_row_sum(rng, k, m)
        tail = list(range(k, m))
        rng.shuffle(tail)
        perm = list(range(k)) + tail
        shuffled = [[row[j] for j in perm] for row in rows]
        lhs, rhs = det_fixedpointfree_expansion(shuffled)
        assert lhs == rhs


def test_det_exact_oracle():
    rng = random.Random(151)
    try:
        import sympy
    except ImportError:
        pytest.skip("sympy unavailable")
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expect = sympy.Matrix(rows).det()
        assert det(rows) == expect
        assert det([[Fraction(x, 7) for x in row] for row in rows]) \
            == Fraction(int(expect), 7 ** n)
    assert det([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2 == \
        sympy.Matrix([[0, 1, 2], [1, 0, 3], [4, -3, 8]]).det()
    assert det([[0, 0], [1, 2]]) == 0


def test_expansion_same_on_int_and_fraction_rows():
    rng = random.Random(157)
    for _ in range(300):
        k = rng.randint(1, 4)
        m = rng.randint(k, 5)
        den = rng.choice([2, 3, 7, 12])
        rows = random_zero_row_sum(rng, k, m)
        scaled = [[Fraction(x, den) for x in row] for row in rows]
        lhs, rhs = det_fixedpointfree_expansion(rows)
        lhs_q, rhs_q = det_fixedpointfree_expansion(scaled)
        assert lhs == rhs == lhs_q * den ** k == rhs_q * den ** k
