import random
from fractions import Fraction

from exczero.linalg import rref, solve


def _reference_rref(rows, ncols):
    """Gauss-Jordan over Fraction, dense, with the leftmost pivot first."""
    a = [[Fraction(v) for v in row] for row in rows]
    out, pivots = [], []
    for col in range(ncols):
        piv = next((r for r in a if r[col]), None)
        if piv is None:
            continue
        a.remove(piv)
        piv = [v / piv[col] for v in piv]
        a = [[v - r[col] * w for v, w in zip(r, piv)] for r in a]
        out = [[v - r[col] * w for v, w in zip(r, piv)] for r in out]
        out.append(piv)
        pivots.append(col)
    return [{j: v for j, v in enumerate(r) if v} for r in out], pivots


def test_rref_matches_dense_reference():
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(0, 9), rng.randint(1, 9)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        expected = _reference_rref(rows, n)
        assert rref(rows) == expected
        assert rref([{j: v for j, v in enumerate(r) if v} for r in rows]) \
            == expected
        reduced, _ = rref(rows)
        assert all(type(v) is Fraction for r in reduced for v in r.values())


def test_solve_solves_or_reports_none():
    rng = random.Random(12)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        x = solve(rows, rhs)
        if x is None:
            _, pivots = rref([r + [b] for r, b in zip(rows, rhs)])
            assert pivots[-1] == n
        else:
            assert [sum(a * v for a, v in zip(r, x)) for r in rows] == rhs
