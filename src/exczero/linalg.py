"""Exact linear algebra over Q: the reduced row echelon form of a sparse
matrix, one solution of a linear system, and the determinant."""

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rref", "solve", "det"]


def rref(rows):
    """The reduced row echelon form of a matrix given as rows, each a list
    or a dict {column: value}.  Returns (reduced, pivots): reduced[i] is the
    i-th nonzero row as a dict, with 1 at column pivots[i] and 0 at every
    other pivot column.  Rows enter one at a time against those kept so
    far, each kept row led by its pivot, so sparse rows stay sparse; a kept
    row is an integer multiple of its reduced row, so the elimination runs
    on ints and divides only at the end."""
    basis = {}  # pivot column -> integer row
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: Fraction(v) for j, v in items if v != 0}
        den = lcm(*(v.denominator for v in row.values()))
        row = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        for col in [j for j in row if j in basis]:
            _eliminate(row, basis[col], col)
        if row:
            col = min(row)
            for other in basis.values():
                if col in other:
                    _eliminate(other, row, col)
            basis[col] = row
    pivots = sorted(basis)
    return [{j: Fraction(v, basis[c][c]) for j, v in basis[c].items()}
            for c in pivots], pivots


def _eliminate(y, x, col):
    """y = x[col] y - y[col] x for integer dict vectors, clearing y[col],
    then divided by its content; entries that cancel are dropped."""
    a, b = x[col], y[col]
    for j in y.keys() | x.keys():
        s = a * y.get(j, 0) - b * x.get(j, 0)
        if s:
            y[j] = s
        else:
            del y[j]
    g = gcd(*y.values())
    for j in y:
        y[j] //= g


def solve(rows, rhs):
    """One exact solution of a (possibly non-square) system, or None."""
    n = len(rows[0]) if rows else 0
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, col in zip(reduced, pivots):
        x[col] = row.get(n, Fraction(0))
    return x


def det(rows):
    """The determinant of a square matrix given as rows, by fraction-free
    (Bareiss) elimination: every division is exact, so integer entries stay
    ints; any other entries are worked over Fraction."""
    ints = all(isinstance(x, int) for row in rows for x in row)
    a = [[x if ints else Fraction(x) for x in row] for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for ai in a[k + 1:]:
            for j in range(k + 1, n):
                x = ai[j] * a[k][k] - ai[k] * a[k][j]
                ai[j] = x // prev if ints else x / prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1
