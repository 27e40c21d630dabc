"""Exact linear algebra over Q: the reduced row echelon form of a sparse
matrix, its nullspace, one solution of a linear system, and the
determinant."""

from fractions import Fraction

__all__ = ["rref", "nullspace", "solve", "det"]


def rref(rows):
    """The reduced row echelon form of a matrix given as rows, each a list
    or a dict {column: value}.  Returns (reduced, pivots): reduced[i] is the
    i-th nonzero row as a dict, with 1 at column pivots[i] and 0 at every
    other pivot column.  Rows enter one at a time against those kept so
    far, each kept row led by its pivot, so sparse rows stay sparse."""
    basis = {}  # pivot column -> row
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: Fraction(v) for j, v in items if v != 0}
        for col in [j for j in row if j in basis]:
            _axpy(row, -row[col], basis[col])
        if row:
            col = min(row)
            inv = 1 / row[col]
            row = {j: v * inv for j, v in row.items()}
            for other in basis.values():
                if col in other:
                    _axpy(other, -other[col], row)
            basis[col] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def _axpy(y, a, x):
    """y += a * x for dict vectors, dropping entries that cancel."""
    for j, v in x.items():
        s = y.get(j, 0) + a * v
        if s:
            y[j] = s
        else:
            del y[j]


def nullspace(rows, ncols):
    """A basis of {x : rows * x = 0}, one dense vector per free column."""
    reduced, pivots = rref(rows)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            x[col] = -row.get(f, Fraction(0))
        basis.append(x)
    return basis


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
