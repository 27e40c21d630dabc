"""Weight-two modular symbols for Gamma_0(N) via Manin symbols.

Symbols are indexed by P^1(Z/N); the quotient by the two- and three-term
relations is cut out with exact linear algebra, and the dual Hecke
eigensymbol of an elliptic curve is isolated as the joint eigenvector of
the transposed Hecke operators and the plus involution.  The resulting
functional lam(r) computes the normalized period of the path from infinity
to a rational r through continued-fraction convergents, looking each
symbol up by its bottom row mod N."""

from fractions import Fraction
from math import gcd, lcm

from .curves import ap
from .linalg import nullspace, rref

__all__ = ["P1", "ModularSymbolSpace", "heilbronn_matrices"]


class P1:
    """The projective line over Z/N: pairs (u, v) mod N with gcd(u, v, N) = 1
    up to scaling by units, each orbit represented by its least pair."""

    def __init__(self, N):
        assert isinstance(N, int) and N >= 1
        self.N = N
        units = [t for t in range(N) if gcd(t, N) == 1]
        # flat[u * N + v]: the index of the orbit of (u, v), None off P^1
        self.flat = flat = [None] * (N * N)
        self._list = []
        for u in range(N):
            for v in range(N):
                if flat[u * N + v] is None and gcd(gcd(u, v), N) == 1:
                    for t in units:
                        flat[t * u % N * N + t * v % N] = len(self._list)
                    self._list.append((u, v))

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def __iter__(self):
        return iter(self._list)

    def index(self, pair):
        i = self.flat[pair[0] % self.N * self.N + pair[1] % self.N]
        assert i is not None, "pair not coprime to the level"
        return i


def heilbronn_matrices(n):
    """Merel's set of integer matrices of determinant n driving T_n."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield a, b, 0, d
                for c in range(1, d):
                    yield a, 0, c, d
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield a, b, bc // b, d


class ModularSymbolSpace:
    """The weight-two Manin symbol quotient for Gamma_0(N), carrying the
    dual eigensymbol of a fixed elliptic curve."""

    def __init__(self, E, max_hecke_prime=50):
        self.E = E
        self.N = E.N
        self.p1 = P1(self.N)
        self._build_quotient()
        self._build_eigensymbol(max_hecke_prime)

    # -- quotient by the two- and three-term relations -----------------------

    def _build_quotient(self):
        p1 = self.p1
        rows = []
        for c, d in p1:
            for rel in (((c, d), (d, -c)), ((c, d), (d, -c - d), (-c - d, c))):
                row = {}
                for sym in rel:
                    j = p1.index(sym)
                    row[j] = row.get(j, 0) + 1
                rows.append(row)
        reduced, pivots = rref(rows)
        self.free = tuple(j for j in range(len(p1)) if j not in pivots)
        self.dim = len(self.free)
        # rel_cols[j] = {i: x}: Manin symbol j is the sum of x times free
        # symbol i; a reduced row is 1 at its pivot and 0 at the others
        coord = {j: i for i, j in enumerate(self.free)}
        self.rel_cols = rel = [{coord[j]: 1} if j in coord else None
                               for j in range(len(p1))]
        for row, col in zip(reduced, pivots):
            rel[col] = {coord[j]: -x for j, x in row.items() if j != col}

    def _action_matrix(self, mats):
        """Quotient matrix (a list of rows) of the sum of right actions of
        2x2 integer mats."""
        N = self.N
        out = [[Fraction(0)] * self.dim for _ in self.free]
        for col, idx in enumerate(self.free):
            c, d = self.p1[idx]
            for (a, b, cc, dd) in mats:
                c1 = (a * c + cc * d) % N
                d1 = (b * c + dd * d) % N
                if gcd(N, gcd(c1, d1)) > 1:
                    continue
                for i, x in self.rel_cols[self.p1.index((c1, d1))].items():
                    out[i][col] += x
        return out

    def hecke_matrix(self, n):
        return self._action_matrix(list(heilbronn_matrices(n)))

    # -- the dual eigensymbol ------------------------------------------------

    def _build_eigensymbol(self, max_hecke_prime):
        dim = self.dim

        def transposed_minus(m, a):  # the rows of (m - a) transposed
            return [[m[i][j] - (a if i == j else 0) for i in range(dim)]
                    for j in range(dim)]

        constraints = transposed_minus(self._action_matrix([(-1, 0, 0, 1)]), 1)
        space = nullspace(constraints, dim)
        ell = 2
        while len(space) > 1:
            assert ell <= max_hecke_prime, "eigensymbol not isolated"
            if self.N % ell != 0:
                constraints += transposed_minus(self.hecke_matrix(ell),
                                                ap(self.E, ell))
                space = nullspace(constraints, dim)
            ell = _next_prime(ell)
        assert len(space) == 1, "no plus eigensymbol found"
        lam = space[0]
        values = [sum(lam[i] * x for i, x in col.items())
                  for col in self.rel_cols]
        # normalize: integral values of content one, positive at (1 : 0),
        # or at the first nonzero value when lam(0) = 0 (L(E, 1) = 0)
        denom = lcm(*(v.denominator for v in values))
        ints = [int(v * denom) for v in values]
        content = gcd(*ints)
        assert content > 0, "eigensymbol vanishes identically"
        ints = [v // content for v in ints]
        base = ints[self.p1.index((1, 0))] or next(v for v in ints if v)
        if base < 0:
            ints = [-v for v in ints]
        self.lam_sym = ints
        # lam_sym by bottom row (c mod N, d mod N), at c * N + d, and by
        # (c, -d) for the convergents of odd index
        self._lam_by_row = [None if i is None else ints[i]
                            for i in self.p1.flat]
        self._lam_by_row_neg = [self._lam_by_row[c * self.N + -d % self.N]
                                for c in range(self.N) for d in range(self.N)]

    # -- evaluation ------------------------------------------------------------

    def lam(self, r):
        """lam_ratio at an int or a Fraction r."""
        return self.lam_ratio(r.numerator, r.denominator)

    def lam_ratio(self, n, d):
        """The eigensymbol paired with the path from infinity to n/d, for
        ints n and d > 0: the sum over the unimodular
        matrices whose translates of the path from 0 to infinity chain from
        infinity to n/d.  Their bottom rows (q_k, (-1)^k q_(k-1)) are the
        convergent denominators, by Euclid on n and d; only q_k mod N is
        kept, and the loop takes the steps of odd and even k in turn."""
        N, plus, minus = self.N, self._lam_by_row, self._lam_by_row_neg
        # k = 0: the bottom row (q_0, q_-1) is (1, 0) whatever the first
        # quotient, so lam has period one
        n %= d
        total, q_even, q_odd = plus[N], 1, 0
        while n:
            a, d = divmod(d, n)
            q_odd = (a * q_even + q_odd) % N
            total += minus[q_odd * N + q_even]
            if not d:
                return total
            a, n = divmod(n, d)
            q_even = (a * q_odd + q_even) % N
            total += plus[q_even * N + q_odd]
        return total

    def lam_zero(self):
        return self.lam_sym[self.p1.index((1, 0))]


def _next_prime(n):
    n += 1
    while any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n
