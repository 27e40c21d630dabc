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

    def reduce(self, pair):
        """Canonical representative, or None when gcd(u, v, N) > 1."""
        i = self.flat[pair[0] % self.N * self.N + pair[1] % self.N]
        return None if i is None else self._list[i]

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
        # rel_mat[i][j]: coordinate i of Manin symbol j on the free symbols
        rel = [[Fraction(0)] * len(p1) for _ in self.free]
        for row, col in zip(reduced, pivots):
            for i, j in enumerate(self.free):
                rel[i][col] = -row.get(j, Fraction(0))
        for i, j in enumerate(self.free):
            rel[i][j] = Fraction(1)
        self.rel_mat = rel

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
                j = self.p1.index((c1, d1))
                for i, rel in enumerate(self.rel_mat):
                    out[i][col] += rel[j]
        return out

    def hecke_matrix(self, n):
        return self._action_matrix(list(heilbronn_matrices(n)))

    def star_matrix(self):
        return self._action_matrix([(-1, 0, 0, 1)])

    # -- the dual eigensymbol ------------------------------------------------

    def _build_eigensymbol(self, max_hecke_prime):
        dim = self.dim

        def transposed_minus(m, a):  # the rows of (m - a) transposed
            return [[m[i][j] - (a if i == j else 0) for i in range(dim)]
                    for j in range(dim)]

        constraints = transposed_minus(self.star_matrix(), 1)
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
        values = [sum(lam[i] * self.rel_mat[i][j] for i in range(dim))
                  for j in range(len(self.p1))]
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
        # lam_sym by bottom row (c mod N, d mod N), at c * N + d
        self._lam_by_row = [None if i is None else ints[i]
                            for i in self.p1.flat]

    # -- evaluation ------------------------------------------------------------

    def lam(self, r):
        """The eigensymbol paired with the path from infinity to r, an int
        or a Fraction: the sum over the unimodular matrices whose translates
        of the path from 0 to infinity chain from infinity to r.  Their
        bottom rows (q_k, (-1)^(k-1) q_(k-1)) are the convergent
        denominators, by Euclid on r's numerator and denominator."""
        N, table = self.N, self._lam_by_row
        n, d = r.numerator, r.denominator
        q_prev2, q_prev = 1, 0  # q_{-2}, q_{-1}
        sign = 1                # (-1)^(k-1) for k = 0
        total = 0
        while True:
            a, n = divmod(n, d)
            q = a * q_prev + q_prev2
            total += table[q % N * N + sign * q_prev % N]
            if n == 0:
                return total
            n, d = d, n
            q_prev2, q_prev, sign = q_prev, q, -sign

    def lam_zero(self):
        return self.lam_sym[self.p1.index((1, 0))]


def _next_prime(n):
    n += 1
    while any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n
