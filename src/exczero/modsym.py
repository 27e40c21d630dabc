"""Weight-two modular symbols for Gamma_0(N) via Manin symbols.

Symbols are indexed by P^1(Z/N).  The space is the plus quotient: each
symbol is +-1 times its orbit's representative under the two-term relation
x + xS = 0 and the star relation x = x diag(-1, 1), and exact linear algebra
cuts out the three-term relations among the representatives.  The dual
eigensymbol of an elliptic curve spans the kernel of the transposed
T_ell - a_ell on that quotient.  The resulting functional lam(r) computes
the normalized period of the path from infinity to a rational r through
continued-fraction convergents, looking each symbol up by its bottom row
(c mod N, d mod N) in a 2-D table.  One Euclid loop walks a whole level of
units x/m; its last convergent denominator is +-1/x mod m, so at p || N
with N/p = M squarefree lam_units reads the units in pairs {x, 1/(M x)},
by the p-adic functional equation of Mazur, Tate and Teitelbaum."""

from math import gcd, lcm

from .curves import ap
from .linalg import rref

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
    """The weight-two Manin symbol plus quotient for Gamma_0(N), carrying
    the dual eigensymbol of a fixed elliptic curve."""

    def __init__(self, E):
        self.E, self.N, self.p1, self.walks = E, E.N, P1(E.N), 0
        self._build_quotient()
        self._build_eigensymbol()

    # -- the plus quotient ---------------------------------------------------

    def _build_quotient(self):
        p1 = self.p1
        # symbol j is sign[j] times symbol rep[j], as x(c, d) = -x(d, -c)
        # = x(-c, d) = -x(d, c); an orbit meeting a symbol with both signs is 0
        rep, sign = [None] * len(p1), [0] * len(p1)
        for j, (c, d) in enumerate(p1):
            if rep[j] is None:
                orbit = {(p1.index(sym), e) for sym, e in (
                    ((c, d), 1), ((d, -c), -1), ((-c, d), 1), ((d, c), -1))}
                zero = len(orbit) > len({k for k, _ in orbit})
                for k, e in orbit:
                    rep[k], sign[k] = j, 0 if zero else e
        rows = []
        for c, d in p1:
            row = {}
            for k in map(p1.index, ((c, d), (d, -c - d), (-c - d, c))):
                if sign[k]:
                    row[rep[k]] = row.get(rep[k], 0) + sign[k]
            rows.append(row)
        reduced, pivots = rref(rows)
        self.free = tuple(j for j in range(len(p1))
                          if rep[j] == j and sign[j] and j not in pivots)
        self.dim = len(self.free)
        # rel_cols[j] = {i: x}: Manin symbol j is the sum of x times free
        # symbol i, x an int where it is integral; a reduced row is 1 at its
        # pivot and 0 at the others
        coord = {j: i for i, j in enumerate(self.free)}
        cols = {j: {i: 1} for j, i in coord.items()}
        for row, col in zip(reduced, pivots):
            cols[col] = {coord[j]: -x.numerator if x.denominator == 1 else -x
                         for j, x in row.items() if j != col}
        self.rel_cols = [{i: sign[j] * x for i, x in cols[rep[j]].items()}
                         if sign[j] else {} for j in range(len(p1))]

    def hecke_matrix(self, n):
        """T_n on the quotient, as a list of rows: the sum of the right
        actions of the Heilbronn matrices of determinant n."""
        N, flat, mats = self.N, self.p1.flat, list(heilbronn_matrices(n))
        out = [[0] * self.dim for _ in self.free]
        for col, idx in enumerate(self.free):
            c, d = self.p1[idx]
            for a, b, cc, dd in mats:
                k = flat[(a * c + cc * d) % N * N + (b * c + dd * d) % N]
                if k is not None:
                    for i, x in self.rel_cols[k].items():
                        out[i][col] += x
        return out

    # -- the dual eigensymbol ------------------------------------------------

    def _build_eigensymbol(self):
        # reduce the rows of (T_ell - a_ell) transposed over the good primes
        # ell until one kernel vector is left; the Eisenstein symbol has
        # eigenvalue ell + 1 != a_ell, so even a space of dim 1 needs a prime
        dim, rows, nullity, ell = self.dim, [], None, 2
        while nullity != 1:
            if ell > 50 or nullity == 0:  # a conductor the curve cannot have
                raise ValueError("no isolated eigensymbol with these a_ell")
            if self.N % ell != 0:
                t, a = self.hecke_matrix(ell), ap(self.E, ell)
                rows, pivots = rref(rows + [
                    [t[i][j] - (a if i == j else 0) for i in range(dim)]
                    for j in range(dim)])
                nullity = dim - len(pivots)
            ell = _next_prime(ell)
        (f,) = set(range(dim)) - set(pivots)
        lam = {f: 1} | {col: -row.get(f, 0) for row, col in zip(rows, pivots)}
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
        # _rows[c][d]: lam_sym by bottom row (c mod N, d mod N); it also
        # serves (c, -d), as x(c, -d) = x(-c, d) = x(c, d) in the quotient
        N, flat = self.N, self.p1.flat
        self._rows = [[None if i is None else ints[i] for i in flat[c:c + N]]
                      for c in range(0, N * N, N)]

    # -- evaluation ------------------------------------------------------------

    def lam(self, r):
        """lam_ratio at an int or a Fraction r."""
        return self.lam_ratio(r.numerator, r.denominator)

    def lam_ratio(self, n, d):
        """lam at n/d, for ints n and d > 0 (see _walk_units)."""
        r = n % d
        return self._walk_units((r,), {r: None}, d)[r]

    def fe_sign(self, p):
        """eps = -prod over l | M of (-a_l) = -w_M (the Atkin-Lehner sign)
        when N = p M is squarefree, else None."""
        M, eps, ell = self.N // p, -1, 2
        if self.N % p or M % p == 0:
            return None
        while M > 1:   # M has no prime factor below ell
            if M % ell == 0:
                M //= ell
                if M % ell == 0:
                    return None
                eps *= -ap(self.E, ell)
            ell += 1
        return eps

    def lam_units(self, m, p):
        """[lam(x/m) for 0 <= x <= m/2], 0 where p | x, for m a power of p.
        By the p-adic functional equation lam(y/m) = eps lam(x/m) for
        y = 1/(M x) mod m and eps = fe_sign(p), so where eps is not None the
        walk at x writes both (at M = 1, g = (x b; m y) lies in Gamma_0(N)
        and g -> {infinity, g infinity} is additive)."""
        half, eps = (m + 1) // 2, self.fe_sign(p) or 0
        out = [None] * half
        out[::p] = [0] * len(range(0, half, p))
        return self._walk_units(range(1, half), out, m, eps,
                                eps and pow(self.N // p, -1, m))

    def _walk_units(self, xs, out, m, eps=0, m_inv=0):
        """out, with out[x] = lam(x/m) for each x in xs, 0 <= x < m, where
        out[x] is None; with eps, also eps lam(x/m) at +-y, y = m_inv
        q_(K-1) mod m.  lam sums the unimodular matrices whose translates
        of the path from 0 to infinity chain from infinity to x/m.  Their
        bottom rows (q_k, (-1)^k q_(k-1)) are the convergent denominators,
        by Euclid on x and m; the table reads q_k mod N, the sign drops out
        (see _rows), and the loop takes odd and even k in turn;
        x q_(K-1) = +-1 mod m.  self.walks counts the walks."""
        N, rows, walks = self.N, self._rows, 0
        # k = 0: the bottom row (q_0, q_-1) is (1, 0) whatever the first
        # quotient, so lam has period one
        start = rows[1][0]
        for x in xs:
            if out[x] is not None:
                continue
            n, d, total = x, m, start
            q_even, q_odd, r_even = 1, 0, 1
            while n:
                q_odd += d // n * q_even
                d %= n
                r_odd = q_odd % N
                total += rows[r_odd][r_even]
                if not d:
                    y = q_even
                    break
                q_even += n // d * q_odd
                n %= d
                r_even = q_even % N
                total += rows[r_even][r_odd]
            else:
                y = q_odd
            if eps:
                y = y * m_inv % m
                out[y if y + y < m else m - y] = eps * total
            out[x] = total
            walks += 1
        self.walks += walks
        return out

    def lam_zero(self):
        return self.lam_sym[self.p1.index((1, 0))]


def _next_prime(n):
    n += 1
    while any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n
