"""The Bruhat-Tits tree of PGL_2(Q_p): its vertices, their neighbours and
distances, and the balls of vertices around the base vertex.

A vertex is a homothety class of Z_p-lattices in Q_p^2.  The canonical form
(n, b) denotes the class of the lattice spanned by (p^{-n}, 0) and (b, 1)
with b reduced mod p^{-n} Z_p by reduce_mod_power.  The apartment vertex
[O + p^n O] is (n, 0), and the height of (n, b) is n, one up towards
infinity and one down towards each of its p children.  An edge is the pair
(origin, target) of a vertex and one of its neighbours.

Vertices correspond to balls of Q_p: (n, b) <-> b + p^{-n} Z_p.
"""

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .padic import ord_p

__all__ = [
    "TreeVertex", "base_vertex", "neighbors", "distance", "ball_vertices",
    "reduce_mod_power",
]


def reduce_mod_power(x, m, p):
    """Canonical representative of x mod p^m Z_p, in [0, p^m), for x rational
    and any integer m (the representative has p-power denominator)."""
    # write x = num / (p^k * c) with gcd(c, p) = 1
    num, c, k = x.numerator, x.denominator, 0
    while c % p == 0:
        c //= p
        k += 1
    if num == 0 or m + k <= 0:   # then ord_p(x) >= m
        return Fraction(0)
    mod = p ** (m + k)
    return Fraction(num * pow(c, -1, mod) % mod, p ** k)


class TreeVertex(tuple):
    """The vertex (n, b) as the int tuple (p, n, num, den), b = num/den its
    representative in [0, p^-n) with den a power of p: vertices compare and
    hash as these tuples."""
    __slots__ = ()
    p, n, num, den = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, p, n, b):
        b = reduce_mod_power(b, -n, p)
        return tuple.__new__(cls, (p, n, b.numerator, b.denominator))

    @property
    def b(self):
        return Fraction(self.num, self.den)

    def __repr__(self):
        return f"V(p={self.p}; {self.n}, {self.b})"


def _vertex(key):
    """The vertex of an already canonical key (p, n, num, den)."""
    return tuple.__new__(TreeVertex, key)


def base_vertex(p):
    return TreeVertex(p, 0, Fraction(0))


@lru_cache(maxsize=4096)   # holds the 2,563 vertices of radius 3 at p = 13
def neighbors(v):
    """The p + 1 vertices at distance 1, one up (towards infinity) and p
    down, as a tuple built once per vertex.  The children b + i p^-n are
    canonical as they stand: over D = max(den, p^n) their numerators are
    prime to p for 0 < i < p, and i = 0 is b."""
    p, n, num, den = v
    # up: b mod p^-(n+1), numerator modulus den * p^-(n+1); 0 if that is <= 1
    e = n + 1
    mod = den * p ** -e if e <= 0 else den // p ** e
    up = _vertex((p, e, num % mod, den) if mod > 1 else (p, e, 0, 1))
    D = max(den, p ** n) if n > 0 else den
    step = D // p ** n if n > 0 else D * p ** -n
    return (up, _vertex((p, n - 1, num, den))) + tuple(
        _vertex((p, n - 1, num + i * step, D)) for i in range(1, p))


def distance(v, w):
    """Tree distance, via the smallest common ball of the two vertex balls."""
    p, n, num, den = v
    q, m, num_w, den_w = w
    assert p == q
    D = max(den, den_w)
    diff = num * (D // den) - num_w * (D // den_w)
    join = min(-n, -m)
    if diff:
        join = min(join, ord_p(diff, p) - ord_p(D, p))
    return -n - m - 2 * join


def ball_vertices(p, radius):
    """All vertices within the given tree distance of the base vertex."""
    v0 = base_vertex(p)
    seen = {v0}
    frontier = [v0]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
