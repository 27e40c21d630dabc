"""The Bruhat-Tits tree of PGL_2(Q_p).

A vertex is a homothety class of Z_p-lattices in Q_p^2.  The canonical form
(n, b) denotes the class of the lattice spanned by (p^{-n}, 0) and (b, 1)
with b reduced mod p^{-n} Z_p.  With this convention the apartment vertex
[O + p^n O] is (n, 0), the height function is simply h((n, b)) = n, and
the upper-triangular action satisfies h((a *; 0 1) v) = -ord(a) + h(v).

Vertices correspond to balls of Q_p: (n, b) <-> b + p^{-n} Z_p; the end
space of the tree is P^1(Q_p), with infinity in the direction of increasing
height.
"""

from dataclasses import dataclass
from fractions import Fraction

from .balls import Ball, P1Piece, reduce_mod_power
from .padic import ord_p

__all__ = [
    "TreeVertex", "TreeEdge", "base_vertex", "apartment_vertex",
    "vertex_from_ball", "ball_of_vertex", "edge_of_ball",
    "neighbors", "height", "act", "ends", "distance", "ball_vertices",
]


@dataclass(frozen=True, eq=False)
class TreeVertex:
    p: int
    n: int
    b: Fraction

    def __post_init__(self):
        b = reduce_mod_power(self.b, -self.n, self.p)
        object.__setattr__(self, "b", b)
        # compare and hash on ints, not through Fraction.__hash__
        object.__setattr__(self, "_key", (self.p, self.n, b.numerator,
                                          b.denominator))

    def __eq__(self, other):
        return isinstance(other, TreeVertex) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"V(p={self.p}; {self.n}, {self.b})"


@dataclass(frozen=True)
class TreeEdge:
    origin: TreeVertex
    target: TreeVertex

    def __post_init__(self):
        assert distance(self.origin, self.target) == 1, "not an edge"

    def reverse(self):
        return TreeEdge(self.target, self.origin)

    def __repr__(self):
        return f"E({self.origin} -> {self.target})"


def base_vertex(p):
    return TreeVertex(p, 0, Fraction(0))


def apartment_vertex(p, n):
    """v_n, the class of O + p^n O."""
    return TreeVertex(p, n, Fraction(0))


def height(v):
    return v.n


def ball_of_vertex(v):
    """The ball of Q_p corresponding to v: b + p^{-n} Z_p."""
    return Ball(v.p, v.b, -v.n)


def vertex_from_ball(ball):
    return TreeVertex(ball.p, -ball.depth, ball.center)


def edge_of_ball(ball):
    """The edge e with U(e) equal to the given ball (target = ball's vertex,
    origin = the parent vertex one level up)."""
    return TreeEdge(vertex_from_ball(ball.parent()), vertex_from_ball(ball))


def neighbors(v):
    """The p + 1 vertices at distance 1: one up (towards infinity), p down."""
    p = v.p
    up = TreeVertex(p, v.n + 1, v.b)
    step = Fraction(p) ** (-v.n)
    down = [TreeVertex(p, v.n - 1, v.b + i * step) for i in range(p)]
    return [up] + down


def distance(v, w):
    """Tree distance, via the smallest common ball of the two vertex balls."""
    assert v.p == w.p
    dv, dw = -v.n, -w.n
    diff = v.b - w.b
    t = ord_p(diff, v.p) if diff != 0 else None
    join = min(dv, dw) if t is None else min(t, dv, dw)
    return (dv - join) + (dw - join)


def act(g, x):
    """PGL_2 action on a vertex or edge; g is a 2x2 rational matrix."""
    if isinstance(x, TreeEdge):
        return TreeEdge(act(g, x.origin), act(g, x.target))
    (a, b), (c, d) = [[Fraction(t) for t in row] for row in g]
    assert a * d - b * c != 0, "singular matrix"
    p = x.p
    # lattice columns: u = g*(p^{-n}, 0), w = g*(b, 1)
    pn = Fraction(p) ** (-x.n)
    u = (a * pn, c * pn)
    w = (a * x.b + b, c * x.b + d)
    return _normalize_lattice(p, u, w)


def _normalize_lattice(p, u, w):
    """Canonical vertex for the lattice Z_p u + Z_p w (columns)."""
    # ensure the second coordinate of w has minimal valuation
    ou = ord_p(u[1], p) if u[1] != 0 else None
    ow = ord_p(w[1], p) if w[1] != 0 else None
    if ow is None or (ou is not None and ou < ow):
        u, w = w, u
        ou, ow = ow, ou
    # clear the second coordinate of u: u -= (u2/w2) w, with u2/w2 in Z_p
    if u[1] != 0:
        r = u[1] / w[1]
        assert ord_p(r, p) >= 0
        u = (u[0] - r * w[0], Fraction(0))
    assert u[0] != 0
    # homothety by 1/w2 puts the second column in the form (*, 1)
    x = u[0] / w[1]
    bb = w[0] / w[1]
    m = ord_p(x, p)
    return TreeVertex(p, -m, bb)


def ends(e):
    """The compact open U(e) of P^1(Q_p): ends of geodesics through e."""
    if height(e.target) == height(e.origin) - 1:
        return P1Piece(ball_of_vertex(e.target), complement=False)
    return P1Piece(ball_of_vertex(e.origin), complement=True)


def ball_vertices(p, radius, center=None):
    """All vertices within the given tree distance of the center (default v_0)."""
    center = center or base_vertex(p)
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
