import random
from fractions import Fraction

from exczero.balls import Ball
from exczero.padic import ord_p
from exczero.tree import (
    TreeEdge, TreeVertex, act, apartment_vertex, ball_of_vertex,
    ball_vertices, base_vertex, distance, edge_of_ball, ends, height,
    neighbors, vertex_from_ball,
)


def random_vertex(rng, p, span=3):
    n = rng.randint(-span, span)
    b = Fraction(rng.randint(0, 4 * p ** (2 * span)), p ** rng.randint(0, span))
    return TreeVertex(p, n, b)


def random_invertible(rng, p):
    while True:
        m = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, p, p * p]))
              for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def matmul(g, h):
    return [[sum(g[i][k] * h[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def test_neighbors_of_base_vertex_p2():
    got = sorted((w.n, w.b) for w in neighbors(base_vertex(2)))
    assert got == [(-1, 0), (-1, 1), (1, 0)]


def test_regularity():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(20):
            v = random_vertex(rng, p)
            ns = neighbors(v)
            assert len(set(ns)) == p + 1
            assert all(distance(v, w) == 1 for w in ns)


def test_height_on_apartment():
    for n in range(-3, 4):
        assert height(apartment_vertex(5, n)) == n


def test_height_under_diagonal():
    assert height(act([[2, 0], [0, 1]], base_vertex(2))) == -1
    assert height(act([[Fraction(1, 3), 0], [0, 1]], base_vertex(3))) == 1


def test_upper_triangular_height_formula():
    # h((a b; 0 1) v) = -ord(a) + h(v)
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        a = Fraction(rng.choice([1, 2, 3, 4, 6, 9, 25]),
                     rng.choice([1, 2, 3, 5, 15]))
        b = Fraction(rng.randint(-30, 30), rng.choice([1, p, p * p]))
        v = random_vertex(rng, p)
        assert height(act([[a, b], [0, 1]], v)) == -ord_p(a, p) + height(v)


def test_action_is_multiplicative():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        g, h = random_invertible(rng, p), random_invertible(rng, p)
        v = random_vertex(rng, p, span=2)
        assert act(g, act(h, v)) == act(matmul(g, h), v)
    # scalars act trivially (PGL2)
    v = random_vertex(rng, 3, span=2)
    assert act([[Fraction(6), 0], [0, Fraction(6)]], v) == v


def test_edge_action_commutes_with_reversal():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice([2, 3])
        v = random_vertex(rng, p, span=2)
        e = TreeEdge(v, rng.choice(neighbors(v)))
        g = random_invertible(rng, p)
        assert act(g, e.reverse()) == act(g, e).reverse()


def test_ends_on_apartment():
    e0 = TreeEdge(apartment_vertex(3, 1), apartment_vertex(3, 0))
    U = ends(e0)
    assert not U.complement and U.ball == Ball(3, Fraction(0), 0)  # Z_p
    assert ends(e0.reverse()).complement
    em1 = TreeEdge(apartment_vertex(3, 0), apartment_vertex(3, -1))
    assert ends(em1).ball == Ball(3, Fraction(0), 1)  # pZ_p


def test_height_step_iff_infinity_in_ends():
    rng = random.Random(19)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        v = random_vertex(rng, p, span=2)
        for w in neighbors(v):
            e = TreeEdge(v, w)
            assert (height(w) == height(v) + 1) == ends(e).contains_infinity()
            if not ends(e).contains_infinity():
                assert height(w) == height(v) - 1


def test_ends_equivariance_on_points():
    # g U(e) = U(ge), sampled through upper-triangular g on rational points
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3])
        v = random_vertex(rng, p, span=1)
        e = TreeEdge(v, rng.choice(neighbors(v)))
        a = Fraction(rng.choice([1, p, p * p]), rng.choice([1, p]))
        b = Fraction(rng.randint(-5, 5))
        g = [[a, b], [0, 1]]
        for _ in range(10):
            x = Fraction(rng.randint(-40, 40), rng.choice([1, p, p ** 2]))
            assert ends(e).contains(x) == ends(act(g, e)).contains(a * x + b)


def test_out_edge_ends_partition_p1():
    # the sets U(e) over out-edges e of v partition P^1; equivalently the
    # complements P^1 - U(e) over in-edges do
    rng = random.Random(29)
    for p in (2, 3):
        v = random_vertex(rng, p, span=1)
        pieces = [ends(TreeEdge(v, w)) for w in neighbors(v)]
        assert pieces == [ends(TreeEdge(w, v)).invert() for w in neighbors(v)]
        assert sum(1 for pc in pieces if pc.contains_infinity()) == 1
        for _ in range(40):
            x = Fraction(rng.randint(-60, 60), rng.choice([1, p, p ** 2, p ** 3]))
            assert sum(1 for pc in pieces if pc.contains(x)) == 1


def test_ball_counts():
    for p, R in [(2, 3), (3, 3), (5, 2), (2, 4), (7, 2), (13, 2)]:
        expect = 1 + (p + 1) * sum(p ** k for k in range(R))
        assert len(ball_vertices(p, R)) == expect


def test_vertex_ball_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        v = random_vertex(rng, p)
        assert vertex_from_ball(ball_of_vertex(v)) == v
        e = edge_of_ball(ball_of_vertex(v))
        assert e.target == v and height(e.origin) == height(v) + 1
        assert ends(e).ball == ball_of_vertex(v)


def test_distance_is_a_metric():
    rng = random.Random(37)
    for _ in range(50):
        p = rng.choice([2, 3])
        u, v, w = (random_vertex(rng, p, span=2) for _ in range(3))
        assert distance(u, v) == distance(v, u) >= 0
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_vertex_equality_and_hash_ignore_the_representative():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.randint(-4, 4)
        b = Fraction(rng.randint(-10 ** 6, 10 ** 6), p ** rng.randint(0, 5))
        j = rng.randint(-50, 50)
        v = TreeVertex(p, n, b)
        w = TreeVertex(p, n, b + j * Fraction(p) ** (-n))
        assert v == w and hash(v) == hash(w)
        assert TreeVertex(p, n + 1, b) != v
