import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exczero.padic import ord_p
from exczero.tree import (
    TreeVertex, ball_vertices, base_vertex, distance, neighbors,
    reduce_mod_power,
)

# sha256 of the repr-sorted vertex lists of ball_vertices(2, 3), (3, 2), (5, 2)
REPR_DIGEST = "c6667352ed70e2e8f9fe496e8a2182dfccbd6fcba329f882298516b2d1359fdd"


def random_vertex(rng, p, span=3):
    n = rng.randint(-span, span)
    b = Fraction(rng.randint(0, 4 * p ** (2 * span)), p ** rng.randint(0, span))
    return TreeVertex(p, n, b)


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


def test_ball_counts():
    for p, R in [(2, 3), (3, 3), (5, 2), (2, 4), (7, 2), (13, 2)]:
        expect = 1 + (p + 1) * sum(p ** k for k in range(R))
        assert len(ball_vertices(p, R)) == expect


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


# -- oracles of the integer-keyed paths: today's Fraction arithmetic ----------

def _neighbors_by_fraction(v):
    """neighbors as it was computed, as a tuple: Fraction children, each
    re-reduced."""
    p = v.p
    step = Fraction(p) ** (-v.n)
    return ((TreeVertex(p, v.n + 1, v.b),)
            + tuple(TreeVertex(p, v.n - 1, v.b + i * step) for i in range(p)))


def _distance_by_fraction(v, w):
    dv, dw = -v.n, -w.n
    diff = v.b - w.b
    join = min(dv, dw) if diff == 0 else min(ord_p(diff, v.p), dv, dw)
    return (dv - join) + (dw - join)


_primes = st.sampled_from([2, 3, 5, 7, 11, 13])
_heights = st.integers(-4, 4)


@st.composite
def _vertices(draw, p=None):
    """Vertices of height -4..4 whose b may carry p-powers and other primes
    in its denominator, and may be negative."""
    p = p or draw(_primes)
    unit = draw(st.sampled_from([1, 1, 1, 2, 7, 17, 221]))
    if unit % p == 0:
        unit = 1
    b = Fraction(draw(st.integers(-10 ** 7, 10 ** 7)),
                 p ** draw(st.integers(0, 6)) * unit)
    return TreeVertex(p, draw(_heights), b)


@given(_vertices())
@settings(max_examples=300)
def test_neighbors_match_fraction_reference(v):
    got, want = neighbors(v), _neighbors_by_fraction(v)
    assert got == want
    assert [repr(w) for w in got] == [repr(w) for w in want]
    assert [(w.n, w.b) for w in got] == [(w.n, w.b) for w in want]


@given(_primes.flatmap(lambda p: st.tuples(_vertices(p), _vertices(p))))
@settings(max_examples=300)
def test_distance_matches_fraction_reference(vw):
    v, w = vw
    assert distance(v, w) == distance(w, v) == _distance_by_fraction(v, w)
    for u in neighbors(v):
        assert distance(u, w) == _distance_by_fraction(u, w)


@given(_vertices())
@settings(max_examples=300)
def test_vertex_repr_shows_the_canonical_representative(v):
    head, b_text = repr(v)[:-1].split(", ")
    assert head == f"V(p={v.p}; {v.n}" and repr(v).endswith(")")
    b = Fraction(b_text)
    assert str(b) == b_text and b == v.b
    den = b.denominator
    while den % v.p == 0:
        den //= v.p
    assert den == 1 and 0 <= b < Fraction(v.p) ** (-v.n)


def test_vertex_repr_pinned():
    # criterion_tree_identities sorts its vertices by repr, so its random
    # draws depend on these strings
    assert repr(TreeVertex(3, 2, Fraction(-1, 27))) == "V(p=3; 2, 2/27)"
    assert repr(TreeVertex(2, -3, Fraction(19, 4))) == "V(p=2; -3, 19/4)"
    assert repr(TreeVertex(5, 0, Fraction(-7))) == "V(p=5; 0, 0)"
    assert repr(TreeVertex(7, -2, Fraction(100, 3))) == "V(p=7; -2, 17)"
    assert repr(base_vertex(13)) == "V(p=13; 0, 0)"
    verts = sorted(ball_vertices(3, 2), key=repr)
    assert [repr(v) for v in verts[:5]] == [
        "V(p=3; -1, 0)", "V(p=3; -1, 1)", "V(p=3; -1, 2)",
        "V(p=3; -2, 0)", "V(p=3; -2, 1)"]
    digest = hashlib.sha256()
    for p, R in [(2, 3), (3, 2), (5, 2)]:
        for v in sorted(ball_vertices(p, R), key=repr):
            digest.update(repr(v).encode() + b"\n")
    assert digest.hexdigest() == REPR_DIGEST


# -- reduce_mod_power, the canonical form of vertices -----------------------

def _reduce_by_fraction(x, m, p):
    """reduce_mod_power as it was computed through Fraction and ord_p."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = ord_p(x, p)
    if v >= m:
        return Fraction(0)
    k = -v if v < 0 else 0
    num, den = x.numerator, x.denominator
    c = den // p ** max(0, -v) if v < 0 else den
    mod = p ** (m + k)
    return Fraction(num * pow(c, -1, mod) % mod, p ** k)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-6, 6),
       st.integers(-10 ** 9, 10 ** 9), st.integers(0, 8),
       st.sampled_from([1, 1, 1, 7, 17, 221]), st.booleans())
@settings(max_examples=400)
def test_reduce_mod_power_matches_fraction_reference(p, m, num, k, unit,
                                                     as_int):
    if unit % p == 0:
        unit = 1
    x = num if as_int else Fraction(num, p ** k * unit)
    got = reduce_mod_power(x, m, p)
    assert type(got) is Fraction
    assert got == _reduce_by_fraction(x, m, p)
    assert 0 <= got < Fraction(p) ** m
    diff = got - Fraction(x)
    assert diff == 0 or ord_p(diff, p) >= m


def test_reduce_mod_power_of_zero():
    for p in (2, 3, 13):
        for m in (-6, 0, 6):
            for zero in (0, Fraction(0)):
                got = reduce_mod_power(zero, m, p)
                assert type(got) is Fraction and got == 0
