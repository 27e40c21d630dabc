import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exczero.balls import MultBall
from exczero.padic import from_rational, log_iwasawa, ord_p
from exczero.steinberg import EllSpec, coboundary_check, phi0, z_ell


def random_nonzero(rng, p, span=3):
    u = rng.choice([1, 2, 3, 4, -1, -2, p + 1, 2 * p + 1])
    return Fraction(u) * Fraction(p) ** rng.randint(-span, span)


def sweep_points(p, spans):
    """Deterministic points covering every valuation shell in range."""
    pts = []
    for k in range(min(spans) - 1, max(spans) + 2):
        for u in (1, 2, p + 1):
            pts.append(Fraction(u) * Fraction(p) ** k)
    return pts


def test_ellspec_is_homomorphism():
    rng = random.Random(97)
    for kind, p in [("ord", 3), ("ord", 2), ("log", 5)]:
        ell = EllSpec(kind, p)
        for _ in range(20):
            x, y = random_nonzero(rng, p), random_nonzero(rng, p)
            assert ell(x * y) == ell(x) + ell(y)


def test_log_kind_kills_torsion_and_p():
    ell = EllSpec("log", 5)
    assert ell(5) == 0
    assert ell(-1) == 0
    # teichmueller lifts are torsion: ell(x^(p-1)) = (p-1) ell(x) checks out
    assert ell(Fraction(2) ** 4) == ell(2) * 4


def test_phi0_examples():
    ell = EllSpec("ord", 3)
    assert phi0([[1, 0], [0, 1]], ell) == 0
    for t in (Fraction(3), Fraction(1, 9), Fraction(2)):
        assert phi0([[t, 0], [0, 1]], ell) == ell(t)
    assert phi0([[0, 1], [1, 0]], ell) == 0
    with pytest.raises(AssertionError):
        phi0([[1, 1], [1, 1]], ell)


def test_phi0_quasi_invariance():
    # phi0(g * upper(t1, u; 0, t2)) = phi0(g) + ell(t1/t2)
    rng = random.Random(101)
    for kind, p in [("ord", 3), ("log", 7)]:
        ell = EllSpec(kind, p)
        for _ in range(30):
            g = [[random_nonzero(rng, p), Fraction(rng.randint(-4, 4))],
                 [Fraction(rng.randint(-4, 4)), random_nonzero(rng, p)]]
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
                continue
            t1, t2 = random_nonzero(rng, p), random_nonzero(rng, p)
            u = Fraction(rng.randint(-3, 3))
            gb = [[g[0][0] * t1, g[0][0] * u + g[0][1] * t2],
                  [g[1][0] * t1, g[1][0] * u + g[1][1] * t2]]
            assert phi0(gb, ell) == phi0(g, ell) + ell(t1 / t2)


def test_z_ell_examples():
    ell = EllSpec("ord", 3)
    p = 3
    # a = 1: identically zero
    z1 = z_ell(1, ell)
    for x in sweep_points(p, [-2, 2]):
        assert z1.evaluate(x) == 0
    # a = p: indicator of pO
    zp = z_ell(p, ell)
    for x in sweep_points(p, [-2, 2]):
        assert zp.evaluate(x) == (1 if x.denominator % p and x.numerator % p == 0
                                  else 0)
    # a = 1/p: z(1/p) = -(a . z(p)) by the cocycle relation at ab = 1
    zinv = z_ell(Fraction(1, p), ell)
    moved = z_ell(p, ell).act(Fraction(1, p))
    for x in sweep_points(p, [-3, 3]):
        assert zinv.evaluate(x) == -moved.evaluate(x)


def test_cocycle_relation():
    # z(ab) = z(a) + a.z(b) pointwise on a shell-covering sweep
    rng = random.Random(103)
    for kind, p in [("ord", 2), ("ord", 5), ("log", 3)]:
        ell = EllSpec(kind, p)
        for _ in range(25):
            a, b = random_nonzero(rng, p, 2), random_nonzero(rng, p, 2)
            lhs = z_ell(a * b, ell)
            rhs = z_ell(a, ell) + z_ell(b, ell).act(a)
            for x in sweep_points(p, [-5, 5]):
                assert lhs.evaluate(x) == rhs.evaluate(x), (kind, p, a, b, x)


def test_coboundary_identity():
    rng = random.Random(107)
    for kind, p in [("ord", 2), ("ord", 3), ("log", 5), ("log", 11)]:
        ell = EllSpec(kind, p)
        for _ in range(100):
            a = random_nonzero(rng, p)
            x = random_nonzero(rng, p)
            lhs, rhs = coboundary_check(a, x, ell)
            assert lhs == rhs, (kind, p, a, x)


def test_coboundary_examples():
    ell = EllSpec("ord", 3)
    assert coboundary_check(3, 1, ell) == (0, 0)
    assert coboundary_check(3, 3, ell) == (2, 2)
    lhs, rhs = coboundary_check(1, Fraction(5, 9), ell)
    assert lhs == 0 and rhs == 0


# -- oracle of EllFunction.evaluate: today's Fraction arithmetic --------------

def _contains_by_fraction(region, x):
    p = region.p
    if isinstance(region, MultBall):
        if ord_p(x, p) != ord_p(region.a, p):
            return False
        diff = x / region.a - 1
        return region.n == 0 or diff == 0 or ord_p(diff, p) >= region.n
    diff = x - region.center
    return diff == 0 or ord_p(diff, p) >= region.depth


def _evaluate_by_fraction(f, x):
    ell = f.ell
    x = Fraction(x)
    if ell.kind == "ord":
        total, ell_x = Fraction(0), Fraction(ord_p(x, ell.p))
    else:
        total = from_rational(0, ell.p, ell.prec)
        ell_x = log_iwasawa(x, ell.p, ell.prec)
    for region, const, weight in f.pieces:
        if _contains_by_fraction(region, x):
            total = total + const
            if weight != 0:
                total = total + ell_x * weight
    return total


@st.composite
def _nonzero_rationals(draw, p):
    num = draw(st.integers(-10 ** 4, 10 ** 4).filter(lambda n: n != 0))
    unit = draw(st.sampled_from([1, 1, 2, 7, 17]))
    if unit % p == 0:
        unit = 1
    return (Fraction(num, unit) * Fraction(p) ** draw(st.integers(-4, 4)))


@given(st.sampled_from([2, 3, 5, 7, 11, 13]).flatmap(lambda p: st.tuples(
    st.just(p), st.sampled_from(["ord", "log"] if p != 2 else ["ord"]),
    _nonzero_rationals(p), _nonzero_rationals(p), _nonzero_rationals(p),
    st.lists(_nonzero_rationals(p), min_size=1, max_size=5))))
@settings(max_examples=100)
def test_evaluate_matches_fraction_reference(args):
    p, kind, a, b, t, xs = args
    ell = EllSpec(kind, p)
    fs = [z_ell(a, ell), z_ell(a, ell).act(t), z_ell(a, ell) + z_ell(b, ell)]
    sweep = [Fraction(u) * Fraction(p) ** k
             for k in range(-5, 6) for u in (-1, p + 1)]
    for f in fs:
        for x in xs + sweep:
            got, want = f.evaluate(x), _evaluate_by_fraction(f, x)
            assert got == want
            if kind == "ord":
                assert type(got) is int
            else:
                assert repr(got) == repr(want)
