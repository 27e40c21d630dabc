from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exczero.balls import Ball, MultBall, reduce_mod_power
from exczero.padic import ord_p


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


# -- oracles of the integer membership tests: today's Fraction arithmetic -----

def _ball_contains_by_fraction(ball, x):
    return _reduce_by_fraction(Fraction(x) - ball.center, ball.depth,
                               ball.p) == 0


def _multball_contains_by_fraction(mb, x):
    x = Fraction(x)
    if x == 0 or ord_p(x, mb.p) != ord_p(mb.a, mb.p):
        return False
    return mb.n == 0 or _reduce_by_fraction(x / mb.a - 1, mb.n, mb.p) == 0


_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


@st.composite
def _rationals(draw, p, nonzero=False):
    """Ints, and Fractions that may be negative and carry p-powers and
    other primes in the denominator."""
    num = draw(st.integers(-10 ** 6, 10 ** 6).filter(
        lambda n: n != 0 or not nonzero))
    if draw(st.booleans()):
        return num
    unit = draw(st.sampled_from([1, 1, 2, 7, 17, 221]))
    if unit % p == 0:
        unit = 1
    x = Fraction(num, p ** draw(st.integers(0, 6)) * unit)
    return x * p ** draw(st.integers(0, 3))


@given(_primes.flatmap(lambda p: st.tuples(
    st.just(p), _rationals(p), st.integers(-4, 4),
    st.lists(_rationals(p), min_size=1, max_size=4))))
@settings(max_examples=150)
def test_ball_contains_matches_fraction_reference(args):
    p, center, depth, xs = args
    ball = Ball(p, center, depth)
    for x in xs + [center, ball.center, center + Fraction(p) ** depth,
                   center + Fraction(p) ** (depth - 1)]:
        assert ball.contains(x) == _ball_contains_by_fraction(ball, x)


@given(_primes.flatmap(lambda p: st.tuples(
    st.just(p), _rationals(p, nonzero=True), st.integers(0, 4),
    st.lists(_rationals(p, nonzero=True), min_size=1, max_size=4))))
@settings(max_examples=150)
def test_multball_contains_matches_fraction_reference(args):
    p, a, n, xs = args
    mb = MultBall(p, a, n)
    near = [a * (1 + Fraction(p) ** k) for k in range(n + 2)]
    for x in xs + near + [a, -a, mb.a, a * p]:
        assert mb.contains(x) == _multball_contains_by_fraction(mb, x)
