from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exczero.balls import reduce_mod_power
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
