from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exczero.padic import (
    PadicNumber, exp_p, from_rational, log_iwasawa, ord_p, teichmuller,
    unit_root,
)


def test_ord_basic():
    assert ord_p(50, 5) == 2
    assert ord_p(1, 5) == 0
    assert ord_p(Fraction(3, 25), 5) == -2
    assert ord_p(0, 5) is None


def _ord_p_by_fraction(x, p):
    """ord_p as it was computed before ints were read directly: through a
    Fraction conversion."""
    x = Fraction(x)
    if x == 0:
        return None
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@given(st.sampled_from([2, 3, 5, 7, 11]),
       st.one_of(st.integers(-10 ** 12, 10 ** 12), st.fractions()),
       st.integers(-6, 6))
@settings(max_examples=200)
def test_ord_p_matches_fraction_reference(p, x, e):
    # shift by p^e so that high valuations of both signs occur; an int
    # stays an int for e >= 0
    x = x * p ** e if e >= 0 else Fraction(x, p ** -e)
    assert ord_p(x, p) == _ord_p_by_fraction(x, p)


def test_teichmuller_frozen_values():
    # oracle: iterate x -> x^p to a fixed point
    assert teichmuller(1, 5, 3).unit == 1
    t2 = teichmuller(2, 5, 3)
    assert t2.unit == 57
    assert (57 * 57) % 125 == 124  # 57^2 = -1 mod 125
    assert teichmuller(4, 5, 2).unit == 24
    # w(4) = w(2)^2
    assert (teichmuller(2, 5, 2).unit ** 2) % 25 == 24


def test_teichmuller_is_torsion():
    for p in (3, 5, 7, 11):
        for a in range(1, p):
            w = teichmuller(a, p, 6)
            assert pow(w.unit, p - 1, p ** 6) == 1
            assert w.unit % p == a


def test_teichmuller_rejects_non_unit():
    with pytest.raises(ValueError):
        teichmuller(5, 5, 3)


def test_log_frozen_value():
    # exact-series oracle: sum (-1)^(k+1) 5^k / k == 55 mod 125
    val = sum(Fraction((-1) ** (k + 1) * 5 ** k, k) for k in range(1, 12))
    assert val.numerator * pow(val.denominator, -1, 125) % 125 == 55
    l6 = log_iwasawa(Fraction(6), 5, 3)
    assert l6.residue_mod(3) == 55


def test_log_torsion_and_uniformizer():
    assert log_iwasawa(Fraction(1), 5, 4).is_zero
    w2 = teichmuller(2, 5, 6)
    assert log_iwasawa(w2).is_zero
    # Iwasawa branch: log(p) = 0, so log(p*u) = log(u)
    assert log_iwasawa(Fraction(30), 5, 4) == log_iwasawa(Fraction(6), 5, 4)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 10 ** 6))
@settings(max_examples=60)
def test_exp_log_roundtrip(p, k):
    x = from_rational(1 + p * k, p, 6)
    assert exp_p(log_iwasawa(x)) == x


def _exp_series_mod(x, p, digits):
    """exp(x) mod p^digits for an integer x with ord_p(x) >= 1, from the
    exact rational series; the terms left out, x^k / k! for the final k and
    on, have valuation > k (ord x - 1/(p-1)) > digits."""
    v = ord_p(x, p)
    total, term, k = Fraction(0), Fraction(1), 0
    while k * (v * (p - 1) - 1) <= digits * (p - 1):
        total += term
        k += 1
        term = term * x / k
    m = p ** digits
    return total.numerator * pow(total.denominator, -1, m) % m


def _check_exp_digits(x, p, prec):
    y = exp_p(from_rational(x, p, prec))
    assert y.abs_prec >= prec
    assert y.residue_mod(y.abs_prec) == _exp_series_mod(x, p, y.abs_prec)


def test_exp_claimed_digits_are_correct():
    # before the guard-digit fix these claimed 21, 31 and 62 digits and had
    # 16, 21 and 54 correct
    for x, p, prec in ((3, 3, 20), (3, 3, 30), (36, 3, 60)):
        _check_exp_digits(x, p, prec)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 2), st.integers(1, 10 ** 6),
       st.integers(20, 60))
@settings(max_examples=30, deadline=None)
def test_exp_matches_exact_series(p, v, u, prec):
    if u % p == 0:
        u += 1
    _check_exp_digits(p ** v * u, p, prec)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
@settings(max_examples=40)
def test_log_is_additive(p, a, b):
    prec = 7
    la = log_iwasawa(Fraction(a), p, prec)
    lb = log_iwasawa(Fraction(b), p, prec)
    lab = log_iwasawa(Fraction(a * b), p, prec)
    assert lab == la + lb


def test_unit_root_frozen_values():
    assert unit_root(1 + 3, 3, 5).unit == 1       # (X-1)(X-p)
    assert unit_root(-1, 3, 2).unit == 2          # 4 + 2 + 3 = 9 = 0 mod 9
    r = unit_root(2, 7, 3)
    assert r.unit % 7 == 2
    assert (r.unit ** 2 - 2 * r.unit + 7) % 7 ** 3 == 0


@given(st.sampled_from([3, 5, 7, 11]), st.integers(-8, 8))
@settings(max_examples=60)
def test_unit_root_quadratic(p, a_p):
    if a_p % p == 0:
        with pytest.raises(ValueError):
            unit_root(a_p, p, 4)
        return
    prec = 6
    alpha = unit_root(a_p, p, prec)
    m = p ** prec
    assert (alpha.unit ** 2 - a_p * alpha.unit + p) % m == 0
    # alpha * (a_p - alpha) = p
    assert (alpha.unit * (a_p - alpha.unit)) % m == p % m


@given(st.sampled_from([3, 5, 7]), st.fractions(min_value=-999, max_value=999),
       st.fractions(min_value=-999, max_value=999))
@settings(max_examples=80)
def test_field_arithmetic_matches_rationals(p, x, y):
    prec = 8
    px, py = from_rational(x, p, prec), from_rational(y, p, prec)
    assert px + py == from_rational(x + y, p, prec)
    assert px * py == from_rational(x * y, p, prec)
    assert px - py == from_rational(x - y, p, prec)
    if y != 0 and ord_p(y, p) is not None:
        assert px / py == from_rational(Fraction(x) / Fraction(y), p, prec - 8 + prec)


@st.composite
def _padics(draw, p):
    """A rational x and a PadicNumber known to equal it mod p^abs_prec:
    from_rational at 1..8 digits, maybe cut to a lower absolute precision,
    with zeros of every precision."""
    x = draw(st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                          max_denominator=50)) * Fraction(p) ** draw(
        st.integers(-3, 3))
    px = from_rational(x, p, draw(st.integers(1, 8)))
    cut = draw(st.one_of(st.none(), st.integers(-4, 10)))
    return x, px if cut is None else px.truncate_abs(cut)


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), _padics(p), _padics(p))))
@settings(max_examples=300)
def test_sum_is_reduced_and_matches_the_fraction_sum(args):
    p, (x, px), (y, py) = args
    s = px + py
    assert s.abs_prec == min(px.abs_prec, py.abs_prec)
    if s.is_zero:
        assert s.unit == 0 and s.prec == 0
    else:
        assert s.unit % p != 0 and s.prec >= 1 and 0 < s.unit < p ** s.prec
    diff = x + y - s.unit * Fraction(p) ** s.val
    assert diff == 0 or ord_p(diff, p) >= s.abs_prec
    assert repr(py + px) == repr(s)


def test_precision_loss_on_cancellation():
    p = 5
    a = from_rational(1 + 5 ** 3, p, 6)
    b = from_rational(1, p, 6)
    d = a - b
    assert d.val == 3 and d.abs_prec == 6


def test_angle_bracket_is_one_mod_p():
    for p in (3, 5, 7):
        for a in range(1, p ** 2):
            if a % p == 0:
                continue
            w = teichmuller(a % p, p, 5)
            bracket = from_rational(a, p, 5) / w
            assert bracket.unit % p == 1


def _ilog(k, p):
    """The largest e with p^e <= k."""
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    return e


def _log_series_mod(x, p, digits):
    """log_p<x> mod p^digits for a nonzero rational x, from the exact
    rational series: with u the unit part of x, log<x> = log(u^(p-1)) / (p-1)
    (the torsion part of u dies in the (p-1)-st power, and log p = 0), and
    log(1 + z) only depends on z mod p^digits.  The terms left out, z^k / k
    from the final k on, have valuation >= k - ord_p(k) >= digits."""
    m = p ** digits
    u = Fraction(x) / Fraction(p) ** ord_p(x, p)
    z = u ** (p - 1) - 1
    z = z.numerator * pow(z.denominator, -1, m) % m
    total, k = Fraction(0), 1
    while k - _ilog(k, p) < digits:
        total += Fraction((-1) ** (k + 1) * z ** k, k)
        k += 1
    total /= p - 1
    return total.numerator * pow(total.denominator, -1, m) % m


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-2, 2),
       st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3),
       st.integers(20, 60))
@settings(max_examples=40, deadline=None)
def test_log_claimed_digits_are_correct(p, v, num, den, prec):
    num = num + 1 if num % p == 0 else num
    den = den + 1 if den % p == 0 else den
    x = Fraction(num, den) * Fraction(p) ** v
    y = log_iwasawa(x, p, prec)
    assert y.abs_prec >= prec
    assert y.residue_mod(y.abs_prec) == _log_series_mod(x, p, y.abs_prec)


def _unit_root_mod(a_p, p, digits):
    """The unit root alpha of X^2 - a_p X + p mod p^digits, as c_digits /
    c_(digits-1) for c_0 = 1, c_1 = a_p, c_(k+1) = a_p c_k - p c_(k-1).
    With beta = p / alpha, c_k = (alpha^(k+1) - beta^(k+1)) / (alpha - beta)
    is a p-adic unit, and c_(k+1) / c_k = alpha (1 + O(p^(k+1)))."""
    c_prev, c = 1, a_p
    for _ in range(digits - 1):
        c_prev, c = c, a_p * c - p * c_prev
    m = p ** digits
    return c * pow(c_prev, -1, m) % m


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-50, 50),
       st.integers(20, 60))
@settings(max_examples=40, deadline=None)
def test_unit_root_claimed_digits_are_correct(p, a_p, prec):
    if a_p % p == 0:
        a_p += 1
    alpha = unit_root(a_p, p, prec)
    assert alpha.abs_prec >= prec
    assert alpha.residue_mod(alpha.abs_prec) == _unit_root_mod(
        a_p, p, alpha.abs_prec)


def _log_by_teichmuller(x, p=None, prec=20):
    """log_iwasawa as it was computed before the (p-1)-st power: divide the
    unit by its Teichmuller lift and sum the series on <x> = 1 + p s."""
    if not isinstance(x, PadicNumber):
        x = from_rational(x, p, prec)
    if x.is_zero:
        raise ValueError("log of zero")
    p = x.p
    n, m = x.prec, p ** x.prec
    w = teichmuller(x.unit % p, p, n).unit
    s = (x.unit * pow(w, -1, m) - 1) % m // p
    total = Fraction(0)
    k = 1
    while k - _ilog(k, p) < n:
        total += Fraction((-1) ** (k + 1) * p ** k * s ** k, k)
        k += 1
    val = total.numerator * pow(total.denominator, -1, m) % m
    if val == 0:
        return PadicNumber.zero(p, n)
    return from_rational(val, p, n).truncate_abs(n)


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-3, 3),
       st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 10 ** 6),
       st.integers(1, 20), st.booleans())
@settings(max_examples=300, deadline=None)
def test_log_matches_teichmuller_reference(p, v, num, den, prec, padic):
    # rationals and PadicNumbers, with and without p in num and den
    x = Fraction(num, den) * Fraction(p) ** v
    if padic:
        x = from_rational(x, p, prec)
    want = _log_by_teichmuller(x, p, prec)
    got = log_iwasawa(x, p, prec)
    assert repr(got) == repr(want)
    assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec)


def test_log_of_zero_and_at_two_raise():
    for x in (0, Fraction(0), PadicNumber.zero(5, 3)):
        with pytest.raises(ValueError):
            log_iwasawa(x, 5, 4)
    with pytest.raises(NotImplementedError):
        log_iwasawa(Fraction(3), 2, 4)
