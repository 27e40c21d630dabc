"""Exact cyclotomic arithmetic checked against identities and an independent
float evaluation, not against stored outputs."""

import cmath
import operator
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from exczero.characters import (
    Quasicharacter, all_primitive_characters, gauss_sum, primitive_root, sqrt_q,
)
from exczero.cyclotomic import Cyclotomic, zeta

FLOAT_TOL = 1e-9


def _direct_gauss_sum(p, f, k):
    """tau of Quasicharacter(p, f, k) by cmath alone: chi(g^j) is
    exp(2 pi i k j / phi) and psi(u / p^f) is exp(2 pi i u / p^f)."""
    q = p ** f
    phi = q - q // p
    g = primitive_root(p)
    total, u = 0j, 1
    for j in range(phi):
        total += cmath.exp(2j * cmath.pi * (u / q + k * j / phi))
        u = u * g % q
    return total


def _random_element(rng, level):
    terms = {rng.randrange(level): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(rng.randint(1, 6))}
    return Cyclotomic(level, terms)


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (7, 2)])
def test_tau_times_tau_inverse_all_primitive(p, f):
    # tau(chi) tau(chi^-1) = chi(-1) p^f, exactly, at levels up to 294
    q = p ** f
    for chi in all_primitive_characters(p, f):
        tau = gauss_sum(chi)
        assert tau * gauss_sum(chi.inverse()) == chi.at_minus_one() * q
        assert abs(abs(tau.to_complex()) ** 2 - q) <= FLOAT_TOL * q


@pytest.mark.parametrize("p,f", [(5, 1), (3, 2), (7, 2)])
def test_gauss_sum_to_complex_matches_direct_sum(p, f):
    q = p ** f
    phi = q - q // p
    for k in range(phi):
        chi = Quasicharacter(p, f, k)
        if chi.f != f:
            continue
        got = gauss_sum(chi).to_complex()
        assert abs(got - _direct_gauss_sum(p, f, k)) <= FLOAT_TOL


def test_arithmetic_agrees_with_complex_evaluation():
    rng = random.Random(2024)
    for _ in range(40):
        x = _random_element(rng, rng.choice([1, 3, 4, 5, 9, 12, 25]))
        y = _random_element(rng, rng.choice([1, 2, 6, 7, 10, 15]))
        zx, zy = x.to_complex(), y.to_complex()
        assert abs((x + y).to_complex() - (zx + zy)) <= FLOAT_TOL
        assert abs((x - y).to_complex() - (zx - zy)) <= FLOAT_TOL
        assert abs((x * y).to_complex() - zx * zy) <= FLOAT_TOL


def test_monomial_inverse():
    for M in (1, 2, 3, 4, 9, 42, 294):
        for k in range(0, M, max(1, M // 7)):
            for c in (Fraction(1), Fraction(-3, 7)):
                x = c * zeta(M, k)
                assert x * x.inverse() == 1
                assert x.inverse() * x == Cyclotomic(M, [1])


def test_non_monomial_inverse():
    rng = random.Random(7)
    for x in (Cyclotomic(5, [1, 1]), Cyclotomic(12, {0: 2, 1: -1, 5: 3}),
              gauss_sum(all_primitive_characters(7, 1)[1]),
              _random_element(rng, 9)):
        if x == 0:
            continue
        inv = x.inverse()
        assert x * inv == 1
        assert abs(inv.to_complex() - 1 / x.to_complex()) <= FLOAT_TOL
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(6, [1, 0, 1, 0, 1]).inverse()  # 1 + z^2 + z^4 = 0


def test_equality_across_levels():
    assert zeta(3) == zeta(6, 2)
    assert Cyclotomic(1, [1]) == Cyclotomic(2, [1])
    assert zeta(4, 2) == -1
    assert zeta(6) == -zeta(3, 2)
    assert zeta(12, 3) == zeta(4)
    assert not (zeta(3) == zeta(3, 2))
    assert sum(zeta(5, k) for k in range(5)) == 0
    # (1 + 2 z_5^2) written at level 5 and at level 20
    assert Cyclotomic(5, [1, 0, 2]) == Cyclotomic(20, {0: 1, 8: 2})


def test_rational_detection():
    x = sum(zeta(7, k) for k in range(1, 7))
    assert x.is_rational() and x.rational_value() == -1
    assert not zeta(8).is_rational()
    assert (zeta(8) * zeta(8, 7)).rational_value() == 1


def test_hash_agrees_with_equality_across_levels():
    pairs = [
        (Cyclotomic(1, [1]), Cyclotomic(2, [1])),
        (zeta(3), zeta(6, 2)),
        (zeta(4), zeta(12, 3)),
        (zeta(4, 2), Cyclotomic.from_rational(-1)),
        (Cyclotomic(5, [1, 0, 2]), Cyclotomic(20, {0: 1, 8: 2})),
        # sqrt(5) = tau(Legendre mod 5), computed at level 20 and at level 5
        (gauss_sum(all_primitive_characters(5, 1)[1]),
         Cyclotomic(5, [0, 1, -1, -1, 1])),
    ]
    for a, b in pairs:
        assert a == b
        for x in (a, b):
            with pytest.raises(TypeError):
                hash(x)
    assert Cyclotomic.from_rational(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(TypeError):
        hash(Cyclotomic.from_rational(Fraction(2, 3)))


@pytest.mark.parametrize("other", [0.5, 2.0, 1j, complex(3, 0)])
def test_float_or_complex_operand_raises(other):
    # a float is never read as a Fraction: the arithmetic stays exact
    x = zeta(3) + Fraction(1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert not x == other and x != other


def test_rational_operands_take_the_int_and_fraction_paths():
    for r in (0, 3, -7, True, Fraction(-2, 6), Fraction(5)):
        x = Cyclotomic.from_rational(r)
        assert (x.level, x.den) == (1, Fraction(r).denominator)
        assert x.terms == ({0: Fraction(r).numerator} if r else {})
        assert zeta(4) * r == zeta(4) * x and zeta(4) + r == x + zeta(4)


def test_truth_is_nonzero_after_reduction():
    # 1 + zeta_2 and the sum of all 7th roots of unity keep their terms but
    # are 0; the exact shell sum drops a shell only when its value is 0
    zeros = [1 + zeta(2), sum((zeta(7, k) for k in range(7)), 0),
             Cyclotomic.from_rational(0), zeta(12, 5) - zeta(12, 5)]
    assert zeros[0].terms and zeros[1].terms
    assert not any(zeros)
    assert all([zeta(3), zeta(8) + zeta(8, 3), Cyclotomic.from_rational(-1)])


def test_repr_summarizes_without_reduction():
    assert repr(Cyclotomic(7, [Fraction(3, 2)])) == "Cyclotomic(3/2)"
    x = Cyclotomic(12, {0: 2, 1: -1, 5: 3})
    z = x.to_complex()
    assert repr(x) == f"Cyclotomic(level=12, terms=3, approx={z:.12g})"


# -- an oracle: the Fraction histogram, reduced by an independent Phi_M ------
# A reference value is a pair (level, {exponent: nonzero Fraction}), built in
# the order the exponents first occur, so its float sum is the one the
# repr of the same histogram prints.

LEVELS = [1, 3, 4, 5, 9, 12, 20, 84]


def _ref_collect(pairs, level):
    """{e mod level: sum of c}, in first-seen order, zeros dropped."""
    h = {}
    for e, c in pairs:
        h[e % level] = h.get(e % level, 0) + Fraction(c)
    return level, {e: c for e, c in h.items() if c}


def _ref_raise(x, L):
    level, h = x
    return L, {e * (L // level): c for e, c in h.items()}


def _ref_add(x, y):
    L = lcm(x[0], y[0])
    (_, a), (_, b) = _ref_raise(x, L), _ref_raise(y, L)
    return _ref_collect([*a.items(), *b.items()], L)


def _ref_neg(x):
    return x[0], {e: -c for e, c in x[1].items()}


def _ref_mul(x, y):
    L = lcm(x[0], y[0])
    (_, a), (_, b) = _ref_raise(x, L), _ref_raise(y, L)
    return _ref_collect([(e + f, c * d) for e, c in a.items()
                         for f, d in b.items()], L)


def _ref_pow(x, k):
    out = (1, {0: Fraction(1)})
    for bit in bin(k)[2:]:
        out = _ref_mul(out, out)
        if bit == "1":
            out = _ref_mul(out, x)
    return out


def _polydivmod(num, den):
    """Quotient and remainder of integer polynomials (low to high), den monic."""
    num, q = list(num), [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, d in enumerate(den if c else ()):
            num[i + j] -= c * d
    return q, num[:len(den) - 1]


@lru_cache(maxsize=None)
def _ref_phi(M):
    """Phi_M as x^M - 1 divided by Phi_d for every proper divisor d of M."""
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            poly, rest = _polydivmod(poly, _ref_phi(d))
            assert not any(rest)
    return tuple(poly)


def _ref_reduced(x):
    """The coefficients of x in the basis 1, z, ..., z^(phi(M)-1)."""
    level, h = x
    den = lcm(*(c.denominator for c in h.values()))
    poly = [0] * level
    for e, c in h.items():
        poly[e] += c.numerator * (den // c.denominator)
    phi = _ref_phi(level)
    rest = _polydivmod(poly, phi)[1] if len(phi) > 1 else poly
    return [Fraction(c, den) for c in rest]


def _ref_is_zero(x):
    return not any(_ref_reduced(x))


def _ref_inverse(x):
    """1/x by solving x y = 1 in the power basis, by Gauss-Jordan over
    Fraction; None when x = 0."""
    level, _ = x
    d = len(_ref_phi(level)) - 1
    cols = []   # column j: x z^j in the basis
    for j in range(d):
        cols.append(_ref_reduced(_ref_mul(x, (level, {j: Fraction(1)}))))
    rows = [[cols[j][i] for j in range(d)] + [Fraction(i == 0)]
            for i in range(d)]
    for k in range(d):
        piv = next((i for i in range(k, d) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(d):
            if i != k and rows[i][k]:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    return level, {j: rows[j][d] for j in range(d) if rows[j][d]}


def _ref_repr(x):
    level, h = x
    if h.keys() <= {0}:
        return f"Cyclotomic({h.get(0, 0)})"
    w = 2j * cmath.pi / level
    z = sum((float(c) * cmath.exp(w * e) for e, c in h.items()), 0j)
    return f"Cyclotomic(level={level}, terms={len(h)}, approx={z:.12g})"


def _as_cyc(x):
    return Cyclotomic(*x)


_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def _elements(draw):
    level = draw(st.sampled_from(LEVELS))
    pairs = draw(st.lists(st.tuples(st.integers(0, 2 * level), _coeffs),
                          max_size=6))
    return _ref_collect(pairs, level)


def _check_same(got, want):
    assert repr(got) == _ref_repr(want)
    assert got.level == want[0]
    w = 2j * cmath.pi / want[0]
    z = sum((float(c) * cmath.exp(w * e) for e, c in want[1].items()), 0j)
    assert got.to_complex() == z


@given(_elements(), _elements(), _coeffs)
@settings(max_examples=100, deadline=None)
def test_ring_operations_match_fraction_reference(x, y, r):
    a, b = _as_cyc(x), _as_cyc(y)
    _check_same(a, x)
    _check_same(a + b, _ref_add(x, y))
    _check_same(a - b, _ref_add(x, _ref_neg(y)))
    _check_same(-a, _ref_neg(x))
    _check_same(a * b, _ref_mul(x, y))
    ref_r = (1, {0: r} if r else {})
    _check_same(a + r, _ref_add(x, ref_r))
    _check_same(r - a, _ref_add(_ref_neg(x), ref_r))
    _check_same(a * r, _ref_mul(x, ref_r))
    _check_same(r * a, _ref_mul(x, ref_r))
    _check_same(a ** 3, _ref_pow(x, 3))
    assert (a == b) == _ref_is_zero(_ref_add(x, _ref_neg(y)))
    assert (a == r) == _ref_is_zero(_ref_add(x, _ref_neg(ref_r)))
    red = _ref_reduced(x)
    assert a.is_rational() == (not any(red[1:]))
    if a.is_rational():
        assert a.rational_value() == red[0]
        assert type(a.rational_value()) is Fraction


@given(_elements(), _elements(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_division_and_negative_powers_match_fraction_reference(x, y, k):
    a, b = _as_cyc(x), _as_cyc(y)
    inv = _ref_inverse(y)
    if inv is None:
        assert b == 0
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        return
    want = _ref_mul(x, inv)
    for got in (a / b, b ** -k * b ** (k - 1) * a):
        assert got == _as_cyc(want)
    assert abs((a / b).to_complex() - _as_cyc(want).to_complex()) <= FLOAT_TOL \
        * (1 + abs(_as_cyc(want).to_complex()))


@given(st.sampled_from([(9, 3), (12, 2), (20, 2), (20, 4), (84, 3), (84, 4),
                        (84, 12), (84, 1)]),
       st.lists(st.tuples(st.integers(0, 90), _coeffs), min_size=1,
                max_size=5))
@settings(max_examples=40, deadline=None)
def test_inverse_in_a_subfield_is_the_full_level_inverse(mk, pairs):
    # x lies in Q(zeta_(M/k)); its inverse, taken there, is written back in
    # the power basis at level M, as the full-level solve gives it
    M, k = mk
    x = _ref_collect([(e * k, c) for e, c in pairs], M)
    a, inv = _as_cyc(x), _ref_inverse(x)
    if inv is None:
        assert a == 0
        return
    got = a.inverse()
    assert a * got == 1 and got * a == 1
    assert got == _as_cyc(inv)
    if len(x[1]) > 1:
        assert repr(got) == _ref_repr(inv)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_sqrt_q_inverse(q):
    s = sqrt_q(q)
    assert gcd(s.level, *s.terms) > 1   # it lies in a proper subfield
    assert s * s.inverse() == 1
    assert s.inverse() ** 2 == Fraction(1, q)
