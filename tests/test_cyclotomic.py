"""Exact cyclotomic arithmetic checked against identities and an independent
float evaluation, not against stored outputs."""

import cmath
import random
from fractions import Fraction

import pytest

from exczero.characters import (
    all_primitive_characters, character_from_log, gauss_sum, primitive_root,
)
from exczero.cyclotomic import Cyclotomic, zeta

FLOAT_TOL = 1e-9


def _direct_gauss_sum(p, f, k):
    """tau of character_from_log(p, f, k) by cmath alone: chi(g^j) is
    exp(2 pi i k j / phi) and psi(u / p^f) is exp(2 pi i u / p^f)."""
    q = p ** f
    phi = q - q // p
    g = primitive_root(p, f)
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
        chi = character_from_log(p, f, k)
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


def test_repr_summarizes_without_reduction():
    assert repr(Cyclotomic(7, [Fraction(3, 2)])) == "Cyclotomic(3/2)"
    x = Cyclotomic(12, {0: 2, 1: -1, 5: 3})
    z = x.to_complex()
    assert repr(x) == f"Cyclotomic(level=12, terms=3, approx={z:.12g})"
