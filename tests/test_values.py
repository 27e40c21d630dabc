"""Value semantics of the small immutable types: normalization, field-wise
equality within one class, and a hash that agrees with it."""

from fractions import Fraction

import pytest

from exczero.curves import EllipticCurve
from exczero.padic import DEFAULT_PREC
from exczero.steinberg import EllSpec
from exczero.tree import Ball
from exczero.value import Value


def _same(x, y):
    assert x == y and not x != y and hash(x) == hash(y)


def _differ(x, y):
    assert x != y and not x == y


def test_ball_normalizes_its_center():
    b = Ball(5, Fraction(37, 1), 2)     # 37 = 12 mod 25
    assert b.center == Fraction(12) and type(b.center) is Fraction
    assert (b.p, b.depth) == (5, 2)
    assert Ball(3, 7, 0).center == 0
    assert Ball(3, Fraction(1, 3), 1).center == Fraction(1, 3)
    assert Ball(3, Fraction(10, 3), 1).center == Fraction(1, 3)


def test_ball_equality_and_hash():
    _same(Ball(5, 37, 2), Ball(5, Fraction(12), 2))
    _same(Ball(5, Fraction(-1, 5), 1), Ball(5, Fraction(24, 5), 1))
    _differ(Ball(5, 12, 2), Ball(5, 12, 3))
    _differ(Ball(5, 1, 1), Ball(7, 1, 1))
    _differ(Ball(5, 1, 1), Ball(5, 2, 1))
    assert len({Ball(3, x, 1) for x in range(9)}) == 3


class _Other(Value):
    """A Value with Ball's fields."""
    __slots__ = _fields = ("p", "center", "depth")

    def __init__(self, p, center, depth):
        self.p, self.center, self.depth = p, center, depth


def test_ball_never_equals_another_value_with_the_same_fields():
    b, o = Ball(5, Fraction(1), 1), _Other(5, Fraction(1), 1)
    assert b._key() == o._key()
    _differ(b, o)
    _differ(o, b)
    assert len({b, o}) == 2


def test_ellspec_equality_ignores_zero():
    _same(EllSpec("log", 5), EllSpec("log", 5, DEFAULT_PREC))
    _same(EllSpec("ord", 3), EllSpec("ord", 3))
    _differ(EllSpec("ord", 5), EllSpec("log", 5))
    _differ(EllSpec("log", 5, 8), EllSpec("log", 5, 9))
    _differ(EllSpec("ord", 3), EllSpec("ord", 5))
    # zero is a PadicNumber for kind log, which is not hashable
    assert EllSpec("ord", 3).zero == 0
    assert EllSpec("log", 5).zero.is_zero
    assert len({EllSpec("log", 5), EllSpec("log", 5)}) == 1


def test_ellspec_rejects_bad_kinds():
    with pytest.raises(AssertionError):
        EllSpec("exp", 5)
    with pytest.raises(AssertionError):
        EllSpec("log", 2)


def test_elliptic_curve_equality_and_hash():
    E = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)
    _same(E, EllipticCurve("11a1", 11, 0, -1, 1, -10, -20))
    _differ(E, EllipticCurve("11a2", 11, 0, -1, 1, -10, -20))
    _differ(E, EllipticCurve("11a1", 11, 0, -1, 1, -10, -21))
    assert (E.label, E.N, E.a1, E.a2, E.a3, E.a4, E.a6) == (
        "11a1", 11, 0, -1, 1, -10, -20)
    assert E.discriminant == -161051 and {E: 1}[E] == 1


def test_reprs():
    E = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)
    assert repr(E) == ("EllipticCurve(label='11a1', N=11, a1=0, a2=-1, a3=1,"
                       " a4=-10, a6=-20)")
    assert repr(EllSpec("log", 5, 8)) == "EllSpec(kind='log', p=5, prec=8)"
    assert repr(Ball(5, 37, 2)) == "Ball(12 + 5^2*O)"
