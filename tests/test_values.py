"""Value semantics of the small immutable types: field-wise equality within
one class, and a hash that agrees with it."""

import pytest

from exczero.curves import EllipticCurve
from exczero.padic import DEFAULT_PREC
from exczero.steinberg import EllSpec
from exczero.value import Value


def _same(x, y):
    assert x == y and not x != y and hash(x) == hash(y)


def _differ(x, y):
    assert x != y and not x == y


class _Other(Value):
    """A Value with EllSpec's fields."""
    __slots__ = _fields = ("kind", "p", "prec")

    def __init__(self, kind, p, prec):
        self.kind, self.p, self.prec = kind, p, prec


def test_ellspec_never_equals_another_value_with_the_same_fields():
    e, o = EllSpec("ord", 5, 8), _Other("ord", 5, 8)
    assert e._key() == o._key()
    _differ(e, o)
    _differ(o, e)
    assert len({e, o}) == 2


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
