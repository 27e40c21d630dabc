"""The explicit extension function phi_0 attached to a continuous
homomorphism ell on Q_p^*, the 1-cocycle z_ell(a) = (1 - a)(ell * 1_O),
and the coboundary identity relating the two.

ell is either ord_p (integer-valued) or the Iwasawa logarithm (p-adic
valued).  z_ell(a) is a locally "affine in ell" function on Q_p^*: a finite
list of regions, each carrying a constant term and an ell-weight, so the
value at x is const + weight * ell(x).  This keeps the log kind exact: log
is not locally constant on valuation shells, so a plain ball-coefficient
expansion would not represent it.  Every region is a valuation range
lo <= ord_p(x) < hi: the ball p^lo O (hi None) or the shells p^k O^* between
O and aO, and translating by t shifts both ends by ord_p(t).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .padic import DEFAULT_PREC, from_rational, log_iwasawa, ord_p
from .value import Value

__all__ = ["EllSpec", "EllFunction", "phi0", "z_ell", "coboundary_check"]


class EllSpec(Value):
    """A continuous homomorphism ell: Q_p^* -> R, kind 'ord' or 'log'; zero
    is ell's 0, an int or a p-adic zero, and not a field."""
    _fields = ("kind", "p", "prec")
    __slots__ = _fields + ("zero",)

    def __init__(self, kind, p, prec=DEFAULT_PREC):
        assert kind in ("ord", "log")
        if kind == "log":
            assert p != 2, "log kind needs p odd"
        self.kind, self.p, self.prec = kind, p, prec
        self.zero = 0 if kind == "ord" else from_rational(0, p, prec)

    def __call__(self, x):
        """ell(x) of an int or Fraction x: an int for ord, p-adic for log."""
        assert x
        if self.kind == "ord":
            return ord_p(x, self.p)
        return _log(x.numerator, x.denominator, self.p, self.prec)

    def ratio(self, num, den):
        """ell(num / den) of nonzero ints num and den."""
        if self.kind == "ord":
            return ord_p(num, self.p) - ord_p(den, self.p)
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return _log(num // g, den // g, self.p, self.prec)


@lru_cache(maxsize=1024)
def _log(num, den, p, prec):
    """log_iwasawa of num / den in lowest terms, den > 0, kept: the cocycle
    checks read the log of the same points again and again."""
    return log_iwasawa(Fraction(num, den), p, prec)


class EllFunction:
    """Finite sum of pieces ((lo, hi), const, weight), weight in {-1, 0, 1},
    on the region lo <= ord_p(x) < hi (hi None: no upper end); the value at
    x is the sum over regions containing x of const + weight*ell(x).  Each
    const is a value of ell, known to at most ell's precision."""

    def __init__(self, ell, pieces=()):
        self.ell = ell
        self.pieces = list(pieces)

    def evaluate(self, x):
        """The value at a nonzero int or Fraction x."""
        assert x
        return self.at(x, ord_p(x, self.ell.p))

    def at(self, x, v):
        """The value at x, of valuation v: the constants of the pieces whose
        region holds v, plus ell(x) once, times their summed weight.  The sum
        starts at ell.zero, and no term is known beyond its precision (a
        const is a value of ell), so a const that is ell.zero is skipped;
        another zero may be known to less, and is added.  ell(x) times a
        multiple of p is known to more, so it is added to the zero, which
        caps it."""
        ell = self.ell
        total, weight = ell.zero, 0
        for (lo, hi), const, w in self.pieces:
            if lo <= v and (hi is None or v < hi):
                if const is not ell.zero:
                    total = const if total is ell.zero else total + const
                weight += w
        if weight:
            term = v if ell.kind == "ord" else ell(x)
            if weight != 1:
                term = -term if weight == -1 else term * weight
            total = term if total is ell.zero and weight % ell.p else \
                total + term
        return total

    def __add__(self, other):
        assert self.ell == other.ell
        return EllFunction(self.ell, self.pieces + other.pieces)

    def act(self, t):
        """(t.f)(x) = f(t^{-1} x): shift the valuation ranges by ord_p(t) and
        absorb the shift of the ell-weighted part, ell(t^{-1}x) = ell(x) -
        ell(t)."""
        lt = self.ell(t)   # asserts t != 0
        s = ord_p(t, self.ell.p)
        return EllFunction(self.ell, [
            ((lo + s, None if hi is None else hi + s),
             const - lt * weight if weight else const, weight)
            for (lo, hi), const, weight in self.pieces])

    def __repr__(self):
        return f"EllFunction({self.pieces!r})"


def phi0(g, ell):
    """The two-case section value: ell(a^2/det) if ord(a) < ord(c), else
    ell(c^2/det), with ord(0) treated as +infinity.  It reads g only up to a
    scalar, a function on PGL_2; an integral g stays in ints."""
    (a, b), (c, d) = g
    det = a * d - b * c
    assert det != 0, "singular matrix"
    oa, oc = ord_p(a, ell.p), ord_p(c, ell.p)   # None for 0
    top = a if oc is None or (oa is not None and oa < oc) else c
    return ell.ratio(top * top, det) if type(det) is int else \
        ell(top * top / det)


def z_ell(a, ell):
    """The cocycle value z_ell(a) = (1 - a)(ell * 1_O) as an EllFunction:
    ell(a) on aO = p^m O plus (or minus) ell itself on the valuation shells
    p^k O^* between O and aO."""
    assert a != 0
    m = ord_p(a, ell.p)
    shells = [((k, k + 1), ell.zero, 1 if m >= 0 else -1)
              for k in range(min(m, 0), max(m, 0))]
    return EllFunction(ell, [((m, None), ell(a), 0)] + shells)


def coboundary_check(a, x, ell):
    """Both sides of the coboundary identity: lhs from phi_0 around the
    torus element diag(a,1) evaluated at the point section (x -1; 1 0),
    rhs = 2 z_ell(a)(x).  With a = an/ad and x = xn/xd, phi_0 is read at
    the integral representatives xd an (a^-1 m_x), an a^-1 and xd m_x."""
    an, ad, xn, xd = a.numerator, a.denominator, x.numerator, x.denominator
    assert an and xn
    lhs = (phi0([[xn * ad, -ad * xd], [xd * an, 0]], ell)
           - phi0([[ad, 0], [0, an]], ell)
           - phi0([[xn, -xd], [xd, 0]], ell) + phi0([[1, 0], [0, 1]], ell))
    rhs = z_ell(a, ell).evaluate(x) * 2
    return lhs, rhs
