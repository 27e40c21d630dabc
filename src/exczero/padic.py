"""Exact arithmetic in Q_p at capped precision.

Elements carry their own precision: a nonzero value is p^val * unit with the
unit known modulo p^prec, i.e. the value is known to absolute precision
val + prec.  Arithmetic never reports more precision than the inputs justify.
"""

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PadicNumber", "ord_p", "from_rational", "teichmuller",
    "log_iwasawa", "exp_p", "unit_root",
]

DEFAULT_PREC = 20


def ord_p(x, p):
    """Additive p-adic valuation of an integer or Fraction (both carry
    numerator and denominator); None for zero."""
    num, den = x.numerator, x.denominator
    if num == 0:
        return None
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _split(n, p):
    """(v, n / p^v) for the largest power p^v dividing the nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


class PadicNumber:
    """An element of Q_p: p^val * unit with unit known mod p^prec.

    Zero (to absolute precision p^abs) is stored with unit == 0, prec == 0
    and val == the absolute precision bound.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p, val, unit, prec):
        assert p >= 2
        if unit == 0:
            self.p, self.val, self.unit, self.prec = p, val, 0, 0
            return
        unit %= p ** prec
        assert prec >= 1 and unit % p != 0, "unit part must be a p-unit"
        self.p, self.val, self.unit, self.prec = p, val, unit, prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, abs_prec):
        return cls(p, abs_prec, 0, 0)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        """True when the value is indistinguishable from 0 at its precision."""
        return self.unit == 0

    @property
    def abs_prec(self):
        return self.val + self.prec

    def unit_mod(self, k):
        assert not self.is_zero and k <= self.prec
        return self.unit % self.p ** k

    def residue_mod(self, k):
        """The value mod p^k as an integer (requires val >= 0 and enough precision)."""
        assert self.val >= 0 or self.is_zero
        assert self.abs_prec >= k
        if self.is_zero:
            return 0
        return (self.unit * self.p ** self.val) % self.p ** k

    def __repr__(self):
        if self.is_zero:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.abs_prec})"

    def __eq__(self, other):
        """Equality at the shared precision."""
        if not isinstance(other, PadicNumber):
            other = from_rational(other, self.p, max(self.abs_prec, 1) + 1)
        if self.p != other.p:
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("approximate p-adic values are not hashable")

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            assert other.p == self.p
            return other
        return from_rational(other, self.p, self.prec + abs(self.val) + 2)

    def __add__(self, other):
        """The sum to the lesser absolute precision: a sum of two nonzero
        terms is built from its already reduced unit as it stands."""
        if type(other) is not PadicNumber:
            other = self._coerce(other)
        p = self.p
        assert other.p == p
        v, u, w, t = self.val, self.unit, other.val, other.unit
        ap = min(v + self.prec, w + other.prec)
        if not u or not t:
            if u or t:
                return (self if u else other).truncate_abs(ap)
            return PadicNumber.zero(p, ap)
        if w < v:
            v, u, w, t = w, t, v, u
        m = ap - v
        if m <= 0:
            return PadicNumber.zero(p, ap)
        s = (u + t * p ** (w - v)) % p ** m
        if s == 0:
            return PadicNumber.zero(p, ap)
        w, s = _split(s, p) if s % p == 0 else (0, s)
        out = object.__new__(PadicNumber)
        out.p, out.val, out.unit, out.prec = p, v + w, s, m - w
        return out

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.val, -self.unit, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        p = self.p
        if self.is_zero or other.is_zero:
            # ord(xy) >= ord(x) + ord(y); for a zero the val *is* the bound
            return PadicNumber.zero(p, self.val + other.val)
        prec = min(self.prec, other.prec)
        return PadicNumber(p, self.val + other.val,
                           self.unit * other.unit, prec)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("p-adic zero (at this precision)")
        inv = pow(self.unit, -1, self.p ** self.prec)
        return PadicNumber(self.p, -self.val, inv, self.prec)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k):
        assert isinstance(k, int)
        if k < 0:
            return self.inverse() ** (-k)
        if self.is_zero:
            return PadicNumber.zero(self.p, self.val * max(k, 1))
        return PadicNumber(self.p, self.val * k,
                           pow(self.unit, k, self.p ** self.prec), self.prec)

    def truncate_abs(self, abs_prec):
        """Forget precision beyond p^abs_prec."""
        if self.is_zero or self.val >= abs_prec:
            return PadicNumber.zero(self.p, min(self.val, abs_prec) if self.is_zero else abs_prec)
        return PadicNumber(self.p, self.val, self.unit,
                           min(self.prec, abs_prec - self.val))


def from_rational(x, p, prec):
    """Embed a rational into Q_p with unit part known mod p^prec."""
    x = Fraction(x)
    if x == 0:
        return PadicNumber.zero(p, prec)
    (a, num), (b, den) = _split(x.numerator, p), _split(x.denominator, p)
    return PadicNumber(p, a - b, num * pow(den, -1, p ** prec), prec)


def teichmuller(a, p, prec):
    """The Teichmuller lift w(a): the (p-1)-st root of unity congruent to a mod p.

    Fixed-point iteration x -> x^p gains at least one digit per step.
    """
    a = a % p if not isinstance(a, int) or a >= p or a < 0 else a
    if a % p == 0:
        raise ValueError("a must be a unit mod p")
    m = p ** prec
    x = a % m
    for _ in range(prec + 1):
        y = pow(x, p, m)
        if y == x:
            break
        x = y
    assert pow(x, p, m) == x
    return PadicNumber(p, 0, x, prec)


@lru_cache(maxsize=None)
def _log_coeffs(p, abs_prec):
    """Integers b_kmax, ..., b_1 (highest first, for Horner's rule) with
    log(1 + p*s) = sum b_k s^k mod p^abs_prec for every p-adic integer s:
    b_k = (-1)^(k+1) p^k / k, integral since ord_p(k) < k.  The terms past
    kmax have valuation >= k - ord_p(k) >= abs_prec."""
    kmax = abs_prec + 1
    while kmax - _intlog(kmax, p) < abs_prec:
        kmax += 1
    m = p ** abs_prec
    coeffs = []
    for k in range(1, kmax + 1):
        e, kk = _split(k, p)
        b = p ** (k - e) * pow(kk, -1, m) % m
        coeffs.append(b if k % 2 else -b)
    return tuple(reversed(coeffs))


def _intlog(n, p):
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def log_iwasawa(x, p=None, prec=DEFAULT_PREC):
    """Iwasawa logarithm: log_p with log_p(p) = 0 (and log_p(torsion) = 0).

    Accepts a PadicNumber, or a rational together with p.  With u the unit
    part of x, known mod p^n, log<x> = log(u^(p-1)) / (p-1) as w(u)^(p-1) = 1,
    and log(u^(p-1)) = log(1 + p s) is a polynomial in s (see _log_coeffs).
    """
    if isinstance(x, PadicNumber):
        p, n, u = x.p, x.prec, x.unit
    else:   # the unit part of a nonzero rational, in ints
        assert p is not None
        n, u = prec, x and (_split(x.numerator, p)[1]
                            * pow(_split(x.denominator, p)[1], -1, p ** prec))
    if not u:
        raise ValueError("log of zero")
    if p == 2:
        raise NotImplementedError("p = 2 excluded from the logarithm pipeline")
    m = p ** n
    s = (pow(u, p - 1, m) - 1) // p
    val = 0
    for b in _log_coeffs(p, n):
        val = (val + b) * s % m
    val = val * pow(p - 1, -1, m) % m
    if val == 0:
        return PadicNumber.zero(p, n)
    v, val = _split(val, p)
    return PadicNumber(p, v, val, n - v)


def exp_p(x):
    """p-adic exponential; requires ord(x) >= 1 for odd p."""
    p = x.p
    if p == 2:
        raise NotImplementedError("p = 2 excluded")
    if x.is_zero:
        return PadicNumber(p, 0, 1, max(x.val, 1))
    if x.val < 1:
        raise ValueError("exp_p requires ord(x) >= 1")
    n = x.abs_prec
    kmax = 1
    while kmax * x.val - (kmax - 1) // (p - 1) < n + 1:
        kmax += 1
    guard = _factorial_val(kmax, p) + _intlog(kmax, p) + 2
    m = p ** (n + guard)
    t = x.unit * p ** x.val % m
    total = 1
    tk = 1
    fact = 1
    for k in range(1, kmax + 1):
        tk = tk * t % m
        fact *= k
        e, f = _split(fact, p)
        term = tk * pow(f % m, -1, m) % m
        assert term % p ** e == 0
        total = (total + term // p ** e) % m
    return from_rational(total % p ** n, p, n).truncate_abs(n)


def _factorial_val(k, p):
    # ord_p(k!) = (k - s_p(k)) / (p-1) <= k/(p-1)
    return k // (p - 1) + 1


def unit_root(a_p, p, prec):
    """The p-adic unit root of X^2 - a_p X + p, by Hensel lifting.

    Returns 1 exactly (well, to precision) when a_p = 1 + p, and generally
    the root congruent to a_p mod p.
    """
    if a_p % p == 0:
        raise ValueError("a_p divisible by p: not ordinary")
    m = p ** prec
    x = a_p % p
    # Newton iteration for f(X) = X^2 - a_p X + p
    for _ in range(prec + 1):
        fx = (x * x - a_p * x + p) % m
        if fx == 0:
            break
        dfx = (2 * x - a_p) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    assert (x * x - a_p * x + p) % m == 0
    return PadicNumber(p, 0, x, prec)
