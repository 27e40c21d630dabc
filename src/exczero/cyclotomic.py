"""Exact cyclotomic numbers, the one scalar type of the local theory.

Every local value at s = 1/2 -- characters, Gauss sums, Euler factors,
L-factors, shell sums, also at alpha = sqrt(q), which lies in Q(zeta_4q) --
is an element of some Q(zeta_M).  A value is kept as a histogram of rational
coefficients over the exponents of zeta_M mod M: sums of roots of unity
accumulate in it, products add exponents, a change of level scales them.
Reduction mod Phi_M, which makes it unique, runs only for equality,
rationality and hashing.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["Cyclotomic", "zeta", "as_cyclotomic"]


@lru_cache(maxsize=None)
def _prime_factors(M):
    return tuple(ell for ell in range(2, M + 1)
                 if M % ell == 0 and all(ell % k for k in range(2, ell)))


@lru_cache(maxsize=None)
def cyclotomic_poly(M):
    """Integer coefficient tuple (low to high) of the M-th cyclotomic polynomial:
    the product of (x^d - 1)^mu(M/d) over d | M, in power series mod x^(M+1)."""
    poly = [1] + [0] * M
    for d in range(1, M + 1):
        n, ells = M // d, _prime_factors(M // d)
        if M % d or any(n % (ell * ell) == 0 for ell in ells):
            continue
        # times (x^d - 1) from the top down, over it from the bottom up
        order = range(M, -1, -1) if len(ells) % 2 == 0 else range(M + 1)
        for i in order:
            poly[i] = (poly[i - d] if i >= d else 0) - poly[i]
    return tuple(poly[:max(i for i, c in enumerate(poly) if c) + 1])


def _collect(level, pairs):
    """The histogram {e mod level: sum of c} of (exponent, coefficient) pairs."""
    terms = {}
    for e, c in pairs:
        e %= level
        terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}


class Cyclotomic:
    """Element sum_e c_e zeta_M^e of Q(zeta_M), kept as the histogram
    ``terms = {e mod M: c_e}`` with rational c_e != 0."""

    __slots__ = ("level", "terms")

    def __init__(self, level, coeffs):
        """``coeffs``: a map exponent -> coefficient, or a sequence c_0, c_1, ..."""
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        self.level = level
        self.terms = _collect(level, ((e, Fraction(c)) for e, c in items))

    @classmethod
    def _of(cls, level, terms):
        x = object.__new__(cls)
        x.level, x.terms = level, terms
        return x

    @classmethod
    def from_rational(cls, x):
        return cls._of(1, {0: Fraction(x)} if x else {})

    def raise_level(self, L):
        """Rewrite in Q(zeta_L) for a multiple L of the level (z -> z^(L/M))."""
        assert L % self.level == 0
        k = L // self.level
        if k == 1:
            return self
        return Cyclotomic._of(L, {e * k: c for e, c in self.terms.items()})

    def _match(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        L = lcm(self.level, other.level)
        return self.raise_level(L), other.raise_level(L)

    def __add__(self, other):
        a, b = self._match(other)
        return Cyclotomic._of(a.level, _collect(
            a.level, [*a.terms.items(), *b.terms.items()]))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.level, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._match(other)
        return Cyclotomic._of(a.level, _collect(
            a.level, [(e + f, c * d) for e, c in a.terms.items()
                      for f, d in b.terms.items()]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = Cyclotomic.from_rational(1)
        for bit in bin(k)[2:]:   # square and multiply, from the top bit
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def inverse(self):
        """1/self.  A monomial c z^e inverts to z^(-e)/c; any other element
        by its norm: 1/x = prod_{sigma != 1} sigma(x) / N(x)."""
        M = self.level
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return Cyclotomic._of(M, {-e % M: 1 / Fraction(c)})
        others = Cyclotomic.from_rational(1)
        for a in range(2, M):   # sigma_a: zeta_M -> zeta_M^a
            if gcd(a, M) == 1:
                # e -> a e is a bijection mod M: no two terms collide
                conj = Cyclotomic._of(M, {a * e % M: c for e, c in self.terms.items()})
                others = Cyclotomic._of(M, {
                    e: c for e, c in enumerate((others * conj)._reduced()) if c})
        # N(x) is rational, and zero exactly when x is: 1/N(x) then raises
        return others * (1 / (self * others).rational_value())

    def _reduced(self):
        """The unique coefficients of self in the basis 1, z, ..., z^(phi(M)-1):
        the histogram as a polynomial, reduced mod Phi_M in integers."""
        M = self.level
        phi = cyclotomic_poly(M)
        d = len(phi) - 1
        den = lcm(*(c.denominator for c in self.terms.values()))
        poly = [0] * M
        for e, c in self.terms.items():
            poly[e] = int(c * den)
        low = [(j, pj) for j, pj in enumerate(phi[:d]) if pj]
        for i in range(M - 1, d - 1, -1):   # z^i = z^i - z^(i-d) Phi_M(z)
            c = poly[i]
            if c:
                for j, pj in low:
                    poly[i - d + j] -= c * pj
        return [Fraction(c, den) for c in poly[:d]]

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, Cyclotomic)):
            return NotImplemented
        a, b = self._match(other)
        return a.terms == b.terms or not any((a - b)._reduced())

    # unhashable, as PadicNumber is: an equal value at another level has
    # other terms, and no caller needs a Cyclotomic as a key
    __hash__ = None

    def is_rational(self):
        return not any(self._reduced()[1:])

    def rational_value(self):
        c = self._reduced()
        assert not any(c[1:])
        return c[0]

    def to_complex(self):
        w = 2j * cmath.pi / self.level
        return sum((float(c) * cmath.exp(w * e) for e, c in self.terms.items()), 0j)

    __complex__ = to_complex

    def __repr__(self):
        # a summary without reduction: the reduced form has phi(M) entries
        if self.terms.keys() <= {0}:
            return f"Cyclotomic({self.terms.get(0, 0)})"
        return (f"Cyclotomic(level={self.level}, terms={len(self.terms)}, "
                f"approx={self.to_complex():.12g})")


def zeta(M, k=1):
    """zeta_M^k as a Cyclotomic."""
    return Cyclotomic._of(M, {k % M: 1})


def as_cyclotomic(x):
    """An int, Fraction or Cyclotomic as a Cyclotomic."""
    return x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)
