"""Exact cyclotomic numbers, the one scalar type of the local theory.

Every local value at s = 1/2 -- characters, Gauss sums, Euler factors,
L-factors, shell sums, also at alpha = sqrt(q), which lies in Q(zeta_4q) --
is an element of some Q(zeta_M).  A value is kept as a histogram of integer
coefficients over the exponents of zeta_M mod M, with one common
denominator: sums of roots of unity accumulate in it, products add
exponents and multiply denominators, a change of level scales exponents.
Reduction mod Phi_M, which makes it unique, runs only for equality, truth,
rationality and inverses.  An inverse is taken in Q(zeta_(M/k)), k the gcd
of M and the value's exponents.
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


class Cyclotomic:
    """Element (sum_e c_e zeta_M^e) / den of Q(zeta_M), kept as the histogram
    ``terms = {e mod M: c_e}`` of ints c_e != 0 over one ``den >= 1``, in
    lowest terms: gcd(den, c_e, ...) = 1."""

    __slots__ = ("level", "terms", "den")

    def __init__(self, level, coeffs):
        """``coeffs``: a map exponent -> rational, or a sequence c_0, c_1, ..."""
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        terms = {}
        for e, c in items:
            terms[e % level] = terms.get(e % level, 0) + Fraction(c)
        den = lcm(*(c.denominator for c in terms.values()))
        x = Cyclotomic._of(level, {e: int(c * den) for e, c in terms.items()}, den)
        self.level, self.terms, self.den = x.level, x.terms, x.den

    @classmethod
    def _of(cls, level, terms, den=1):
        """(the int histogram terms) / den, in lowest terms, zeros dropped."""
        g = gcd(den, *terms.values())
        if g > 1 or 0 in terms.values():
            terms, den = {e: c // g for e, c in terms.items() if c}, den // g
        x = object.__new__(cls)
        x.level, x.terms, x.den = level, terms, den
        return x

    @classmethod
    def from_rational(cls, x):
        n, d = x.as_integer_ratio()   # no Fraction made for an int
        return cls._of(1, {0: n} if n else {}, d)

    def raise_level(self, L):
        """Rewrite in Q(zeta_L) for a multiple L of the level (z -> z^(L/M))."""
        assert L % self.level == 0
        k = L // self.level
        if k == 1:
            return self
        return Cyclotomic._of(L, {e * k: c for e, c in self.terms.items()},
                              self.den)

    def _match(self, other):
        if type(other) is not Cyclotomic:
            if not isinstance(other, (int, Fraction)):
                raise TypeError(f"not a rational or Cyclotomic: {other!r}")
            other = Cyclotomic.from_rational(other)
        L = lcm(self.level, other.level)
        return self.raise_level(L), other.raise_level(L)

    def __add__(self, other):
        a, b = self._match(other)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        terms = {e: c * sa for e, c in a.terms.items()}
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) + c * sb
        return Cyclotomic._of(a.level, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.level, {e: -c for e, c in self.terms.items()},
                              self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._match(other)
        L, terms = a.level, {}
        for e, c in a.terms.items():
            for f, d in b.terms.items():
                x = (e + f) % L
                terms[x] = terms.get(x, 0) + c * d
        return Cyclotomic._of(L, terms, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return self * Fraction(1, other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = self if k else Cyclotomic.from_rational(1)
        for bit in bin(k)[3:]:   # square and multiply, below the top bit
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def inverse(self):
        """1/self: z^(-e)/c for a monomial c z^e, else prod_{sigma != 1}
        sigma(x) / N(x), taken in Q(zeta_L) for L = M / gcd(M, exponents)
        and written back in the power basis at level M."""
        M = self.level
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            inv = Fraction(self.den, c)
            return Cyclotomic._of(M, {-e % M: inv.numerator}, inv.denominator)
        k = gcd(M, *self.terms)
        L = M // k
        x = Cyclotomic._of(L, {e // k: c for e, c in self.terms.items()}, self.den)
        others = Cyclotomic.from_rational(1)
        for a in range(2, L):   # sigma_a: zeta_L -> zeta_L^a
            if gcd(a, L) == 1:
                # e -> a e is a bijection mod L: no two terms collide
                conj = Cyclotomic._of(
                    L, {a * e % L: c for e, c in x.terms.items()}, x.den)
                others = (others * conj)._in_basis()
        # N(x) is rational, and zero exactly when x is: 1/N(x) then raises
        inv = others * (1 / (x * others).rational_value())
        return inv.raise_level(M)._in_basis()

    def _in_basis(self):
        """self rewritten in the basis 1, z, ..., z^(phi(M)-1)."""
        return Cyclotomic._of(self.level, dict(enumerate(self._reduced())), self.den)

    def _reduced(self):
        """The unique coefficients of den * self in the basis 1, z, ...,
        z^(phi(M)-1): the histogram as a polynomial, reduced mod Phi_M."""
        M = self.level
        phi = cyclotomic_poly(M)
        d = len(phi) - 1
        poly = [0] * M
        for e, c in self.terms.items():
            poly[e] = c
        low = [(j, pj) for j, pj in enumerate(phi[:d]) if pj]
        for i in range(M - 1, d - 1, -1):   # z^i = z^i - z^(i-d) Phi_M(z)
            c = poly[i]
            if c:
                for j, pj in low:
                    poly[i - d + j] -= c * pj
        return poly[:d]

    def __eq__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b = self._match(other)
        return (a.terms == b.terms and a.den == b.den
                or not any((a - b)._reduced()))

    def __bool__(self):
        """False exactly for 0: every reduced coefficient vanishes."""
        return any(self._reduced())

    # unhashable, as PadicNumber is: an equal value at another level has
    # other terms, and no caller needs a Cyclotomic as a key
    __hash__ = None

    def is_rational(self):
        return not any(self._reduced()[1:])

    def rational_value(self):
        c = self._reduced()
        assert not any(c[1:])
        return Fraction(c[0], self.den)

    def to_complex(self):
        w, den = 2j * cmath.pi / self.level, self.den
        return sum((c / den * cmath.exp(w * e) for e, c in self.terms.items()), 0j)

    __complex__ = to_complex

    def __repr__(self):
        # a summary without reduction: the reduced form has phi(M) entries
        if self.terms.keys() <= {0}:
            return f"Cyclotomic({Fraction(self.terms.get(0, 0), self.den)})"
        return (f"Cyclotomic(level={self.level}, terms={len(self.terms)}, "
                f"approx={self.to_complex():.12g})")


def zeta(M, k=1):
    """zeta_M^k as a Cyclotomic."""
    return Cyclotomic._of(M, {k % M: 1})


def as_cyclotomic(x):
    """An int, Fraction or Cyclotomic as a Cyclotomic."""
    return x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)
