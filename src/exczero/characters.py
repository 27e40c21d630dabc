"""Quasicharacters of Q_p^*, the additive character psi, the exact unit
character sum and Gauss sums, local L-factors, the Euler factors
e(alpha, chi), and sqrt(q) in Q(zeta_4q)."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclotomic import Cyclotomic, as_cyclotomic, zeta
from .padic import ord_p

__all__ = [
    "AdditiveCharacterPsi", "Quasicharacter", "unit_psi_chi_integral",
    "gauss_sum", "euler_factor", "local_L",
    "all_primitive_characters", "legendre_character", "primitive_root",
    "sqrt_q",
]


class AdditiveCharacterPsi:
    """The standard additive character of Q_p, trivial exactly on Z_p.

    psi(x) = e(2*pi*i*fr(x)) where fr(x) is the p-power fractional part.
    """

    def __init__(self, p):
        self.p = p

    def __call__(self, x):
        return zeta(*_psi_class(self.p, x))


def _psi_class(p, x):
    """(p^k, b) with x = b / p^k in Q_p/Z_p, 0 <= b < p^k; so psi(x) is
    zeta_(p^k)^b, and p^k = 1 for x in Z_p."""
    x = Fraction(x)
    den, pk = x.denominator, 1
    while den % p == 0:
        den //= p
        pk *= p
    return pk, x.numerator * pow(den, -1, pk) % pk


def primitive_root(p):
    """The least generator mod p^2 of odd p: it generates mod every power
    of p."""
    assert p % 2 == 1
    m = p * p
    return next(g for g in range(2, m) if g % p
                and len({pow(g, j, m) for j in range(m - p)}) == m - p)


@lru_cache(maxsize=None)
def _log_table(p, f):
    """{g^j mod p^f: j} for g = primitive_root(p)."""
    q, g = p ** f, primitive_root(p)
    return {pow(g, j, q): j for j in range(q - q // p)}


class Quasicharacter:
    """The character of Q_p^* with chi(p) = t and chi(g^j) = zeta_phi^(k j)
    on the units, g = primitive_root(p), phi = phi(p^f).

    (f, k) is lowered to the true conductor p^f: for f >= 2, chi factors
    through p^(f-1) exactly when p | k, and k = 0 means unramified (f = 0).
    """

    def __init__(self, p, f=0, k=0, t=1):
        k %= p ** f - p ** f // p
        while f >= 2 and k % p == 0:
            f, k = f - 1, k // p
        self.p, self.f, self.k = p, f if k else 0, k
        self.t = as_cyclotomic(t)

    def value_at_unit(self, u):
        """chi(u) for a p-adic unit u (rational, prime-to-p denominator)."""
        if self.f == 0:
            return Cyclotomic.from_rational(1)
        m = self.p ** self.f
        if not isinstance(u, int):
            u = Fraction(u)
            u = u.numerator * pow(u.denominator, -1, m)
        phi = m - m // self.p
        return zeta(phi, self.k * _log_table(self.p, self.f)[u % m] % phi)

    def __call__(self, x):
        x = Fraction(x)
        assert x != 0
        v = ord_p(x, self.p)
        return self.t ** v * self.value_at_unit(x / Fraction(self.p) ** v)

    def inverse(self):
        return Quasicharacter(self.p, self.f, -self.k, 1 / self.t)

    def at_minus_one(self):
        return self.value_at_unit(-1)

    def __repr__(self):
        return (f"Quasicharacter(p={self.p}, f={self.f}, k={self.k}, "
                f"t={self.t!r})")


def all_primitive_characters(p, f):
    """All characters of conductor exactly p^f (odd p): those with p ∤ k for
    f >= 2, as g^(phi/p) generates 1 + p^(f-1) Z_p, and k != 0 for f = 1."""
    assert f >= 1
    q = p ** f
    return [Quasicharacter(p, f, k) for k in range(q - q // p)
            if (k % p if f >= 2 else k)]


def legendre_character(p):
    """The quadratic character mod p."""
    return Quasicharacter(p, 1, (p - 1) // 2)


def unit_psi_chi_integral(chi, a):
    """int over U of psi(a u) chi(u) d*u (vol(U) = 1), exactly.

    With a = b / p^k in Q_p/Z_p, psi(a u) = zeta_(p^k)^(b u) is constant
    mod p^k and chi(u) mod p^f.  The value depends on chi's unit part
    (p, f, k) and the psi class (p^k, b) only, and is kept by them, so
    characters that differ in t share it."""
    return _unit_integral(chi.p, chi.f, chi.k, *_psi_class(chi.p, a))


@lru_cache(maxsize=None)
def _unit_integral(p, f, k, pk, b):
    """The mean of zeta_phi^(k log u) zeta_pk^(b u) over the units u mod p^m,
    m = max(f, 1), phi = phi(p^f), log u = j for u = g^j mod p^f: the units
    are counted in integers by (k log u mod phi, b u mod p^k), and the
    result is one int histogram at level lcm(p^k, phi) over phi(p^m)."""
    pf = p ** f
    pm, phi = max(pf, p), pf - pf // p
    if pk > pm:
        # u -> u + p^(k-1) j fixes chi(u) and turns psi(a u) through every
        # p-th root of unity, so the mean is 0
        return Cyclotomic.from_rational(0)
    logs = _log_table(p, f) if f else {0: 0}
    counts = Counter((k * logs[u % pf] % phi, b * u % pk)
                     for u in range(1, pm) if u % p)
    L = lcm(pk, phi)
    step, vstep, sums = L // pk, L // phi, {}
    for (ev, e), n in counts.items():
        x = (e * step + ev * vstep) % L
        sums[x] = sums.get(x, 0) + n
    return Cyclotomic._of(L, sums, pm - pm // p)


def gauss_sum(chi):
    """tau(chi) = sum over unit residues u mod q = p^f of psi(u/q) chi(u),
    times t^-f: phi(q) times the unit integral at a = 1/q.

    Normalized so that tau of an unramified character is 1.
    """
    q = chi.p ** chi.f
    return unit_psi_chi_integral(chi, Fraction(1, q)) * (q - q // chi.p) \
        * chi.t ** (-chi.f)


def euler_factor(alpha, chi):
    """The interpolation factor e(alpha, chi) for an ordinary parameter alpha."""
    alpha = as_cyclotomic(alpha)
    if chi.f > 0:
        return (alpha ** -chi.f).lowered()   # sqrt(q)^-f for even f
    t = chi.t
    if alpha in (1, -1):
        return 1 - alpha / t
    return (1 - t / alpha) * (1 - 1 / (alpha * t))


def local_L(alpha, chi):
    """The local L-factor L(1/2, pi_alpha x chi): trivial for ramified chi,
    one geometric factor in the special case, two in the spherical case."""
    if chi.f > 0:
        return Cyclotomic.from_rational(1)
    q = chi.p
    t = chi.t
    if alpha in (1, -1):
        return 1 / (1 - t * alpha * Fraction(1, q))
    return 1 / ((1 - t / alpha) * (1 - t * alpha * Fraction(1, q)))


def sqrt_q(q):
    """The positive square root of a prime q, exactly, in Q(zeta_4q):
    zeta_8 + zeta_8^-1 for q = 2, else from tau of the Legendre symbol, which
    is sqrt(q) for q = 1 mod 4 and i sqrt(q) for q = 3 mod 4 because
    psi(x) = e^(+2 pi i x)."""
    if q == 2:
        return zeta(8) + zeta(8, -1)
    tau = gauss_sum(legendre_character(q))
    return tau if q % 4 == 1 else zeta(4, -1) * tau
