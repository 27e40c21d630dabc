"""Quasicharacters of Q_p^*, the additive character psi, the exact unit
character sum and Gauss sums, the closed-form Mellin integral, local
L-factors, the Euler factors e(alpha, chi), and sqrt(q) in Q(zeta_4q)."""

from collections import Counter
from fractions import Fraction
from math import lcm

from .cyclotomic import Cyclotomic, as_cyclotomic, zeta
from .padic import ord_p

__all__ = [
    "AdditiveCharacterPsi", "Quasicharacter", "unit_psi_chi_integral",
    "gauss_sum",
    "mellin_closed_form", "euler_factor", "local_L",
    "trivial_character", "character_from_log", "all_primitive_characters",
    "legendre_character", "primitive_root", "sqrt_q",
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


def primitive_root(p, f):
    """The least generator of (Z/p^f)^* for odd p: a generator mod p^2 (mod
    p for f = 1) generates mod every power of p."""
    assert p % 2 == 1 and f >= 1
    m = p ** min(f, 2)
    return next(g for g in range(2, m)
                if g % p and _mult_order(g, m) == m - m // p)


def _mult_order(g, m):
    x, k = g % m, 1
    while x != 1:
        x = x * g % m
        k += 1
    return k


class Quasicharacter:
    """A character of Q_p^*: value t at p plus a finite table on units.

    The unit table is stored at the true conductor p^f (primitive by
    construction); f = 0 means unramified.
    """

    def __init__(self, p, t, f, unit_table=None):
        self.p = p
        self.t = as_cyclotomic(t)
        self.f, self.unit_table = _primitivize(p, f, dict(unit_table or {}))
        self.unit_integrals = {}   # kept by unit_psi_chi_integral

    def value_at_unit(self, u):
        """chi(u) for a p-adic unit u (rational, prime-to-p denominator)."""
        if self.f == 0:
            return Cyclotomic.from_rational(1)
        m = self.p ** self.f
        if not isinstance(u, int):
            u = Fraction(u)
            u = u.numerator * pow(u.denominator, -1, m)
        return self.unit_table[u % m]

    def __call__(self, x):
        x = Fraction(x)
        assert x != 0
        v = ord_p(x, self.p)
        return self.t ** v * self.value_at_unit(x / Fraction(self.p) ** v)

    def inverse(self):
        table = {u: 1 / c for u, c in self.unit_table.items()}
        return Quasicharacter(self.p, 1 / self.t, self.f, table)

    def at_minus_one(self):
        return self.value_at_unit(-1)

    def __repr__(self):
        return f"Quasicharacter(p={self.p}, f={self.f}, t={self.t!r})"


def _primitivize(p, f, table):
    """Drop the conductor exponent while the table factors through a lower level."""
    while f >= 1:
        lower = p ** (f - 1)
        first = {}
        for u, v in table.items():
            first.setdefault(u % lower, v)
        if any(v != first[u % lower] for u, v in table.items()):
            return f, table
        # at f = 1 every value is chi(1) = 1: chi is unramified
        table, f = first if f > 1 else {}, f - 1
    return f, table


def trivial_character(p, t=1):
    return Quasicharacter(p, t, 0)


def character_from_log(p, f, k, t=1):
    """The character of conductor dividing p^f sending a fixed primitive root
    g to zeta_phi^k, extended by chi(p) = t."""
    assert f >= 1 and p % 2 == 1
    q = p ** f
    phi = q - q // p
    g = primitive_root(p, f)
    table = {pow(g, j, q): zeta(phi, k * j % phi) for j in range(phi)}
    return Quasicharacter(p, t, f, table)


def all_primitive_characters(p, f, t=1):
    """All characters of conductor exactly p^f (odd p): those with p ∤ k for
    f >= 2, as g^(phi/p) generates 1 + p^(f-1) Z_p, and k != 0 for f = 1."""
    assert f >= 1
    q = p ** f
    phi = q - q // p
    return [character_from_log(p, f, k, t) for k in range(phi)
            if (k % p if f >= 2 else k)]


def legendre_character(p, t=1):
    """The quadratic character mod p."""
    return character_from_log(p, 1, (p - 1) // 2, t)


def unit_psi_chi_integral(chi, a):
    """int over U of psi(a u) chi(u) d*u (vol(U) = 1), exactly.

    With a = b / p^k in Q_p/Z_p, psi(a u) = zeta_(p^k)^(b u) is constant
    mod p^k and chi(u) mod p^f.  For k <= m = max(f, 1) the mean runs over
    the units mod p^m, counted in integers by (u mod p^f, b u mod p^k); the
    result is built once, at the level L of zeta_(p^k) and of chi's values,
    as an int histogram of those counts over one denominator: phi(p^m) for
    values that are roots of unity.  It is kept on chi by the psi class of
    a, so each class is counted once per character."""
    p = chi.p
    pk, b = psi_class = _psi_class(p, a)
    if psi_class in chi.unit_integrals:
        return chi.unit_integrals[psi_class]
    pf = p ** chi.f
    pm = max(pf, p)
    if pk > pm:
        # u -> u + p^(k-1) j fixes chi(u) and turns psi(a u) through every
        # p-th root of unity, so the mean is 0
        return Cyclotomic.from_rational(0)
    counts = Counter((u % pf, b * u % pk) for u in range(1, pm) if u % p)
    values = {key: chi.value_at_unit(key) for key, _ in counts}
    L = lcm(pk, *(v.level for v in values.values()))
    den = lcm(*(v.den for v in values.values()))
    sums = {}
    for (key, e), n in counts.items():
        v = values[key]
        step, vstep, n = L // pk, L // v.level, n * (den // v.den)
        for ev, c in v.terms.items():
            x = (e * step + ev * vstep) % L
            sums[x] = sums.get(x, 0) + n * c
    units = pm - pm // p
    x = chi.unit_integrals[psi_class] = Cyclotomic._of(L, sums, units * den)
    return x


def gauss_sum(chi):
    """tau(chi) = sum over unit residues u mod q = p^f of psi(u/q) chi(u),
    times t^-f: phi(q) times the unit integral at a = 1/q.

    Normalized so that tau of an unramified character is 1.
    """
    q = chi.p ** chi.f
    return unit_psi_chi_integral(chi, Fraction(1, q)) * (q - q // chi.p) \
        * chi.t ** (-chi.f)


def mellin_closed_form(chi):
    """The closed form of the full Mellin integral of psi against chi:

    (1 - t^{-1}) / (1 - t/q) for unramified chi, tau(chi) for ramified chi.
    Requires |t| < q for convergence.
    """
    q = chi.p
    t = chi.t
    if abs(t.to_complex()) >= q:
        raise ValueError("divergent: |chi(p)| >= q")
    if chi.f > 0:
        return gauss_sum(chi)
    return (1 - 1 / t) / (1 - t * Fraction(1, q))


def euler_factor(alpha, chi):
    """The interpolation factor e(alpha, chi) for an ordinary parameter alpha."""
    alpha = as_cyclotomic(alpha)
    if chi.f > 0:
        return alpha ** (-chi.f)
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
