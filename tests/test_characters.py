import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exczero.characters import (
    AdditiveCharacterPsi, Quasicharacter, _unit_integral,
    all_primitive_characters, euler_factor, gauss_sum, legendre_character,
    local_L, mellin_closed_form, primitive_root, sqrt_q,
)
from exczero.cyclotomic import zeta
from exczero.localdist import (
    mellin_mu_alpha, mellin_target, unit_psi_chi_integral,
)
from exczero.padic import ord_p


def test_psi_trivial_on_Zp():
    psi = AdditiveCharacterPsi(5)
    assert psi(3) == 1
    assert psi(Fraction(7, 3)) == 1
    assert not (psi(Fraction(1, 5)) == 1)


@given(st.sampled_from([3, 5, 7]),
       st.fractions(min_value=-50, max_value=50),
       st.fractions(min_value=-50, max_value=50))
@settings(max_examples=60)
def test_psi_is_additive(p, x, y):
    psi = AdditiveCharacterPsi(p)
    assert psi(x + y) == psi(x) * psi(y)


def test_gauss_sum_trivial_is_one():
    assert gauss_sum(Quasicharacter(7)) == 1


def test_gauss_sum_legendre_5():
    chi = legendre_character(5)
    tau = gauss_sum(chi)
    assert tau * tau == 5  # p = 1 mod 4: tau = sqrt(5)
    assert abs(abs(tau.to_complex()) ** 2 - 5) < 1e-9


def test_gauss_sum_order4_mod5():
    chi = next(c for c in all_primitive_characters(5, 1)
               if not (c.value_at_unit(2) ** 2 == 1))
    tau = gauss_sum(chi)
    taubar = gauss_sum(chi.inverse())
    assert abs((tau * taubar).to_complex() - (tau.to_complex() * taubar.to_complex())) < 1e-12
    assert abs(abs(tau.to_complex()) ** 2 - 5) < 1e-9


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_tau_times_tau_inverse_exact(p):
    for chi in all_primitive_characters(p, 1):
        lhs = gauss_sum(chi) * gauss_sum(chi.inverse())
        assert lhs == chi.at_minus_one() * p
        assert abs(abs(gauss_sum(chi).to_complex()) ** 2 - p) < 1e-9


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2)])
def test_tau_identity_higher_conductor(p, f):
    q = p ** f
    for chi in all_primitive_characters(p, f)[:6]:
        assert chi.f == f
        lhs = gauss_sum(chi) * gauss_sum(chi.inverse())
        assert lhs == chi.at_minus_one() * q


def test_imprimitive_input_is_renormalized():
    # (f, k) = (2, 5) at p = 5 factors through 5: the f = 1 character k = 1,
    # with the values zeta_20^(5 j) at g^j that (2, 5) names
    chi = Quasicharacter(5, 2, 5)
    assert (chi.f, chi.k) == (1, 1)
    g = primitive_root(5)
    for j in range(20):
        assert chi.value_at_unit(pow(g, j, 25)) == zeta(20, 5 * j)
        assert chi.value_at_unit(pow(g, j, 25)) \
            == Quasicharacter(5, 1, 1).value_at_unit(pow(g, j, 5))
    # (f, k) -> (f - 1, k / p) while p | k, and k = 0 is unramified
    lowered = [Quasicharacter(5, 3, k) for k in (25, 50, 0)]
    assert [(chi.f, chi.k) for chi in lowered] == [(1, 1), (1, 2), (0, 0)]
    assert Quasicharacter(5, 2, 0).f == 0


def test_mellin_closed_form_cases():
    assert mellin_closed_form(Quasicharacter(5, t=1)) == 0
    assert mellin_closed_form(Quasicharacter(5, t=Fraction(2))) == Fraction(5, 6)
    chi = legendre_character(5)
    assert mellin_closed_form(chi) == gauss_sum(chi)
    with pytest.raises(ValueError):
        mellin_closed_form(Quasicharacter(5, t=Fraction(5)))
    with pytest.raises(ValueError):
        mellin_closed_form(Quasicharacter(5, t=Fraction(7)))


def test_euler_factor_table():
    assert euler_factor(1, Quasicharacter(5)) == 0
    assert euler_factor(-1, Quasicharacter(5)) == 2
    chi2 = all_primitive_characters(5, 2)[0]
    assert euler_factor(Fraction(3), chi2) == Fraction(1, 9)
    # spherical alpha = 2, trivial chi: (1 - 1/2)(1 - 1/2) = 1/4
    assert euler_factor(Fraction(2), Quasicharacter(5)) == Fraction(1, 4)


@pytest.mark.parametrize("p", [3, 5, 13])
@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_euler_factor_at_sqrt_q_is_rational_for_even_f(p, f):
    # sqrt(p)^-f is kept at level 1 when it is rational, so that the target
    # tau(chi) sqrt(p)^-f is a rational multiple of the Gauss sum
    e = euler_factor(sqrt_q(p), Quasicharacter(p, f, 1))
    assert e * sqrt_q(p) ** f == 1
    assert (e.level == 1) == (f % 2 == 0)
    if f % 2 == 0:
        assert e == Fraction(1, p ** (f // 2))


def test_local_L_cases():
    assert local_L(1, legendre_character(5)) == 1
    assert local_L(1, Quasicharacter(5)) == Fraction(5, 4)
    assert local_L(Fraction(2), Quasicharacter(5)) == Fraction(10, 3)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_sqrt_q_is_the_positive_root(q):
    # the square is q exactly; the complex value pins the sign against the
    # convention psi(x) = e^(+2 pi i x) behind tau(Legendre)
    root = sqrt_q(q)
    assert root * root == q
    assert abs(complex(root) - math.sqrt(q)) <= 1e-12


def test_character_multiplicativity():
    for chi in all_primitive_characters(7, 1):
        for u in range(1, 7):
            for v in range(1, 7):
                assert chi.value_at_unit(u * v) == chi.value_at_unit(u) * chi.value_at_unit(v)


def test_quasicharacter_value_includes_uniformizer():
    chi = Quasicharacter(5, 1, 2, t=Fraction(3))   # the Legendre symbol
    assert chi(Fraction(50)) == 9 * chi.value_at_unit(2)
    assert chi(Fraction(1, 5)) == Fraction(1, 3)


# -- the unit character sum against per-residue reference loops --------------

def _psi_reference(p, x):
    """psi(x) = zeta_(p^k)^b for the class b / p^k of x in Q_p / Z_p."""
    x = Fraction(x)
    den, k = x.denominator, 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return 1
    return zeta(p ** k, x.numerator * pow(den, -1, p ** k) % p ** k)


def _exact_sum(values):
    """The sum of exact values, added in pairs (the result is exact, so the
    order only keeps each addition small)."""
    while len(values) > 1:
        values = [sum(values[i:i + 2], 0)
                  for i in range(0, len(values), 2)]
    return values[0] if values else 0


def _unit_integral_reference(chi, a):
    """The mean of psi(a u) chi(u) over the units u mod p^m, one residue at a
    time, at the least level m >= max(f, -ord(a), 1)."""
    p = chi.p
    m = max(chi.f, -ord_p(a, p) if a != 0 else 0, 1)
    terms = [_psi_reference(p, a * u) * chi.value_at_unit(u)
             for u in range(1, p ** m) if u % p]
    return _exact_sum(terms) * Fraction(1, len(terms))


def _gauss_sum_reference(chi):
    """sum over the units u mod p^f of psi(u / p^f) chi(u), times t^-f."""
    if chi.f == 0:
        return 1
    p, q = chi.p, chi.p ** chi.f
    return _exact_sum([_psi_reference(p, Fraction(u, q)) * chi.value_at_unit(u)
                       for u in range(1, q) if u % p]) * chi.t ** (-chi.f)


ORACLE_CASES = [
    *((p, f, i) for p, f in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2))
      for i in range(len(all_primitive_characters(p, f)))),
    *((p, 0, 0) for p in (2, 3, 7)),
]


def _oracle_character(p, f, i):
    return all_primitive_characters(p, f)[i] if f else Quasicharacter(p)


@pytest.mark.parametrize("p,f,i", ORACLE_CASES)
def test_unit_integral_and_gauss_sum_match_reference(p, f, i):
    chi = _oracle_character(p, f, i)
    assert gauss_sum(chi) == _gauss_sum_reference(chi)
    for u in (1, 2, p + 1):
        for k in range(-(f + 2), 2):
            a = Fraction(u) * Fraction(p) ** k
            assert unit_psi_chi_integral(chi, a) \
                == _unit_integral_reference(chi, a), (u, k)


@pytest.mark.parametrize("p,f,i", ORACLE_CASES)
def test_float_shell_sum_matches_exact(p, f, i):
    chi = _oracle_character(p, f, i)
    for alpha in (1, -1, Fraction(1, 2)):
        exact = mellin_mu_alpha(chi, alpha, n_max=8, exact=True)
        approx = mellin_mu_alpha(chi, alpha, n_max=8, exact=False)
        assert abs(approx.value - exact.value.to_complex()) <= 1e-12
        assert approx.tail_bound == exact.tail_bound


# -- the sparse exact shell sum and the kept unit integrals -------------------

SHELL_CASES = {
    **{f"mod{p ** f}": (p, f) for p, f in
       ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2))},
    **{f"trivial{p}": (p, 0) for p in (3, 5, 7)},
}


def _shell_characters(p, f):
    """Every primitive character mod p^f (t = 1), or for f = 0 the trivial
    character at t in {1, 2, -1/2}, with a recipe for a fresh copy."""
    if f == 0:
        return [(Quasicharacter(p, t=t), lambda t=t: Quasicharacter(p, t=t))
                for t in (1, 2, Fraction(-1, 2))]
    return [(chi, lambda i=i: all_primitive_characters(p, f)[i])
            for i, chi in enumerate(all_primitive_characters(p, f))]


@pytest.mark.parametrize("p,f", SHELL_CASES.values(), ids=SHELL_CASES)
def test_exact_shell_sum_against_every_shell(p, f):
    # the term-by-term sum of u_n s^n over every shell n_min..n_max, u_n by
    # one residue at a time, against the sparse sum, with ==
    for chi, _ in _shell_characters(p, f):
        n_min = -(f + 2)
        units = [_unit_integral_reference(chi, Fraction(p) ** n)
                 for n in range(n_min, 1)]
        for alpha in (1, -1, sqrt_q(p)):
            if abs(chi.t.to_complex()) * abs(complex(alpha)) >= p:
                with pytest.raises(ValueError):
                    mellin_mu_alpha(chi, alpha, n_max=0)
                continue
            s = chi.t * alpha * Fraction(1, p)
            for n_max in (0, 1, 8):
                want, power = 0, s ** n_min
                for n in range(n_min, n_max + 1):
                    want = want + units[min(n, 0) - n_min] * power
                    power = power * s
                got = mellin_mu_alpha(chi, alpha, n_max=n_max, exact=True)
                assert got.value == want * Fraction(p - 1, p), \
                    (p, f, chi.t, alpha, n_max)


@pytest.mark.parametrize("p,f", SHELL_CASES.values(), ids=SHELL_CASES)
def test_kept_unit_integrals_match_a_fresh_character(p, f):
    points = [Fraction(p) ** n for n in range(-(f + 2), 1)]
    for chi, fresh in _shell_characters(p, f):
        mellin_mu_alpha(chi, -1, n_max=2)
        kept = [unit_psi_chi_integral(chi, a) for a in points]
        # the closed form, a second alpha, a float sum and a character that
        # differs in t only compute no unit integral: they read the kept ones
        misses = _unit_integral.cache_info().misses
        mellin_target(chi, 1)
        if abs(chi.t.to_complex()) < p:
            mellin_mu_alpha(chi, 1, n_max=3)
            mellin_mu_alpha(chi, 1, n_max=3, exact=False)
        twin = Quasicharacter(p, chi.f, chi.k, 3 * chi.t)
        mellin_target(twin, -1)
        assert _unit_integral.cache_info().misses == misses
        for x in (chi, twin):
            assert all(unit_psi_chi_integral(x, a) is v
                       for a, v in zip(points, kept))
        # computed afresh, they are equal
        _unit_integral.cache_clear()
        other = fresh()
        for a, v in zip(points, kept):
            again = unit_psi_chi_integral(other, a)
            assert again is not v and again == v, (p, f, a)


def _conductor_by_scan(logs, q, p):
    """The least c with chi(u) a function of u mod p^c, scanning the exponent
    table {u: log_zeta chi(u)} of a character mod q = p^f (0: unramified)."""
    c = 0
    while True:
        first = {}
        if all(first.setdefault(u % p ** c, e) == e for u, e in logs.items()):
            return c
        c += 1


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_all_primitive_characters_match_the_conductor_filter(p, f):
    # chi(g^j) = zeta_phi^(k j) by its definition, and its conductor by a
    # scan of that table: the primitive ones are those of conductor p^f, in
    # k order, and every (f, k) is lowered to the scanned conductor
    q = p ** f
    phi, g = q - q // p, primitive_root(p)
    primitive = []
    for k in range(phi):
        logs = {pow(g, j, q): k * j % phi for j in range(phi)}
        c = _conductor_by_scan(logs, q, p)
        chi = Quasicharacter(p, f, k)
        assert chi.f == c, (p, f, k)
        assert all(chi.value_at_unit(u) == zeta(phi, e)
                   for u, e in logs.items())
        if c == f:
            primitive.append(k)
    assert [(chi.f, chi.k) for chi in all_primitive_characters(p, f)] \
        == [(f, k) for k in primitive]


# -- the characters pinned by their values ------------------------------------

def _digest_values(chi, f):
    """The values of chi as (level, sorted terms, den), whatever the storage:
    chi(u) at every unit u mod p^f, tau(chi), and the unit integrals at
    a = p^n for -(f + 2) <= n <= 0 and at a = u / p^k for u in (1, 2, p + 1)
    and 1 <= k <= f + 2."""
    p = chi.p
    values = [chi.value_at_unit(u) for u in range(1, p ** f) if u % p]
    values.append(gauss_sum(chi))
    points = [Fraction(p) ** n for n in range(-(f + 2), 1)]
    points += [Fraction(u, p ** k) for u in (1, 2, p + 1)
               for k in range(1, f + 3)]
    values += [unit_psi_chi_integral(chi, a) for a in points]
    return [(v.level, sorted(v.terms.items()), v.den) for v in values]


# sha256[:12] of the 3544 values above over every primitive character mod p^f,
# (p, f) in {3, 5, 7} x {1, 2} and (3, 3), in all_primitive_characters'
# order, then the trivial character (f = 0) at p = 3, 5, 7
CHARACTERS_DIGEST = "6683560511d4"


def test_characters_digest_pinned():
    vals = []
    for p, f in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (3, 3)):
        for chi in all_primitive_characters(p, f):
            vals.append(_digest_values(chi, f))
    for p in (3, 5, 7):
        vals.append(_digest_values(Quasicharacter(p, t=1, f=0), 0))
    digest = hashlib.sha256(repr(vals).encode()).hexdigest()[:12]
    assert digest == CHARACTERS_DIGEST
