import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from exczero.curves import EllipticCurve, ap
from exczero.modsym import ModularSymbolSpace, P1, heilbronn_matrices

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)
E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)


@pytest.fixture(scope="module")
def M11():
    return ModularSymbolSpace(E11)


@pytest.fixture(scope="module")
def M15():
    return ModularSymbolSpace(E15)


def random_rationals(rng, count, den_max=60):
    out = []
    while len(out) < count:
        den = rng.randint(1, den_max)
        num = rng.randint(-3 * den, 3 * den)
        out.append(Fraction(num, den))
    return out


def test_p1_size():
    # |P^1(Z/N)| = N prod_{p | N} (1 + 1/p)
    assert len(P1(11)) == 12
    assert len(P1(15)) == 24
    assert len(P1(12)) == 24


def test_p1_reduce_is_projective():
    p1 = P1(15)
    rng = random.Random(7)
    for _ in range(100):
        c, d = rng.randrange(15), rng.randrange(15)
        if p1.flat[c * 15 + d] is None:
            assert gcd(gcd(c, d), 15) > 1
            continue
        for t in (2, 4, 7):  # units mod 15
            assert p1.index((c, d)) == p1.index((t * c, t * d))


def test_heilbronn_determinants():
    for n in (2, 3, 5, 7):
        mats = list(heilbronn_matrices(n))
        assert all(a * d - b * c == n for a, b, c, d in mats)
        assert len(mats) == len(set(mats))


def test_lam_integer_and_chain(M11, M15):
    for M in (M11, M15):
        # an integer is reached by the single symbol with bottom row (1, 0)
        for r in (0, 7, -3, Fraction(7)):
            assert M.lam(r) == M.lam_zero()
        # each convergent adds the symbol with bottom row (q_k, +-q_(k-1)):
        # 3/7 = [0; 2, 3] has convergents 0, 1/2, 3/7
        sym = M.lam_sym
        assert M.lam(Fraction(1, 2)) - M.lam(0) == sym[M.p1.index((2, -1))]
        assert (M.lam(Fraction(3, 7)) - M.lam(Fraction(1, 2))
                == sym[M.p1.index((7, 2))])


def test_manin_relations_hold(M11, M15):
    # lam extends to symbols killed by the two- and three-term relations,
    # and is a plus symbol: lam(c, d) = lam(-c, d)
    M91 = ModularSymbolSpace(EllipticCurve("91a1", 91, 0, 1, 1, -7, 5))
    for M in (M11, M15, M91):
        p1, lam = M.p1, M.lam_sym
        for c, d in p1:
            assert lam[p1.index((c, d))] + lam[p1.index((d, -c))] == 0
            three = (lam[p1.index((c, d))] + lam[p1.index((d, -c - d))]
                     + lam[p1.index((-c - d, c))])
            assert three == 0
            assert lam[p1.index((c, d))] == lam[p1.index((-c, d))]


def test_plus_quotient_dimension(M11):
    # the plus quotient has dim g + c - 1, g the genus of X_0(N) and c its
    # number of cusps: 1 + 1 at N = 11, 23 + 7 at N = 170, where the space
    # before the star relation had dim 2g + c - 1 = 53
    assert M11.dim == 2
    E170 = EllipticCurve("170", 170, 1, -1, 0, -10, -10)
    assert ModularSymbolSpace(E170).dim == 30


def test_normalization(M11, M15):
    for M in (M11, M15):
        assert M.lam_zero() > 0
        content = 0
        for v in M.lam_sym:
            content = gcd(content, v)
        assert content == 1


def test_periodicity_and_evenness(M11, M15):
    rng = random.Random(23)
    for M in (M11, M15):
        for r in random_rationals(rng, 20):
            v = M.lam(r)
            assert M.lam(r + 1) == v
            assert M.lam(-r) == v


def test_hecke_eigenvalue_relation_good_primes(M11):
    # a_ell lam(x) = lam(ell x) + sum_u lam((x + u) / ell)
    rng = random.Random(29)
    for ell in (2, 3, 5, 7, 13):
        a = ap(E11, ell)
        for x in random_rationals(rng, 4, den_max=30):
            rhs = M11.lam(ell * x) + sum(M11.lam((x + u) / ell)
                                         for u in range(ell))
            assert a * M11.lam(x) == rhs, (ell, x)


def test_up_relation_multiplicative(M11, M15):
    # at p || N: sum_u lam((x + u) / p) = a_p lam(x), a_p = +-1 by splitness
    rng = random.Random(31)
    cases = [(M11, 11, 1), (M15, 3, -1), (M15, 5, 1)]
    for M, p, a in cases:
        for x in random_rationals(rng, 6, den_max=40):
            rhs = sum(M.lam((x + u) / p) for u in range(p))
            assert rhs == a * M.lam(x), (p, x)


def test_hecke_matrix_eigenvalue(M11):
    # lam is a genuine dual eigenvector of the quotient Hecke action
    lam_free = [M11.lam_sym[j] for j in M11.free]
    for ell in (2, 3, 7):
        t = M11.hecke_matrix(ell)
        t_T_lam = [sum(t[i][j] * lam_free[i] for i in range(len(t)))
                   for j in range(len(t))]
        assert t_T_lam == [ap(E11, ell) * v for v in lam_free]


def test_eigensymbol_unique_up_to_sign(M11):
    # rebuilding gives the same normalized values
    again = ModularSymbolSpace(E11)
    assert again.lam_sym == M11.lam_sym


def _reference_lam(M, r):
    """lam by the continued fraction over Fraction and P1.index."""
    r = Fraction(r)
    digits = []
    while True:
        a = r.numerator // r.denominator
        digits.append(a)
        frac = r - a
        if frac == 0:
            break
        r = 1 / frac
    total, q_prev2, q_prev, sign = 0, 1, 0, 1
    for a in digits:
        q = a * q_prev + q_prev2
        total += M.lam_sym[M.p1.index((q, sign * q_prev))]
        q_prev2, q_prev, sign = q_prev, q, -sign
    return total


def test_lam_matches_fraction_reference(M11, M15):
    rng = random.Random(41)
    for M in (M11, M15):
        rs = random_rationals(rng, 3000, den_max=20000)
        rs += [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 11 ** 5))
               for _ in range(2000)]
        rs += [Fraction(n) for n in range(-30, 31)]
        for r in rs:
            assert M.lam(r) == _reference_lam(M, r), (M.N, r)
        for n in range(-5, 6):
            assert M.lam(n) == _reference_lam(M, n)


def test_lam_sym_pinned(M11, M15):
    assert M11.lam_sym == [-2, 2, 0, 10, 5, -5, -10, -10, -5, 5, 10, 0]
    assert M15.lam_sym == [-1, 1, 0, 4, 2, 0, -1, -2, -4, -4, -2, -1, 0, 2,
                           4, 0, -2, 2, -2, 1, 2, 1, 1, -1]


def test_rank_one_eigensymbol_is_normalised_at_its_first_nonzero_value():
    # y^2 + y = x^3 + x^2 - 7x + 5, of rank one: its path from 0 to
    # infinity pairs to 0
    M = ModularSymbolSpace(EllipticCurve("91a1", 91, 0, 1, 1, -7, 5))
    assert M.lam_zero() == 0
    first = next(v for v in M.lam_sym if v)
    assert first > 0 and gcd(*M.lam_sym) == 1


def _kernel(M, n, d):
    """lam at n/d through the evaluation kernel."""
    return M.lam_ratio(n, d)


def test_kernel_matches_fraction_reference_on_every_ball(M11, M15):
    # every unit x/p^n of the measures, x/p^(n-1) with x up to p^n (the
    # good-ordinary branch's second term), twisted denominators p^n D
    cases = [(M11, 11, 4), (M15, 3, 5), (M15, 5, 5)]
    for M, p, top in cases:
        for n in range(1, top + 1):
            pn = p ** n
            for x in range(1, pn):
                if x % p:
                    assert _kernel(M, x, pn) == _reference_lam(M, Fraction(x, pn)), \
                        (M.N, x, pn)
    for p, top in ((3, 5), (5, 4)):
        for n in range(1, top + 1):
            for x in range(1, p ** n):
                if x % p:
                    r = Fraction(x, p ** (n - 1))
                    assert _kernel(M11, x, p ** (n - 1)) == _reference_lam(M11, r)
    rng = random.Random(43)
    for D in (5, 12, 37):
        for n in range(1, 4):
            den = 11 ** n * D
            for x in rng.sample(range(1, den), min(100, den - 1)):
                if gcd(x, den) == 1:
                    for num in (x, -x, x - 3 * den):
                        assert _kernel(M11, num, den) == \
                            _reference_lam(M11, Fraction(num, den)), (num, den)
    for M in (M11, M15):
        for n in range(-12, 13):
            assert _kernel(M, n, 1) == _reference_lam(M, n) == M.lam_zero()


@pytest.mark.parametrize("E", [
    E11, E15, EllipticCurve("27a1", 27, 0, 0, 1, 0, -7),
    EllipticCurve("91a1", 91, 0, 1, 1, -7, 5)], ids=lambda E: E.label)
def test_lam_is_even(E):
    """lam(n/d) = lam((d - n)/d) for every 0 < n < d <= 150: lam has period
    one and lam(-r) = lam(r), the fact that makes the measure even and lets
    mtt_measure mirror each level.  This holds for the plus eigensymbol
    however the space is built, whether by a star constraint on the
    eigensymbol or by the plus quotient, and must hold after either."""
    M = ModularSymbolSpace(E)
    for d in range(2, 151):
        for n in range(1, d):
            assert M.lam_ratio(n, d) == M.lam_ratio(d - n, d), (n, d)


@pytest.mark.parametrize("E", [
    EllipticCurve("14a1", 14, 1, 0, 1, 4, -6),
    EllipticCurve("26a1", 26, 1, 0, 1, -5, -8),
    EllipticCurve("26b1", 26, 1, -1, 1, -3, 3),
], ids=lambda E: E.label)
def test_ap_at_two_is_the_U2_eigenvalue(E):
    """An oracle for a_2 at a multiplicative 2 apart from the point count:
    U_2 on the path from infinity to r, lam(r/2) + lam((r + 1)/2) =
    a_2 lam(r)."""
    M = ModularSymbolSpace(E)
    for r in (Fraction(0), Fraction(1, 3), Fraction(2, 5)):
        assert M.lam(r) and M.lam(r / 2) + M.lam((r + 1) / 2) \
            == ap(E, 2) * M.lam(r)


# sha1(repr(lam_sym))[:12] of twelve curves: every rank-zero and rank-one
# case the sweeps start from must keep its eigensymbol, however the space
# is built
PINNED_DIGESTS = [
    (EllipticCurve("11a1", 11, 0, -1, 1, -10, -20), "b68c9e987161"),
    (EllipticCurve("14a1", 14, 1, 0, 1, 4, -6), "b711798076e6"),
    (EllipticCurve("15a1", 15, 1, 1, 1, -10, -10), "8e63231ea69c"),
    (EllipticCurve("17a1", 17, 1, -1, 1, -1, -14), "4cd28e3a3a14"),
    (EllipticCurve("19a1", 19, 0, 1, 1, -9, -15), "dfa80461a307"),
    (EllipticCurve("21a1", 21, 1, 0, 0, -4, -1), "c68b365fda94"),
    (EllipticCurve("26a1", 26, 1, 0, 1, -5, -8), "820b61762531"),
    (EllipticCurve("27a1", 27, 0, 0, 1, 0, -7), "70836f536080"),
    (EllipticCurve("37a1", 37, 0, 0, 1, -1, 0), "b42c433cbf0d"),
    (EllipticCurve("43a1", 43, 0, 1, 1, 0, 0), "d9806031a690"),
    (EllipticCurve("91a1", 91, 0, 1, 1, -7, 5), "7566ad6c2ca5"),
    (EllipticCurve("170", 170, 1, -1, 0, -10, -10), "974afc203d52"),
]


@pytest.mark.parametrize("E, digest", PINNED_DIGESTS,
                         ids=[E.label for E, _ in PINNED_DIGESTS])
def test_lam_sym_digest_pinned(E, digest):
    lam_sym = ModularSymbolSpace(E).lam_sym
    assert hashlib.sha1(repr(lam_sym).encode()).hexdigest()[:12] == digest


@pytest.mark.parametrize("E", [E for E, _ in PINNED_DIGESTS],
                         ids=[E.label for E, _ in PINNED_DIGESTS])
def test_lam_by_row_is_even_in_d(E):
    """lam_ratio reads (c, d) and (c, -d) from one table: in the plus
    quotient x(c, -d) = x(-c, d) = x(c, d), so the table is invariant under
    d -> -d."""
    M = ModularSymbolSpace(E)
    N, rows = M.N, M._rows
    assert len(rows) == N and all(len(row) == N for row in rows)
    assert all(row[d] == row[-d % N] for row in rows for d in range(N))


@pytest.mark.parametrize("N", [1, 13, 121])
def test_wrong_conductor_raises(N):
    # 11a1's coefficients at a level whose space holds no eigensymbol with
    # its a_ell; at N = 13 the plus quotient is the Eisenstein symbol alone,
    # with eigenvalue ell + 1 != a_ell, which must not pass unchecked
    with pytest.raises(ValueError):
        ModularSymbolSpace(EllipticCurve("11a1", N, 0, -1, 1, -10, -20))


@pytest.mark.parametrize("N", [1, 3, 9, 81])
def test_wrong_additive_conductor_raises(N):
    # 27a1's model has c4 = 0, so load_curve cannot test N at 3; the space
    # holds no eigensymbol (N < 27) or more than one (N = 81)
    with pytest.raises(ValueError):
        ModularSymbolSpace(EllipticCurve("27a1", N, 0, 0, 1, 0, -7))


PRIME_CONDUCTOR = [E for E, _ in PINNED_DIGESTS
                   if E.label in ("11a1", "17a1", "19a1", "37a1", "43a1")]


@pytest.mark.parametrize("E", PRIME_CONDUCTOR,
                         ids=[E.label for E in PRIME_CONDUCTOR])
def test_lam_at_the_inverse_is_minus_lam(E):
    """lam(y/m) = -lam(x/m) for xy = 1 mod m and N | m: g = (x b; m y) lies
    in Gamma_0(N), and g -> {infinity, g infinity} is additive, with
    g^-1 infinity = -y/m.  11a1, 17a1 and 19a1 are split; 37a1 and 43a1
    nonsplit with lam(0) = 0.  Read through lam_ratio only."""
    M = ModularSymbolSpace(E)
    for m in (E.N, E.N ** 2):
        for x in range(1, m):
            if x % E.N:
                assert M.lam_ratio(pow(x, -1, m), m) == -M.lam_ratio(x, m), \
                    (x, m)


def test_lam_at_the_inverse_off_the_level_is_not_minus_lam():
    """The negative control: for 15a1 the identity fails at m = 3, 9, 5
    and 25, which N = 15 does not divide; there lam_units pairs x with
    1/(M x), M = N/p, instead (test_lam_at_the_inverse_of_M_x_is_eps_lam)."""
    M = ModularSymbolSpace(E15)
    bad = {m: sum(M.lam_ratio(pow(x, -1, m), m) != -M.lam_ratio(x, m)
                  for x in range(1, m) if gcd(x, m) == 1)
           for m in (3, 9, 5, 25)}
    assert bad == {3: 2, 9: 6, 5: 4, 25: 20}


CURVES = {E.label: E for E, _ in PINNED_DIGESTS} | {
    "26b1": EllipticCurve("26b1", 26, 1, -1, 1, -3, 3)}
# every pinned curve with an odd p || N and N/p > 1, all squarefree
FE_PAIRS = [("14a1", 7), ("15a1", 3), ("15a1", 5), ("21a1", 3), ("21a1", 7),
            ("26a1", 13), ("26b1", 13), ("91a1", 7), ("91a1", 13),
            ("170", 5), ("170", 17)]


def _fe_mismatches(M, p, m, eps):
    """The units x mod m with lam(y/m) != eps lam(x/m), y = 1/(M x) mod m,
    M = N/p; read through lam_ratio only."""
    q = M.N // p
    return [x for x in range(1, m) if x % p and
            M.lam_ratio(pow(q * x, -1, m), m) != eps * M.lam_ratio(x, m)]


@pytest.mark.parametrize("label, p", FE_PAIRS,
                         ids=[f"{label}@{p}" for label, p in FE_PAIRS])
def test_lam_at_the_inverse_of_M_x_is_eps_lam(label, p):
    """The p-adic functional equation of Mazur, Tate and Teitelbaum at
    p || N: lam(y/m) = eps lam(x/m) for y = 1/(M x) mod m, m = p^n, with
    eps = -w_M = -prod over l | M of (-a_l) for squarefree M = N/p.  The
    opposite sign fails at m = p^2 and p^3 (at m = p both signs can hold:
    21a1 at 3)."""
    E = CURVES[label]
    M, q = ModularSymbolSpace(E), E.N // p
    eps = -1
    for ell in range(2, q + 1):
        if q % ell == 0 and all(ell % d for d in range(2, ell)):
            eps *= -ap(E, ell)
    for m in (p, p ** 2, p ** 3):
        assert _fe_mismatches(M, p, m, eps) == [], (m, eps)
        if m > p:
            assert _fe_mismatches(M, p, m, -eps), (m, -eps)


@pytest.mark.parametrize("E", [E for E, _ in PINNED_DIGESTS],
                         ids=[E.label for E, _ in PINNED_DIGESTS])
def test_lam_units_matches_lam_ratio(E):
    # m = p^k for odd p dividing N (paired when N | m) and for 3, 5 and 7
    M = ModularSymbolSpace(E)
    primes = {p for p in range(3, E.N + 1, 2)
              if E.N % p == 0 and all(p % d for d in range(2, p))}
    for p in primes | {3, 5, 7}:
        for k in range(1, 5):
            m = p ** k
            if m > max(E.N ** 2, 400):
                break
            assert M.lam_units(m, p) == [M.lam_ratio(x, m) if x % p else 0
                                         for x in range((m + 1) // 2)], (p, m)
