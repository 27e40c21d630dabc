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
