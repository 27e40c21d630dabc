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
        if p1.reduce((c, d)) is None:
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


def test_manin_relations_hold(M11):
    # lam extends to symbols killed by the two- and three-term relations
    p1 = M11.p1
    lam = M11.lam_sym
    for c, d in p1:
        assert lam[p1.index((c, d))] + lam[p1.index((d, -c))] == 0
        three = (lam[p1.index((c, d))] + lam[p1.index((d, -c - d))]
                 + lam[p1.index((-c - d, c))])
        assert three == 0


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
