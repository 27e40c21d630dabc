import os
from fractions import Fraction

import pytest

from exczero.curves import (
    EllipticCurve, ap, j_of_q, l_invariant, load_curve, reduction_type,
    tate_period,
)
from exczero.padic import log_iwasawa, ord_p

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)
E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)


def test_load_curve():
    E = load_curve(os.path.join(DATA, "11a1.txt"))
    assert E == E11
    assert load_curve(os.path.join(DATA, "15a1.txt")) == E15


@pytest.mark.parametrize("line, ok", [
    ("91a1 91 0 1 1 -7 5", True),
    ("14a1 14 1 0 1 4 -6", True),     # 2 and 7 multiplicative
    ("27a1 27 0 0 1 0 -7", True),     # 3 additive: divides c4 and N^3
    ("170 170 1 -1 0 -10 -10", True),
    ("11a1 11 0 -1 1 -10 -20 extra", True),
    ("11a1 -11 0 -1 1 -10 -20", False),
    ("11a1 0 0 -1 1 -10 -20", False),
    ("11a1 1 0 -1 1 -10 -20", False),    # 11 | Delta, 11 does not divide N
    ("11a1 13 0 -1 1 -10 -20", False),   # 13 does not divide Delta
    ("11a1 22 0 -1 1 -10 -20", False),
    ("11a1 121 0 -1 1 -10 -20", False),  # multiplicative at 11: once only
    ("27a1 243 0 0 1 0 -7", False),      # can be 3^5, but past the desk cap
    (f"27a1 {3 ** 60} 0 0 1 0 -7", False),  # no trial division up to 3^30
    ("y2=x3 1 0 0 0 0 0", False),        # singular
    ("11a1 11 0 -1 1 -10", False),
    pytest.param("", False, id="empty-False"),
])
def test_load_curve_checks_the_conductor(line, ok, tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text(line + "\n")
    if ok:
        assert load_curve(path).N == int(line.split()[1])
    else:
        with pytest.raises(ValueError):
            load_curve(path)


def test_invariants_11a1():
    assert E11.discriminant == -11 ** 5
    assert E11.c4 == 496
    assert E11.j == Fraction(-496 ** 3, 11 ** 5)
    assert ord_p(E11.j, 11) == -5


def test_reduction_types():
    assert reduction_type(E11, 11) == "split"
    assert reduction_type(E11, 7) == "good"
    assert reduction_type(E15, 3) == "nonsplit"
    assert reduction_type(E15, 5) == "split"


def test_ap_11a1():
    # q-expansion of the weight-2 level-11 newform
    known = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 11: 1,
             17: -2, 19: 0, 23: -1, 29: 0, 31: 7, 37: 3, 41: -8, 43: -6,
             47: 8, 53: -6, 59: 5, 61: 12, 67: -7, 71: -3}
    for ell, a in known.items():
        assert ap(E11, ell) == a, ell


def test_ap_15a1():
    known = {2: -1, 3: -1, 5: 1, 7: 0, 11: -4, 13: -2, 17: 2, 19: 4, 23: 0}
    for ell, a in known.items():
        assert ap(E15, ell) == a, ell


def test_hasse_bound():
    for ell in (2, 3, 5, 7, 13, 17, 19, 23):
        a = ap(E11, ell)
        assert a * a <= 4 * ell


def test_tate_period_leading_term():
    q = tate_period(E11, 11, prec=12)
    assert q.val == 5
    # q = 1/j + higher order: leading coefficient matches
    lead = Fraction(1, E11.j)
    assert (q - lead).val >= 10


def test_tate_period_roundtrip():
    jq = j_of_q(E11, 11, prec=12)
    diff = jq - E11.j
    assert ord_p(diff, 11) >= 12 - 5


def test_l_invariant_11a1():
    L = l_invariant(E11, 11, prec=12)
    q = tate_period(E11, 11, prec=12)
    assert L * 5 == log_iwasawa(q)
    assert L.val >= 1  # log of a principal-unit-times-power is divisible by p


def test_l_invariant_requires_split():
    with pytest.raises(AssertionError):
        l_invariant(E15, 3)
    L = l_invariant(E15, 5, prec=10)
    assert not L.is_zero or L.val >= 9


def _divisor_sum(n, r):
    return sum(d ** r for d in range(1, n + 1) if n % d == 0)


def _series_product(a, b, K):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(K + 1)]


def _q_times_j(K):
    """Integer coefficients w_0..w_K of q j(q) = E4^3 / (Delta / q), with
    Delta from 1728 Delta = E4^3 - E6^2 (not from the eta product)."""
    e4 = [1] + [240 * _divisor_sum(n, 3) for n in range(1, K + 2)]
    e6 = [1] + [-504 * _divisor_sum(n, 5) for n in range(1, K + 2)]
    e4_cubed = _series_product(_series_product(e4, e4, K + 1), e4, K + 1)
    e6_squared = _series_product(e6, e6, K + 1)
    delta = [(x - y) // 1728 for x, y in zip(e4_cubed, e6_squared)]
    assert delta[:3] == [0, 1, -24]
    inv = [1] + [0] * K  # 1 / (Delta / q), whose constant term is 1
    for k in range(1, K + 1):
        inv[k] = -sum(delta[i + 1] * inv[k - i] for i in range(1, k + 1))
    return _series_product(e4_cubed, inv, K)


def _tate_period_mod(j, p, digits):
    """q_E mod p^digits by Newton's method on F(q) = q j(q) / j - q in the
    integers mod p^digits: 1 / j and q lie in p^m Z_p (m = -ord_p(j)), so
    q^k vanishes for k > digits / m, and F'(q) = -1 mod p."""
    m, M = -ord_p(j, p), p ** digits
    w = _q_times_j(digits // m + 1)
    assert w[:3] == [1, 744, 196884]
    t = j.denominator * pow(j.numerator, -1, M) % M

    def value_and_slope(q):
        val = slope = 0
        for c in reversed(w):
            slope = (slope * q + val) % M
            val = (val * q + c) % M
        return (t * val - q) % M, (t * slope - 1) % M

    q = t
    for _ in range(digits):
        f, df = value_and_slope(q)
        if f == 0:
            return q
        q = (q - f * pow(df, -1, M)) % M
    raise AssertionError("Newton's method did not converge")


@pytest.mark.parametrize("E, p", [(E11, 11), (E15, 5), (E15, 3)])
@pytest.mark.parametrize("prec", [20, 41, 60])
def test_tate_period_claimed_digits_are_correct(E, p, prec):
    q = tate_period(E, p, prec)
    assert q.val == -ord_p(E.j, p) and q.abs_prec >= prec
    ref = _tate_period_mod(E.j, p, q.abs_prec + 5)
    assert q.residue_mod(q.abs_prec) == ref % p ** q.abs_prec
