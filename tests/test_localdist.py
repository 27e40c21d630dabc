import cmath
import random
from fractions import Fraction

import pytest

from exczero.characters import (
    Quasicharacter, all_primitive_characters, euler_factor, gauss_sum, local_L,
    primitive_root, sqrt_q,
)
from exczero.cyclotomic import Cyclotomic
from exczero.localdist import (
    mellin_mu_alpha, mellin_target, shell_integral, unit_psi_chi_integral,
)


def test_unit_psi_integral_cases():
    # int_U psi(a x) d*x = 1, -1/(q-1), 0 as ord(a) is >= 0, = -1, <= -2
    for p in (2, 3, 7):
        triv = Quasicharacter(p)
        assert unit_psi_chi_integral(triv, 1) == 1
        assert unit_psi_chi_integral(triv, Fraction(3 if p != 3 else 5)) == 1
        assert unit_psi_chi_integral(triv, Fraction(1, p)) == Fraction(-1, p - 1)
        assert unit_psi_chi_integral(triv, Fraction(p + 1, p ** 2)) == 0
        assert unit_psi_chi_integral(triv, Fraction(1, p ** 3)) == 0


def test_ramified_shifted_integral_vanishes():
    # int_U psi(ax) chi(x) d*x = 0 for ramified chi unless ord(a) = -f
    rng = random.Random(113)
    checked = 0
    for p, f in [(3, 1), (5, 1), (3, 2), (7, 1)]:
        chars = all_primitive_characters(p, f)
        for _ in range(13):
            chi = rng.choice(chars)
            k = rng.choice([v for v in range(-f - 2, 3) if v != -f])
            u = rng.choice([1, 2, p + 1, 2 * p + 1])
            a = Fraction(u) * Fraction(p) ** k
            assert unit_psi_chi_integral(chi, a) == 0, (p, f, a)
            checked += 1
    assert checked >= 50


def test_mellin_trivial_alpha_one_vanishes():
    assert mellin_mu_alpha(Quasicharacter(3), 1).value == 0
    assert mellin_target(Quasicharacter(3), 1) == 0


def test_mellin_alpha_minus_one():
    # p = 5, chi trivial: target = 2 * L(1/2, pi_{-1}) = 2 * 5/6 = 5/3
    chi = Quasicharacter(5)
    assert mellin_target(chi, -1) == Fraction(5, 3)
    assert mellin_mu_alpha(chi, -1).value == Fraction(5, 3)


def test_mellin_float_alpha():
    # alpha = sqrt(5), unramified chi with t = 2, where the shells shrink by
    # |t alpha| / q = 2 / sqrt(5) only: the exact target, and as a complex
    # number the target's complex value
    chi = Quasicharacter(5, t=Fraction(2))
    alpha = sqrt_q(5)
    res = mellin_mu_alpha(chi, alpha)
    assert res.value == mellin_target(chi, alpha)
    assert abs(complex(res.value)
               - mellin_target(chi, alpha).to_complex()) <= 1e-8


def test_mellin_exact_at_sqrt_alpha():
    # alpha = sqrt(5), unramified chi at t = 1: the exact target
    chi = Quasicharacter(5)
    alpha = sqrt_q(5)
    res = mellin_mu_alpha(chi, alpha)
    assert isinstance(res.value, Cyclotomic)
    assert res.value == mellin_target(chi, alpha)


def test_mellin_ramified_is_exact():
    for p in (3, 5):
        for chi in all_primitive_characters(p, 1)[:3]:
            for alpha in (1, -1):
                res = mellin_mu_alpha(chi, alpha)
                assert res.value == mellin_target(chi, alpha)


def test_exact_mellin_is_the_sum_of_its_shells():
    # the whole integral against the shell_integral terms n_min..6 plus the
    # shells beyond, u_0 s^n each, for ramified and unramified chi, t and
    # alpha off +-1
    for p, f in ((3, 1), (5, 1), (3, 2), (5, 0), (7, 0)):
        chars = (all_primitive_characters(p, f) if f
                 else [Quasicharacter(p, t=t) for t in (1, 2, Fraction(1, 3))])
        for chi in chars[:4]:
            for alpha in (1, -1, 2, Fraction(1, 2), Fraction(-3, 2)):
                if abs(chi.t.to_complex()) * abs(alpha) >= p:
                    continue
                res = mellin_mu_alpha(chi, alpha)
                scale, s = Fraction(p - 1, p), chi.t * alpha * Fraction(1, p)
                ref = shell_integral(chi, alpha, 0) * scale * s ** 7 / (1 - s)
                for n in range(res.n_min, 7):
                    ref = ref + shell_integral(chi, alpha, n) \
                        * scale * Fraction(p) ** -n
                assert res.value == ref, (p, f, alpha)


def test_mellin_divergence_guard():
    with pytest.raises(ValueError):
        mellin_mu_alpha(Quasicharacter(3, t=Fraction(4)), 1)


def test_mellin_keywords_do_not_change_the_value():
    # n_max only reports the shells, and there is no float mode
    chi = all_primitive_characters(5, 1)[1]
    for n_max in (0, 8, 40):
        res = mellin_mu_alpha(chi, -1, n_max=n_max, exact=True)
        assert res.value == mellin_target(chi, -1)
        assert (res.n_min, res.n_max) == (-3, n_max)
    with pytest.raises(ValueError):
        mellin_mu_alpha(chi, -1, exact=False)


def test_mellin_equals_target_on_the_grid():
    # every primitive chi mod 3, 5, 7, 9, 11, 13 and 25 and the trivial one
    # at each p, at t in {1, 2, -1/2} and alpha in {1, -1, sqrt(p)}: 480
    # convergent cases, and the 6 with |t alpha| >= p raise
    checked = 0
    for p, fs in ((3, (1, 2)), (5, (1, 2)), (7, (1,)), (11, (1,)),
                  (13, (1,))):
        chars = [Quasicharacter(p)]
        for f in fs:
            chars += all_primitive_characters(p, f)
        for base in chars:
            for t in (1, 2, Fraction(-1, 2)):
                chi = Quasicharacter(p, base.f, base.k, t)
                for alpha in (1, -1, sqrt_q(p)):
                    if abs(t) * abs(complex(alpha)) >= p:
                        with pytest.raises(ValueError):
                            mellin_mu_alpha(chi, alpha)
                        continue
                    assert mellin_mu_alpha(chi, alpha).value \
                        == mellin_target(chi, alpha), (p, base.k, t, alpha)
                    checked += 1
    assert checked == 480


def test_shell_integral_matches_closed_form_assembly():
    # assembling shells reproduces the unramified closed form coefficientwise
    chi = Quasicharacter(7, t=Fraction(3))
    val = shell_integral(chi, 1, -1)
    assert val == Fraction(-1, 6) * (chi.t ** (-1))


def _interpolation_reference(p, k, alpha):
    """tau(chi) e(alpha, chi) L(1/2, pi_alpha x chi) by cmath alone, for
    chi(g^j) = exp(2 pi i k j / (p - 1)) with chi(p) = 1 (k = 0: trivial).

    tau is the sum of psi(u / p) chi(u) with psi(x) = exp(2 pi i x).  For
    ramified chi, e = alpha^-1 and L = 1; for trivial chi, e = (1 - 1/alpha)^2
    and L = 1 / ((1 - 1/alpha)(1 - alpha/p))."""
    if k == 0:
        return (1 - 1 / alpha) ** 2 / ((1 - 1 / alpha) * (1 - alpha / p))
    g = primitive_root(p)
    tau, u = 0j, 1
    for j in range(p - 1):
        tau += cmath.exp(2j * cmath.pi * (u / p + k * j / (p - 1)))
        u = u * g % p
    return tau / alpha


def test_sqrt_targets_match_cmath_reference():
    # criterion 3's full pool: the trivial and every primitive character
    # mod p = 3, 5, at alpha = sqrt(p)
    for p in (3, 5):
        alpha = sqrt_q(p)
        for k in range(p - 1):
            chi = Quasicharacter(p, 1, k)   # k = 0: the trivial character
            target = mellin_target(chi, alpha)
            assert isinstance(target, Cyclotomic)
            assert abs(target.to_complex()
                       - _interpolation_reference(p, k, p ** 0.5)) <= 1e-12


def test_target_is_the_factored_product():
    # the cancelled quotient equals tau(chi) e(alpha, chi) L(1/2, pi_alpha x
    # chi) off the pole chi(p) = alpha: every case of full criterion 3, and
    # the trivial character at t in {2, -1/2, 1/3}, alpha in {1, -1, 2, sqrt}
    for p in (3, 5):
        cases = [(chi, alpha) for alpha in (1, -1, sqrt_q(p))
                 for chi in [Quasicharacter(p)]
                 + all_primitive_characters(p, 1)]
        cases += [(Quasicharacter(p, t=t), alpha)
                  for t in (2, Fraction(-1, 2), Fraction(1, 3))
                  for alpha in (1, -1, 2, sqrt_q(p)) if t != alpha]
        for chi, alpha in cases:
            assert mellin_target(chi, alpha) == gauss_sum(chi) \
                * euler_factor(alpha, chi) * local_L(alpha, chi), (chi, alpha)
