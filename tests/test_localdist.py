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
    res = mellin_mu_alpha(Quasicharacter(3), 1, n_max=40)
    assert abs(complex(res.value)) <= 1e-8
    assert mellin_target(Quasicharacter(3), 1) == 0


def test_mellin_alpha_minus_one():
    # p = 5, chi trivial: target = 2 * L(1/2, pi_{-1}) = 2 * 5/6 = 5/3
    chi = Quasicharacter(5)
    res = mellin_mu_alpha(chi, -1, n_max=40)
    assert mellin_target(chi, -1) == Fraction(5, 3)
    assert abs(complex(res.value) - 5 / 3) <= 1e-8


def test_mellin_float_alpha():
    # alpha = sqrt(5), unramified chi with t = 2, summed in float mode
    chi = Quasicharacter(5, t=Fraction(2))
    alpha = sqrt_q(5)
    # ratio |t alpha|/q = 2/sqrt(5) converges slowly; 220 shells suffice
    res = mellin_mu_alpha(chi, alpha, n_max=220, exact=False)
    assert res.tail_bound < 1e-8
    assert abs(res.value - mellin_target(chi, alpha).to_complex()) <= 1e-8


def test_mellin_exact_at_sqrt_alpha():
    # the exact shell sum at alpha = sqrt(5), t = 1: within its tail bound
    # of the exact target, and equal to the float-mode sum
    chi = Quasicharacter(5)
    alpha = sqrt_q(5)
    res = mellin_mu_alpha(chi, alpha, n_max=40)
    assert isinstance(res.value, Cyclotomic)
    target = mellin_target(chi, alpha)
    assert abs(complex(res.value) - complex(target)) <= res.tail_bound + 1e-12
    approx = mellin_mu_alpha(chi, alpha, n_max=40, exact=False)
    assert abs(complex(res.value) - approx.value) <= 1e-12


def test_mellin_ramified_is_exact():
    for p in (3, 5):
        for chi in all_primitive_characters(p, 1)[:3]:
            for alpha in (1, -1):
                res = mellin_mu_alpha(chi, alpha, n_max=6)
                assert res.value == mellin_target(chi, alpha)


def test_exact_mellin_is_the_sum_of_its_shells():
    # the exact shell sum against a term-by-term reference built from
    # shell_integral, for ramified and unramified chi, t and alpha off +-1
    for p, f in ((3, 1), (5, 1), (3, 2), (5, 0), (7, 0)):
        chars = (all_primitive_characters(p, f) if f
                 else [Quasicharacter(p, t=t) for t in (1, 2, Fraction(1, 3))])
        for chi in chars[:4]:
            for alpha in (1, -1, 2, Fraction(1, 2), Fraction(-3, 2)):
                if abs(chi.t.to_complex()) * abs(alpha) >= p:
                    continue
                res = mellin_mu_alpha(chi, alpha, n_max=6)
                ref = 0
                for n in range(res.n_min, 7):
                    ref = ref + shell_integral(chi, alpha, n) \
                        * Fraction(p - 1, p) * Fraction(p) ** -n
                assert res.value == ref, (p, f, alpha)


def test_mellin_divergence_guard():
    with pytest.raises(ValueError):
        mellin_mu_alpha(Quasicharacter(3, t=Fraction(4)), 1)


def test_mellin_tail_bound_is_honest():
    chi = Quasicharacter(5, t=Fraction(2))
    for alpha in (-1, sqrt_q(5)):
        short = mellin_mu_alpha(chi, alpha, n_max=20)
        long = mellin_mu_alpha(chi, alpha, n_max=40)
        diff = abs(complex(short.value) - complex(long.value))
        assert diff <= short.tail_bound


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
