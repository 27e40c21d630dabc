import cmath
import random
from fractions import Fraction

import pytest

from exczero.balls import Ball, BallFunction, MultBall, P1Piece
from exczero.characters import (
    all_primitive_characters, character_from_log, primitive_root, sqrt_q,
    trivial_character,
)
from exczero.cyclotomic import Cyclotomic
from exczero.localdist import (
    integrate_mu_alpha, mellin_mu_alpha, mellin_target, mu_alpha_ball,
    psi_ball_integral, shell_integral, unit_psi_chi_integral, whittaker_value,
)
from exczero.steinberg import EllSpec, z_ell
from exczero.treerep import whittaker_steinberg

def test_mu_one_basic_balls():
    p = 5
    assert mu_alpha_ball(1, Ball(p, Fraction(0), 0)) == 1
    assert mu_alpha_ball(1, Ball(p, Fraction(0), -1)) == 0
    for x in (Fraction(1), Fraction(5), Fraction(50), Fraction(3)):
        # mu_1(x Z_p) = |x|_p for integral x
        from exczero.padic import ord_p
        v = ord_p(x, p)
        assert mu_alpha_ball(1, Ball(p, Fraction(0), v)) == Fraction(1, p ** v)


def test_unit_psi_integral_cases():
    # int_U psi(a x) d*x = 1, -1/(q-1), 0 as ord(a) is >= 0, = -1, <= -2
    for p in (2, 3, 7):
        triv = trivial_character(p)
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


def test_mu_alpha_units():
    # mu_alpha(U) = (1 - 1/p) for every alpha (chi_alpha = 1 on units)
    for p in (3, 5):
        for alpha in (Fraction(1), Fraction(-1), Fraction(2)):
            got = mu_alpha_ball(alpha, MultBall(p, Fraction(1), 0))
            assert got == Fraction(p - 1, p)


def test_mu_alpha_scaling_inside_Zp():
    # where psi is trivial (pieces inside Z_p) mu_alpha is chi_alpha times
    # Haar measure, so mu_alpha(p^k B) = alpha^k q^{-k} mu_alpha(B)
    p = 3
    B = MultBall(p, Fraction(2), 1)
    for alpha in (Fraction(-1), Fraction(2), Fraction(1, 2)):
        base = mu_alpha_ball(alpha, B)
        for k in (1, 2, 3):
            got = mu_alpha_ball(alpha, B.scale(Fraction(p) ** k))
            assert got == Fraction(alpha) ** k * Fraction(p) ** (-k) * base


def test_composition_with_steinberg_cocycle():
    # z_ord(p) is the indicator of pZ_p; mu_1 gives 1/p
    p = 5
    z = z_ell(p, EllSpec("ord", p))
    pieces = []
    for region, const, weight in z.pieces:
        rep = region.center if isinstance(region, Ball) else region.a
        from exczero.padic import ord_p
        coeff = const + weight * (ord_p(rep, p) if weight else 0)
        if coeff:
            pieces.append((region, coeff))
    f = BallFunction(p, pieces)
    assert integrate_mu_alpha(f, 1) == Fraction(1, p)


def test_refinement_additivity():
    rng = random.Random(127)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        # additive refinement for alpha = 1
        b = Ball(p, Fraction(rng.randint(0, 8)), rng.randint(-1, 2))
        kids = sum((mu_alpha_ball(1, c) for c in b.children()), 0)
        assert kids == mu_alpha_ball(1, b)
        # multiplicative refinement aU^(n) = union of a(1 + c p^n) U^(n+1)
        alpha = rng.choice([Fraction(-1), Fraction(2), Fraction(1, 3)])
        n = rng.randint(1, 2)
        a = Fraction(rng.choice([1, 2, p + 1])) * Fraction(p) ** rng.randint(-2, 2)
        mb = MultBall(p, a, n)
        parts = [MultBall(p, a * (1 + c * Fraction(p) ** n), n + 1) for c in range(p)]
        total = sum((mu_alpha_ball(alpha, q) for q in parts), 0)
        assert total == mu_alpha_ball(alpha, mb)


def test_mellin_trivial_alpha_one_vanishes():
    res = mellin_mu_alpha(trivial_character(3), 1, n_max=40)
    assert abs(complex(res.value)) <= 1e-8
    assert mellin_target(trivial_character(3), 1) == 0


def test_mellin_alpha_minus_one():
    # p = 5, chi trivial: target = 2 * L(1/2, pi_{-1}) = 2 * 5/6 = 5/3
    chi = trivial_character(5)
    res = mellin_mu_alpha(chi, -1, n_max=40)
    assert mellin_target(chi, -1) == Fraction(5, 3)
    assert abs(complex(res.value) - 5 / 3) <= 1e-8


def test_mellin_float_alpha():
    # alpha = sqrt(5), unramified chi with t = 2, summed in float mode
    chi = trivial_character(5, t=Fraction(2))
    alpha = sqrt_q(5)
    # ratio |t alpha|/q = 2/sqrt(5) converges slowly; 220 shells suffice
    res = mellin_mu_alpha(chi, alpha, n_max=220, exact=False)
    assert res.tail_bound < 1e-8
    assert abs(res.value - mellin_target(chi, alpha).to_complex()) <= 1e-8


def test_mellin_exact_at_sqrt_alpha():
    # the exact shell sum at alpha = sqrt(5), t = 1: within its tail bound
    # of the exact target, and equal to the float-mode sum
    chi = trivial_character(5)
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
                 else [trivial_character(p, t) for t in (1, 2, Fraction(1, 3))])
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
        mellin_mu_alpha(trivial_character(3, t=Fraction(4)), 1)


def test_mellin_tail_bound_is_honest():
    chi = trivial_character(5, t=Fraction(2))
    for alpha in (-1, sqrt_q(5)):
        short = mellin_mu_alpha(chi, alpha, n_max=20)
        long = mellin_mu_alpha(chi, alpha, n_max=40)
        diff = abs(complex(short.value) - complex(long.value))
        assert diff <= short.tail_bound


def test_whittaker_diagonal_values():
    p = 5
    f = BallFunction.indicator(Ball(p, Fraction(0), 0))
    assert whittaker_value(f, 1, 1) == 1
    u = BallFunction.indicator(MultBall(p, Fraction(1), 0))
    # int_{p^k U} psi dx: (1 - 1/q) q^{-k} for k >= 0, -1 at k = -1, 0 below
    assert whittaker_value(u, 1, Fraction(p)) == Fraction(p - 1, p * p)
    assert whittaker_value(u, 1, Fraction(1, p)) == -1
    assert whittaker_value(u, 1, Fraction(1, p * p)) == 0


def test_whittaker_coset_summation_identity():
    # int f d mu_alpha = [U:H] int f(x) W_H(x) d*x for H = U^(1) and f
    # constant on H-cosets; both sides computed independently
    p = 3
    H = MultBall(p, Fraction(1), 1)
    WH = BallFunction.indicator(H)
    vol = H.mult_measure()
    index = (p - 1)
    for alpha in (Fraction(1), Fraction(-1), Fraction(2)):
        reps = [Fraction(u) * Fraction(p) ** k for u in (1, 2) for k in (-1, 0, 1)]
        coeffs = {a: Fraction(random.Random(131).randint(-3, 3)) for a in reps}
        f = BallFunction(p, [(MultBall(p, a, 1), c) for a, c in coeffs.items()])
        lhs = integrate_mu_alpha(f, alpha)
        rhs = 0
        for a, c in coeffs.items():
            rhs = rhs + c * vol * index * whittaker_value(WH, alpha, a)
        assert lhs == rhs


def test_delta_alpha_compatibility_alpha_one():
    # the Steinberg Whittaker functional agrees with mu_1 on ball functions
    rng = random.Random(137)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        balls = [Ball(p, Fraction(rng.randint(0, 10)), rng.randint(-1, 2))
                 for _ in range(3)]
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in balls]
        f = BallFunction(p, list(zip(balls, coeffs)))
        via_tree = whittaker_steinberg([(P1Piece(b), c) for b, c in zip(balls, coeffs)])
        assert via_tree == integrate_mu_alpha(f, 1)


def test_shell_integral_matches_closed_form_assembly():
    # assembling shells reproduces the unramified closed form coefficientwise
    chi = trivial_character(7, t=Fraction(3))
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
    g = primitive_root(p, 1)
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
            chi = character_from_log(p, 1, k) if k else trivial_character(p)
            target = mellin_target(chi, alpha)
            assert isinstance(target, Cyclotomic)
            assert abs(target.to_complex()
                       - _interpolation_reference(p, k, p ** 0.5)) <= 1e-12
