"""The local distributions mu_alpha = psi(x) chi_alpha(x) dx on Q_p^*
(on Q_p for alpha = 1): exact integration of ball functions, shell-sum
Mellin transforms with a rigorous tail bound, and diagonal Whittaker
values."""

from collections import namedtuple
from fractions import Fraction

from .balls import Ball, MultBall
from .characters import (
    AdditiveCharacterPsi, euler_factor, gauss_sum, local_L,
    unit_psi_chi_integral,
)
from .cyclotomic import Cyclotomic, as_cyclotomic
from .padic import ord_p

__all__ = [
    "psi_ball_integral", "mu_alpha_ball", "integrate_mu_alpha",
    "unit_psi_chi_integral", "shell_integral", "mellin_mu_alpha",
    "MellinResult", "mellin_target", "whittaker_value",
]


def psi_ball_integral(ball):
    """int over a + p^k O of psi(x) dx: p^{-k} psi(a) if k >= 0, else 0
    (psi is nontrivial on p^{-1}O/O, so deeper balls cancel exactly)."""
    if ball.depth < 0:
        return Cyclotomic.from_rational(0)
    return ball.haar_measure() * AdditiveCharacterPsi(ball.p)(ball.center)


def mu_alpha_ball(alpha, piece):
    """mu_alpha of a basic piece: an additive Ball (alpha = 1, or a ball of
    constant valuation) or a multiplicative coset aU^(n)."""
    alpha = as_cyclotomic(alpha)
    p = piece.p
    if isinstance(piece, Ball):
        if alpha == 1:
            return psi_ball_integral(piece)
        v = ord_p(piece.center, p) if piece.center != 0 else None
        assert v is not None and v < piece.depth, \
            "chi_alpha is not constant on a ball containing 0"
        return alpha ** v * psi_ball_integral(piece)
    assert isinstance(piece, MultBall)
    total = Cyclotomic.from_rational(0)
    for b in piece.additive_pieces():
        total = total + psi_ball_integral(b)
    return alpha ** piece.val * total


def integrate_mu_alpha(f, alpha):
    """Linear extension of mu_alpha_ball over the pieces of a BallFunction."""
    total = Cyclotomic.from_rational(0)
    for piece, coeff in f.pieces:
        total = total + coeff * mu_alpha_ball(alpha, piece)
    return total


def shell_integral(chi, alpha, n):
    """int over p^n U of chi(x) chi_alpha(x) psi(x) d*x."""
    return (chi.t * alpha) ** n \
        * unit_psi_chi_integral(chi, Fraction(chi.p) ** n)


# value is a Cyclotomic, or a complex for the float sum
MellinResult = namedtuple("MellinResult", "value tail_bound n_min n_max")


def mellin_mu_alpha(chi, alpha, n_max=40, *, exact=True):
    """Truncated shell sum for int chi d mu_alpha with dx = (1-1/q)|x| d*x:
    (1 - 1/q) sum u_n s^n over n_min = -(f+2) <= n <= n_max, s = chi(p)
    alpha / q, u_n the unit integral at a = p^n (zero below n_min, tested
    separately; u_n = u_0 for n >= 0, as psi is trivial on Z_p).  Exactly,
    it is u_n s^n for each n < 0 with u_n != 0 (n = -f for ramified chi),
    plus u_0 (1 + s + ... + s^n_max), by Horner on s, if u_0 != 0: one
    product at u_n's level per nonzero shell.  With exact=False it is a
    complex float sum over the exact u_n.  The tail n > n_max is geometric
    with ratio |s| < 1, and the reported bound covers it."""
    assert n_max >= 0, "every shell n >= 0 up to n_max is summed"
    q = chi.p
    r = (abs(complex(chi.t)) * abs(complex(alpha))) / q
    if r >= 1:
        raise ValueError("divergent: |chi(p) alpha| >= q")
    n_min = -(chi.f + 2)
    scale = Fraction(q - 1, q)
    units = [unit_psi_chi_integral(chi, Fraction(q) ** n)
             for n in range(n_min, 1)]
    if exact:
        s = chi.t * alpha * Fraction(1, q)
        total, geometric = Cyclotomic.from_rational(0), scale
        for n, unit in zip(range(n_min, 0), units):
            if unit:
                total = total + unit * (scale * s ** n)
        if units[-1]:
            for _ in range(n_max):
                geometric = scale + s * geometric
            total = total + units[-1] * geometric
    else:
        # the shell factor (chi(p) alpha / q)^n as a complex float
        ratio, units = complex(chi.t * alpha) / q, [complex(u) for u in units]
        total = float(scale) * sum(ratio ** n * units[min(n, 0) - n_min]
                                   for n in range(n_min, n_max + 1))
    tail = float(scale) * r ** (n_max + 1) / (1 - r)
    return MellinResult(total, tail, n_min, n_max)


def mellin_target(chi, alpha):
    """The closed-form target tau(chi) e(alpha, chi) L(1/2, pi_alpha x chi)."""
    return gauss_sum(chi) * euler_factor(alpha, chi) \
        * local_L(alpha, chi)


def whittaker_value(f, alpha, a):
    """The diagonal Whittaker value: int (a.f) d mu_alpha with
    (a.f)(x) = f(a^{-1} x)."""
    return integrate_mu_alpha(f.act(a), alpha)
