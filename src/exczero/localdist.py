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
    """Truncated shell sum for int chi d mu_alpha with dx = (1-1/q)|x| d*x,
    in exact cyclotomic arithmetic or, with exact=False, as a complex float
    sum over the exact unit integrals.

    Shells below -(f+2) vanish exactly (the shifted unit integrals are zero
    there, tested separately); the positive tail is geometric with ratio
    |chi(p) alpha| / q < 1, and the reported bound covers it."""
    q = chi.p
    r = (abs(complex(chi.t)) * abs(complex(alpha))) / q
    if r >= 1:
        raise ValueError("divergent: |chi(p) alpha| >= q")
    n_min = -(chi.f + 2)
    scale = Fraction(q - 1, q)
    # psi is trivial on Z_p, so every shell with n >= 0 has the unit
    # integral at a = 1; each shell below 0 has its own
    units = [unit_psi_chi_integral(chi, Fraction(q) ** n)
             for n in range(n_min, 1)]
    if not exact:
        units = [complex(u) for u in units]
    shells = [(n, units[min(n, 0) - n_min]) for n in range(n_min, n_max + 1)]
    if exact:
        step = chi.t * alpha * Fraction(1, q)   # the shell factor's ratio
        factor, total = step ** n_min * scale, Cyclotomic.from_rational(0)
        for _, unit in shells:
            total, factor = total + unit * factor, factor * step
    else:
        # the shell factor (chi(p) alpha / q)^n as a complex float
        ratio = complex(chi.t * alpha) / q
        total = float(scale) * sum(ratio ** n * unit for n, unit in shells)
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
