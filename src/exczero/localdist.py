"""The local distributions mu_alpha = psi(x) chi_alpha(x) dx on Q_p^*
(on Q_p for alpha = 1), integrated against a quasicharacter chi: the
shell-sum Mellin transform, exact or in floats, with a rigorous tail bound,
one shell of it, and the closed-form target it interpolates."""

from collections import namedtuple
from fractions import Fraction

from .characters import euler_factor, gauss_sum, unit_psi_chi_integral
from .cyclotomic import Cyclotomic

__all__ = [
    "unit_psi_chi_integral", "shell_integral", "mellin_mu_alpha",
    "MellinResult", "mellin_target",
]


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
    """The closed-form target tau(chi) e(alpha, chi) L(1/2, pi_alpha x chi):
    tau(chi) alpha^-f for ramified chi; for unramified chi the zero 1 - t/alpha
    of e, at t = alpha, cancels against the pole of L, which leaves
    (1 - 1/(alpha t)) / (1 - alpha t / q), as 1/alpha = alpha at alpha = +-1."""
    if chi.f:
        return gauss_sum(chi) * euler_factor(alpha, chi)
    at = chi.t * alpha
    return (1 - 1 / at) / (1 - at * Fraction(1, chi.p))
