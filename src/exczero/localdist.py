"""The local distributions mu_alpha = psi(x) chi_alpha(x) dx on Q_p^*
(on Q_p for alpha = 1), integrated against a quasicharacter chi: the exact
Mellin transform, a sum over shells p^n U whose tail n >= 0 is geometric,
one shell of it, and the closed-form target it equals."""

from collections import namedtuple
from fractions import Fraction

from .characters import euler_factor, gauss_sum, unit_psi_chi_integral

__all__ = [
    "unit_psi_chi_integral", "shell_integral", "mellin_mu_alpha",
    "MellinResult", "mellin_target",
]


def shell_integral(chi, alpha, n):
    """int over p^n U of chi(x) chi_alpha(x) psi(x) d*x."""
    return (chi.t * alpha) ** n \
        * unit_psi_chi_integral(chi, Fraction(chi.p) ** n)


# n_max and exact=True are accepted, and n_min and n_max reported, for
# bench/, which passes and counts them; neither changes the value
MellinResult = namedtuple("MellinResult", "value n_min n_max")


def mellin_mu_alpha(chi, alpha, n_max=40, *, exact=True):
    """int chi d mu_alpha with dx = (1 - 1/q)|x| d*x, exactly: (1 - 1/q)
    times the sum of u_n s^n over the shells p^n U, s = chi(p) alpha / q,
    u_n the unit integral at a = p^n.  The shells n >= 0 add u_0 / (1 - s),
    as psi is trivial on Z_p.  u_n = 0 for -n > max(f, 1), and for ramified
    chi also for -n != f: for -n < f, psi(p^n u) is constant on the cosets
    of 1 + p^-n Z_p (of U for n = 0), where chi is nontrivial.  So the sum
    reads u_-f alone for ramified chi, and u_-1 and u_0 else."""
    if not exact:
        raise ValueError("the Mellin integral is computed exactly only")
    q = chi.p
    if abs(complex(chi.t)) * abs(complex(alpha)) >= q:
        raise ValueError("divergent: |chi(p) alpha| >= q")
    s, scale = chi.t * alpha * Fraction(1, q), Fraction(q - 1, q)

    def unit(n):
        return unit_psi_chi_integral(chi, Fraction(q) ** n)
    if chi.f:
        # s^-f is rational at alpha = sqrt(q) for even f
        value = unit(-chi.f) * (scale * s ** -chi.f).lowered()
    else:
        value = unit(-1) * (scale / s) + unit(0) * (scale / (1 - s))
    return MellinResult(value, -(chi.f + 2), n_max)


def mellin_target(chi, alpha):
    """The closed-form target tau(chi) e(alpha, chi) L(1/2, pi_alpha x chi):
    tau(chi) alpha^-f for ramified chi; for unramified chi the zero 1 - t/alpha
    of e, at t = alpha, cancels against the pole of L, which leaves
    (1 - 1/(alpha t)) / (1 - alpha t / q), as 1/alpha = alpha at alpha = +-1."""
    if chi.f:
        return gauss_sum(chi) * euler_factor(alpha, chi)
    at = chi.t * alpha
    return (1 - 1 / at) / (1 - at * Fraction(1, chi.p))
