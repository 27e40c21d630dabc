"""The measure attached to an elliptic curve at an ordinary or multiplicative
prime, its total mass against the interpolation prediction, and the
exceptional-zero comparison of the first log-moment with the L-invariant at a
split multiplicative prime."""

from dataclasses import dataclass
from fractions import Fraction

from .curves import ap, l_invariant, reduction_type
from .measures import BallMeasure, check_distribution_and_bound, moment
from .modsym import ModularSymbolSpace
from .padic import DEFAULT_PREC, PadicNumber, from_rational, unit_root

__all__ = ["mtt_measure", "total_mass_report", "exceptional_zero_report",
           "TotalMassReport", "ExceptionalZeroReport", "VanishingLValue"]


def mtt_measure(E, p, level, prec=DEFAULT_PREC, msym=None):
    """The p-adic measure on Z_p^* built from the curve's plus eigensymbol.

    At a good ordinary p the value on a + p^n Z_p is
    alpha^-n lam(a/p^n) - alpha^-(n+1) lam(a/p^(n-1)) with alpha the unit
    root of X^2 - a_p X + p; the values are residues mod p^prec, recorded
    via the measure's modulus.  At p || N a single term alpha^-n lam(a/p^n)
    with alpha = a_p = +-1 is exact."""
    assert p % 2 == 1 and level >= 1
    kind = reduction_type(E, p)
    assert kind != "additive", "additive reduction"
    if msym is None:
        msym = ModularSymbolSpace(E)
    vals = {}
    if kind == "good":
        a = ap(E, p)
        assert a % p != 0, "supersingular prime"
        mod = p ** prec
        ainv = int(unit_root(a, p, prec).inverse().unit_mod(prec))
        for n in range(1, level + 1):
            pn, c0, c1 = p ** n, pow(ainv, n, mod), pow(ainv, n + 1, mod)
            for x in range(1, pn):
                if x % p:
                    v = (c0 * msym.lam(Fraction(x, pn))
                         - c1 * msym.lam(Fraction(x, pn // p)))
                    vals[(n, x)] = v % mod
        return BallMeasure(p, level, vals, modulus=prec)
    a = 1 if kind == "split" else -1
    for n in range(1, level + 1):
        pn, sign = p ** n, a ** n  # alpha^-n = a^n for a = +-1
        for x in range(1, pn):
            if x % p:
                vals[(n, x)] = sign * msym.lam(Fraction(x, pn))
    return BallMeasure(p, level, vals)


@dataclass
class TotalMassReport:
    label: str
    p: int
    kind: str
    total: int        # mu(Z_p^*), unnormalized
    lam_zero: int
    ratio: Fraction   # total / lam(0)
    predicted: Fraction
    check_exp: int    # agreement claimed mod p^check_exp (0 means exact)
    ok: bool


class VanishingLValue(ValueError):
    """lam(0) = 0, so L(E, 1) = 0 and a report's ratio to it is undefined."""


def _symbol_space(E):
    """E's symbol space, for a report that divides by lam(0)."""
    msym = ModularSymbolSpace(E)
    if msym.lam_zero() == 0:
        raise VanishingLValue(f"lam(0) = 0 for {E.label}: L(E, 1) vanishes")
    return msym


def total_mass_report(E, p, level, prec=DEFAULT_PREC):
    """Compare mu(Z_p^*) / lam(0) with the interpolation prediction:
    (1 - 1/alpha)^2 at good ordinary p, 0 at split multiplicative p,
    2 at nonsplit multiplicative p."""
    msym = _symbol_space(E)
    mu = mtt_measure(E, p, level, prec, msym)
    rep = check_distribution_and_bound(mu)
    assert rep.ok, "distribution relation failed"
    total = mu.mass(level)
    lam0 = msym.lam_zero()
    kind = reduction_type(E, p)
    ratio = Fraction(total, lam0)
    if kind == "good":
        ainv = unit_root(ap(E, p), p, prec).inverse()
        pred_pad = (1 - ainv) ** 2
        check_exp = prec
        diff = from_rational(ratio, p, prec + 1) - pred_pad
        ok = diff.truncate_abs(check_exp).is_zero
        predicted = Fraction(pred_pad.residue_mod(prec))
    else:
        predicted = Fraction(0) if kind == "split" else Fraction(2)
        check_exp = 0
        ok = ratio == predicted
    return TotalMassReport(E.label, p, kind, total, lam0, ratio, predicted,
                           check_exp, ok)


@dataclass
class ExceptionalZeroReport:
    label: str
    p: int
    level: int
    lam_zero: int
    total_mass: int                # value of L_p at s = 0, exactly
    moment1_ratio: PadicNumber     # L_p'(0) / lam(0)
    l_inv: PadicNumber             # log(q_E) / ord(q_E)
    bound_cert: int                # c with ord(mu) >= -c
    match_exp: int                 # the two agree mod p^match_exp
    ok: bool


def exceptional_zero_report(E, p, level, prec=DEFAULT_PREC):
    """At a split multiplicative prime: the total mass vanishes exactly and
    the first log-moment divided by lam(0) matches the L-invariant to the
    Riemann-sum precision (p^level for an exact integral measure)."""
    assert reduction_type(E, p) == "split", "needs split multiplicative p"
    msym = _symbol_space(E)
    mu = mtt_measure(E, p, level, prec, msym)
    rep = check_distribution_and_bound(mu)
    assert rep.ok, "distribution relation failed"
    lam0 = msym.lam_zero()
    total = mu.mass(level)
    m1 = moment(mu, 1, level, prec)
    ratio = m1 * Fraction(1, lam0)
    linv = l_invariant(E, p, prec)
    match_exp = level - rep.bound_cert
    diff = (ratio - linv).truncate_abs(match_exp)
    ok = total == 0 and diff.is_zero
    return ExceptionalZeroReport(E.label, p, level, lam0, total, ratio,
                                 linv, rep.bound_cert, match_exp, ok)
