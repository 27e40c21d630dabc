"""The measure attached to an elliptic curve at an ordinary or multiplicative
prime, its total mass against the interpolation prediction, and the
exceptional-zero comparison of the first log-moment with the L-invariant at a
split multiplicative prime."""

from collections import namedtuple
from fractions import Fraction
from time import perf_counter

from .curves import ap, l_invariant, reduction_type
from .measures import BallMeasure, check_distribution_and_bound, moment
from .modsym import ModularSymbolSpace
from .padic import DEFAULT_PREC, from_rational, unit_root

__all__ = ["mtt_measure", "total_mass_report", "exceptional_zero_report",
           "TotalMassReport", "ExceptionalZeroReport", "VanishingLValue"]


def mtt_measure(E, p, level, prec=DEFAULT_PREC, msym=None):
    """The p-adic measure on Z_p^* built from the curve's plus eigensymbol.

    At a good ordinary p the value on a + p^n Z_p is
    alpha^-n lam(a/p^n) - alpha^-(n+1) lam(a/p^(n-1)) with alpha the unit
    root of X^2 - a_p X + p; the values are residues mod p^prec, recorded
    via the measure's modulus.  At p || N a single term alpha^-n lam(a/p^n)
    with alpha = a_p = +-1 is exact.  The measure is even (lam(-r) = lam(r)
    for the plus eigensymbol), so each level mirrors its lower half."""
    assert level >= 1
    if p == 2:
        raise ValueError("the measure needs an odd p")
    kind = reduction_type(E, p)
    if kind == "additive":
        raise ValueError(f"additive reduction at {p}")
    if msym is None:
        msym = ModularSymbolSpace(E)
    lam, levels = msym.lam_ratio, [[0]]
    # the eigensymbol is star-invariant by construction, so lam(-r) = lam(r)
    if kind == "good":
        a = ap(E, p)
        if a % p == 0:
            raise ValueError(f"supersingular prime {p}")
        mod = p ** prec
        ainv = int(unit_root(a, p, prec).inverse().unit_mod(prec))
        # prev[y] = lam(y/p^(n-1)) from the level below; lam has period
        # one, so lam(x/p^(n-1)) = prev[x mod p^(n-1)]
        raw = [lam(0, 1)]
        for n in range(1, level + 1):
            pn, c0, c1 = p ** n, pow(ainv, n, mod), pow(ainv, n + 1, mod)
            prev, below = raw, pn // p
            raw = [lam(x, pn) if x % p else 0 for x in range((pn + 1) // 2)]
            vals = [(c0 * r - c1 * prev[x % below]) % mod if x % p else 0
                    for x, r in enumerate(raw)]
            raw += raw[:0:-1]
            levels.append(vals + vals[:0:-1])
        return BallMeasure(p, levels, modulus=prec)
    a = 1 if kind == "split" else -1
    for n in range(1, level + 1):
        pn, sign = p ** n, a ** n  # alpha^-n = a^n for a = +-1
        half = [sign * lam(x, pn) if x % p else 0
                for x in range((pn + 1) // 2)]
        levels.append(half + half[:0:-1])
    return BallMeasure(p, levels)


# total = mu(Z_p^*), unnormalized; ok compares ratio = total / lam(0) with
# predicted mod p^check_exp (0: exactly); stage_s: perf_counter s per stage
TotalMassReport = namedtuple("TotalMassReport", "label p kind total lam_zero"
                             " ratio predicted check_exp ok stage_s")


class VanishingLValue(ValueError):
    """lam(0) = 0, so L(E, 1) = 0 and a report's ratio to it is undefined."""


def _timed(stage_s, stage, fn, *args):
    """fn(*args), with its perf_counter seconds recorded at stage_s[stage]."""
    t0 = perf_counter()
    out = fn(*args)
    stage_s[stage] = perf_counter() - t0
    return out


def _checked_measure(E, p, level, prec, stage_s):
    """E's symbol space and its measure at p, distribution-checked, for a
    report that divides by lam(0); stage_s gets the time of each stage."""
    msym = _timed(stage_s, "symbol_space", ModularSymbolSpace, E)
    if msym.lam_zero() == 0:
        raise VanishingLValue(f"lam(0) = 0 for {E.label}: L(E, 1) vanishes")
    mu = _timed(stage_s, "measure", mtt_measure, E, p, level, prec, msym)
    rep = _timed(stage_s, "check", check_distribution_and_bound, mu)
    assert rep.ok, "distribution relation failed"
    return msym, mu, rep


def total_mass_report(E, p, level, prec=DEFAULT_PREC):
    """Compare mu(Z_p^*) / lam(0) with the interpolation prediction:
    (1 - 1/alpha)^2 at good ordinary p, 0 at split multiplicative p,
    2 at nonsplit multiplicative p."""
    st = {}
    msym, mu, _ = _checked_measure(E, p, level, prec, st)
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
                           check_exp, ok, st)


# ok: total_mass = L_p(0) is 0 and moment1_ratio = L_p'(0) / lam(0) equals
# l_inv = log(q_E)/ord(q_E) mod p^match_exp; c = bound_cert: ord(mu) >= -c
ExceptionalZeroReport = namedtuple(
    "ExceptionalZeroReport", "label p level lam_zero total_mass moment1_ratio"
    " l_inv bound_cert match_exp ok stage_s")


def exceptional_zero_report(E, p, level, prec=DEFAULT_PREC):
    """At a split multiplicative prime: the total mass vanishes exactly and
    the first log-moment divided by lam(0) matches the L-invariant to the
    Riemann-sum precision (p^level for an exact integral measure)."""
    assert reduction_type(E, p) == "split", "needs split multiplicative p"
    st = {}
    msym, mu, rep = _checked_measure(E, p, level, prec, st)
    lam0 = msym.lam_zero()
    total = mu.mass(level)
    m1 = _timed(st, "moment", moment, mu, 1, level, prec)
    ratio = m1 * Fraction(1, lam0)
    linv = _timed(st, "l_invariant", l_invariant, E, p, prec)
    match_exp = level - rep.bound_cert
    diff = (ratio - linv).truncate_abs(match_exp)
    ok = total == 0 and diff.is_zero
    return ExceptionalZeroReport(E.label, p, level, lam0, total, ratio,
                                 linv, rep.bound_cert, match_exp, ok, st)
