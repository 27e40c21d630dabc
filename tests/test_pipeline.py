from fractions import Fraction

import pytest

from exczero.curves import EllipticCurve, ap, reduction_type
from exczero.measures import check_distribution_and_bound, vanishing_order
from exczero.modsym import ModularSymbolSpace
from exczero.padic import from_rational, unit_root
from exczero.pipeline import (
    exceptional_zero_report, mtt_measure, total_mass_report,
)

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)
E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)


def test_measure_distribution_good():
    mu = mtt_measure(E11, 3, 3, prec=8)
    rep = check_distribution_and_bound(mu)
    assert rep.ok and rep.bound_cert == 0
    assert mu.modulus == 8


def test_measure_distribution_multiplicative():
    for E, p in ((E11, 11), (E15, 3), (E15, 5)):
        mu = mtt_measure(E, p, 2)
        rep = check_distribution_and_bound(mu)
        assert rep.ok and rep.bound_cert == 0
        assert mu.modulus is None
        assert all(v.denominator == 1 for level in mu.levels for v in level)


def test_measure_values_are_ints():
    for E, p, kind in ((E11, 11, "split"), (E15, 3, "nonsplit"),
                       (E11, 3, "good")):
        mu = mtt_measure(E, p, 3, prec=6)
        units = sum(len(level) - len(level[::p]) for level in mu.levels)
        assert units == (p - 1) * (1 + p + p * p), kind
        assert all(type(v) is int for level in mu.levels for v in level), kind


def test_measure_rejects_additive():
    E = EllipticCurve("27a1", 27, 0, 0, 1, 0, -7)
    with pytest.raises(ValueError, match="additive"):
        mtt_measure(E, 3, 1)


def test_measure_rejects_supersingular_and_two():
    with pytest.raises(ValueError, match="supersingular"):
        mtt_measure(EllipticCurve("27a1", 27, 0, 0, 1, 0, -7), 5, 1)
    with pytest.raises(ValueError, match="odd p"):
        mtt_measure(E11, 2, 1)


def test_good_total_mass_interpolation():
    rep = total_mass_report(E11, 3, 4, prec=4)
    assert rep.kind == "good" and rep.ok
    alpha_inv = unit_root(-1, 3, 4).inverse()
    pred = (1 - alpha_inv) ** 2
    diff = from_rational(rep.ratio, 3, 5) - pred
    assert diff.truncate_abs(4).is_zero


def test_split_total_mass_vanishes():
    for E, p in ((E11, 11), (E15, 5)):
        rep = total_mass_report(E, p, 2)
        assert rep.kind == "split" and rep.ok
        assert rep.total == 0


def test_nonsplit_total_mass():
    rep = total_mass_report(E15, 3, 3)
    assert rep.kind == "nonsplit" and rep.ok
    assert rep.total == 2 * rep.lam_zero


def test_exceptional_zero_11a1():
    rep = exceptional_zero_report(E11, 11, 3, prec=10)
    assert rep.ok
    assert rep.total_mass == 0
    assert rep.match_exp == 3
    diff = (rep.moment1_ratio - rep.l_inv).truncate_abs(3)
    assert diff.is_zero
    assert rep.l_inv.val >= 1


def test_exceptional_zero_15a1_at_5():
    rep = exceptional_zero_report(E15, 5, 3, prec=10)
    assert rep.ok and rep.total_mass == 0


def test_vanishing_order_split():
    mu = mtt_measure(E11, 11, 3)
    order, moments = vanishing_order(mu, 2, 3)
    assert order == 1
    assert moments[0].is_zero
    assert not moments[1].is_zero


def test_exceptional_zero_requires_split():
    with pytest.raises(AssertionError):
        exceptional_zero_report(E15, 3, 2)


E27 = EllipticCurve("27a1", 27, 0, 0, 1, 0, -7)
E91 = EllipticCurve("91a1", 91, 0, 1, 1, -7, 5)
E17 = EllipticCurve("17a1", 17, 1, -1, 1, -1, -14)
E37 = EllipticCurve("37a1", 37, 0, 0, 1, -1, 0)
E43 = EllipticCurve("43a1", 43, 0, 1, 1, 0, 0)


def _reference_levels(E, p, level, prec, msym):
    """mtt_measure's levels by lam on every unit ball of every level."""
    lam, levels = msym.lam_ratio, [[0]]
    kind = reduction_type(E, p)
    if kind == "good":
        mod = p ** prec
        ainv = int(unit_root(ap(E, p), p, prec).inverse().unit_mod(prec))
        for n in range(1, level + 1):
            pn, c0, c1 = p ** n, pow(ainv, n, mod), pow(ainv, n + 1, mod)
            levels.append([(c0 * lam(x, pn) - c1 * lam(x, pn // p)) % mod
                           if x % p else 0 for x in range(pn)])
        return levels, prec
    a = 1 if kind == "split" else -1
    for n in range(1, level + 1):
        levels.append([a ** n * lam(x, p ** n) if x % p else 0
                       for x in range(p ** n)])
    return levels, None


@pytest.mark.parametrize("E, p, level, prec, kind", [
    (E11, 11, 4, 8, "split"), (E15, 5, 4, 8, "split"),
    (E15, 3, 5, 8, "nonsplit"), (E91, 7, 3, 8, "split"),
    (E91, 13, 3, 8, "split"), (E11, 3, 5, 6, "good"),
    (E11, 5, 4, 4, "good"), (E27, 7, 3, 8, "good"),
    (E17, 17, 2, 8, "split"), (E37, 37, 2, 8, "nonsplit"),
    (E43, 43, 2, 8, "nonsplit"),
], ids=["11a1@11", "15a1@5", "15a1@3", "91a1@7", "91a1@13", "11a1@3",
        "11a1@5", "27a1@7", "17a1@17", "37a1@37", "43a1@43"])
def test_measure_matches_lam_on_every_ball(E, p, level, prec, kind):
    assert reduction_type(E, p) == kind
    msym = ModularSymbolSpace(E)
    mu = mtt_measure(E, p, level, prec, msym)
    assert (mu.levels, mu.modulus) == _reference_levels(E, p, level, prec,
                                                        msym)


@pytest.mark.parametrize("E, p, level, walks", [
    (E11, 11, 4, 3662), (E15, 5, 4, 156), (E91, 13, 3, 549)],
    ids=["11a1@11", "15a1@5", "91a1@13"])
def test_measure_walks_each_unit_class_once(E, p, level, walks):
    """At p || N with M = N/p squarefree the walks read one unit x of each
    class {+-x, +-1/(M x)} mod p^n: for 11a1 at 11 (M = 1) 3 + 28 + 303 +
    3328 up to level 4, against the 7,320 units below p^n/2; 15a1 at 5
    and 91a1 at 13 about half of their 312 and 1,098 units."""
    classes, q = 0, E.N // p
    for n in range(1, level + 1):
        m = p ** n
        classes += len({frozenset((x, m - x, y, m - y)) for x in range(1, m)
                        if x % p for y in (pow(q * x, -1, m),)})
    msym = ModularSymbolSpace(E)
    mtt_measure(E, p, level, msym=msym)
    assert msym.walks == classes == walks


def test_reports_carry_the_walk_count():
    rep = exceptional_zero_report(E11, 11, 2)
    assert (rep.lam_walks, rep.fe_sign) == (3 + 28, -1)
    assert total_mass_report(E15, 5, 2)[-2:] == (1 + 5, -1)
    assert total_mass_report(E15, 3, 2)[-2:] == (1 + 2, 1)
    assert total_mass_report(E11, 3, 2)[-2:] == (1 + 3, None)
