"""The acceptance gate: every numbered check with its stated tolerance and
runtime budget."""

import time
from fractions import Fraction

from exczero import suite
from exczero.curves import EllipticCurve, l_invariant
from exczero.measures import dirac, vanishing_order
from exczero.padic import from_rational, log_iwasawa, unit_root
from exczero.pipeline import (
    exceptional_zero_report, mtt_measure, total_mass_report,
)

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)
E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)


def test_01_tree_operator_identities():
    r = suite.criterion_tree_identities(seed=2024)
    assert r.ok, r.details
    assert r.details["instances"] >= 500
    assert r.elapsed < 30


def test_02_mellin_closed_form_vs_shell_sum():
    r = suite.criterion_mellin_closed_form(seed=2024)
    assert r.ok, r.details
    assert r.details["chars"] == 150
    assert r.elapsed < 10


def test_03_interpolation_against_euler_factor():
    r = suite.criterion_interpolation()
    assert r.ok, r.details
    assert r.details["exceptional_exact"]


def test_04_gauss_sum_identities():
    r = suite.criterion_gauss_identities()
    assert r.ok, r.details
    assert r.details["exact_ok"]
    # all p-2 primitive characters mod p for p in {3,5,7,11}: 1+3+5+9
    assert r.details["chars"] == 18


def test_05_steinberg_coboundary_and_cocycle():
    r = suite.criterion_steinberg(seed=2024)
    assert r.ok, r.details
    assert r.details["coboundary_trials"] >= 200
    assert r.details["cocycle_pairs"] >= 100


def test_06_determinant_identity():
    r = suite.criterion_determinant(seed=2024)
    assert r.ok, r.details
    assert r.details["trials"] == 1000
    assert r.elapsed < 5


def test_07_measure_engine():
    r = suite.criterion_measure_engine(seed=2024)
    assert r.ok, r.details
    assert r.details["synthetic"] == 20


def test_08_good_ordinary_interpolation():
    t0 = time.perf_counter()
    rep = total_mass_report(E11, 3, 4, prec=4)
    assert rep.kind == "good"
    alpha = unit_root(-1, 3, 4)
    pred = (1 - alpha.inverse()) ** 2
    diff = from_rational(rep.ratio, 3, 5) - pred
    assert diff.truncate_abs(4).is_zero  # ratio = (1 - 1/alpha)^2 mod 3^4
    assert time.perf_counter() - t0 < 60


def test_09_exceptional_zero_11a1():
    t0 = time.perf_counter()
    rep = exceptional_zero_report(E11, 11, 4, prec=12)
    # (i) the p-adic L-value at 0 vanishes, exactly
    assert rep.total_mass == 0
    # (ii) first moment over lam(0) matches the Tate-period L-invariant,
    # computed here apart from the report
    linv = l_invariant(E11, 11, prec=12)
    diff = (rep.moment1_ratio - linv).truncate_abs(3)
    assert diff.is_zero  # agreement mod 11^3
    assert rep.match_exp == 4 - rep.bound_cert >= 3
    assert rep.ok
    assert time.perf_counter() - t0 < 120


def test_10_vanishing_order():
    for E, p in ((E11, 11), (E15, 5)):
        mu = mtt_measure(E, p, 3)
        order, _ = vanishing_order(mu, 2, 3)
        assert order >= 1, (E.label, p)
    p = 5
    mu = dirac(p, 4, 1 + p) + dirac(p, 4, 1).scale(-1)
    order, moments = vanishing_order(mu, 2, 4)
    assert order == 1
    m1 = moments[1]
    assert m1 == log_iwasawa(Fraction(1 + p), p, 18).truncate_abs(m1.abs_prec)
