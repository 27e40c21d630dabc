import random
import tracemalloc
from fractions import Fraction

import pytest

from exczero.measures import (
    BallMeasure, check_distribution_and_bound, dirac, gamma_transform,
    load_measure, moment, save_measure, vanishing_order,
)
from exczero.curves import EllipticCurve
from exczero.padic import (
    exp_p, from_rational, log_iwasawa, ord_p, teichmuller,
)
from exczero.pipeline import mtt_measure

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)


def test_dirac_passes_checks():
    mu = dirac(5, 3, 1)
    rep = check_distribution_and_bound(mu)
    assert rep.ok and rep.bound_cert == 0


def test_perturbation_is_detected():
    mu = dirac(5, 3, 1)
    levels = _copy(mu.levels)
    levels[2][6] += 1
    bad = BallMeasure(5, levels)
    rep = check_distribution_and_bound(bad)
    assert not rep.ok
    assert (1, 1) in rep.failures


def test_bound_certificate():
    mu = dirac(7, 2, 1).scale(Fraction(1, 49))
    assert check_distribution_and_bound(mu).bound_cert == 2


def test_sample_points_meet_every_unit_residue_once():
    # w(i) (1 + p)^j, 0 < i < p and 0 <= j < p^(n-1), is a system of
    # representatives of (Z/p^n)^*, and <w(i) (1 + p)^j> = (1 + p)^j
    for p in (3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            m = p ** n
            points = [teichmuller(i, p, n).unit * (1 + p) ** j % m
                      for i in range(1, p) for j in range(p ** (n - 1))]
            assert sorted(points) == [a for a in range(m) if a % p], (p, n)
            for i in range(1, p):
                w = teichmuller(i, p, n).unit
                assert w % p == i and pow(w, p - 1, m) == 1


def test_total_mass_at_s_zero():
    mu = dirac(5, 3, 2).scale(3) + dirac(5, 3, 7).scale(-1)
    val, err = gamma_transform(mu, 0, 3)
    assert val == 2 and err is None


def test_dirac_at_one_is_constant_one():
    mu = dirac(5, 4, 1)
    for s in (0, 5, 10, 25):
        val, _ = gamma_transform(mu, s, 4)
        assert val == 1


def test_two_point_closed_form():
    p = 5
    mu = dirac(p, 4, 1 + p) + dirac(p, 4, 1).scale(-1)
    s = from_rational(p, p, 18)
    val, err = gamma_transform(mu, s, 4)
    closed = exp_p(s * log_iwasawa(Fraction(1 + p), p, 18)) - 1
    assert (val - closed).truncate_abs(err).is_zero
    # s known only mod p^2 gives h = (1 + p)^s mod p^3, so 3 digits < err
    coarse, coarse_err = gamma_transform(mu, from_rational(p, p, 1), 4)
    assert coarse_err == err == 5 and coarse.abs_prec == 3
    assert (coarse - closed).truncate_abs(3).is_zero
    assert moment(mu, 0, 4).is_zero
    m1 = moment(mu, 1, 4)
    assert m1 == log_iwasawa(Fraction(1 + p), p, 18).truncate_abs(m1.abs_prec)
    order, _ = vanishing_order(mu, 3, 4)
    assert order == 1


def test_linearity():
    p = 7
    mu1 = dirac(p, 3, 2).scale(2)
    mu2 = dirac(p, 3, 10).scale(-3)
    s = from_rational(p, p, 15)
    v1, _ = gamma_transform(mu1, s, 3)
    v2, _ = gamma_transform(mu2, s, 3)
    v12, _ = gamma_transform(mu1 + mu2, s, 3)
    assert v12 == v1 + v2


def test_level_consistency():
    p = 5
    rng = random.Random(157)
    mu = dirac(p, 4, 1)
    for u in (2, 3, 1 + p, 1 + 2 * p):
        mu = mu + dirac(p, 4, u).scale(rng.randint(-3, 3))
    s = from_rational(p, p, 18)
    v3, e3 = gamma_transform(mu, s, 3)
    v4, _ = gamma_transform(mu, s, 4)
    assert (v3 - v4).truncate_abs(e3).is_zero


def test_moments_are_taylor_coefficients():
    # L_p(s) = sum_k moment_k s^k / k! + O(s^5): check at s = p
    p = 5
    mu = dirac(p, 4, 1 + p).scale(2) + dirac(p, 4, 2).scale(1) \
        + dirac(p, 4, 3).scale(-3)
    s = from_rational(p, p, 18)
    val, _ = gamma_transform(mu, s, 4)
    taylor = from_rational(0, p, 18)
    fact = 1
    for k in range(5):
        if k:
            fact *= k
        taylor = taylor + moment(mu, k, 4) * s ** k * Fraction(1, fact)
    diff = val - taylor
    assert diff.is_zero or diff.val >= 5


def test_file_roundtrip(tmp_path):
    exact = dirac(5, 3, 2).scale(Fraction(3, 25)) + dirac(5, 3, 7).scale(-1)
    approx = mtt_measure(E11, 3, 3, prec=6)  # modulus 6, integer values
    path = tmp_path / "m.txt"
    for mu in (exact, approx):
        save_measure(mu, path)
        back = load_measure(path)
        assert (back.p, back.N, back.modulus) == (mu.p, mu.N, mu.modulus)
        assert back.levels == mu.levels
        rep = check_distribution_and_bound(back)
        assert rep.ok and rep == check_distribution_and_bound(mu)
        for k in range(1, 3):
            assert _same(moment(back, k, 3, 8), moment(mu, k, 3, 8))
    assert back.modulus == 6
    assert all(type(v) is int for level in back.levels for v in level)


def test_load_reads_three_field_header_as_exact(tmp_path):
    # the format before the modulus was saved, every value as num/den;
    # mu(2 + 5Z_5) = -1 = 3/5 - 8/5, the sum over its refinements
    path = tmp_path / "old.txt"
    path.write_text("5 2 1\n1 2 -1/1\n2 7 3/5\n2 12 -8/5\n")
    mu = load_measure(path)
    assert (mu.p, mu.N, mu.modulus) == (5, 2, None)
    level2 = [0] * 25
    level2[7], level2[12] = Fraction(3, 5), Fraction(-8, 5)
    assert mu.levels == [[0], [0, 0, -1, 0, 0], level2]
    assert type(mu.levels[1][2]) is int
    rep = check_distribution_and_bound(mu)
    assert rep.ok and rep.bound_cert == 1


def test_load_reads_a_file_with_zero_rows(tmp_path):
    # save_measure once wrote a line for every unit ball, zeros included;
    # such a file loads to the same levels as the file written today
    mu = mtt_measure(E11, 11, 2)
    units = [(n, a) for n in (1, 2) for a in range(1, 11 ** n) if a % 11]
    zeros = [(n, a) for n, a in units if mu.levels[n][a] == 0]
    assert len(zeros) == 24
    full, nonzero = tmp_path / "full.txt", tmp_path / "nonzero.txt"
    full.write_text("11 2 0\n" + "".join(
        f"{n} {a} {mu.levels[n][a]}\n" for n, a in units))
    save_measure(mu, nonzero)
    assert len(nonzero.read_text().splitlines()) == 1 + len(units) - len(zeros)
    for path in (full, nonzero):
        back = load_measure(path)
        assert (back.p, back.N, back.modulus) == (11, 2, None)
        assert back.levels == mu.levels


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("", "5 2\n", "5 2 0 3 1\n", "x 2 0\n", "4 2 0\n",
                 "5 2 0\n1 2\n", "5 2 0\n1 2 x\n", "5 2 0\n1 2 1/0\n",
                 "5 2 0\n3 2 1\n", "5 2 0\n1 5 1\n", "5 2 0\n1 7 1\n",
                 "5 2 0\n1 -3 1\n", "13 40 0\n", "13 12 0\n", "9 2 0\n",
                 "17 1 0\n", "3 0 0\n", "5 2 0 0\n", "5 2 0 -3\n"):
        path.write_text(text)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                load_measure(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rejected before any level of p^N slots is allocated
        assert peak < 100_000, (text, peak)


def _copy(levels):
    return [level[:] for level in levels]


def _with_fraction_values(mu):
    levels = [[Fraction(v) for v in level] for level in mu.levels]
    return BallMeasure(mu.p, levels, mu.modulus)


def test_distribution_check_same_on_int_and_fraction_values():
    good = mtt_measure(E11, 11, 3)
    levels = _copy(good.levels)
    levels[3][5] += 1
    levels[2][40] -= 11
    bad = BallMeasure(11, levels)
    approx = mtt_measure(E11, 3, 3, prec=6)
    scaled = good.scale(Fraction(1, 121))
    for mu in (good, bad, approx, scaled):
        copy = _with_fraction_values(mu)
        assert all(type(v) is Fraction for level in copy.levels
                   for v in level)
        got = check_distribution_and_bound(mu)
        want = check_distribution_and_bound(copy)
        assert (got.ok, got.bound_cert, got.failures) == \
            (want.ok, want.bound_cert, want.failures)
    assert check_distribution_and_bound(good).ok
    # (3, 5) breaks its parent (2, 5); (2, 40) breaks itself and (1, 7)
    assert check_distribution_and_bound(bad).failures == \
        [(1, 7), (2, 5), (2, 40)]
    assert check_distribution_and_bound(approx).ok
    assert check_distribution_and_bound(scaled).bound_cert == 2


def test_modulus_relaxes_distribution_check():
    # values agreeing with a true measure only mod p^2 pass with modulus=2
    p = 5
    mu = dirac(p, 3, 1)
    levels = _copy(mu.levels)
    levels[3][1] += Fraction(p ** 3)
    approx = BallMeasure(p, levels, modulus=2)
    assert check_distribution_and_bound(approx).ok
    exact = BallMeasure(p, levels)
    assert not check_distribution_and_bound(exact).ok


def test_modulus_reports_a_ball_off_by_a_unit_times_p_to_modulus_minus_1():
    # 11a1 at 5 is good ordinary, its values ints mod 5^5; a planted ball
    # fails against its refinements and its parent against it
    mu = mtt_measure(E11, 5, 3, prec=5)
    for n, a in ((1, 2), (2, 7), (3, 99)):
        want = [(n - 1, a % 5 ** (n - 1))] * (n > 1) + [(n, a)] * (n < 3)
        for delta in (2 * 5 ** 4, -5 ** 4, 3 * 5 ** 5):
            levels = _copy(mu.levels)
            levels[n][a] += delta
            rep = check_distribution_and_bound(BallMeasure(5, levels, 5))
            assert rep.failures == ([] if delta % 5 ** 5 == 0 else want)


def test_int_measures_are_checked_without_ord_p(monkeypatch):
    import exczero.measures as measures
    calls = []
    monkeypatch.setattr(measures, "ord_p",
                        lambda *args: calls.append(args) or ord_p(*args))
    for mu in (mtt_measure(E11, 13, 3, prec=20), mtt_measure(E11, 11, 3)):
        rep = check_distribution_and_bound(mu)
        assert rep.ok and rep.bound_cert == 0
    assert calls == []


def _reference_moment(mu, k, level, prec):
    """moment by PadicNumber arithmetic: one log per unit, one term each."""
    p = mu.p
    c = check_distribution_and_bound(mu).bound_cert
    total = from_rational(0, p, prec)
    for a in range(1, p ** level):
        w = mu.levels[level][a]
        if a % p == 0 or w == 0:
            continue
        lg = log_iwasawa(Fraction(a), p, prec)
        total = total + lg ** k * from_rational(w, p, prec + c)
    err_exp = level + k - 1 - c
    if mu.modulus is not None:
        err_exp = min(err_exp, mu.modulus - c)
    return total.truncate_abs(min(err_exp, total.abs_prec))


def _same(x, y):
    return (x.p, x.val, x.unit, x.prec) == (y.p, y.val, y.unit, y.prec)


def test_moment_matches_padic_reference():
    p = 5
    combo = (dirac(p, 4, 1 + p).scale(Fraction(3, 25))
             + dirac(p, 4, 2).scale(Fraction(-7, 5))
             + dirac(p, 4, 3 + 2 * p).scale(Fraction(2, 75))
             + dirac(p, 4, 4).scale(11)
             + dirac(p, 4, 1).scale(Fraction(1, 25)))
    assert check_distribution_and_bound(combo).bound_cert == 2
    cases = [
        (mtt_measure(E11, 11, 3), 3, (4, 12)),              # split, exact
        (mtt_measure(E11, 3, 4, prec=8), 4, (3, 8, 12)),    # modulus = 8
        (combo, 4, (2, 4, 18)),                             # c = 2
    ]
    for mu, level, precs in cases:
        for prec in precs:
            for k in range(1, 5):
                got = moment(mu, k, level, prec)
                ref = _reference_moment(mu, k, level, prec)
                c = check_distribution_and_bound(mu).bound_cert
                err_exp = level + k - 1 - c
                if mu.modulus is not None:
                    err_exp = min(err_exp, mu.modulus - c)
                assert got.abs_prec == min(err_exp, prec), (mu.p, k, prec)
                assert got.abs_prec >= ref.abs_prec, (mu.p, k, prec)
                # the reference with c more digits of log<a> proves them all
                if c:
                    ref = _reference_moment(mu, k, level, prec + c)
                assert _same(got, ref.truncate_abs(got.abs_prec)), \
                    (mu.p, k, prec, got, ref)


def test_mass_claims_no_more_than_the_modulus():
    # values trusted mod p^modulus give the mass mod p^(modulus - c) at
    # k = 0 and s = 0, as the moments with k >= 1 already do
    approx = mtt_measure(E11, 3, 3, prec=6)                   # c = 0
    shifted = dirac(5, 3, 2).scale(Fraction(3, 25))
    shifted = BallMeasure(5, shifted.levels, modulus=4)      # c = 2
    for mu, prec in ((approx, 20), (approx, 4), (shifted, 20)):
        cap = mu.modulus - check_distribution_and_bound(mu).bound_cert
        for level in range(1, mu.N + 1):
            full = from_rational(mu.mass(level), mu.p, prec)
            m0 = moment(mu, 0, level, prec)
            assert m0.abs_prec <= cap, (mu.p, level, prec, m0)
            assert _same(m0, full.truncate_abs(cap))
            val, err = gamma_transform(mu, 0, level, prec)
            assert err == cap and _same(val, m0)
    exact = dirac(5, 3, 2).scale(3) + dirac(5, 3, 7).scale(Fraction(-1, 5))
    for prec in (4, 20):
        full = from_rational(exact.mass(3), 5, prec)
        assert _same(moment(exact, 0, 3, prec), full)
        val, err = gamma_transform(exact, 0, 3, prec)
        assert err is None and _same(val, full)


def test_distribution_report_is_computed_once():
    mu = dirac(5, 3, 2).scale(Fraction(3, 25))
    rep = check_distribution_and_bound(mu)
    assert rep.bound_cert == 2
    moment(mu, 1, 3)
    gamma_transform(mu, 5, 3)
    vanishing_order(mu, 2, 3)
    assert mu.report is rep and check_distribution_and_bound(mu) is rep


def _reference_check(mu):
    """The distribution check as a loop of lookups, p per ball."""
    p, levels = mu.p, mu.levels
    failures = []
    for n in range(1, mu.N):
        pn = p ** n
        for a in range(1, pn):
            if a % p == 0:
                continue
            diff = levels[n][a] - sum(
                levels[n + 1][a + b * pn] for b in range(p))
            if diff != 0 and (mu.modulus is None
                              or ord_p(diff, p) < mu.modulus):
                failures.append((n, a))
    worst = max((-ord_p(v, p) for level in levels for v in level
                 if Fraction(v).denominator % p == 0), default=0)
    return not failures, worst, failures


def _perturbed(mu, n, delta):
    """A fresh copy of mu with delta added at the middle unit of level n."""
    p, levels = mu.p, _copy(mu.levels)
    units = [a for a in range(p ** n) if a % p]
    levels[n][units[len(units) // 2]] += delta
    return BallMeasure(mu.p, levels, mu.modulus)


def test_distribution_check_matches_dict_reference():
    E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)
    measures = [mtt_measure(E11, 11, 3), mtt_measure(E11, 3, 4, prec=6),
                mtt_measure(E11, 5, 3, prec=5), mtt_measure(E15, 3, 4),
                mtt_measure(E15, 5, 3)]
    fractional = mtt_measure(E15, 5, 3).scale(Fraction(2, 25)) \
        + dirac(5, 3, 7).scale(Fraction(1, 3))
    cases = []
    for mu in measures + [fractional]:
        cases.append(mu)
        for n in (1, (1 + mu.N) // 2, mu.N):
            cases.append(_perturbed(mu, n, 1 if mu.modulus is None
                                    else mu.p ** (mu.modulus - 1)))
    for mu in measures:
        if mu.modulus is not None:
            for n in (1, mu.N):
                ok = _perturbed(mu, n, mu.p ** mu.modulus * 7)
                assert check_distribution_and_bound(ok).ok
                cases.append(ok)
    for mu in cases:
        want = _reference_check(mu)
        got = check_distribution_and_bound(mu)
        assert (got.ok, got.bound_cert, got.failures) == want
    assert check_distribution_and_bound(fractional).bound_cert == 2
    assert all(check_distribution_and_bound(mu).ok for mu in measures)
    assert sum(not check_distribution_and_bound(mu).ok for mu in cases) \
        == 3 * len(measures) + 3


def test_claimed_precision_against_a_higher_level():
    # a Riemann sum at level 1-3 agrees with the same sum at the top level
    # mod p^(its claimed error exponent): 11a1 at its split prime 11, at
    # the good ordinary prime 3 (modulus 12), and with a modulus (4) that
    # caps the claim at p = 5
    cases = [(mtt_measure(E11, 11, 4), 4), (mtt_measure(E11, 3, 5, prec=12), 5),
             (mtt_measure(E11, 5, 5, prec=4), 5)]
    prec = 12
    for mu, top in cases:
        p = mu.p
        for k in (1, 2):
            want = moment(mu, k, top, prec)
            for level in (1, 2, 3):
                got = moment(mu, k, level, prec)
                assert got.abs_prec <= want.abs_prec, (p, k, level)
                assert (got - want).truncate_abs(got.abs_prec).is_zero, \
                    (p, k, level, got, want)
        # the value claims exactly the digits that the error bound proves
        want, want_err = gamma_transform(mu, p, top, prec)
        assert want.abs_prec == want_err, (p, want, want_err)
        for level in (1, 2, 3):
            got, err = gamma_transform(mu, p, level, prec)
            assert err == (level + 1 if mu.modulus is None
                           else min(level + 1, mu.modulus))
            assert got.abs_prec == err, (p, level, got, err)
            assert err <= want_err
            assert (got - want).truncate_abs(err).is_zero, (p, level)


E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)

# (repr, abs_prec) of moment k = 0..4 at the top level, then
# (repr of value.truncate_abs(err), err) of gamma_transform at s = p, 2p
PINNED = [
    (lambda: mtt_measure(E11, 11, 4), 4,
     [("O(11^20)", 20), ("485*11^1 + O(11^4)", 4), ("O(11^5)", 5),
      ("85*11^3 + O(11^6)", 6), ("O(11^7)", 7)],
     [("485*11^2 + O(11^5)", 5), ("970*11^2 + O(11^5)", 5)]),
    (lambda: mtt_measure(E11, 3, 5, prec=12), 5,
     [("270896*3^0 + O(3^12)", 12), ("64*3^1 + O(3^5)", 5),
      ("1*3^4 + O(3^6)", 6), ("28*3^3 + O(3^7)", 7), ("13*3^5 + O(3^8)", 8)],
     [("41*3^0 + O(3^6)", 6), ("374*3^0 + O(3^6)", 6)]),
    (lambda: mtt_measure(E11, 5, 5, prec=4), 5,
     [("17*5^2 + O(5^4)", 4), ("3*5^3 + O(5^4)", 4), ("O(5^4)", 4),
      ("O(5^4)", 4), ("O(5^4)", 4)],
     [("17*5^2 + O(5^4)", 4), ("17*5^2 + O(5^4)", 4)]),
    (lambda: mtt_measure(E15, 5, 5), 5,
     [("O(5^20)", 20), ("152*5^1 + O(5^5)", 5), ("62*5^2 + O(5^6)", 6),
      ("571*5^3 + O(5^7)", 7), ("94*5^5 + O(5^8)", 8)],
     [("302*5^2 + O(5^6)", 6), ("279*5^2 + O(5^6)", 6)]),
]


@pytest.mark.parametrize("make, level, moments, gammas", PINNED,
                         ids=["11a1@11", "11a1@3", "11a1@5", "15a1@5"])
def test_moments_and_gamma_transform_are_pinned(make, level, moments, gammas):
    mu = make()
    got = [(repr(m), m.abs_prec)
           for m in (moment(mu, k, level) for k in range(5))]
    assert got == moments
    got = []
    for s in (mu.p, 2 * mu.p):
        val, err = gamma_transform(mu, s, level)
        got.append((repr(val.truncate_abs(err)), err))
    assert got == gammas


def test_weights_are_computed_once_per_level(monkeypatch):
    # moments k = 1..4 and then a Gamma-transform on one measure read the
    # weights it keeps, and each equals the same call on a fresh copy
    import exczero.measures as measures
    # an even level reads the lifts w(i), i < p/2, as w(p - i) = -w(i);
    # the uneven Dirac sum reads all p - 1
    cases = [(mtt_measure(E11, 11, 4), 4, 5),
             (mtt_measure(E11, 3, 5, prec=12), 5, 1),
             (dirac(5, 3, 2).scale(Fraction(3, 25))
              + dirac(5, 3, 7).scale(Fraction(-1, 3)), 3, 4)]
    lifts = []
    monkeypatch.setattr(measures, "teichmuller",
                        lambda *a: lifts.append(a) or teichmuller(*a))
    for mu, level, read in cases:
        fresh = lambda: BallMeasure(mu.p, _copy(mu.levels), mu.modulus)
        del lifts[:]
        for k in range(1, 5):
            assert _same(moment(mu, k, level), moment(fresh(), k, level)), k
        val, err = gamma_transform(mu, mu.p, level)
        want, want_err = gamma_transform(fresh(), mu.p, level)
        assert err == want_err and _same(val, want)
        # one pass over the level on mu, and one per call on each copy
        assert len(lifts) == read * (1 + 5)
        assert list(mu.weights) == [level]
