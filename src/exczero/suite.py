"""The acceptance checks as library functions, each returning a small report
usable by the CLI and by CI.  Every randomized check takes an explicit seed."""

import random
import time
from collections import namedtuple
from fractions import Fraction

from .characters import (
    Quasicharacter, all_primitive_characters, euler_factor, gauss_sum, sqrt_q,
)
from .curves import EllipticCurve
from .detident import det_fixedpointfree_expansion
from .localdist import mellin_mu_alpha, mellin_target
from .measures import (
    check_distribution_and_bound, dirac, gamma_transform, vanishing_order,
)
from .padic import from_rational, log_iwasawa, ord_p
from .pipeline import exceptional_zero_report, mtt_measure, total_mass_report
from .steinberg import EllSpec, coboundary_check, z_ell
from .tree import ball_vertices, neighbors
from .treerep import (
    EdgeFunction, VertexFunction, delta, delta_star, hecke_T, rho_times,
    tilde_delta_down, tilde_delta_up,
)

__all__ = ["CriterionResult", "run_suite", "ALL_CRITERIA"]

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)


CriterionResult = namedtuple("CriterionResult", "name ok elapsed details")


def _timed(name, fn):
    t0 = time.perf_counter()
    ok, details = fn()
    return CriterionResult(name, ok, time.perf_counter() - t0, details)


# -- 1: tree operator identities ----------------------------------------------

def _random_vertex_function(rng, p, verts):
    return VertexFunction(p, {v: rng.randint(-5, 5)
                              for v in rng.sample(verts, min(4, len(verts)))})


def _random_edge_function(rng, p, sign, verts):
    c = EdgeFunction(p, sign)
    for _ in range(4):
        v = rng.choice(verts)
        c.add_to((v, rng.choice(neighbors(v))), rng.randint(-5, 5))
    return c


def criterion_tree_identities(seed=0, quick=False, primes=None, radius=None,
                              trials=None):
    """``trials`` random functions per prime and sign, and per prime and
    alpha, on the ball of ``radius`` around the base vertex."""
    primes = primes or ((2, 3) if quick else (2, 3, 5))
    radius = radius or (2 if quick else 3)
    per = trials or (9 if quick else 28)
    rng = random.Random(seed)

    def run():
        instances = failures = 0
        for p in primes:
            q = p
            verts = sorted(ball_vertices(p, radius), key=repr)
            for eps in (1, -1):
                for _ in range(per):
                    phi = _random_vertex_function(rng, p, verts)
                    d_phi = delta_star(phi, eps)
                    rhs = phi.scale(q + 1) - hecke_T(phi).scale(eps)
                    instances += 1
                    failures += delta(d_phi) != rhs
                    c = _random_edge_function(rng, p, eps, verts)
                    instances += 1
                    failures += delta(c).pairing(phi) != c.pairing(d_phi)
                    if not phi.is_zero():
                        instances += 1
                        failures += d_phi.is_zero()
            for alpha in (1, -1, 2):
                coeff = alpha ** 2 + Fraction(q, alpha ** 2)
                coeff = coeff.numerator if coeff.denominator == 1 else coeff
                for _ in range(per):
                    phi = _random_vertex_function(rng, p, verts)
                    lhs = tilde_delta_down(alpha, tilde_delta_up(alpha, phi))
                    rho_phi = rho_times(alpha, phi)
                    rhs = rho_times(alpha, rho_phi).scale(coeff) \
                        - rho_times(alpha, hecke_T(rho_phi))
                    instances += 1
                    failures += lhs != rhs
        return failures == 0, {"instances": instances, "failures": failures}

    return _timed("tree_identities", run)


# -- 2: the exact Mellin integral against its closed form ---------------------

def criterion_mellin_closed_form(seed=0, quick=False):
    rng = random.Random(seed)
    per_p = 10 if quick else 50

    def run():
        ok = True
        count = 0
        for p in (3, 5, 7):
            pool = (all_primitive_characters(p, 1)
                    + all_primitive_characters(p, 2)
                    + [Quasicharacter(p)])
            for _ in range(per_p):
                base = rng.choice(pool)
                t = Fraction(rng.randint(1, 2 * p - 2), 2)  # 0 < |t| < p
                if rng.random() < 0.5:
                    t = -t
                chi = Quasicharacter(p, base.f, base.k, t)
                ok &= mellin_mu_alpha(chi, 1).value == mellin_target(chi, 1)
                count += 1
        return ok, {"chars": count}

    return _timed("mellin_closed_form", run)


# -- 3: interpolation against the Euler factor --------------------------------

def criterion_interpolation(quick=False):
    def run():
        ok = True
        checked = 0
        exceptional_exact = True
        for p in ((3,) if quick else (3, 5)):
            chars = [Quasicharacter(p)] + all_primitive_characters(p, 1)
            for alpha in (1, -1, sqrt_q(p)):
                for chi in chars:
                    target = mellin_target(chi, alpha)
                    ok &= mellin_mu_alpha(chi, alpha).value == target
                    checked += 1
                    if alpha == 1 and chi.f == 0:
                        # the exceptional zero: the Euler factor vanishes
                        exceptional_exact &= (
                            euler_factor(1, chi) == 0 and target == 0)
        return ok and exceptional_exact, {
            "checked": checked, "exceptional_exact": exceptional_exact}

    return _timed("interpolation", run)


# -- 4: Gauss sum identities ---------------------------------------------------

GAUSS_TOL = 1e-9           # ||tau|^2 - p| in floats


def criterion_gauss_identities(quick=False):
    def run():
        exact_ok = True
        worst = 0.0
        count = 0
        for p in ((3, 5) if quick else (3, 5, 7, 11)):
            for k in range(1, p - 1):
                chi = Quasicharacter(p, 1, k)
                tau = gauss_sum(chi)
                exact_ok &= tau * gauss_sum(chi.inverse()) \
                    == chi.at_minus_one() * p
                worst = max(worst, abs(abs(tau.to_complex()) ** 2 - p))
                count += 1
        return exact_ok and worst < GAUSS_TOL, {
            "chars": count, "exact_ok": exact_ok, "worst_abs2": f"{worst:.2e}"}

    return _timed("gauss_identities", run)


# -- 5: Steinberg cocycle and coboundary ---------------------------------------

def _sweep_points(p):
    """Each point u p^k, k in -3..3, u in (1, 2, p + 1), and its valuation."""
    pts = [Fraction(u) * Fraction(p) ** k
           for k in range(-3, 4) for u in (1, 2, p + 1)]
    return [(x, ord_p(x, p)) for x in pts]


def _nonzero(rng, p):
    while True:
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if x != 0:
            return x


def criterion_steinberg(seed=0, quick=False, p=None, trials=None):
    """``trials`` coboundary checks and half as many cocycle pairs, at least
    one, per (kind, prime): ord at 3 and log at 5, or both kinds at ``p``
    (ord only at p = 2, where the logarithm pipeline does not run)."""
    rng = random.Random(seed)
    n_cob = trials or (50 if quick else 200)
    n_coc = max(1, n_cob // 2)
    if p is None:
        specs = (("ord", 3), ("log", 5))
    else:
        specs = (("ord", p),) if p == 2 else (("ord", p), ("log", p))

    def run():
        failures = 0
        for kind, p in specs:
            ell = EllSpec(kind, p)
            for _ in range(n_cob):
                a, x = _nonzero(rng, p), _nonzero(rng, p)
                lhs, rhs = coboundary_check(a, x, ell)
                failures += lhs != rhs
            pts = _sweep_points(p)
            for _ in range(n_coc):
                a, b = _nonzero(rng, p), _nonzero(rng, p)
                zab = z_ell(a * b, ell)
                za = z_ell(a, ell)
                zb_a = z_ell(b, ell).act(a)
                for x, v in pts:
                    failures += zab.at(x, v) != za.at(x, v) + zb_a.at(x, v)
        return failures == 0, {"failures": failures,
                               "coboundary_trials": len(specs) * n_cob,
                               "cocycle_pairs": len(specs) * n_coc}

    return _timed("steinberg", run)


# -- 6: zero-row-sum determinant identity --------------------------------------

def criterion_determinant(seed=0, quick=False, trials=None, kmax=4, mmax=5):
    rng = random.Random(seed)
    if trials is None:
        trials = 200 if quick else 1000

    def run():
        failures = 0
        for _ in range(trials):
            k = rng.randint(1, kmax)
            m = rng.randint(k, mmax)
            rows = []
            for _ in range(k):
                row = [rng.randint(-9, 9) for _ in range(m - 1)]
                row.append(-sum(row))
                rows.append(row)
            lhs, rhs = det_fixedpointfree_expansion(rows)
            failures += lhs != rhs
        return failures == 0, {"trials": trials, "failures": failures}

    return _timed("determinant", run)


# -- 7: measure engine ----------------------------------------------------------

def criterion_measure_engine(seed=0, quick=False):
    rng = random.Random(seed)
    n_synth = 5 if quick else 20

    def run():
        failures = 0
        for _ in range(n_synth):
            p = rng.choice([3, 5, 7])
            mu = dirac(p, 4, 1).scale(0)
            for _ in range(rng.randint(1, 4)):
                u = rng.choice([1, 2, 1 + p, 1 + 2 * p, p - 1])
                w = Fraction(rng.randint(-4, 4), p ** rng.randint(0, 2))
                mu = mu + dirac(p, 4, u).scale(w)
            rep = check_distribution_and_bound(mu)
            failures += not rep.ok
            s = from_rational(p, p, 16)
            v3, e3 = gamma_transform(mu, s, 3)
            v4, _ = gamma_transform(mu, s, 4)
            failures += not (v3 - v4).truncate_abs(e3).is_zero
        return failures == 0, {"synthetic": n_synth, "failures": failures}

    return _timed("measure_engine", run)


# -- 8: good ordinary interpolation (control) ----------------------------------

def criterion_good_interpolation(quick=False):
    level = 3 if quick else 4

    def run():
        # the report compares the ratio with (1 - 1/alpha)^2 mod 3^level
        rep = total_mass_report(E11, 3, level, prec=level)
        return rep.ok, {"curve": "11a1", "p": 3, "level": level,
                        "ratio_mod": int(from_rational(rep.ratio, 3, level)
                                         .residue_mod(level)),
                        "predicted_mod": int(rep.predicted)}

    return _timed("good_interpolation", run)


# -- 9: the exceptional zero ------------------------------------------------------

def criterion_exceptional_zero(quick=False):
    level = 3 if quick else 4

    def run():
        # ok: L_p(0) = 0 exactly, and moment1 / lam(0) matches the
        # L-invariant mod 11^(level - c)
        rep = exceptional_zero_report(E11, 11, level, prec=12)
        return rep.ok, {
            "curve": "11a1", "p": 11, "level": level, "c": rep.bound_cert,
            "lp0": str(rep.total_mass), "moment1_ratio": str(rep.moment1_ratio),
            "l_invariant": str(rep.l_inv.truncate_abs(level + 1))}

    return _timed("exceptional_zero", run)


# -- 10: vanishing order ----------------------------------------------------------

def criterion_vanishing_order(quick=False):
    level = 2 if quick else 3

    def run():
        ok = True
        E15 = EllipticCurve("15a1", 15, 1, 1, 1, -10, -10)
        for E, p in ((E11, 11), (E15, 5)):
            mu = mtt_measure(E, p, level)
            order, _ = vanishing_order(mu, 2, level)
            ok &= order >= 1
        p = 5
        mu = dirac(p, 4, 1 + p) + dirac(p, 4, 1).scale(-1)
        order, moments = vanishing_order(mu, 2, 4)
        m1 = moments[1]
        target = log_iwasawa(Fraction(1 + p), p, 18).truncate_abs(m1.abs_prec)
        ok &= order == 1 and m1 == target
        return ok, {"synthetic_order": order, "split_curves": 2}

    return _timed("vanishing_order", run)


ALL_CRITERIA = [
    ("tree_identities", criterion_tree_identities),
    ("mellin_closed_form", criterion_mellin_closed_form),
    ("interpolation", criterion_interpolation),
    ("gauss_identities", criterion_gauss_identities),
    ("steinberg", criterion_steinberg),
    ("determinant", criterion_determinant),
    ("measure_engine", criterion_measure_engine),
    ("good_interpolation", criterion_good_interpolation),
    ("exceptional_zero", criterion_exceptional_zero),
    ("vanishing_order", criterion_vanishing_order),
]


def _parameters(fn):
    """The names of fn's parameters: the first of its code's local names."""
    code = fn.__code__
    return code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]


def run_suite(seed=0, quick=False):
    """Every criterion at the given size, with the seed to those taking one."""
    return [fn(quick=quick, **({"seed": seed} if "seed" in _parameters(fn)
                               else {}))
            for _, fn in ALL_CRITERIA]
