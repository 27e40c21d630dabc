"""Command-line entry point: per-module checks and reports with a
machine-readable PASS/FAIL line, or JSON with --format json."""

import argparse
import json
import random
import sys
from fractions import Fraction

from .characters import (
    Quasicharacter, character_from_log, gauss_sum, trivial_character,
)
from .curves import l_invariant, load_curve, reduction_type, tate_period
from .localdist import mellin_mu_alpha, mellin_target
from .measures import (
    MAX_MOMENT, check_distribution_and_bound, gamma_transform, load_measure,
    moment,
)
from .padic import DEFAULT_PREC, ord_p
from .pipeline import exceptional_zero_report, total_mass_report
from .steinberg import EllSpec, coboundary_check
from .suite import criterion_determinant, run_suite
from .tree import ball_of_vertex, ball_vertices, neighbors, vertex_from_ball
from .treerep import delta, delta_star, hecke_T, rho_times, tilde_delta_down, \
    tilde_delta_up

MAX_P = 13
MAX_LEVEL = 5
MAX_N = 200


def _emit(args, ok, details):
    status = "PASS" if ok else "FAIL"
    if args.format == "json":
        print(json.dumps({"status": status, **{k: str(v) for k, v in details.items()}}))
    else:
        kv = " ".join(f"{k}={v}" for k, v in details.items())
        print(f"{status} {kv}".rstrip())
    return 0 if ok else 1


def _check_p(parser, p):
    if p < 2 or p > MAX_P or any(p % d == 0 for d in range(2, p)):
        parser.error(f"--p must be a prime <= {MAX_P}")


def _parse_alpha(parser, spec, p):
    if spec in ("sqrt", "sqrt(q)"):
        return float(p) ** 0.5
    try:
        return Fraction(spec)
    except ValueError:
        parser.error(f"bad --alpha value {spec!r}")


def cmd_gauss(args, parser):
    _check_p(parser, args.p)
    if args.conductor_exp == 0:
        chi = trivial_character(args.p)
    else:
        chi = character_from_log(args.p, args.conductor_exp, args.char_spec)
    tau = gauss_sum(chi)
    tau_f = gauss_sum(chi, exact=False).to_complex()
    ok = abs(abs(tau_f) ** 2 - args.p ** chi.f) < 1e-9 or chi.f == 0
    return _emit(args, ok, {
        "p": args.p, "conductor_exp": chi.f, "tau_exact": tau,
        "tau_float": f"{tau_f:.6f}", "abs2": f"{abs(tau_f) ** 2:.6f}"})


def cmd_local_integral(args, parser):
    _check_p(parser, args.p)
    alpha = _parse_alpha(parser, args.alpha, args.p)
    if args.char_f == 0:
        chi = trivial_character(args.p, Fraction(args.t))
    else:
        base = character_from_log(args.p, args.char_f, args.char_k)
        chi = Quasicharacter(args.p, Fraction(args.t), base.f, base.unit_table)
    got = mellin_mu_alpha(chi, alpha, n_max=args.n_max, exact=False)
    target = mellin_target(chi, alpha)
    err = abs(got.value.to_complex() - target.to_complex())
    ok = err <= 1e-8 + got.tail_bound
    return _emit(args, ok, {
        "p": args.p, "alpha": args.alpha, "conductor_exp": chi.f,
        "value": f"{got.value.to_complex():.10f}",
        "target": f"{target.to_complex():.10f}",
        "tail_bound": f"{got.tail_bound:.2e}", "err": f"{err:.2e}"})


def cmd_tree(args, parser):
    _check_p(parser, args.p)
    verts = ball_vertices(args.p, args.radius)
    ok = True
    if args.check:
        for v in verts:
            ok &= len(neighbors(v)) == args.p + 1
            ok &= vertex_from_ball(ball_of_vertex(v)) == v
    edges = sum(1 for v in verts for w in neighbors(v) if w in verts) // 2
    return _emit(args, ok, {"p": args.p, "radius": args.radius,
                            "vertices": len(verts), "edges": edges})


def cmd_tree_rep(args, parser):
    _check_p(parser, args.p)
    from .suite import _random_vertex_function
    rng = random.Random(args.seed)
    p = args.p
    failures = 0
    trials = args.trials
    for _ in range(trials):
        phi = _random_vertex_function(rng, p, args.radius)
        for eps in (1, -1):
            lhs = delta(delta_star(phi, eps))
            rhs = phi.scale(p + 1) - hecke_T(phi).scale(eps)
            failures += lhs != rhs
        for alpha in (Fraction(1), Fraction(-1), Fraction(2)):
            lhs = tilde_delta_down(alpha, tilde_delta_up(alpha, phi))
            rho2 = rho_times(alpha, rho_times(alpha, phi))
            rhs = rho2.scale(alpha ** 2 + Fraction(p) / alpha ** 2) \
                - rho_times(alpha, hecke_T(rho_times(alpha, phi)))
            failures += lhs != rhs
    return _emit(args, failures == 0,
                 {"p": p, "radius": args.radius, "trials": trials,
                  "failures": failures})


def cmd_steinberg(args, parser):
    _check_p(parser, args.p)
    rng = random.Random(args.seed)
    kinds = ("ord",) if args.p == 2 else ("ord", "log")
    failures = 0
    for kind in kinds:
        ell = EllSpec(kind, args.p)
        for _ in range(args.trials):
            a = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            x = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 10))
            lhs, rhs = coboundary_check(a, x, ell)
            failures += lhs != rhs
    return _emit(args, failures == 0,
                 {"p": args.p, "kinds": ",".join(kinds),
                  "trials": args.trials * len(kinds), "failures": failures})


def cmd_detcheck(args, parser):
    r = criterion_determinant(args.seed, trials=args.trials, kmax=args.kmax,
                              mmax=args.mmax)
    return _emit(args, r.ok, {"trials": args.trials, "kmax": args.kmax,
                              "mmax": args.mmax, **r.details})


def cmd_lp(args, parser):
    try:
        mu = load_measure(args.measure)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read measure file: {exc}")
    if not 1 <= args.level <= mu.N:
        parser.error(f"--level must lie in 1..{mu.N}, the measure's levels")
    ok = check_distribution_and_bound(mu).ok
    if args.moments is not None:
        if not 0 <= args.moments <= MAX_MOMENT:
            parser.error(f"--moments must lie in 0..{MAX_MOMENT}")
        ms = [moment(mu, k, args.level) for k in range(args.moments + 1)]
        return _emit(args, ok, {
            "p": mu.p, "level": args.level,
            **{f"moment{k}": m for k, m in enumerate(ms)}})
    try:
        s = Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad --s value {args.s!r}")
    if s != 0 and ord_p(s, mu.p) < 1:
        parser.error("--s must be 0 or divisible by p")
    val, err = gamma_transform(mu, s, args.level)
    return _emit(args, ok, {"p": mu.p, "s": s, "level": args.level,
                            "value": val, "err_exp": err})


def _load_curve_arg(args, parser):
    try:
        E = load_curve(args.curve)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read curve file: {exc}")
    if E.N > MAX_N:
        parser.error(f"conductor exceeds the desk cap {MAX_N}")
    return E


def cmd_linv(args, parser):
    _check_p(parser, args.p)
    E = _load_curve_arg(args, parser)
    if reduction_type(E, args.p) != "split":
        parser.error("L-invariant needs split multiplicative reduction")
    q = tate_period(E, args.p, args.prec)
    L = l_invariant(E, args.p, args.prec)
    return _emit(args, True, {"curve": E.label, "p": args.p,
                              "ord_qE": q.val, "qE": q, "l_invariant": L})


def cmd_interp(args, parser):
    _check_p(parser, args.p)
    E = _load_curve_arg(args, parser)
    if args.level > MAX_LEVEL:
        parser.error(f"--level exceeds the desk cap {MAX_LEVEL}")
    rep = total_mass_report(E, args.p, args.level, args.prec)
    return _emit(args, rep.ok, {
        "curve": E.label, "p": args.p, "kind": rep.kind, "level": args.level,
        "total_mass": rep.total, "lam0": rep.lam_zero, "ratio": rep.ratio,
        "predicted": rep.predicted, "check_exp": rep.check_exp})


def cmd_ezero(args, parser):
    _check_p(parser, args.p)
    E = _load_curve_arg(args, parser)
    if args.level > MAX_LEVEL:
        parser.error(f"--level exceeds the desk cap {MAX_LEVEL}")
    if reduction_type(E, args.p) != "split":
        parser.error("exceptional zero needs split multiplicative reduction")
    rep = exceptional_zero_report(E, args.p, args.level, args.prec)
    return _emit(args, rep.ok, {
        "curve": E.label, "p": args.p, "level": args.level,
        "lp_at_0": rep.total_mass, "lam0": rep.lam_zero,
        "moment1_ratio": rep.moment1_ratio, "l_invariant": rep.l_inv,
        "bound_cert": rep.bound_cert, "match_exp": rep.match_exp})


def cmd_suite(args, parser):
    results = run_suite(seed=args.seed, quick=args.quick)
    status = 0
    for r in results:
        if args.format == "json":
            print(json.dumps({"criterion": r.name,
                              "status": "PASS" if r.ok else "FAIL",
                              "elapsed": round(r.elapsed, 2),
                              **{k: str(v) for k, v in r.details.items()}}))
        else:
            print(r.machine_line())
        status |= 0 if r.ok else 1
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exczero",
        description="local distributions, tree operators, p-adic measures, "
                    "and the exceptional-zero check")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gauss", help="Gauss sum of a character mod p^f")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--conductor-exp", type=int, default=1)
    sp.add_argument("--char-spec", type=int, default=1,
                    help="log-index k of the character")
    sp.set_defaults(fn=cmd_gauss)

    sp = sub.add_parser("local-integral",
                        help="truncated Mellin shell sum vs closed target")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", required=True,
                    help="1, -1, a rational, or 'sqrt' for q^(1/2)")
    sp.add_argument("--char-f", type=int, default=0)
    sp.add_argument("--char-k", type=int, default=1)
    sp.add_argument("--t", default="1", help="value of chi at p")
    sp.add_argument("--n-max", type=int, default=120)
    sp.set_defaults(fn=cmd_local_integral)

    sp = sub.add_parser("tree", help="tree invariants and counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(fn=cmd_tree)

    sp = sub.add_parser("tree-rep", help="tree operator identity suite")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--suite", action="store_true")
    sp.add_argument("--trials", type=int, default=50)
    sp.set_defaults(fn=cmd_tree_rep)

    sp = sub.add_parser("steinberg", help="coboundary identity suite")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--suite", action="store_true")
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(fn=cmd_steinberg)

    sp = sub.add_parser("detcheck", help="zero-row-sum determinant identity")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--mmax", type=int, default=5)
    sp.set_defaults(fn=cmd_detcheck)

    sp = sub.add_parser("lp", help="Gamma-transform of a stored measure")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--s", default="0")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--moments", type=int, default=None)
    sp.set_defaults(fn=cmd_lp)

    sp = sub.add_parser("linv", help="L-invariant via the Tate period")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, default=DEFAULT_PREC)
    sp.set_defaults(fn=cmd_linv)

    sp = sub.add_parser("interp", help="total mass vs interpolation")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--prec", type=int, default=DEFAULT_PREC)
    sp.set_defaults(fn=cmd_interp)

    sp = sub.add_parser("ezero", help="exceptional-zero report")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, default=4)
    sp.add_argument("--prec", type=int, default=12)
    sp.set_defaults(fn=cmd_ezero)

    sp = sub.add_parser("suite", help="run every acceptance criterion")
    sp.add_argument("--quick", action="store_true")
    sp.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
