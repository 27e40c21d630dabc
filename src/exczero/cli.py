"""Command-line entry point: per-module checks and reports with a
machine-readable PASS/FAIL line, or JSON with --format json."""

import argparse
import json
import sys
from fractions import Fraction

from .characters import Quasicharacter, gauss_sum, sqrt_q
from .curves import l_invariant, load_curve, reduction_type, tate_period
from .localdist import mellin_mu_alpha, mellin_target
from .measures import (
    MAX_LEVEL, MAX_MOMENT, MAX_P, check_distribution_and_bound,
    gamma_transform, load_measure, moment,
)
from .padic import DEFAULT_PREC, ord_p
from .pipeline import exceptional_zero_report, total_mass_report
from .suite import (
    criterion_determinant, criterion_steinberg, criterion_tree_identities,
    run_suite,
)
from .tree import ball_vertices, distance, neighbors

MAX_CONDUCTOR_EXP = 4   # p^f <= 13^4 keeps a Gauss sum within seconds
MAX_DET_SIZE = 6        # the expansion sums over m! permutations
MAX_TREE_RADIUS = 3     # a ball of radius 3 at p = 13 holds 2,563 vertices
MAX_PREC = 200          # the j-series work grows faster than linearly in prec
MAX_HEIGHT = 10 ** 6    # --t and --alpha: bounds the exact rationals


def _emit(args, ok, details, json_only=None):
    """The PASS/FAIL line, or a JSON object: details as strings, json_only
    as it is."""
    status = "PASS" if ok else "FAIL"
    if args.format == "json":
        print(json.dumps({"status": status, **{k: str(v) for k, v in details.items()},
                          **(json_only or {})}))
    else:
        kv = " ".join(f"{k}={v}" for k, v in details.items())
        print(f"{status} {kv}".rstrip())
    return 0 if ok else 1


def _check_p(parser, p):
    if p < 2 or p > MAX_P or any(p % d == 0 for d in range(2, p)):
        parser.error(f"--p must be a prime <= {MAX_P}")


def _check_range(parser, flag, value, lo, hi=None):
    if value < lo or (hi is not None and value > hi):
        parser.error(f"{flag} must be >= {lo}" if hi is None
                     else f"{flag} must lie in {lo}..{hi}")


def _check_conductor_exp(parser, flag, f, p):
    _check_range(parser, flag, f, 0, MAX_CONDUCTOR_EXP)
    if f and p == 2:
        parser.error(f"{flag} >= 1 needs an odd --p")


def _parse_nonzero(parser, flag, spec):
    try:
        x = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        x = 0
    if x == 0 or max(abs(x.numerator), x.denominator) > MAX_HEIGHT:
        parser.error(f"{flag} must be a nonzero rational of numerator and "
                     f"denominator <= {MAX_HEIGHT}, not {spec!r}")
    return x


def _parse_alpha(parser, spec, p):
    if spec in ("sqrt", "sqrt(q)"):
        return sqrt_q(p)
    return _parse_nonzero(parser, "--alpha", spec)


def cmd_gauss(args, parser):
    _check_p(parser, args.p)
    _check_conductor_exp(parser, "--conductor-exp", args.conductor_exp, args.p)
    chi = Quasicharacter(args.p, args.conductor_exp, args.char_spec)
    tau = gauss_sum(chi)
    tau_f = tau.to_complex()
    ok = abs(abs(tau_f) ** 2 - args.p ** chi.f) < 1e-9 or chi.f == 0
    return _emit(args, ok, {
        "p": args.p, "conductor_exp": chi.f, "tau_exact": tau,
        "tau_float": f"{tau_f:.6f}", "abs2": f"{abs(tau_f) ** 2:.6f}"})


def cmd_local_integral(args, parser):
    _check_p(parser, args.p)
    _check_conductor_exp(parser, "--char-f", args.char_f, args.p)
    alpha = _parse_alpha(parser, args.alpha, args.p)
    t = _parse_nonzero(parser, "--t", args.t)
    chi = Quasicharacter(args.p, args.char_f, args.char_k, t)
    try:
        got = mellin_mu_alpha(chi, alpha).value
    except ValueError as exc:   # the integral diverges
        parser.error(str(exc))
    target = mellin_target(chi, alpha)
    ok = got == target
    # equal values print one float, computed once
    z = target.to_complex()
    return _emit(args, ok, {
        "p": args.p, "alpha": args.alpha, "conductor_exp": chi.f,
        "value": f"{z if ok else got.to_complex():.10f}",
        "target": f"{z:.10f}"})


def cmd_tree(args, parser):
    _check_p(parser, args.p)
    _check_range(parser, "--radius", args.radius, 0, MAX_TREE_RADIUS)
    verts = ball_vertices(args.p, args.radius)
    ok = True
    if args.check:
        for v in verts:
            ns = neighbors(v)
            ok &= len(set(ns)) == args.p + 1
            ok &= all(distance(v, w) == 1 for w in ns)
    edges = sum(1 for v in verts for w in neighbors(v) if w in verts) // 2
    return _emit(args, ok, {"p": args.p, "radius": args.radius,
                            "vertices": len(verts), "edges": edges})


def cmd_tree_rep(args, parser):
    _check_p(parser, args.p)
    _check_range(parser, "--radius", args.radius, 1, MAX_TREE_RADIUS)
    _check_range(parser, "--trials", args.trials, 1)
    r = criterion_tree_identities(args.seed, primes=(args.p,),
                                  radius=args.radius, trials=args.trials)
    return _emit(args, r.ok, {"p": args.p, "radius": args.radius,
                              "trials": args.trials, **r.details})


def cmd_steinberg(args, parser):
    _check_p(parser, args.p)
    _check_range(parser, "--trials", args.trials, 1)
    r = criterion_steinberg(args.seed, p=args.p, trials=args.trials)
    return _emit(args, r.ok, {"p": args.p, **r.details})


def cmd_detcheck(args, parser):
    _check_range(parser, "--trials", args.trials, 1)
    _check_range(parser, "--kmax", args.kmax, 1)
    _check_range(parser, "--mmax", args.mmax, args.kmax, MAX_DET_SIZE)
    r = criterion_determinant(args.seed, trials=args.trials, kmax=args.kmax,
                              mmax=args.mmax)
    return _emit(args, r.ok, {"trials": args.trials, "kmax": args.kmax,
                              "mmax": args.mmax, **r.details})


def cmd_lp(args, parser):
    try:
        mu = load_measure(args.measure)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read measure file: {exc}")
    _check_range(parser, "--level", args.level, 1, mu.N)
    ok = check_distribution_and_bound(mu).ok
    if args.moments is not None:
        _check_range(parser, "--moments", args.moments, 0, MAX_MOMENT)
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


def _load_curve_arg(args, parser, split_for=None):
    """The --curve file's curve after the checks of --p, --prec and any
    --level; split_for names what needs a split multiplicative --p."""
    _check_p(parser, args.p)
    if args.p == 2:   # the measure and the p-adic logarithm need an odd p
        parser.error("--p must be odd")
    _check_range(parser, "--prec", args.prec, 1, MAX_PREC)
    if "level" in args:
        _check_range(parser, "--level", args.level, 1, MAX_LEVEL)
    try:
        E = load_curve(args.curve)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read curve file: {exc}")
    if split_for and reduction_type(E, args.p) != "split":
        parser.error(f"{split_for} needs split multiplicative reduction")
    return E


def _report(parser, fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:   # L(E, 1) = 0, or no eigensymbol at E.N
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def cmd_linv(args, parser):
    E = _load_curve_arg(args, parser, "L-invariant")
    q = tate_period(E, args.p, args.prec)
    L = l_invariant(E, args.p, args.prec)
    return _emit(args, True, {"curve": E.label, "p": args.p,
                              "ord_qE": q.val, "qE": q, "l_invariant": L})


def cmd_interp(args, parser):
    E = _load_curve_arg(args, parser)
    rep = _report(parser, total_mass_report, E, args.p, args.level, args.prec)
    return _emit(args, rep.ok, {
        "curve": E.label, "p": args.p, "kind": rep.kind, "level": args.level,
        "total_mass": rep.total, "lam0": rep.lam_zero, "ratio": rep.ratio,
        "predicted": rep.predicted, "check_exp": rep.check_exp},
        {"stage_s": rep.stage_s, "lam_walks": rep.lam_walks,
         "fe_sign": rep.fe_sign})


def cmd_ezero(args, parser):
    E = _load_curve_arg(args, parser, "exceptional zero")
    rep = _report(parser, exceptional_zero_report, E, args.p, args.level,
                  args.prec)
    return _emit(args, rep.ok, {
        "curve": E.label, "p": args.p, "level": args.level,
        "lp_at_0": rep.total_mass, "lam0": rep.lam_zero,
        "moment1_ratio": rep.moment1_ratio, "l_invariant": rep.l_inv,
        "bound_cert": rep.bound_cert, "match_exp": rep.match_exp},
        {"stage_s": rep.stage_s, "lam_walks": rep.lam_walks,
         "fe_sign": rep.fe_sign})


def cmd_suite(args, parser):
    status = 0
    for r in run_suite(seed=args.seed, quick=args.quick):
        status |= _emit(args, r.ok, {"criterion": r.name,
                                     "elapsed": f"{r.elapsed:.2f}", **r.details},
                        {"elapsed": round(r.elapsed, 4)})
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
                        help="exact Mellin integral vs closed target")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", required=True,
                    help="1, -1, a rational, or 'sqrt' for q^(1/2)")
    sp.add_argument("--char-f", type=int, default=0)
    sp.add_argument("--char-k", type=int, default=1)
    sp.add_argument("--t", default="1", help="value of chi at p")
    sp.set_defaults(fn=cmd_local_integral)

    sp = sub.add_parser("tree", help="tree invariants and counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(fn=cmd_tree)

    sp = sub.add_parser("tree-rep", help="tree operator identity suite")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--trials", type=int, default=50)
    sp.set_defaults(fn=cmd_tree_rep)

    sp = sub.add_parser("steinberg", help="coboundary identity suite")
    sp.add_argument("--p", type=int, required=True)
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
