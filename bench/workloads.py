"""The three benchmark workloads, run through exczero's public entry points.

Each workload function takes a ``Run`` and fills it with checks, outputs and
per-case timings.  Outputs are strings (or float pairs) that ``worker.py``
compares against ``expected.json``, the values at the commit that defined the
benchmark: a change that moves a digit of an exact result fails a check.
Float error figures (``worst_err``) are not pinned, because summing in
another order legitimately moves their last digits; the criteria check them
against their tolerances instead.

The sizes keep one fresh-process run at 2-7 s, so that a benchmark run takes
the median of several.  None of the workloads is random apart from ``suite``,
which runs at the Tier-1 seed 2024.  Why each workload was chosen is recorded
in ``README.md``.
"""

import inspect
from time import perf_counter

from exczero import suite
from exczero.characters import all_primitive_characters
from exczero.curves import EllipticCurve
from exczero.localdist import mellin_mu_alpha, mellin_target
from exczero.pipeline import exceptional_zero_report

E11 = EllipticCurve("11a1", 11, 0, -1, 1, -10, -20)

SUITE_SEED = 2024
# float summaries that the criteria check against a tolerance
UNPINNED_DETAILS = ("worst_err", "worst_abs2")


class Run:
    """Checks, outputs and per-case wall times of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.outputs = {}
        self.case_s = {}

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def case(self, name, fn):
        """Time one case; an exception in it counts as one failed check."""
        t0 = perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.check(f"{name}: {type(exc).__name__}: {exc}", False)
        self.case_s[name] = perf_counter() - t0


# -- suite: every acceptance criterion, quick sizes, Tier-1 seed -------------

def run_suite(run):
    for name, criterion in suite.ALL_CRITERIA:
        kwargs = {"quick": True}
        if "seed" in inspect.signature(criterion).parameters:
            kwargs["seed"] = SUITE_SEED

        def one(name=name, criterion=criterion, kwargs=kwargs):
            r = criterion(**kwargs)
            run.check(f"suite.{name}.ok", r.ok)
            run.outputs[f"suite.{name}"] = {
                k: str(v) for k, v in r.details.items()
                if k not in UNPINNED_DETAILS}
        run.case(name, one)


# -- ezero: the headline exceptional-zero check, 11a1 at p = 11, level 4 -----

EZERO_LEVEL = 4


def run_ezero(run):
    def one():
        rep = exceptional_zero_report(E11, 11, EZERO_LEVEL, prec=12)
        run.check("ezero.lp_at_0_is_zero", rep.total_mass == 0)
        diff = (rep.moment1_ratio - rep.l_inv).truncate_abs(rep.match_exp)
        run.check("ezero.moment1_ratio_matches_l_invariant", diff.is_zero)
        run.check("ezero.ok", rep.ok)
        run.outputs["ezero"] = {
            "lp_at_0": str(rep.total_mass), "lam_zero": str(rep.lam_zero),
            "moment1_ratio": str(rep.moment1_ratio),
            "l_invariant": str(rep.l_inv), "match_exp": str(rep.match_exp)}
    run.case(f"11a1.p11.level{EZERO_LEVEL}", one)


# -- local-exact: exact shell sums against the closed form -------------------

LOCAL_CONDUCTORS = ((3, 1), (5, 1), (3, 2))   # mod 3, mod 5, mod 9
LOCAL_N_MAX = 8


def run_local_exact(run):
    for p, f in LOCAL_CONDUCTORS:
        for i, chi in enumerate(all_primitive_characters(p, f)):
            for alpha in (1, -1):
                name = f"mod{p ** f}.chi{i}.alpha{alpha:+d}"

                def one(chi=chi, alpha=alpha, name=name):
                    got = mellin_mu_alpha(chi, alpha, n_max=LOCAL_N_MAX,
                                          exact=True)
                    target = mellin_target(chi, alpha)
                    run.check(f"local.{name}.exact_equal",
                              got.value == target)
                    z = target.to_complex()
                    run.outputs[f"local.{name}"] = [z.real, z.imag]
                run.case(name, one)


WORKLOADS = {
    "suite": run_suite,
    "ezero": run_ezero,
    "local-exact": run_local_exact,
}


def check_pinned(run, expected, float_tol=1e-12):
    """One check per output against its pinned value.  Float pairs are
    values of exact cyclotomic numbers, compared to ``float_tol``."""
    for key in sorted(set(run.outputs) | set(expected)):
        got, want = run.outputs.get(key), expected.get(key)
        if isinstance(want, list) and want and isinstance(want[0], float):
            same = (isinstance(got, list) and len(got) == len(want)
                    and all(abs(g - w) <= float_tol
                            for g, w in zip(got, want)))
        else:
            same = got == want
        run.check(f"pinned.{key}", same)
