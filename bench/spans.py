"""Per-layer tracing of exczero from outside the package.

``install`` replaces each traced function by a wrapper, both at its
definition and under every name a loaded module bound it to (the package
uses ``from .padic import log_iwasawa``, so ``measures.log_iwasawa`` is a
separate name that needs its own patch).  Methods are patched on their
classes, which covers operator dispatch and every importer of the class.

A span wrapper times each call and counts it; its self time is its duration
minus the time of the traced calls made inside it.  A count wrapper only
counts, so that it adds no span to its caller.  Spans stay in memory as
running totals and are read out once, at the end of the run.
"""

import sys
from fractions import Fraction
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.distinct = {}
        self._child_s = []

    def bump(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def note(self, name, key):
        """Record ``key`` in the set of distinct values seen under ``name``."""
        self.distinct.setdefault(name, set()).add(key)

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` in a timed span.  ``name`` is the span name, or a
        function of (args, kwargs) that picks it per call;
        ``observe(args, kwargs, result)`` records extra counters."""
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        def traced(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + dt - inner
            if observe:
                observe(args, kwargs, result)
            return result
        return traced

    def count(self, name, fn):
        """Wrap ``fn`` so that each call bumps the counter ``name``."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


def patch_function(module, attr, wrap):
    """Replace ``module.attr`` by ``wrap(original)`` in every loaded module
    that bound the same function object, the benchmark's own included."""
    original = getattr(module, attr)
    wrapped = wrap(original)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None) or {}
        for key, value in list(namespace.items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch_method(cls, attr, wrap):
    """Replace ``cls.attr`` and every alias of it on ``cls`` (such as
    ``__rmul__ = __mul__``) by ``wrap(original)``."""
    original = cls.__dict__[attr]
    wrapped = wrap(original)
    for key, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, key, wrapped)


def _mod_one(r):
    return (r.numerator % r.denominator, r.denominator)


def install(tracer):
    """Patch the traced layers of exczero, after every module that calls
    into them has been imported."""
    from exczero import (
        characters, curves, cyclotomic, detident, localdist, measures,
        modsym, padic, pipeline, steinberg, tree, treerep,
    )
    t = tracer

    # modsym: building the space, and lam per call
    def lam_seen(args, kwargs, result):
        space, r = args
        t.note("modsym.lam", (space.E.label, _mod_one(Fraction(r))))
    patch_method(modsym.ModularSymbolSpace, "__init__",
                 lambda f: t.span("modsym.build", f))
    patch_method(modsym.ModularSymbolSpace, "lam",
                 lambda f: t.span("modsym.lam", f, observe=lam_seen))

    # pipeline and measures
    def measure_seen(args, kwargs, result):
        E, p, level = args[:3]
        t.note("pipeline.mtt_measure", (E.label, p, level))
    patch_function(pipeline, "mtt_measure",
                   lambda f: t.span("pipeline.mtt_measure", f,
                                    observe=measure_seen))
    measures_checked = []   # keeps each measure alive so its id stays unique

    def check_seen(args, kwargs, result):
        measures_checked.append(args[0])
        t.note("measures.check_distribution", id(args[0]))
    patch_function(measures, "check_distribution_and_bound",
                   lambda f: t.span("measures.check_distribution", f,
                                    observe=check_seen))
    patch_function(measures, "moment",
                   lambda f: t.span("measures.moment", f))
    patch_function(measures, "gamma_transform",
                   lambda f: t.span("measures.gamma_transform", f))

    # padic
    def log_seen(args, kwargs, result):
        # by repr: approximate PadicNumber arguments are not hashable
        t.note("padic.log_iwasawa", repr((args, sorted(kwargs.items()))))
    patch_function(padic, "log_iwasawa",
                   lambda f: t.span("padic.log_iwasawa", f, observe=log_seen))
    patch_function(padic, "exp_p", lambda f: t.span("padic.exp_p", f))
    patch_function(padic, "unit_root", lambda f: t.span("padic.unit_root", f))

    # curves
    patch_function(curves, "ap", lambda f: t.count("curves.ap", f))
    patch_function(curves, "l_invariant",
                   lambda f: t.span("curves.l_invariant", f))

    # cyclotomic: exact arithmetic
    def level_seen(args, kwargs, result):
        if isinstance(result, cyclotomic.Cyclotomic):
            t.counters["cyclotomic.max_level"] = max(
                t.counters.get("cyclotomic.max_level", 0), result.level)
    Cyc = cyclotomic.Cyclotomic
    patch_method(Cyc, "__mul__",
                 lambda f: t.span("cyclotomic.mul", f, observe=level_seen))
    patch_method(Cyc, "__add__",
                 lambda f: t.span("cyclotomic.add", f, observe=level_seen))
    patch_method(Cyc, "__eq__", lambda f: t.span("cyclotomic.eq", f))
    patch_method(Cyc, "raise_level",
                 lambda f: t.count("cyclotomic.raise_level", f))

    # characters
    def gauss_kind(args, kwargs):
        exact = kwargs.get("exact", args[2] if len(args) > 2 else True)
        return ("characters.gauss_sum_exact" if exact
                else "characters.gauss_sum_float")
    patch_function(characters, "gauss_sum",
                   lambda f: t.span(gauss_kind, f))
    patch_method(characters.AdditiveCharacterPsi, "__call__",
                 lambda f: t.count("characters.psi", f))

    # localdist
    def mellin_kind(args, kwargs):
        exact = kwargs.get("exact", args[4] if len(args) > 4 else True)
        return "localdist.mellin_exact" if exact else "localdist.mellin_float"

    def shells_seen(args, kwargs, result):
        t.bump("localdist.shells", result.n_max - result.n_min + 1)
    patch_function(localdist, "mellin_mu_alpha",
                   lambda f: t.span(mellin_kind, f, observe=shells_seen))
    patch_function(localdist, "unit_psi_chi_integral",
                   lambda f: t.span("localdist.unit_integral", f))

    # tree representations, Steinberg cocycles, determinant identity
    for op in ("delta", "delta_star", "hecke_T", "tilde_delta_down",
               "tilde_delta_up", "rho_times"):
        patch_function(treerep, op, lambda f: t.span("treerep.ops", f))
    patch_function(tree, "neighbors", lambda f: t.count("tree.neighbors", f))
    patch_function(steinberg, "z_ell", lambda f: t.span("steinberg.z_ell", f))
    patch_function(steinberg, "coboundary_check",
                   lambda f: t.span("steinberg.coboundary", f))
    patch_function(detident, "det_fixedpointfree_expansion",
                   lambda f: t.span("detident.expansion", f))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced run, by name (without units)."""
    t = tracer

    def calls(name):
        return t.calls.get(name, 0)

    def secs(name):
        return t.self_s.get(name, 0.0)

    def distinct(name):
        return len(t.distinct.get(name, ()))

    m = {}
    for name in ("modsym.build", "modsym.lam", "pipeline.mtt_measure",
                 "measures.check_distribution", "measures.moment",
                 "padic.log_iwasawa", "padic.exp_p", "cyclotomic.mul",
                 "cyclotomic.add", "characters.gauss_sum_exact",
                 "localdist.unit_integral", "treerep.ops"):
        m[f"{name}_calls"] = calls(name)
        m[f"{name}_s"] = secs(name)
    for name in ("measures.gamma_transform", "padic.unit_root",
                 "curves.l_invariant", "cyclotomic.eq",
                 "characters.gauss_sum_float", "localdist.mellin_exact",
                 "localdist.mellin_float", "steinberg.z_ell",
                 "steinberg.coboundary", "detident.expansion"):
        m[f"{name}_s"] = secs(name)
    for name in ("curves.ap", "cyclotomic.raise_level", "characters.psi",
                 "tree.neighbors"):
        m[f"{name}_calls"] = t.counters.get(name, 0)
    m["cyclotomic.max_level"] = t.counters.get("cyclotomic.max_level", 0)
    m["localdist.shells"] = t.counters.get("localdist.shells", 0)
    m["modsym.lam_unique_ratio"] = _ratio(distinct("modsym.lam"),
                                          calls("modsym.lam"))
    m["padic.log_unique_ratio"] = _ratio(distinct("padic.log_iwasawa"),
                                         calls("padic.log_iwasawa"))
    m["pipeline.mtt_measure_repeat_ratio"] = _ratio(
        calls("pipeline.mtt_measure"), distinct("pipeline.mtt_measure"))
    m["measures.check_distribution_per_measure"] = _ratio(
        calls("measures.check_distribution"),
        distinct("measures.check_distribution"))
    return m
