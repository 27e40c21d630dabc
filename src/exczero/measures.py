"""p-adic measures on Z_p^* stored on residue balls up to a maximal level,
with distribution-relation and boundedness checking, Riemann-sum integration
of <a>^s (the Gamma-transform L_p(s)), log-power moments, and vanishing-order
detection.  The Riemann sums sample each ball at its point w(i)(1+p)^j, so
both read the Mazur-Tate weights (_weights) in one integer pass, over half
the Teichmuller lifts on an even level; a value claims only the digits
that its error bound proves, and prec caps them.
p is odd throughout (the logarithm pipeline excludes 2)."""

from collections import namedtuple
from fractions import Fraction
from itertools import islice
from operator import eq

from .padic import (
    DEFAULT_PREC, PadicNumber, exp_p, from_rational, log_iwasawa, ord_p,
    teichmuller,
)

__all__ = [
    "BallMeasure", "DistributionReport", "check_distribution_and_bound",
    "dirac", "gamma_transform", "moment", "vanishing_order",
    "load_measure", "save_measure", "MAX_MOMENT", "MAX_P", "MAX_LEVEL",
]

MAX_MOMENT = 4  # the highest log-moment that moment computes
MAX_P = 13      # the desk caps on a measure's prime and level: a level
MAX_LEVEL = 5   # holds p^n values, 13^5 = 371,293 at the caps


class BallMeasure:
    """levels[n][a] = mu(a + p^n Z_p) for 1 <= n <= N = len(levels) - 1 and
    0 <= a < p^n, with 0 at every non-unit a; levels[0] = [0] is a
    placeholder.  A value is an int (a modular-symbol measure is
    integer-valued) or else a Fraction.

    modulus = None means the values are exact rationals; modulus = m means
    they are only trusted mod p^m (the case of an irrational unit root
    approximated by a rational).  A measure is never mutated, so its
    distribution report and each level's weights (_weights) are kept."""

    def __init__(self, p, levels, modulus=None):
        assert p % 2 == 1 and len(levels) >= 2
        for n, level in enumerate(levels):
            assert len(level) == p ** n and not any(level[::p])
        self.p, self.levels, self.modulus, self.report = p, levels, modulus, None
        self.N, self.weights = len(levels) - 1, {}

    def mass(self, level):
        """mu(Z_p^*) as the sum of the values at the given level."""
        return sum(self.levels[level])

    def __add__(self, other):
        assert (self.p, self.N) == (other.p, other.N)
        mod = min((m for m in (self.modulus, other.modulus) if m is not None),
                  default=None)
        # a sum of Dirac measures is a few values among mostly zeros
        return BallMeasure(self.p, [[x + y if y else x for x, y in zip(a, b)]
                                    for a, b in zip(self.levels, other.levels)],
                           mod)

    def scale(self, t):
        return BallMeasure(self.p, [[v * t if v else 0 for v in level]
                                    for level in self.levels], self.modulus)


def dirac(p, N, at):
    """The Dirac measure at a unit of Z_p^* (given as a rational)."""
    at = Fraction(at)
    assert ord_p(at, p) == 0
    levels = [[0] * p ** n for n in range(N + 1)]
    for n in range(1, N + 1):
        m = p ** n
        levels[n][at.numerator * pow(at.denominator, -1, m) % m] = 1
    return BallMeasure(p, levels)


# failures lists the (n, a) whose ball fails the distribution relation
DistributionReport = namedtuple("DistributionReport", "ok bound_cert failures")


def check_distribution_and_bound(mu):
    """Exhaustively verify mu(a + p^n) = sum of the p refinements (exactly,
    or mod p^modulus for approximate measures) and compute the minimal
    boundedness certificate c with ord_p(value) >= -c.  The report is kept
    on mu, so later calls return it at once."""
    if mu.report is not None:
        return mu.report
    p, levels = mu.p, mu.levels
    # the refinements a + b p^n, 0 <= b < p, of a ball at level n are
    # levels[n + 1][a::p^n], and those of a ball off the units are off the
    # units too; an exact level equal to its sums has no failure, an int
    # difference fails under a modulus unless p^modulus divides it, and a
    # sum is an int exactly when its slice holds no Fraction
    failures, mixed, mod = [], [levels[1]], mu.modulus and p ** mu.modulus
    for n in range(1, mu.N):
        level, finer = levels[n], levels[n + 1]
        pn = len(level)
        sums = [sum(finer[a::pn]) for a in range(pn)]
        if not {int}.issuperset(map(type, sums)):
            mixed.append(finer)
        if mod is None and level == sums:
            continue
        for a in range(1, pn):
            diff = level[a] - sums[a]
            if diff and (mod is None or (diff % mod if type(diff) is int
                                         else ord_p(diff, p) < mu.modulus)):
                failures.append((n, a))
    # only a value with p in its denominator has negative valuation; mixed
    # holds the levels with a Fraction, and level 1
    worst = max((-ord_p(v, p) for level in mixed for v in level
                 if type(v) is not int and v.denominator % p == 0), default=0)
    mu.report = DistributionReport(not failures, worst, failures)
    return mu.report


def _weights(mu, level, digits):
    """The Mazur-Tate weights W_j = sum over 0 < i < p of
    mu(w(i) g^j + p^n Z_p), 0 <= j < p^(n-1), as the integers p^c W_j mod
    p^digits; w(i) is the Teichmuller lift and g = 1 + p.  The points
    w(i) g^j meet every unit residue mod p^n once, and <w(i) g^j> = g^j.
    On an even level, mu(-a) = mu(a), w(p - i) = -w(i) gives the same terms
    as w(i), so the sum reads i < p/2 and doubles.  The unreduced p^c W_j
    of a level are kept on mu, for every later call."""
    p, sums = mu.p, mu.weights.get(level)
    if sums is None:
        values, sums = mu.levels[level], [0] * p ** (level - 1)
        g, pn = 1 + p, len(values)
        even = all(map(eq, islice(values, 1, pn // 2 + 1), reversed(values)))
        for i in range(1, (p + 1) // 2 if even else p):
            x = teichmuller(i, p, level).unit
            for j in range(len(sums)):
                sums[j] += values[x]
                x = x * g % pn
        scale = p ** check_distribution_and_bound(mu).bound_cert * (1 + even)
        sums = mu.weights[level] = [t * scale for t in sums]
    m = p ** digits
    return [t % m if type(t) is int else
            t.numerator * pow(t.denominator, -1, m) % m for t in sums]


def gamma_transform(mu, s, level, prec=DEFAULT_PREC):
    """Riemann sum of <a>^s = exp_p(s log_p<a>) against mu at the given
    level, sampled at w(i) g^j (see _weights): with h = g^s it is
    sum_j W_j h^j, by Horner's rule.  Returns (value, err), the value
    truncated to err = level + ord(s) - c (at most modulus - c): for
    a = b mod p^level, <a>^s - <b>^s has ord >= level + ord(s), and every
    value has ord >= -c, the boundedness certificate.  s = 0 gives the mass
    and err None, or modulus - c.  prec is the relative precision of a
    rational s; a PadicNumber s known to fewer digits leaves fewer."""
    p = mu.p
    assert 1 <= level <= mu.N
    if not isinstance(s, PadicNumber):
        s = from_rational(s, p, prec)
    c = check_distribution_and_bound(mu).bound_cert
    if s.is_zero:
        return moment(mu, 0, level, prec), \
            None if mu.modulus is None else mu.modulus - c
    assert s.val >= 1, "Gamma-transform needs ord(s) >= 1"
    err_exp = level + s.val - c
    if mu.modulus is not None:
        err_exp = min(err_exp, mu.modulus - c)
    h = exp_p(s * log_iwasawa(Fraction(1 + p), p, err_exp + c))
    digits = min(err_exp + c, h.abs_prec)
    m, h = p ** digits, h.residue_mod(digits)
    total = 0
    for w in reversed(_weights(mu, level, digits)):
        total = (total * h + w) % m
    return from_rational(Fraction(total, p ** c), p, digits).truncate_abs(
        digits - c), err_exp


def moment(mu, k, level, prec=DEFAULT_PREC):
    """Riemann sum of (log_p<a>)^k against mu; the k-th Taylor coefficient
    of the Gamma-transform at s = 0 up to k!.  Sampled at w(i) g^j (see
    _weights), it is log_p(g)^k S_k with the integer S_k = sum_j j^k W_j.
    The integrand varies by ord >= level + k - 1 on each ball, so for k >= 1
    the sum is accurate to err = level + k - 1 - c (at most modulus - c) and
    claims min(err, prec) digits: prec only caps them."""
    assert 0 <= k <= MAX_MOMENT
    p = mu.p
    assert 1 <= level <= mu.N
    c = check_distribution_and_bound(mu).bound_cert
    if k == 0:
        mass = from_rational(mu.mass(level), p, prec)
        return mass if mu.modulus is None \
            else mass.truncate_abs(mu.modulus - c)
    err_exp = level + k - 1 - c
    if mu.modulus is not None:
        err_exp = min(err_exp, mu.modulus - c)
    digits = min(err_exp, prec) + c
    m = p ** digits
    s_k = sum(j ** k * w for j, w in enumerate(_weights(mu, level, digits)))
    log_g = log_iwasawa(Fraction(1 + p), p, digits).residue_mod(digits)
    total = pow(log_g, k, m) * s_k % m
    return from_rational(Fraction(total, p ** c), p, digits).truncate_abs(
        digits - c)


def vanishing_order(mu, r_max, level, prec=DEFAULT_PREC):
    """The least k <= r_max with a provably nonzero k-th moment, together
    with the moments; r_max + 1 means all computed moments vanish at their
    precision."""
    moments = []
    for k in range(r_max + 1):
        m = moment(mu, k, level, prec)
        moments.append(m)
        if not m.is_zero:
            return k, moments
    return r_max + 1, moments


def save_measure(mu, path):
    """Write mu as a header 'p N c', followed by the modulus when mu has
    one, then one line 'n a value' per ball with a nonzero value."""
    c = check_distribution_and_bound(mu).bound_cert
    with open(path, "w") as fh:
        mod = "" if mu.modulus is None else f" {mu.modulus}"
        fh.write(f"{mu.p} {mu.N} {c}{mod}\n")
        for n, level in enumerate(mu.levels):
            for a, v in enumerate(level):
                if v:
                    fh.write(f"{n} {a} {v}\n")


def load_measure(path):
    """Read a measure written by save_measure (a header without a modulus
    is an exact measure, and a ball without a line has value 0); integer
    values come back as ints.  Raises OSError for an unreadable file and
    ValueError for a malformed one, or for one past the desk caps, before
    allocating its levels."""
    with open(path) as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    try:
        if not rows or len(rows[0]) not in (3, 4):
            raise ValueError("header must be 'p N c [modulus]'")
        p, N, _c, *mod = (int(x) for x in rows[0])
        if not (2 < p <= MAX_P and all(p % d for d in range(2, p))
                and 1 <= N <= MAX_LEVEL and min(mod, default=1) >= 1):
            raise ValueError(f"needs an odd prime p <= {MAX_P}, "
                             f"1 <= N <= {MAX_LEVEL} and a modulus >= 1")
        levels = [[0] * p ** n for n in range(N + 1)]
        for row in rows[1:]:
            n, a, v = row
            n, a, v = int(n), int(a), Fraction(v)
            if not (1 <= n <= N and 0 < a < p ** n and a % p):
                raise ValueError(f"no unit ball ({n}, {a})")
            levels[n][a] = v.numerator if v.denominator == 1 else v
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: malformed measure: {exc}") from None
    return BallMeasure(p, levels, *mod)
