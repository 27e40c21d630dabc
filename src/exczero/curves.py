"""Elliptic curves over Q given by Weierstrass coefficients: standard
invariants, Hecke eigenvalues a_ell by point counting (tangent-slope test at
odd multiplicative primes), Tate periods at multiplicative p by inverting
the j-series, and the L-invariant log_p(q_E)/ord_p(q_E)."""

from fractions import Fraction
from math import gcd, isqrt

from .padic import from_rational, log_iwasawa, ord_p
from .value import Value

__all__ = ["EllipticCurve", "load_curve", "ap", "reduction_type",
           "tate_period", "l_invariant", "j_series_coeffs", "MAX_N"]

MAX_N = 200  # the desk cap on a curve file's conductor


class EllipticCurve(Value):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, of conductor N."""
    __slots__ = _fields = ("label", "N", "a1", "a2", "a3", "a4", "a6")

    def __init__(self, label, N, a1, a2, a3, a4, a6):
        self.label, self.N = label, N
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6

    @property
    def b2(self):
        return self.a1 ** 2 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 ** 2 + 4 * self.a6

    @property
    def c4(self):
        return self.b2 ** 2 - 24 * self.b4

    @property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self):
        d = Fraction(self.c4 ** 3 - self.c6 ** 2, 1728)
        assert d.denominator == 1 and d != 0
        return d.numerator

    @property
    def j(self):
        return Fraction(self.c4 ** 3, self.discriminant)

    def rhs_times_four(self):
        """Coefficients of 4x^3 + b2 x^2 + 2 b4 x + b6, the right side of
        (2y + a1 x + a3)^2 = f(x)."""
        return [self.b6, 2 * self.b4, self.b2, 4]


def load_curve(path):
    """The curve of a file 'label N a1 a2 a3 a4 a6'; ValueError unless N is
    in 1..MAX_N and can be the model's conductor (Silverman VII.5.1): N's
    primes divide Delta, each prime of Delta prime to c4 divides N once."""
    with open(path) as fh:
        parts = fh.read().split()
    label, N, a1, a2, a3, a4, a6 = parts[:1] + [int(x) for x in parts[1:7]]
    E = EllipticCurve(label, N, a1, a2, a3, a4, a6)
    d = abs(E.c4 ** 3 - E.c6 ** 2) // 1728  # |Delta|, 0 for a singular model
    if not (d and 1 <= N <= MAX_N):
        raise ValueError(f"{label}: needs Delta != 0 and 1 <= N <= {MAX_N}")
    m = d // gcd(d, pow(E.c4, d.bit_length(), d))  # Delta without c4's primes
    if pow(d, N, N) or pow(N, d.bit_length(), m) or any(  # N | d^N, m | N^e
            N % (q * q) == 0 and m % q == 0 for q in range(2, isqrt(N) + 1)):
        raise ValueError(f"{N} cannot be the conductor of the model {label}")
    return E


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def reduction_type(E, ell):
    """'good', 'split', 'nonsplit', or 'additive' at a prime ell."""
    if E.N % ell != 0:
        return "good"
    if (E.N // ell) % ell == 0:
        return "additive"
    return "split" if _split_at(E, ell) else "nonsplit"


def _split_at(E, ell):
    """Multiplicative ell: is the node split?  At ell = 2, on the (minimal)
    model reduced mod 2 with its node counted, 3 - #E(F_2) is +1 at a split
    node and -1 at a nonsplit one.  At odd ell the node is split iff the
    tangent directions are F_ell-rational.  On (2y + a1 x + a3)^2 = f(x)
    the node sits over the double root x0 of f, and the directions are
    rational iff the remaining linear factor's value g(x0) is a square mod
    ell."""
    if ell == 2:
        return _points_mod_2(E) == 2
    f = [c % ell for c in E.rhs_times_four()]
    fp = [(k * f[k]) % ell for k in range(1, 4)]
    roots = [x for x in range(ell)
             if _evalmod(f, x, ell) == 0 and _evalmod(fp, x, ell) == 0]
    assert len(roots) == 1, "multiplicative reduction has a unique node"
    x0 = roots[0]
    g = _deflate(_deflate(f, x0, ell), x0, ell)
    return _legendre(_evalmod(g, x0, ell), ell) == 1


def _points_mod_2(E):
    """#E(F_2) on the model reduced mod 2, the point at infinity and any
    singular point included."""
    return 1 + sum((y * y + E.a1 * x * y + E.a3 * y
                    - x ** 3 - E.a2 * x * x - E.a4 * x - E.a6) % 2 == 0
                   for x in range(2) for y in range(2))


def _evalmod(coeffs, x, m):
    total = 0
    for c in reversed(coeffs):
        total = (total * x + c) % m
    return total


def _deflate(coeffs, root, m):
    """Divide a polynomial over Z/m by (x - root), exactly."""
    out = []
    carry = 0
    for c in reversed(coeffs):
        carry = (carry * root + c) % m
        out.append(carry)
    assert out.pop() == 0, "not a root"
    return list(reversed(out))


def ap(E, ell):
    """The Hecke eigenvalue: ell + 1 - #E(F_ell) at good primes, the node
    sign at multiplicative ones."""
    kind = reduction_type(E, ell)
    assert kind != "additive", "additive reduction"
    if kind == "split":
        return 1
    if kind == "nonsplit":
        return -1
    if ell == 2:
        return 3 - _points_mod_2(E)
    f = E.rhs_times_four()
    return -sum(_legendre(_evalmod(f, x, ell), ell) for x in range(ell))


# -- Tate period --------------------------------------------------------------

def j_series_coeffs(K):
    """Integer coefficients c_0..c_K of q*j(q) = E4(q)^3 / (Delta(q)/q)."""
    # E4 = 1 + 240 sum sigma_3(n) q^n
    e4 = [0] * (K + 1)
    e4[0] = 1
    for n in range(1, K + 1):
        e4[n] = 240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
    e43 = _series_mul(_series_mul(e4, e4, K), e4, K)
    # Delta/q = prod (1 - q^n)^24
    dq = [1] + [0] * K
    for n in range(1, K + 1):
        for _ in range(24):
            nxt = dq[:]
            for i in range(n, K + 1):
                nxt[i] -= dq[i - n]
            dq = nxt
    return _series_mul(e43, _series_inverse(dq, K), K)


def _series_mul(a, b, K):
    out = [0] * (K + 1)
    for i, ai in enumerate(a[:K + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:K + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inverse(a, K):
    assert a[0] in (1, -1)
    out = [a[0]] + [0] * K
    for n in range(1, K + 1):
        out[n] = -a[0] * sum(a[i] * out[n - i] for i in range(1, n + 1))
    return out


def tate_period(E, p, prec=20):
    """The Tate period q_E in pZ_p with j(q_E) = j(E), by fixed-point
    inversion of 1/j = q / w(q), w an integer power series with w(0) = 1."""
    j = E.j
    m = -ord_p(j, p)
    assert m > 0, "needs multiplicative reduction (ord_p(j) < 0)"
    goal = prec + m
    mod = p ** goal
    K = goal // m + 2
    w = j_series_coeffs(K)  # q*j = sum w_k q^k, w_0 = 1
    # 1/j = Delta / c4^3 has a p-unit denominator, as p does not divide c4
    # at multiplicative p: t is its representative mod p^goal
    t = q = j.denominator * pow(j.numerator, -1, mod) % mod
    # fixed point q = t * w(q); each pass gains m digits of agreement since
    # w has integer coefficients and ord(t) = m
    for _ in range(goal // m + 2):
        q = t * _evalmod(w, q, mod) % mod
    qpad = from_rational(q, p, prec)
    assert qpad.val == m
    return qpad


def j_of_q(E, p, prec=20):
    """Evaluate the j-series at the computed Tate period (round-trip check)."""
    q = tate_period(E, p, prec)
    m = q.val
    qr = q.unit * p ** m
    K = prec // m + 2
    w = j_series_coeffs(K)
    return Fraction(_evalmod(w, qr, p ** (prec + m)), qr)


def l_invariant(E, p, prec=20):
    """log_p(q_E) / ord_p(q_E) for split multiplicative p."""
    assert reduction_type(E, p) == "split", "needs split multiplicative p"
    q = tate_period(E, p, prec)
    return log_iwasawa(q) * Fraction(1, q.val)
