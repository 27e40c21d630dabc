"""Basic compact opens of Q_p and Q_p^*: additive balls and multiplicative
cosets, with membership and scaling, and the canonical representative of a
rational mod p^m Z_p."""

from fractions import Fraction

from .padic import ord_p
from .value import Value

__all__ = ["Ball", "MultBall", "reduce_mod_power"]


def reduce_mod_power(x, m, p):
    """Canonical representative of x mod p^m Z_p, in [0, p^m), for x rational
    and any integer m (the representative has p-power denominator)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    # write x = num / (p^k * c) with gcd(c, p) = 1
    num, c, k = x.numerator, x.denominator, 0
    while c % p == 0:
        c //= p
        k += 1
    if num == 0 or m + k <= 0:   # then ord_p(x) >= m
        return Fraction(0)
    mod = p ** (m + k)
    return Fraction(num * pow(c, -1, mod) % mod, p ** k)


def _ord_at_least(x, c, m, p):
    """ord_p(x - c) >= m, for x and c ints or Fractions, in ints."""
    diff = x.numerator * c.denominator - c.numerator * x.denominator
    m += ord_p(x.denominator * c.denominator, p)
    return m <= 0 or diff % p ** m == 0


class Ball(Value):
    """Additive ball center + p^depth * Z_p (depth any integer)."""
    __slots__ = _fields = ("p", "center", "depth")

    def __init__(self, p, center, depth):
        self.p, self.depth = p, depth
        self.center = reduce_mod_power(center, depth, p)

    def contains(self, x):
        return _ord_at_least(x, self.center, self.depth, self.p)

    def scale(self, t):
        """The image t * B."""
        t = Fraction(t)
        assert t != 0
        return Ball(self.p, t * self.center, self.depth + ord_p(t, self.p))

    def __repr__(self):
        return f"Ball({self.center} + {self.p}^{self.depth}*O)"


class MultBall(Value):
    """Multiplicative coset a * U^(n) of Q_p^*, with U^(0) the full unit group."""
    _fields = ("p", "a", "n")
    __slots__ = _fields + ("val",)

    def __init__(self, p, a, n):
        assert n >= 0
        a = Fraction(a)
        assert a != 0
        v = ord_p(a, p)
        if n == 0:
            a = Fraction(p) ** v
        else:
            a = reduce_mod_power(a / Fraction(p) ** v, n, p) * Fraction(p) ** v
        self.p, self.a, self.n, self.val = p, a, n, v   # val: not a field

    def contains(self, x):
        """x in a U^(n): ord(x) = ord(a) and, for n >= 1, ord(x - a) >= ord(a) + n."""
        if x == 0 or ord_p(x, self.p) != self.val:
            return False
        return self.n == 0 or _ord_at_least(x, self.a, self.val + self.n, self.p)

    def scale(self, t):
        return MultBall(self.p, Fraction(t) * self.a, self.n)

    def __repr__(self):
        return f"MultBall({self.a}*U^({self.n}))"
