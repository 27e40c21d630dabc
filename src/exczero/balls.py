"""Basic compact opens of Q_p, Q_p^* and P^1(Q_p), and locally constant
functions given as finite ball-coefficient sums."""

from dataclasses import dataclass
from fractions import Fraction

from .padic import ord_p

__all__ = ["Ball", "MultBall", "P1Piece", "BallFunction", "reduce_mod_power"]


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


@dataclass(frozen=True)
class Ball:
    """Additive ball center + p^depth * Z_p (depth any integer)."""
    p: int
    center: Fraction
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "center",
                           reduce_mod_power(self.center, self.depth, self.p))

    def contains(self, x):
        return reduce_mod_power(Fraction(x) - self.center, self.depth, self.p) == 0

    def children(self):
        p = self.p
        return [Ball(p, self.center + i * Fraction(p) ** self.depth, self.depth + 1)
                for i in range(p)]

    def parent(self):
        return Ball(self.p, self.center, self.depth - 1)

    def haar_measure(self):
        """dx-measure, normalized so that Z_p has measure 1."""
        return Fraction(self.p) ** (-self.depth)

    def scale(self, t):
        """The image t * B."""
        t = Fraction(t)
        assert t != 0
        return Ball(self.p, t * self.center, self.depth + ord_p(t, self.p))

    def translate(self, x):
        return Ball(self.p, self.center + Fraction(x), self.depth)

    def __repr__(self):
        return f"Ball({self.center} + {self.p}^{self.depth}*O)"


@dataclass(frozen=True)
class MultBall:
    """Multiplicative coset a * U^(n) of Q_p^*, with U^(0) the full unit group."""
    p: int
    a: Fraction
    n: int

    def __post_init__(self):
        assert self.n >= 0
        a = Fraction(self.a)
        assert a != 0
        v = ord_p(a, self.p)
        if self.n == 0:
            a = Fraction(self.p) ** v
        else:
            u = reduce_mod_power(a / Fraction(self.p) ** v, self.n, self.p)
            a = u * Fraction(self.p) ** v
        object.__setattr__(self, "a", a)

    @property
    def val(self):
        return ord_p(self.a, self.p)

    def contains(self, x):
        x = Fraction(x)
        if x == 0 or ord_p(x, self.p) != self.val:
            return False
        if self.n == 0:
            return True
        return reduce_mod_power(x / self.a - 1, self.n, self.p) == 0

    def scale(self, t):
        return MultBall(self.p, Fraction(t) * self.a, self.n)

    def additive_pieces(self):
        """Decompose into additive balls: a*U^(n) = a + a*p^n*O for n >= 1,
        and a union of p-1 balls for n = 0."""
        p, v = self.p, self.val
        if self.n >= 1:
            return [Ball(p, self.a, v + self.n)]
        return [Ball(p, u * Fraction(p) ** v, v + 1) for u in range(1, p)]

    def mult_measure(self):
        """d*x-measure with vol(U, d*x) = 1."""
        if self.n == 0:
            return Fraction(1)
        q = self.p
        return Fraction(1, q ** (self.n - 1) * (q - 1))

    def __repr__(self):
        return f"MultBall({self.a}*U^({self.n}))"


@dataclass(frozen=True)
class P1Piece:
    """A ball of Q_p viewed inside P^1, or the complement of one (which is
    the piece containing infinity)."""
    ball: Ball
    complement: bool = False

    def contains_infinity(self):
        return self.complement

    def contains(self, x):
        inside = self.ball.contains(x)
        return (not inside) if self.complement else inside

    def invert(self):
        return P1Piece(self.ball, not self.complement)

    def __repr__(self):
        return ("P1 - " if self.complement else "") + repr(self.ball)


class BallFunction:
    """A finite sum of coefficients times indicators of disjoint basic pieces
    (additive balls and/or multiplicative cosets) of Q_p or Q_p^*."""

    def __init__(self, p, pieces=()):
        self.p = p
        self.pieces = [(b, c) for b, c in pieces if c != 0]

    @classmethod
    def indicator(cls, piece, coeff=Fraction(1)):
        return cls(piece.p, [(piece, coeff)])

    def __add__(self, other):
        assert self.p == other.p
        return BallFunction(self.p, list(self.pieces) + list(other.pieces))

    def __neg__(self):
        return BallFunction(self.p, [(b, -c) for b, c in self.pieces])

    def __sub__(self, other):
        return self + (-other)

    def act(self, t):
        """The torus action (t.f)(x) = f(t^{-1} x)."""
        t = Fraction(t)
        return BallFunction(self.p, [(b.scale(t), c) for b, c in self.pieces])

    def translate(self, x):
        """(f shifted) y -> f(y - x); additive pieces only."""
        out = []
        for b, c in self.pieces:
            assert isinstance(b, Ball)
            out.append((b.translate(x), c))
        return BallFunction(self.p, out)

    def evaluate(self, x):
        total = Fraction(0)
        for b, c in self.pieces:
            if b.contains(x):
                total += c
        return total

    def additive_pieces(self):
        """Flatten to (additive Ball, coeff) pairs."""
        out = []
        for b, c in self.pieces:
            if isinstance(b, Ball):
                out.append((b, c))
            else:
                out.extend((bb, c) for bb in b.additive_pieces())
        return out

    def __repr__(self):
        return f"BallFunction({self.pieces!r})"
