"""The explicit extension function phi_0 attached to a continuous
homomorphism ell on Q_p^*, the 1-cocycle z_ell(a) = (1 - a)(ell * 1_O),
and the coboundary identity relating the two.

ell is either ord_p (integer-valued) or the Iwasawa logarithm (p-adic
valued).  z_ell(a) is a locally "affine in ell" function on Q_p^*: a finite
list of disjoint regions, each carrying a constant term and an ell-weight,
so the value at x is const + weight * ell(x).  This keeps the log kind
exact: log is not locally constant on valuation shells, so a plain
ball-coefficient expansion would not represent it.
"""

from fractions import Fraction

from .balls import Ball, MultBall
from .padic import DEFAULT_PREC, from_rational, log_iwasawa, ord_p
from .value import Value

__all__ = ["EllSpec", "EllFunction", "phi0", "z_ell", "coboundary_check"]


class EllSpec(Value):
    """A continuous homomorphism ell: Q_p^* -> R, kind 'ord' or 'log'; zero
    is ell's 0, an int or a p-adic zero, and not a field."""
    _fields = ("kind", "p", "prec")
    __slots__ = _fields + ("zero",)

    def __init__(self, kind, p, prec=DEFAULT_PREC):
        assert kind in ("ord", "log")
        if kind == "log":
            assert p != 2, "log kind needs p odd"
        self.kind, self.p, self.prec = kind, p, prec
        self.zero = 0 if kind == "ord" else from_rational(0, p, prec)

    def __call__(self, x):
        """ell(x) of an int or Fraction x: an int for ord, p-adic for log."""
        assert x != 0
        if self.kind == "ord":
            return ord_p(x, self.p)
        return log_iwasawa(x, self.p, self.prec)


class EllFunction:
    """Finite sum of pieces (region, const, weight), weight in {-1, 0, 1};
    the value at x is sum over regions containing x of const + weight*ell(x)."""

    def __init__(self, ell, pieces=()):
        self.ell = ell
        self.pieces = list(pieces)

    def evaluate(self, x):
        assert x != 0
        total = self.ell.zero
        for region, const, weight in self.pieces:
            if region.contains(x):
                total = total + const
                if weight:
                    ell_x = self.ell(x)
                    total = total + ell_x if weight > 0 else total - ell_x
        return total

    def __add__(self, other):
        assert self.ell == other.ell
        return EllFunction(self.ell, self.pieces + other.pieces)

    def act(self, t):
        """(t.f)(x) = f(t^{-1} x): scale regions by t and absorb the shift
        of the ell-weighted part, ell(t^{-1}x) = ell(x) - ell(t)."""
        lt = self.ell(t)   # asserts t != 0
        return EllFunction(self.ell, [(region.scale(t), const - lt * weight, weight)
                                      for region, const, weight in self.pieces])

    def __repr__(self):
        return f"EllFunction({self.pieces!r})"


def phi0(g, ell):
    """The two-case section value: ell(a^2/det) if ord(a) < ord(c), else
    ell(c^2/det), with ord(0) treated as +infinity."""
    (a, b), (c, d) = g
    det = a * d - b * c
    assert det != 0, "singular matrix"
    p = ell.p
    oa = ord_p(a, p) if a != 0 else None
    oc = ord_p(c, p) if c != 0 else None
    a_branch = oc is None or (oa is not None and oa < oc)
    top = a if a_branch else c
    return ell(Fraction(top * top, det))


def z_ell(a, ell):
    """The cocycle value z_ell(a) = (1 - a)(ell * 1_O) as an EllFunction:
    ell(a) on aO plus (or minus) ell itself on the valuation shells between
    O and aO."""
    assert a != 0
    p = ell.p
    m = ord_p(a, p)
    shells = [(MultBall(p, Fraction(p) ** k, 0), ell.zero, 1 if m >= 0 else -1)
              for k in range(min(m, 0), max(m, 0))]
    return EllFunction(ell, [(Ball(p, Fraction(0), m), ell(a), 0)] + shells)


def coboundary_check(a, x, ell):
    """Both sides of the coboundary identity: lhs from phi_0 around the
    torus element diag(a,1) evaluated at the point section (x -1; 1 0),
    rhs = 2 z_ell(a)(x)."""
    a, x = Fraction(a), Fraction(x)
    assert a != 0 and x != 0
    ainv = [[1 / a, 0], [0, 1]]
    mx = [[x, -1], [1, 0]]
    ainv_mx = [[x / a, -1 / a], [1, 0]]
    lhs = (phi0(ainv_mx, ell) - phi0(ainv, ell)
           - phi0(mx, ell) + phi0([[1, 0], [0, 1]], ell))
    rhs = z_ell(a, ell).evaluate(x) * 2
    return lhs, rhs
