"""Finitely supported functions on the tree over exact coefficients, and
the operators delta, delta*_+-, T and their weighted variants delta~_rho,
delta~^rho and rho, rho = alpha^h: the tree operator identities of the
suite's first criterion.  An edge is the pair (origin, target) of a vertex
and one of its neighbours."""

from fractions import Fraction
from functools import lru_cache

from .tree import neighbors

__all__ = [
    "VertexFunction", "EdgeFunction", "delta", "delta_star", "hecke_T",
    "tilde_delta_down", "tilde_delta_up", "rho_times",
]


class VertexFunction:
    """Finitely supported function on tree vertices with int or Fraction
    values; a vertex outside the support reads 0."""

    def __init__(self, p, data=None):
        self.p = p
        self.data = {v: c for v, c in (data or {}).items() if c}

    def __call__(self, v):
        return self.data.get(v, 0)

    def __add__(self, other):
        out = dict(self.data)
        for v, c in other.data.items():
            out[v] = out.get(v, 0) + c
        return VertexFunction(self.p, out)

    def __sub__(self, other):
        out = dict(self.data)
        for v, c in other.data.items():
            out[v] = out.get(v, 0) - c
        return VertexFunction(self.p, out)

    def scale(self, t):
        return VertexFunction(self.p, {v: c * t for v, c in self.data.items()})

    def pairing(self, other):
        return sum(c * other(v) for v, c in self.data.items())

    def __eq__(self, other):
        return self.p == other.p and self.data == other.data

    def is_zero(self):
        return not self.data

    def __repr__(self):
        return f"VertexFunction({self.data!r})"


def _canonical(e):
    """Store each geometric edge with the upward orientation."""
    o, t = e
    return (e, 1) if t.n == o.n + 1 else ((t, o), -1)


class EdgeFunction:
    """Element of C_c^+(E) or C_c^-(E): c(reverse e) = -+ c(e).

    sign=+1 is the antisymmetric space (c(rev) = -c), sign=-1 the symmetric
    one; one value is stored per geometric edge, for the upward orientation.
    """

    def __init__(self, p, sign):
        assert sign in (1, -1)
        self.p = p
        self.sign = sign
        self._flip = -sign  # value on the reversed edge = _flip * value
        self.data = {}

    def set(self, e, val):
        ce, orient = _canonical(e)
        if orient != 1:
            val = val * self._flip
        if not val:
            self.data.pop(ce, None)
        else:
            self.data[ce] = val
        return self

    def add_to(self, e, val):
        return self.set(e, self(e) + val)

    def __call__(self, e):
        ce, orient = _canonical(e)
        v = self.data.get(ce, 0)
        return v if orient == 1 else v * self._flip

    def scale(self, t):
        out = EdgeFunction(self.p, self.sign)
        out.data = {e: c * t for e, c in self.data.items()}
        return out

    def pairing(self, other):
        """Sum over geometric edges of c(e) d(e) (orientation-independent
        for matching signs)."""
        assert self.sign == other.sign
        return sum(c * other(e) for e, c in self.data.items())

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return (self.p, self.sign, self.data) == (other.p, other.sign, other.data)

    def __repr__(self):
        return f"EdgeFunction(sign={self.sign:+d}, {self.data!r})"


# -- the basic operators ---------------------------------------------------

def delta(c):
    """delta(c)(v) = sum over edges with target v of c(e)."""
    out = {}
    for (o, t), val in c.data.items():
        out[t] = out.get(t, 0) + val
        out[o] = out.get(o, 0) + val * c._flip
    return VertexFunction(c.p, out)


def _edges_near(phi):
    """Each geometric edge with an end in the support of phi, once, upward,
    the orientation EdgeFunction stores."""
    return dict.fromkeys((v, w) if w.n > v.n else (w, v)
                         for v in phi.data for w in neighbors(v))


def delta_star(phi, sign):
    """delta*_+-(phi)(e) = phi(t(e)) -+ phi(o(e))."""
    out, get = EdgeFunction(phi.p, sign), phi.data.get
    out.data = {(o, t): c for o, t in _edges_near(phi)
                if (c := get(t, 0) - sign * get(o, 0))}
    return out


def hecke_T(phi):
    out = {}
    for v, c in phi.data.items():
        for w in neighbors(v):
            out[w] = out.get(w, 0) + c
    return VertexFunction(phi.p, out)


# -- weighted operators, rho(v) = alpha^h(v) --------------------------------

@lru_cache(maxsize=1024, typed=True)
def _rho(alpha, h):
    """rho = alpha^h at height h, an int for an int alpha where exact."""
    if isinstance(alpha, int) and (h >= 0 or alpha * alpha == 1):
        return alpha ** abs(h)   # (+-1)^h = (+-1)^|h|
    return Fraction(alpha) ** h


def tilde_delta_down(alpha, c):
    """delta~_rho(c)(v) = sum over t(e)=v of rho(o(e)) c(e), rho = alpha^h."""
    out, flip = {}, c._flip
    for (o, t), val in c.data.items():
        # upward orientation: contributes at the target with weight rho(origin),
        # and with the reversed edge at the origin with weight rho(target)
        out[t] = out.get(t, 0) + _rho(alpha, o.n) * val
        out[o] = out.get(o, 0) + _rho(alpha, t.n) * (val if flip == 1 else -val)
    return VertexFunction(c.p, out)


def tilde_delta_up(alpha, phi):
    """delta~^rho(phi)(e) = rho(o(e)) phi(t(e)) - rho(t(e)) phi(o(e)), as
    rho(o(e)) (phi(t(e)) - alpha phi(o(e))) on the upward edge: rho(o(e)) is
    an int only where rho(t(e)) is, so each value keeps its type."""
    out, get = EdgeFunction(phi.p, 1), phi.data.get
    out.data = {(o, t): c for o, t in _edges_near(phi)
                if (c := _rho(alpha, o.n) * (get(t, 0) - alpha * get(o, 0)))}
    return out


def rho_times(alpha, phi):
    return VertexFunction(phi.p, {v: c * _rho(alpha, v.n)
                                  for v, c in phi.data.items()})
