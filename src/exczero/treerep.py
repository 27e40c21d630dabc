"""Finitely supported functions on the tree over exact coefficients, the
operators delta, delta*_+-, T and their weighted variants, cokernel
membership, harmonic cocycles and boundary distributions, the maps
delta_alpha into B_a, twisting, and the Steinberg Whittaker functional."""

from dataclasses import dataclass
from fractions import Fraction

from .balls import P1Piece
from .characters import AdditiveCharacterPsi
from .cyclotomic import Cyclotomic
from .linalg import solve
from .padic import ord_p
from .tree import (
    TreeEdge, act, ball_vertices, base_vertex, distance,
    edge_of_ball, ends, height, neighbors,
)

__all__ = [
    "VertexFunction", "EdgeFunction", "HarmonicCocycle",
    "delta", "delta_star", "hecke_T", "tau_pairing",
    "in_image_T_minus_a", "MembershipResult", "boundary_distribution",
    "tilde_delta_down", "tilde_delta_up", "rho_times", "twist",
    "delta_alpha", "a_param", "rho_pairing", "whittaker_steinberg",
    "harmonic_from_point_masses", "solve_delta_preimage",
]


def _exact(c):
    """An exact value as it is: ints stay ints, anything else a Fraction."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


class VertexFunction:
    """Finitely supported function on tree vertices with int or Fraction
    values; a vertex outside the support reads 0."""

    def __init__(self, p, data=None):
        self.p = p
        self.data = {v: _exact(c) for v, c in (data or {}).items() if c != 0}

    @classmethod
    def indicator(cls, v, coeff=1):
        return cls(v.p, {v: coeff})

    def __call__(self, v):
        return self.data.get(v, 0)

    def __add__(self, other):
        out = dict(self.data)
        for v, c in other.data.items():
            out[v] = out.get(v, 0) + c
        return VertexFunction(self.p, out)

    def __neg__(self):
        return VertexFunction(self.p, {v: -c for v, c in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, t):
        return VertexFunction(self.p, {v: c * t for v, c in self.data.items()})

    def act(self, g):
        """(g.phi)(v) = phi(g^{-1} v): transport the support by g."""
        return VertexFunction(self.p, {act(g, v): c for v, c in self.data.items()})

    def pointwise(self, fn):
        return VertexFunction(self.p, {v: c * fn(v) for v, c in self.data.items()})

    def pairing(self, other):
        return sum(c * other(v) for v, c in self.data.items())

    def support(self):
        return set(self.data)

    def __eq__(self, other):
        return self.p == other.p and self.data == other.data

    def is_zero(self):
        return not self.data

    def __repr__(self):
        return f"VertexFunction({self.data!r})"


def _canonical(e):
    """Store each geometric edge with the upward orientation."""
    return (e, 1) if e.target.n == e.origin.n + 1 else (e.reverse(), -1)


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
        val = _exact(val) if orient == 1 else _exact(val) * self._flip
        if val == 0:
            self.data.pop(ce, None)
        else:
            self.data[ce] = val
        return self

    def add_to(self, e, val):
        return self.set(e, self(e) + _exact(val))

    def __call__(self, e):
        ce, orient = _canonical(e)
        v = self.data.get(ce, 0)
        return v if orient == 1 else v * self._flip

    def __add__(self, other):
        assert self.sign == other.sign
        out = EdgeFunction(self.p, self.sign)
        out.data = dict(self.data)
        for e, c in other.data.items():
            out.data[e] = out.data.get(e, 0) + c
        out.data = {e: c for e, c in out.data.items() if c != 0}
        return out

    def __neg__(self):
        out = EdgeFunction(self.p, self.sign)
        out.data = {e: -c for e, c in self.data.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, t):
        out = EdgeFunction(self.p, self.sign)
        out.data = {e: c * t for e, c in self.data.items()}
        return out

    def act(self, g):
        out = EdgeFunction(self.p, self.sign)
        for e, c in self.data.items():
            out.add_to(act(g, e), c)
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


# -- the four basic operators ----------------------------------------------

def delta(c):
    """delta(c)(v) = sum over edges with target v of c(e)."""
    out = {}
    for e, val in c.data.items():
        out[e.target] = out.get(e.target, 0) + val
        out[e.origin] = out.get(e.origin, 0) + val * c._flip
    return VertexFunction(c.p, out)


def _edges_near(phi):
    """Each geometric edge with an end in the support of phi, once, upward."""
    return dict.fromkeys(TreeEdge(v, w) if w.n > v.n else TreeEdge(w, v)
                         for v in phi.data for w in neighbors(v))


def delta_star(phi, sign):
    """delta*_+-(phi)(e) = phi(t(e)) -+ phi(o(e))."""
    out = EdgeFunction(phi.p, sign)
    for e in _edges_near(phi):
        out.set(e, phi(e.target) - sign * phi(e.origin))
    return out


def hecke_T(phi):
    out = {}
    for v, c in phi.data.items():
        for w in neighbors(v):
            out[w] = out.get(w, 0) + c
    return VertexFunction(phi.p, out)


def tau_pairing(phi, eps):
    """<phi, tau_eps> with tau_eps(v) = eps^h(v)."""
    assert eps in (1, -1)
    return sum(c * eps ** abs(height(v)) for v, c in phi.data.items())


def twist(phi, eps):
    """Pointwise multiplication by tau_eps; an involution."""
    assert eps in (1, -1)
    return phi.pointwise(lambda v: eps ** abs(height(v)))


# -- weighted operators, rho(v) = alpha^h(v) --------------------------------

def _rho(alpha, v):
    h = v.n
    if isinstance(alpha, int) and (h >= 0 or alpha * alpha == 1):
        return alpha ** abs(h)   # (+-1)^h = (+-1)^|h|
    return Fraction(alpha) ** h


def tilde_delta_down(alpha, c):
    """delta~_rho(c)(v) = sum over t(e)=v of rho(o(e)) c(e), rho = alpha^h."""
    out = {}
    for e, val in c.data.items():
        # upward orientation: contributes at the target with weight rho(origin),
        # and with the reversed edge at the origin with weight rho(target)
        out[e.target] = out.get(e.target, 0) + _rho(alpha, e.origin) * val
        out[e.origin] = (out.get(e.origin, 0)
                         + _rho(alpha, e.target) * val * c._flip)
    return VertexFunction(c.p, out)


def tilde_delta_up(alpha, phi):
    """delta~^rho(phi)(e) = rho(o(e)) phi(t(e)) - rho(t(e)) phi(o(e))."""
    out = EdgeFunction(phi.p, 1)
    for e in _edges_near(phi):
        out.set(e, _rho(alpha, e.origin) * phi(e.target)
                - _rho(alpha, e.target) * phi(e.origin))
    return out


def rho_times(alpha, phi):
    return phi.pointwise(lambda v: _rho(alpha, v))


def rho_pairing(phi, alpha):
    """<phi, rho> = sum of phi(v) alpha^h(v), the obstruction against the
    height-weight eigenfunction."""
    return sum(c * _rho(alpha, v) for v, c in phi.data.items())


def a_param(alpha, q):
    """The Hecke eigenvalue a = alpha + q/alpha attached to the parameter alpha."""
    alpha = Fraction(alpha)
    return alpha + Fraction(q) / alpha


# -- cokernel membership -----------------------------------------------------

@dataclass
class MembershipResult:
    status: str  # 'member' | 'non-member' | 'inconclusive'
    certificate: object = None
    obstruction: object = None


def in_image_T_minus_a(phi, a, R, center=None):
    """Decide whether phi = (T - a) psi for some finitely supported psi.

    Exact linear solve for psi supported in the radius-R ball.  Requires
    supp(phi) within radius R-1 of the center; under that hypothesis the
    bounded search is complete (a solution, if any, lives in radius R-2:
    the outermost support vertex of psi propagates one step further out
    under T).  For a = +-(q+1) the pairing against tau_+- is an a-priori
    obstruction.
    """
    p = phi.p
    q = p
    a = Fraction(a)
    center = center or base_vertex(p)
    if any(distance(center, v) > R - 1 for v in phi.data):
        return MembershipResult("inconclusive")
    if a == q + 1 or a == -(q + 1):
        eps = 1 if a == q + 1 else -1
        obs = tau_pairing(phi, eps)
        if obs != 0:
            return MembershipResult("non-member", obstruction=obs)
    inner = sorted(ball_vertices(p, R, center),
                   key=lambda v: (height(v), str(v.b)))
    outer = sorted(ball_vertices(p, R + 1, center),
                   key=lambda v: (height(v), str(v.b)))
    index = {v: j for j, v in enumerate(inner)}
    rows, rhs = [], []
    for v in outer:
        row = [Fraction(0)] * len(inner)
        if v in index:
            row[index[v]] -= a
        for w in neighbors(v):
            if w in index:
                row[index[w]] += 1
        rows.append(row)
        rhs.append(phi(v))
    sol = solve(rows, rhs)
    if sol is None:
        return MembershipResult("non-member")
    psi = VertexFunction(p, {v: sol[j] for v, j in index.items()})
    check = hecke_T(psi) - psi.scale(a)
    assert check == phi, "certificate failed re-evaluation"
    return MembershipResult("member", certificate=psi)


def solve_delta_preimage(phi, sign, R, center=None):
    """Solve delta(c) = phi with c in C^sign supported on edges in a ball.

    Used for the exactness check of the boundary sequence; returns the
    EdgeFunction or None."""
    p = phi.p
    center = center or base_vertex(p)
    verts = sorted(ball_vertices(p, R + 1, center),
                   key=lambda v: (height(v), str(v.b)))
    vset = set(verts)
    # upward edges, in the order of their origins (one per origin)
    edges = [TreeEdge(v, w) for v in verts for w in neighbors(v)
             if w in vset and w.n == v.n + 1]
    eidx = {e: j for j, e in enumerate(edges)}
    flip = -sign
    rows, rhs = [], []
    for v in verts:
        row = [Fraction(0)] * len(edges)
        for e in edges:
            if e.target == v:
                row[eidx[e]] += 1
            if e.origin == v:
                row[eidx[e]] += flip
        rows.append(row)
        rhs.append(phi(v))
    sol = solve(rows, rhs)
    if sol is None:
        return None
    c = EdgeFunction(p, sign)
    for e, j in eidx.items():
        if sol[j] != 0:
            c.data[e] = sol[j]
    assert delta(c) == phi
    return c


# -- harmonic cocycles and boundary distributions ----------------------------

class HarmonicCocycle:
    """An antisymmetric edge function harmonic inside a certified ball."""

    def __init__(self, c, cert_radius, center=None):
        assert c.sign == 1
        self.c = c
        self.p = c.p
        self.center = center or base_vertex(c.p)
        self.cert_radius = cert_radius
        for v in ball_vertices(c.p, cert_radius - 1, self.center):
            out_sum = sum((c(TreeEdge(v, w)) for w in neighbors(v)), Fraction(0))
            assert out_sum == 0, f"not harmonic at {v}"

    def _edge_in_range(self, e):
        return (distance(self.center, e.origin) <= self.cert_radius
                and distance(self.center, e.target) <= self.cert_radius)


def harmonic_from_point_masses(p, masses, radius, center=None):
    """The truncated boundary cocycle of a finite signed point measure on
    P^1(Q_p): c(e) = sum of masses at points lying in U(e).

    masses: list of (point, mass) with point a rational or the string 'inf';
    total mass must vanish."""
    assert sum(m for _, m in masses) == 0
    center = center or base_vertex(p)
    c = EdgeFunction(p, 1)
    verts = ball_vertices(p, radius, center)
    for v in verts:
        for w in neighbors(v):
            if w in verts and w.n == v.n + 1:   # each edge once, upward
                e = TreeEdge(v, w)
                U = ends(e)
                c.set(e, sum(m for pt, m in masses
                             if (U.contains_infinity() if pt == "inf"
                                 else U.contains(pt))))
    return HarmonicCocycle(c, radius, center)


def boundary_distribution(h, U):
    """mu_c(U) for U a P1Piece or list of disjoint P1Pieces."""
    if isinstance(U, P1Piece):
        U = [U]
    total = Fraction(0)
    for piece in U:
        e = edge_of_ball(piece.ball)
        if not h._edge_in_range(e):
            raise ValueError("decomposition exceeds the harmonicity certificate")
        val = h.c(e)
        total += -val if piece.complement else val
    return total


# -- delta_alpha and the Whittaker functional --------------------------------

def delta_alpha(f, alpha):
    """The Steinberg-side image of a ball function: expand chi_alpha * f
    (extended by zero to P^1) over the edges U(e) and apply the weighted
    boundary operator.  Returns a VertexFunction representing a class in
    B_a, a = alpha + q/alpha."""
    p = f.p
    alpha = Fraction(alpha)
    c = EdgeFunction(p, 1)
    for ball, coeff in f.additive_pieces():
        v = ord_p(ball.center, p) if ball.center != 0 else None
        if alpha != 1:
            assert v is not None and v < ball.depth, \
                "chi_alpha is not constant on a ball containing 0"
        weight = alpha ** v if v is not None and v < ball.depth else Fraction(1)
        # a ball whose elements all share the valuation of the center gets
        # the constant chi_alpha value; for alpha = 1 the weight is 1 anyway
        c.add_to(edge_of_ball(ball), coeff * weight)
    return tilde_delta_down(alpha, c)


def whittaker_steinberg(pieces, p=None):
    """Whittaker functional of a Steinberg vector given as a P^1 ball
    function: Lambda(x -> phi([x:1]) - phi(inf)).

    pieces: list of (P1Piece, coeff).  Complement pieces encode the value at
    infinity; subtracting it leaves an integrable function on Q_p."""
    if p is None:
        p = pieces[0][0].ball.p
    psi = AdditiveCharacterPsi(p)
    total = Cyclotomic.from_rational(0)
    for piece, coeff in pieces:
        sgn = -1 if piece.complement else 1
        b = piece.ball
        if b.depth >= 0:
            total = total + Fraction(sgn) * Fraction(coeff) \
                * b.haar_measure() * psi(b.center)
        # balls of negative depth integrate to zero against psi
    return total
