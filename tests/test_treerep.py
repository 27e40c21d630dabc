import hashlib
import random
from fractions import Fraction

from exczero.tree import (
    TreeVertex, ball_vertices, base_vertex, distance, neighbors,
)
from exczero.treerep import (
    EdgeFunction, VertexFunction, delta, delta_star, hecke_T, rho_times,
    tilde_delta_down, tilde_delta_up,
)

# sha256 of delta, delta*, T, delta~_rho, delta~^rho and rho on seeded random
# functions at p = 2, 3, 5, both signs and alpha = 1, -1, 2 (see
# test_operators_pinned)
OPERATOR_DIGEST = "a9bc2539aa82baa939448d003d4370ed8cc473f34aaa0f14d1c1aecc0caa8c6d"


def random_vertex_function(rng, p, radius=2, terms=4):
    verts = sorted(ball_vertices(p, radius), key=repr)
    return VertexFunction(p, {v: Fraction(rng.randint(-5, 5))
                              for v in rng.sample(verts, min(terms, len(verts)))})


def random_edge_function(rng, p, sign, radius=2, terms=4):
    verts = sorted(ball_vertices(p, radius), key=repr)
    c = EdgeFunction(p, sign)
    for _ in range(terms):
        v = rng.choice(verts)
        w = rng.choice(neighbors(v))
        c.add_to((v, w), Fraction(rng.randint(-5, 5)))
    return c


def test_edge_function_orientation():
    p = 3
    v, w = base_vertex(p), TreeVertex(p, 1, 0)
    anti = EdgeFunction(p, 1).set((v, w), 2)
    assert anti((v, w)) == 2 and anti((w, v)) == -2
    sym = EdgeFunction(p, -1).set((v, w), 2)
    assert sym((v, w)) == 2 and sym((w, v)) == 2


def test_delta_delta_star_composite():
    # with delta*_eps(phi)(e) = phi(t(e)) - eps*phi(o(e)) the composite is
    # delta o delta*_eps = (q+1) id - eps T, exactly
    rng = random.Random(41)
    for p in (2, 3, 5):
        q = p
        for eps in (1, -1):
            for _ in range(10):
                phi = random_vertex_function(rng, p)
                lhs = delta(delta_star(phi, eps))
                rhs = phi.scale(q + 1) - hecke_T(phi).scale(eps)
                assert lhs == rhs


def test_adjointness():
    # <delta(c), phi> = <c, delta*_eps(phi)> for c of matching sign
    rng = random.Random(43)
    for p in (2, 3):
        for eps in (1, -1):
            for _ in range(15):
                c = random_edge_function(rng, p, eps)
                phi = random_vertex_function(rng, p)
                assert delta(c).pairing(phi) == c.pairing(delta_star(phi, eps))


def test_hecke_T_self_adjoint():
    rng = random.Random(47)
    for _ in range(20):
        p = rng.choice([2, 3])
        phi = random_vertex_function(rng, p)
        psi = random_vertex_function(rng, p)
        assert hecke_T(phi).pairing(psi) == phi.pairing(hecke_T(psi))


def test_tau_is_hecke_eigenfunction():
    # <T phi, tau_eps> = eps (q+1) <phi, tau_eps>, tau_eps(v) = eps^h(v)
    rng = random.Random(53)
    for p in (2, 3, 5):
        for eps in (1, -1):
            def tau(v):
                return eps ** abs(v.n)
            for _ in range(10):
                phi = random_vertex_function(rng, p)
                assert hecke_T(phi).pairing(tau) \
                    == eps * (p + 1) * phi.pairing(tau)


def test_twist_conjugates_T():
    # twisting by tau_eps (pointwise, tau_eps(v) = eps^h(v)) conjugates T
    # to eps T
    rng = random.Random(59)
    for _ in range(15):
        p = rng.choice([2, 3])
        eps = rng.choice([1, -1])
        def twist(f):
            return VertexFunction(f.p, {v: c * eps ** abs(v.n)
                                        for v, c in f.data.items()})
        phi = random_vertex_function(rng, p)
        assert twist(hecke_T(twist(phi))) == hecke_T(phi).scale(eps)


def test_delta_star_injective_and_exact():
    # delta*_eps is injective on compactly supported functions
    rng = random.Random(61)
    for p in (2, 3):
        for eps in (1, -1):
            phi = random_vertex_function(rng, p, radius=1, terms=3)
            if not phi.is_zero():
                assert not delta_star(phi, eps).is_zero()


def test_weighted_operators_degenerate_to_plain():
    rng = random.Random(67)
    for _ in range(10):
        p = rng.choice([2, 3])
        c = random_edge_function(rng, p, 1)
        phi = random_vertex_function(rng, p)
        assert tilde_delta_down(1, c) == delta(c)
        assert tilde_delta_up(1, phi) == delta_star(phi, 1)


def test_weighted_adjointness():
    # <delta~_rho(c), phi> = <c, delta~^rho(phi)> with rho = alpha^h
    rng = random.Random(71)
    for alpha in (Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3, 5)):
        for _ in range(8):
            p = rng.choice([2, 3])
            c = random_edge_function(rng, p, 1)
            phi = random_vertex_function(rng, p)
            assert tilde_delta_down(alpha, c).pairing(phi) == c.pairing(tilde_delta_up(alpha, phi))


def test_weighted_composite():
    # delta~_rho(delta~^rho(phi))(v) = phi(v) sum_{w~v} rho(w)^2
    #                                  - rho(v) (T(rho phi))(v)
    # and sum_{w~v} rho(w)^2 = rho(v)^2 (alpha^2 + q/alpha^2) since one
    # neighbor sits a level up and q a level down
    rng = random.Random(73)
    for alpha in (Fraction(2), Fraction(1, 2), Fraction(-1)):
        for _ in range(8):
            p = rng.choice([2, 3])
            s = alpha ** 2 + Fraction(p) / alpha ** 2
            phi = random_vertex_function(rng, p)
            lhs = tilde_delta_down(alpha, tilde_delta_up(alpha, phi))
            rhs = rho_times(alpha, rho_times(alpha, phi)).scale(s) \
                - rho_times(alpha, hecke_T(rho_times(alpha, phi)))
            assert lhs == rhs


def test_rho_is_T_eigenfunction():
    # <T phi, rho> = (alpha + q/alpha) <phi, rho>, rho(v) = alpha^h(v)
    rng = random.Random(79)
    for p in (2, 3, 5):
        for alpha in (Fraction(2), Fraction(1, 3), Fraction(-1)):
            a = alpha + p / alpha
            def rho(v):
                return alpha ** v.n
            for _ in range(6):
                phi = random_vertex_function(rng, p)
                assert hecke_T(phi).pairing(rho) == a * phi.pairing(rho)


def _as_fractions(f, den=1):
    """A copy of a vertex or edge function with Fraction values divided by den."""
    if isinstance(f, VertexFunction):
        return VertexFunction(f.p, {v: Fraction(c, den) for v, c in f.data.items()})
    out = EdgeFunction(f.p, f.sign)
    out.data = {e: Fraction(c, den) for e, c in f.data.items()}
    return out


def test_operators_agree_on_int_and_fraction_values():
    rng = random.Random(97)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        eps = rng.choice([1, -1])
        den = rng.choice([1, 2, 3, 7])
        phi = random_vertex_function(rng, p)
        phi.data = {v: int(c) for v, c in phi.data.items()}
        psi = random_vertex_function(rng, p)
        c = random_edge_function(rng, p, eps)
        c.data = {e: int(x) for e, x in c.data.items()}
        phi_q, c_q = _as_fractions(phi, den), _as_fractions(c, den)
        assert phi == _as_fractions(phi) and c == _as_fractions(c)
        assert delta(c) == delta(c_q).scale(den)
        assert delta_star(phi, eps) == delta_star(phi_q, eps).scale(den)
        assert hecke_T(phi) == hecke_T(phi_q).scale(den)
        assert phi.pairing(psi) == phi_q.pairing(psi) * den
        assert c.pairing(c) == c_q.pairing(c_q) * den * den
        assert delta(c).pairing(phi) == delta(c_q).pairing(phi_q) * den * den
        for alpha in (1, -1, 2, Fraction(1, 2)):
            assert tilde_delta_down(alpha, c) \
                == tilde_delta_down(alpha, c_q).scale(den)
            assert tilde_delta_up(alpha, phi) \
                == tilde_delta_up(alpha, phi_q).scale(den)


def _lines(f):
    """The values of a vertex or edge function, as sorted text lines that do
    not depend on how an edge is typed."""
    if isinstance(f, VertexFunction):
        items = ((repr(v), c) for v, c in f.data.items())
    else:
        items = ((repr(o), repr(t), c) for (o, t), c in f.data.items())
    return sorted(repr(item) for item in items)


def test_operators_pinned():
    rng = random.Random(101)
    digest = hashlib.sha256()
    for p in (2, 3, 5):
        for _ in range(3):
            phi = random_vertex_function(rng, p, terms=6)
            outs = [hecke_T(phi)]
            for eps in (1, -1):
                c = random_edge_function(rng, p, eps, terms=6)
                outs += [delta(c), delta_star(phi, eps)]
            c = random_edge_function(rng, p, 1, terms=6)
            for alpha in (1, -1, 2):
                outs += [tilde_delta_down(alpha, c), tilde_delta_up(alpha, phi),
                         rho_times(alpha, phi)]
            for f in outs:
                digest.update("\n".join(_lines(f)).encode() + b"\n--\n")
    assert digest.hexdigest() == OPERATOR_DIGEST


def _assert_upward(c):
    assert c.data
    for o, t in c.data:
        assert t.n == o.n + 1 and distance(o, t) == 1


def test_edge_functions_store_upward_pairs():
    rng = random.Random(103)
    for p in (2, 3, 5):
        verts = sorted(ball_vertices(p, 1), key=repr)
        phi = random_vertex_function(rng, p, radius=1)
        for sign in (1, -1):
            _assert_upward(delta_star(phi, sign))
            c = EdgeFunction(p, sign)
            for v in verts:
                for w in neighbors(v):
                    c.add_to((v, w), rng.randint(1, 5))
            _assert_upward(c)
        _assert_upward(tilde_delta_up(Fraction(2), phi))


def test_quick_tree_criterion_builds_each_neighbourhood_once(monkeypatch):
    from exczero import suite, tree, treerep
    tree.neighbors.cache_clear()
    calls, built = [], []

    def counted(v):
        calls.append(v)
        return neighbors(v)
    for module in (tree, treerep, suite):
        monkeypatch.setattr(module, "neighbors", counted)
    vertex = tree._vertex
    monkeypatch.setattr(tree, "_vertex",
                        lambda key: built.append(key) or vertex(key))
    assert suite.criterion_tree_identities(2024, quick=True).ok
    assert len(built) == sum(v.p + 1 for v in set(calls)) < len(calls)


def test_quick_tree_criterion_computes_each_operator_once(monkeypatch):
    # each sign trial's three checks read one delta*(phi), and each alpha
    # trial's right side one rho(phi): 36 and 162 calls for 162 instances
    from exczero import suite
    counts = {"delta_star": 0, "rho_times": 0}
    for name in counts:
        def counted(*args, name=name, op=getattr(suite, name)):
            counts[name] += 1
            return op(*args)
        monkeypatch.setattr(suite, name, counted)
    r = suite.criterion_tree_identities(2024, quick=True)
    assert r.ok and r.details["instances"] == 162
    assert counts == {"delta_star": 36, "rho_times": 162}
