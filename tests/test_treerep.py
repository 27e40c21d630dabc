import random
from fractions import Fraction

import pytest

from exczero.balls import Ball, BallFunction, P1Piece
from exczero.tree import (
    TreeEdge, apartment_vertex, ball_vertices, base_vertex, edge_of_ball,
    ends, neighbors,
)
from exczero.treerep import (
    EdgeFunction, VertexFunction, a_param, boundary_distribution, delta,
    delta_alpha, delta_star, harmonic_from_point_masses, hecke_T,
    in_image_T_minus_a, rho_pairing, rho_times, solve_delta_preimage,
    tau_pairing, tilde_delta_down, tilde_delta_up, twist,
    whittaker_steinberg,
)


def random_vertex_function(rng, p, radius=2, terms=4):
    verts = sorted(ball_vertices(p, radius), key=repr)
    phi = VertexFunction(p)
    for v in rng.sample(verts, min(terms, len(verts))):
        phi = phi + VertexFunction.indicator(v, Fraction(rng.randint(-5, 5)))
    return phi


def random_edge_function(rng, p, sign, radius=2, terms=4):
    verts = sorted(ball_vertices(p, radius), key=repr)
    c = EdgeFunction(p, sign)
    for _ in range(terms):
        v = rng.choice(verts)
        w = rng.choice(neighbors(v))
        c.add_to(TreeEdge(v, w), Fraction(rng.randint(-5, 5)))
    return c


def test_edge_function_orientation():
    p = 3
    v, w = base_vertex(p), apartment_vertex(p, 1)
    e = TreeEdge(v, w)
    anti = EdgeFunction(p, 1).set(e, 2)
    assert anti(e) == 2 and anti(e.reverse()) == -2
    sym = EdgeFunction(p, -1).set(e, 2)
    assert sym(e) == 2 and sym(e.reverse()) == 2


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
    # <T phi, tau_eps> = eps (q+1) <phi, tau_eps>
    rng = random.Random(53)
    for p in (2, 3, 5):
        for eps in (1, -1):
            for _ in range(10):
                phi = random_vertex_function(rng, p)
                assert tau_pairing(hecke_T(phi), eps) == eps * (p + 1) * tau_pairing(phi, eps)


def test_twist_conjugates_T():
    # twisting by tau_eps is an involution and conjugates T to eps T
    rng = random.Random(59)
    for _ in range(15):
        p = rng.choice([2, 3])
        eps = rng.choice([1, -1])
        phi = random_vertex_function(rng, p)
        assert twist(twist(phi, eps), eps) == phi
        assert twist(hecke_T(twist(phi, eps)), eps) == hecke_T(phi).scale(eps)


def test_delta_star_injective_and_exact():
    # delta*_eps is injective on compactly supported functions, and delta is
    # surjective onto the kernel of the tau_eps pairing (small-ball solve)
    rng = random.Random(61)
    for p in (2, 3):
        for eps in (1, -1):
            phi = random_vertex_function(rng, p, radius=1, terms=3)
            if not phi.is_zero():
                assert not delta_star(phi, eps).is_zero()
            # a function with <phi, tau_eps> = 0 is delta of something
            v = base_vertex(p)
            w = neighbors(v)[0]
            bal = (VertexFunction.indicator(v, 1)
                   + VertexFunction.indicator(w, Fraction(-eps)))
            assert tau_pairing(bal, eps) == 0
            c = solve_delta_preimage(bal, eps, R=2)
            assert c is not None and delta(c) == bal
            # while <., tau_eps> obstructs: indicator of v_0 has pairing 1
            assert solve_delta_preimage(VertexFunction.indicator(v, 1), eps, 2) is None


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
    # <T phi, rho> = (alpha + q/alpha) <phi, rho>, the a_param eigenvalue
    rng = random.Random(79)
    for p in (2, 3, 5):
        for alpha in (Fraction(2), Fraction(1, 3), Fraction(-1)):
            a = a_param(alpha, p)
            for _ in range(6):
                phi = random_vertex_function(rng, p)
                assert rho_pairing(hecke_T(phi), alpha) == a * rho_pairing(phi, alpha)


def test_membership_member_with_certificate():
    p = 3
    phi = hecke_T(VertexFunction.indicator(base_vertex(p), 1)) \
        - VertexFunction.indicator(base_vertex(p), 2)
    res = in_image_T_minus_a(phi, 2, R=3)
    assert res.status == "member"
    assert hecke_T(res.certificate) - res.certificate.scale(2) == phi


def test_membership_obstruction_at_boundary_eigenvalue():
    # a = q+1: indicator of v_0 pairs nontrivially with tau_+
    p = 3
    res = in_image_T_minus_a(VertexFunction.indicator(base_vertex(p), 1), p + 1, R=3)
    assert res.status == "non-member" and res.obstruction == 1


def test_membership_nonmember_a_zero():
    # a = 0, p = 2: the indicator of a neighbor of v_0 is not in Im(T); any
    # preimage would be supported at v_0 alone and T spreads that evenly
    p = 2
    w = neighbors(base_vertex(p))[0]
    res = in_image_T_minus_a(VertexFunction.indicator(w, 1), 0, R=3)
    assert res.status == "non-member"


def test_membership_inconclusive_outside_precondition():
    p = 2
    far = apartment_vertex(p, 3)
    res = in_image_T_minus_a(VertexFunction.indicator(far, 1), 0, R=3)
    assert res.status == "inconclusive"


def test_membership_random_roundtrip():
    rng = random.Random(83)
    for _ in range(10):
        p = rng.choice([2, 3])
        a = Fraction(rng.randint(-3, 3))
        psi = random_vertex_function(rng, p, radius=1, terms=3)
        phi = hecke_T(psi) - psi.scale(a)
        res = in_image_T_minus_a(phi, a, R=3)
        assert res.status == "member"
        got = hecke_T(res.certificate) - res.certificate.scale(a)
        assert got == phi


def test_delta_alpha_kills_translates_in_B_a():
    # the class of delta_alpha(f) in B_a is unipotent-invariant: for f an
    # indicator of a unit ball, f - (f translated by an integer) maps into
    # Im(T - a), a = alpha + q/alpha
    for p, alpha in [(2, Fraction(2)), (3, Fraction(1)), (3, Fraction(-1))]:
        f = BallFunction.indicator(Ball(p, Fraction(1), 1))
        g = f.translate(p)  # same valuation pattern, different center
        diff = delta_alpha(f - g, alpha)
        res = in_image_T_minus_a(diff, a_param(alpha, p), R=4)
        assert res.status == "member", (p, alpha)


def test_delta_alpha_torus_equivariance():
    # delta_alpha(f acted by t) = (delta_alpha f) acted by diag(t,1): the
    # alpha^{ord} weight in the ball-to-edge map cancels the height shift
    for p, alpha in [(2, Fraction(2)), (3, Fraction(1, 3))]:
        f = BallFunction.indicator(Ball(p, Fraction(1), 1), Fraction(2)) \
            + BallFunction.indicator(Ball(p, Fraction(p), 2), Fraction(-1))
        for t in (Fraction(p), Fraction(1, p), Fraction(p * p)):
            lhs = delta_alpha(f.act(t), alpha)
            rhs = delta_alpha(f, alpha).act([[t, 0], [0, 1]])
            assert lhs == rhs


def test_harmonic_cocycle_from_point_masses():
    p = 3
    h = harmonic_from_point_masses(p, [(Fraction(0), 1), ("inf", -1)], radius=4)
    # mass of U(e) along the apartment: Z_p contains 0, not inf
    assert boundary_distribution(h, P1Piece(Ball(p, Fraction(0), 0))) == 1
    assert boundary_distribution(h, P1Piece(Ball(p, Fraction(0), 0), complement=True)) == -1
    assert boundary_distribution(h, P1Piece(Ball(p, Fraction(1), 1))) == 0
    # additivity under refinement
    B = Ball(p, Fraction(0), 1)
    kids = sum(boundary_distribution(h, P1Piece(bb)) for bb in B.children())
    assert kids == boundary_distribution(h, P1Piece(B))


def test_harmonic_cocycle_total_mass_zero():
    rng = random.Random(89)
    for _ in range(5):
        p = rng.choice([2, 3])
        pts = [(Fraction(rng.randint(-4, 4)), rng.randint(1, 3)) for _ in range(3)]
        pts.append(("inf", -sum(m for _, m in pts)))
        h = harmonic_from_point_masses(p, pts, radius=3)
        cover = [P1Piece(Ball(p, Fraction(0), 0), complement=True)] \
            + [P1Piece(b) for b in Ball(p, Fraction(0), 0).children()]
        assert sum(boundary_distribution(h, u) for u in cover) == 0


def test_boundary_distribution_outside_certificate_raises():
    h = harmonic_from_point_masses(2, [(Fraction(0), 1), ("inf", -1)], radius=2)
    with pytest.raises(ValueError):
        boundary_distribution(h, P1Piece(Ball(2, Fraction(0), 7)))


def test_whittaker_basic_values():
    p = 5
    one_Zp = [(P1Piece(Ball(p, Fraction(0), 0)), Fraction(1))]
    assert whittaker_steinberg(one_Zp) == 1
    # indicator of p^{-1} Z_p: the deeper shells oscillate to zero
    big = [(P1Piece(Ball(p, Fraction(0), -1)), Fraction(1))]
    assert whittaker_steinberg(big) == 0
    # the constant function (all of P^1) has Whittaker value 0
    const = [(P1Piece(Ball(p, Fraction(0), 0)), Fraction(1)),
             (P1Piece(Ball(p, Fraction(0), 0), complement=True), Fraction(1))]
    assert whittaker_steinberg(const) == 0


def test_whittaker_unipotent_equivariance():
    # Lambda(f translated by y) = psi(y) Lambda(f) for integrable f
    from exczero.characters import AdditiveCharacterPsi
    p = 3
    psi = AdditiveCharacterPsi(p)
    f = [(Ball(p, Fraction(1), 1), Fraction(2)), (Ball(p, Fraction(1, 3), 1), Fraction(1))]
    for y in (Fraction(1), Fraction(1, 3), Fraction(2, 9)):
        shifted = [(P1Piece(b.translate(y)), c) for b, c in f]
        plain = [(P1Piece(b), c) for b, c in f]
        assert whittaker_steinberg(shifted) == psi(y) * whittaker_steinberg(plain)


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
