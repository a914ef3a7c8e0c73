import cmath
import math

import numpy as np
import pytest

from qrh.bps import direct_sum, doubled_a1, em_splitting
from qrh.qtorus import (
    Expr,
    ExtendedElement,
    TorusContext,
    TorusElement,
    ad,
    compose,
    embed,
    eps_z,
    eval_expr,
    ext_mul,
    qt_mul,
    s_q_ray,
)
from qrh.rhsolver import RHInstance
from qrh.signals import DomainError, PoleSignal
from qrh.special import quantum_dilog

Z = 0.9 + 0.4j
B = doubled_a1(Z)
INST = RHInstance(B)
S = INST.splitting
RAYS = INST.rays
RAY_PLUS = [r for r in RAYS if abs(r.phase - Z / abs(Z)) < 1e-9][0]
RAY_MINUS = [r for r in RAYS if abs(r.phase + Z / abs(Z)) < 1e-9][0]
CTX = TorusContext(B.skew, S)

TAU = 0.3 + 0.8j
TH = (0.23 + 0.11j,)

#: coefficients as data: x^g = e^(2 pi i theta(g)), theta on the one electric
#: basis vector, and (1 + C q^(h/2) x^g)^e factors
ONE = Expr({(): {(0, (0,)): 1 + 0j}})
X = Expr({(): {(0, (1,)): 1 + 0j}})


def factor(h, e, c=1 + 0j, g=(1,)):
    """(1 + c q^(h/2) x^g)^e."""
    return Expr({(((c, h, g), e),): {(0, (0,)): 1 + 0j}})


def rand_torus(rng, nterms=2, span=1):
    t = TorusElement(2, {})
    for _ in range(nterms):
        g = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        t = t + TorusElement.generator(
            g,
            int(rng.integers(-span, span + 1)),
            complex(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))),
        )
    return t


# ---------------------------------------------------------------------------
# formal torus


def test_qt_mul_basic_twists():
    ya = TorusElement.generator((1, 0))
    yd = TorusElement.generator((0, 1))
    # <a, a_dual> = -1: y_a * y_dual = q^(-1/2) y_{a+dual}
    assert qt_mul(ya, yd, B.skew).terms == {(1, 1): {-1: 1 + 0j}}
    # y_g * y_-g = y_0
    yg = TorusElement.generator((2, -1))
    ymg = TorusElement.generator((-2, 1))
    assert qt_mul(yg, ymg, B.skew).terms == {(0, 0): {0: 1 + 0j}}


def test_qt_mul_associative_exact():
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b, c = (rand_torus(rng, 3, 2) for _ in range(3))
        lhs = qt_mul(qt_mul(a, b, B.skew), c, B.skew)
        rhs = qt_mul(a, qt_mul(b, c, B.skew), B.skew)
        assert lhs == rhs


def test_qt_mul_rank_mismatch():
    with pytest.raises(DomainError):
        qt_mul(TorusElement.generator((1, 0)), TorusElement.generator((1, 0, 0)), B.skew)


# ---------------------------------------------------------------------------
# coefficients


def test_shift_composition_associative():
    f = X * factor(1, -1)
    a = f.shifted((2,), (0.1,)).shifted((1,), (0.2 - 0.3j,))
    b = f.shifted((3,), (0.3 - 0.3j,))
    assert eval_expr(a, TAU, TH) == pytest.approx(eval_expr(b, TAU, TH), rel=1e-14)
    # the tau-shift is exact: q^(a/2) x^g -> q^(a/2 + g.pv) x^g
    assert f.shifted((3,)) == Expr({(((1 + 0j, 7, (1,)), -1),): {(6, (1,)): 1 + 0j}})


def test_expr_pole_signals():
    # (1 - x)^(-2) at theta = 0
    with pytest.raises(PoleSignal):
        eval_expr(factor(0, -2, -1 + 0j), TAU, (0j,))


# ---------------------------------------------------------------------------
# extended algebra


def test_ext_mul_matches_display():
    # (f . y_dual) * (g . 1) = f(th) g(th + tau) . y_dual
    f = X
    g = Expr({(): {(2, (-1,)): 1.7 + 0j}}) * factor(1, 2)
    a = ExtendedElement(CTX, {(1,): f})
    bb = ExtendedElement(CTX, {(0,): g})
    prod = ext_mul(a, bb)
    got = prod.eval_coefficient((1,), TAU, TH)
    want = eval_expr(f, TAU, TH) * eval_expr(g, TAU, (TH[0] + TAU,))
    assert got == pytest.approx(want, rel=1e-14)


def test_degree_zero_commutes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = embed(B, S, rand_torus(rng) + TorusElement.generator((0, 0), 0, 1))
        v = embed(B, S, rand_torus(rng))
        u0 = ExtendedElement(CTX, {(0,): u.coefficient((0,))})
        v0 = ExtendedElement(CTX, {(0,): v.coefficient((0,))})
        assert ext_mul(u0, v0).terms == ext_mul(v0, u0).terms


def test_ext_mul_associativity_at_seeded_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        e1, e2, e3 = (embed(B, S, rand_torus(rng)) for _ in range(3))
        lhs = ext_mul(ext_mul(e1, e2), e3)
        rhs = ext_mul(e1, ext_mul(e2, e3))
        assert lhs.terms == rhs.terms
        for _ in range(2):
            tv = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.2))
            thv = (complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)),)
            for d in set(lhs.terms) | set(rhs.terms):
                lv = lhs.eval_coefficient(d, tv, thv)
                rv = rhs.eval_coefficient(d, tv, thv)
                assert abs(lv - rv) <= 1e-12 * max(1.0, abs(lv), abs(rv))


def test_ext_mul_splitting_mismatch():
    bsum = direct_sum(B, doubled_a1(2.0))
    other = TorusContext(bsum.skew, em_splitting(bsum))
    a = ExtendedElement(CTX, {(0,): ONE})
    b = ExtendedElement(other, {(0, 0): Expr({(): {(0, (0, 0)): 1 + 0j}})})
    with pytest.raises(DomainError):
        ext_mul(a, b)


# ---------------------------------------------------------------------------
# embedding


def test_embed_generator_images():
    q_half = embed(B, S, TorusElement.generator((0, 0), 1))
    assert q_half.eval_coefficient((0,), TAU, TH) == pytest.approx(cmath.exp(1j * math.pi * TAU))
    ya = embed(B, S, TorusElement.generator((1, 0)))
    assert ya.eval_coefficient((0,), TAU, TH) == pytest.approx(cmath.exp(2j * math.pi * TH[0]))
    yd = embed(B, S, TorusElement.generator((0, 1)))
    assert list(yd.terms) == [(1,)]
    assert yd.eval_coefficient((1,), TAU, TH) == 1


def test_embed_is_ring_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(100):
        u, v = rand_torus(rng), rand_torus(rng)
        lhs = embed(B, S, qt_mul(u, v, B.skew))
        rhs = ext_mul(embed(B, S, u), embed(B, S, v))
        assert lhs.terms == rhs.terms
        for d in set(lhs.terms) | set(rhs.terms):
            lv = lhs.eval_coefficient(d, TAU, TH)
            rv = rhs.eval_coefficient(d, TAU, TH)
            assert abs(lv - rv) <= 1e-12 * max(1.0, abs(lv), abs(rv))


def test_embed_injectivity_witness():
    ya = embed(B, S, TorusElement.generator((1, 0)))
    qya = embed(B, S, TorusElement.generator((1, 0), 2))  # q * y_a
    assert ya.eval_coefficient((0,), TAU, TH) != qya.eval_coefficient((0,), TAU, TH)


# ---------------------------------------------------------------------------
# automorphisms


def test_eps_z_on_generators():
    t = 1.7 - 0.6j
    E = eps_z(B, S, t)
    ya = embed(B, S, TorusElement.generator((1, 0)))
    out = E.apply(ya)
    ratio = out.eval_coefficient((0,), TAU, TH) / ya.eval_coefficient((0,), TAU, TH)
    assert ratio == pytest.approx(cmath.exp(Z / t), rel=1e-12)
    yd = embed(B, S, TorusElement.generator((0, 1)))
    assert E.apply(yd).eval_coefficient((1,), TAU, TH) == pytest.approx(1)  # Z(a_dual) = 0


def test_eps_z_inverse_composition():
    t = 0.5 + 1.1j
    E = eps_z(B, S, t)
    Einv = eps_z(B, S, -t)
    el = embed(B, S, TorusElement.generator((1, 1)))
    out = compose(E, Einv).apply(el)
    assert out.eval_coefficient((1,), TAU, TH) == pytest.approx(
        el.eval_coefficient((1,), TAU, TH), rel=1e-13
    )


def test_eps_z_rejects_zero_t():
    with pytest.raises(DomainError):
        eps_z(B, S, 0)


def test_s_q_ray_closed_forms():
    # y_dual -> (1 + q^(+-1/2) y_(+-a))^(-+1) * y_dual
    Sp = s_q_ray(INST, RAY_PLUS)
    assert Sp.multipliers[0] == factor(1, -1)
    got = eval_expr(Sp.multipliers[0], TAU, TH)
    want = 1 / (1 + cmath.exp(1j * math.pi * TAU) * cmath.exp(2j * math.pi * TH[0]))
    assert got == pytest.approx(want, rel=1e-14)
    Sm = s_q_ray(INST, RAY_MINUS)
    assert Sm.multipliers[0] == factor(-1, 1, g=(-1,))
    got = eval_expr(Sm.multipliers[0], TAU, TH)
    want = 1 + cmath.exp(-1j * math.pi * TAU) * cmath.exp(-2j * math.pi * TH[0])
    assert got == pytest.approx(want, rel=1e-14)


def test_s_q_ray_matches_ad_of_dt_product():
    # oracle: Ad of DT(l+) = E_q(-q^(1/2) y_a)^(-1), via the quantum dilogarithm
    rng = np.random.default_rng(5)
    Sp = s_q_ray(INST, RAY_PLUS)
    for _ in range(20):
        tv = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.2))
        thv = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        q = cmath.exp(2j * math.pi * tv)

        def g(th_):
            return 1 / quantum_dilog(q, -cmath.exp(1j * math.pi * tv + 2j * math.pi * th_))

        oracle = g(thv) / g(thv + tv)
        got = eval_expr(Sp.multipliers[0], tv, (thv,))
        assert abs(got - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_s_q_ray_trivial_when_pairing_vanishes():
    inst = RHInstance(direct_sum(B, doubled_a1(2.0 + 0.1j)))
    ray = [r for r in inst.rays if abs(r.phase - Z / abs(Z)) < 1e-9][0]
    A = s_q_ray(inst, ray)
    # the second magnetic generator pairs to zero with the first block's classes
    got = eval_expr(A.multiplier_for((0, 1)), TAU, (TH[0], 0.05 - 0.3j))
    assert got == pytest.approx(1)


def test_s_q_ray_orientation_flip_inverse():
    Sp = s_q_ray(INST, RAY_PLUS)
    Sp_flip = s_q_ray(INST, RAY_PLUS, inverse=True)
    comp = compose(Sp, Sp_flip)
    rng = np.random.default_rng(6)
    for coords in ((1,), (-1,), (2,), (3,)):
        assert comp.multiplier_for(coords) == ONE
        for _ in range(5):
            tv = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 1.2))
            thv = (complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)),)
            assert abs(eval_expr(comp.multiplier_for(coords), tv, thv) - 1) < 1e-10


def test_automorphism_multiplicativity():
    rng = np.random.default_rng(7)
    Sp = s_q_ray(INST, RAY_PLUS)
    E = eps_z(B, S, 0.7 - 0.8j)
    for A in (Sp, E):
        for _ in range(50):
            u, v = embed(B, S, rand_torus(rng)), embed(B, S, rand_torus(rng))
            lhs = A.apply(ext_mul(u, v))
            rhs = ext_mul(A.apply(u), A.apply(v))
            if A is Sp:
                assert lhs.terms == rhs.terms
            for d in set(lhs.terms) | set(rhs.terms):
                lv = lhs.eval_coefficient(d, TAU, TH)
                rv = rhs.eval_coefficient(d, TAU, TH)
                assert abs(lv - rv) <= 1e-10 * max(1.0, abs(lv), abs(rv))


def test_eps_conjugation_matches_lab_form():
    # eps_Z(-t) o S_q(l+) o eps_Z(t) multiplies y_dual by
    # (1 + q^(1/2) e^(-z/t) e^(2 pi i theta))^(-1)
    t = 1.7 - 0.6j
    E = eps_z(B, S, t)
    Einv = eps_z(B, S, -t)
    Sp = s_q_ray(INST, RAY_PLUS)
    conj = compose(Einv, compose(Sp, E))
    got = eval_expr(conj.multiplier_for((1,)), TAU, TH)
    want = 1 / (
        1
        + cmath.exp(1j * math.pi * TAU)
        * cmath.exp(-Z / t)
        * cmath.exp(2j * math.pi * TH[0])
    )
    assert got == pytest.approx(want, rel=1e-13)
    assert conj.translation == (0j,)


def test_automorphisms_trivial_on_degree_zero():
    # without the translation flag the degree-0 subalgebra is fixed pointwise
    Sp = s_q_ray(INST, RAY_PLUS)
    f = Expr({(): {(0, (1,)): 1 + 0j, (2, (0,)): 2 + 0j}})
    el = ExtendedElement(CTX, {(0,): f})
    out = Sp.apply(el)
    assert out.coefficient((0,)) == f
    # with the flag set, eps_z translates the coefficients
    E = eps_z(B, S, 0.9 + 0.3j)
    out = E.apply(el)
    assert out.eval_coefficient((0,), TAU, TH) != pytest.approx(eval_expr(f, TAU, TH))


def test_ad_constant_is_identity():
    A = ad(Expr({(): {(0, (0,)): 3.7 + 0.2j}}), CTX)
    assert eval_expr(A.multiplier_for((1,)), TAU, TH) == pytest.approx(1)


def test_ad_reproduces_s_q_ray():
    # u = prod_{k<N} (1 + q^(k+1/2) y_a)^(-1), the first N factors of
    # DT(l+) = E_q(-q^(1/2) y_a)^(-1): Ad_u telescopes to S_q(l+) on y_dual
    # times the one factor (1 + q^(N+1/2) y_a) that tends to 1 with N
    Sp = s_q_ray(INST, RAY_PLUS)
    for n in (1, 3, 6):
        u = ONE
        for k in range(n):
            u = u * factor(2 * k + 1, -1)
        assert ad(u, CTX).multipliers[0] == Sp.multipliers[0] * factor(2 * n + 1, 1)


def test_ad_multiplicative_in_u():
    u = X
    v = Expr({(): {(2, (-1,)): 3 + 0j}}) * factor(1, 2)
    lhs = ad(u * v, CTX)
    rhs = compose(ad(u, CTX), ad(v, CTX))
    for coords in ((1,), (2,), (-1,)):
        a = eval_expr(lhs.multiplier_for(coords), TAU, TH)
        b = eval_expr(rhs.multiplier_for(coords), TAU, TH)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_ad_zero_division_signals():
    # only a single term is invertible
    for u in (Expr(), X + ONE):
        with pytest.raises(DomainError):
            ad(u, CTX)
    # Ad of u = (1 - x)^(-1) multiplies by u(theta) / u(theta + tau), whose
    # denominator 1 - x vanishes at theta = 0
    A = ad(factor(0, -1, -1 + 0j), CTX)
    with pytest.raises(PoleSignal):
        eval_expr(A.multiplier_for((1,)), TAU, (0j,))
