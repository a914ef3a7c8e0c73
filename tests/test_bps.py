import cmath
import json
from fractions import Fraction

import numpy as np
import pytest

from qrh.bps import (
    EMSplitting,
    LPoly,
    RefinedBPSStructure,
    active_rays,
    canonical_refinement,
    classify,
    direct_sum,
    doubled_a1,
    dumps,
    em_splitting,
    kappa_set,
    loads,
)
from qrh.signals import DomainError


def test_doubled_a1_data():
    b = doubled_a1(1j)
    assert b.rank == 2
    assert b.pairing((0, 1), (1, 0)) == 1  # <a_dual, a> = 1
    assert b.charge((1, 0)) == 1j and b.charge((0, 1)) == 0
    assert b.omega((1, 0)) == LPoly(1) and b.omega((-1, 0)) == LPoly(1)
    assert not b.omega((2, 0))  # only +-a carry invariants


def test_doubled_a1_rejects_zero():
    with pytest.raises(DomainError):
        doubled_a1(0)


def test_classify_doubled_always_all_true():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if z == 0:
            continue
        assert classify(doubled_a1(z)).all


def test_classify_coupled_structure():
    b = RefinedBPSStructure(
        rank=2,
        skew=((0, -1), (1, 0)),
        central_charge=(1 + 0j, 1j),
        invariants={
            (1, 0): LPoly(1),
            (-1, 0): LPoly(1),
            (0, 1): LPoly(1),
            (0, -1): LPoly(1),
        },
    )
    c = classify(b)
    assert c.finite and not c.uncoupled


def test_classify_palindromic_and_integral():
    b = RefinedBPSStructure(
        rank=2,
        skew=((0, -1), (1, 0)),
        central_charge=(1 + 0j, 0j),
        invariants={(1, 0): LPoly({1: 1}), (-1, 0): LPoly({1: 1})},  # Omega = L^(1/2)
    )
    c = classify(b)
    assert not c.palindromic and c.integral
    b2 = RefinedBPSStructure(
        rank=2,
        skew=((0, -1), (1, 0)),
        central_charge=(1 + 0j, 0j),
        invariants={
            (1, 0): LPoly({0: Fraction(1, 2)}),
            (-1, 0): LPoly({0: Fraction(1, 2)}),
        },
    )
    assert classify(b2).palindromic and not classify(b2).integral


def test_symmetry_enforced():
    with pytest.raises(DomainError):
        RefinedBPSStructure(
            rank=2,
            skew=((0, -1), (1, 0)),
            central_charge=(1 + 0j, 0j),
            invariants={(1, 0): LPoly(1)},
        )


def test_active_rays_doubled():
    z = 1j
    rays = active_rays(doubled_a1(z))
    assert len(rays) == 2
    phases = sorted((r.phase for r in rays), key=lambda p: p.imag)
    assert phases[0] == pytest.approx(-1j) and phases[1] == pytest.approx(1j)


def test_active_rays_collinear_grouping():
    b = RefinedBPSStructure(
        rank=2,
        skew=((0, 0), (0, 0)),
        central_charge=(1 + 1j, 2 + 2j),
        invariants={
            (1, 0): LPoly(1),
            (-1, 0): LPoly(1),
            (0, 1): LPoly(1),
            (0, -1): LPoly(1),
        },
    )
    rays = active_rays(b)
    assert len(rays) == 2  # Z(e2) = 2 Z(e1): same ray
    positive = [r for r in rays if r.phase.real > 0][0]
    assert positive.classes == ((0, 1), (1, 0))


def test_active_rays_empty_and_degenerate():
    b = RefinedBPSStructure(2, ((0, -1), (1, 0)), (1 + 0j, 0j), {})
    assert active_rays(b) == []
    bad = RefinedBPSStructure(
        2, ((0, -1), (1, 0)), (0j, 1 + 0j), {(1, 0): LPoly(1), (-1, 0): LPoly(1)}
    )
    with pytest.raises(DomainError):
        active_rays(bad)


def test_rays_stable_under_positive_rescale():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
        b = doubled_a1(z)
        lam = rng.uniform(0.1, 10)
        b2 = RefinedBPSStructure(
            b.rank, b.skew, tuple(lam * c for c in b.central_charge), b.invariants
        )
        r1, r2 = active_rays(b), active_rays(b2)
        assert [r.classes for r in r1] == [r.classes for r in r2]
        assert all(abs(a.phase - c.phase) < 1e-12 for a, c in zip(r1, r2))


def test_canonical_refinement_doubled():
    b = doubled_a1(0.7 - 0.2j)
    sigma = canonical_refinement(b)
    assert sigma((1, 0)) == -1
    assert sigma((0, 1)) == 1
    assert sigma((1, 1)) == 1
    assert sigma((0, 0)) == 1
    # matches the closed form sigma(m a + n a_dual) = (-1)^(m(n+1))
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert sigma((m, n)) == (-1) ** ((m * (n + 1)) % 2)


def test_refinement_twisted_multiplicativity():
    b = doubled_a1(1.0)
    sigma = canonical_refinement(b)
    rng = np.random.default_rng(2)
    for _ in range(500):
        g1 = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
        g2 = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
        g12 = (g1[0] + g2[0], g1[1] + g2[1])
        assert sigma(g12) == (-1) ** (b.pairing(g1, g2) % 2) * sigma(g1) * sigma(g2)


def test_refinement_inconsistency_detected():
    b = RefinedBPSStructure(
        rank=2,
        skew=((0, -1), (1, 0)),
        central_charge=(1 + 0j, 0j),
        invariants={
            (1, 0): LPoly({0: 1, 1: 1, -1: 1}),  # both parities at one class
            (-1, 0): LPoly({0: 1, 1: 1, -1: 1}),
        },
    )
    with pytest.raises(DomainError):
        canonical_refinement(b)


def test_em_splitting_doubled():
    b = doubled_a1(2 - 1j)
    s = em_splitting(b)
    assert s.electric == ((1, 0),)
    assert s.magnetic == ((0, 1),)
    assert s.theta_space_dim == 1
    assert s.decompose((3, -2)) == ((3,), (-2,))


def test_em_splitting_verifies_proposed():
    b = doubled_a1(1.0)
    good = EMSplitting(((1, 0),), ((0, 1),))
    assert em_splitting(b, good) is good
    bad = EMSplitting(((0, 1),), ((1, 0),))  # active class a not electric
    with pytest.raises(DomainError):
        em_splitting(b, bad)


def test_em_splitting_rejects_nonvanishing_pairing():
    b = direct_sum(doubled_a1(1.0), doubled_a1(1j))
    bad = EMSplitting(
        ((1, 0, 0, 0), (0, 0, 1, 0)),
        ((0, 1, 0, 0), (1, 1, 0, 1)),  # <d1, d2> != 0
    )
    with pytest.raises(DomainError):
        em_splitting(b, bad)


@pytest.mark.parametrize("copies", [2, 3])
def test_decompose_matches_direct_solve(monkeypatch, copies):
    import qrh.bps as bps

    b = doubled_a1(1.0 + 0.5j)
    for k in range(1, copies):
        b = direct_sum(b, doubled_a1(cmath.exp(1j * k)))
    base = em_splitting(b)
    # a less trivial Z-basis of the same splitting: electric partial sums,
    # magnetic d_i + e_i
    electric = tuple(
        tuple(sum(v) for v in zip(*base.electric[: i + 1])) for i in range(copies)
    )
    magnetic = tuple(
        tuple(x + y for x, y in zip(d, e)) for d, e in zip(base.magnetic, base.electric)
    )
    s = em_splitting(b, EMSplitting(electric, magnetic))
    n = b.rank
    basis = s.full_basis()
    matrix = [[Fraction(basis[j][i]) for j in range(n)] for i in range(n)]
    rng = np.random.default_rng(copies)
    cases = []
    for _ in range(200):
        g = tuple(int(x) for x in rng.integers(-50, 51, n))
        sol = bps._frac_solve(matrix, [Fraction(x) for x in g])
        cases.append((g, (tuple(sol[:copies]), tuple(sol[copies:]))))

    def no_elimination(*args):
        raise AssertionError("decompose must not run an elimination per call")

    # the verified splitting keeps its integer inverse
    monkeypatch.setattr(bps, "_frac_solve", no_elimination)
    for g, want in cases:
        assert s.decompose(g) == want


def test_em_splitting_rejects_non_basis():
    b = doubled_a1(1.0)
    for bad in (
        EMSplitting(((2, 0),), ((0, 1),)),  # index-2 sublattice
        EMSplitting(((1, 0),), ((1, 0),)),  # linearly dependent
        EMSplitting(((1, 0, 0),), ((0, 1, 0),)),  # vectors of the wrong length
    ):
        with pytest.raises(DomainError):
            em_splitting(b, bad)


def test_em_splitting_direct_sum():
    b = direct_sum(doubled_a1(1.0), doubled_a1(1j))
    s = em_splitting(b)
    assert len(s.electric) == 2 and len(s.magnetic) == 2
    for u in s.electric:
        for v in s.electric:
            assert b.pairing(u, v) == 0
    for u in s.magnetic:
        for v in s.magnetic:
            assert b.pairing(u, v) == 0
    for g in b.active_classes:
        ge, gm = s.decompose(g)
        assert not any(gm)


def test_em_splitting_requires_uncoupled():
    b = RefinedBPSStructure(
        rank=2,
        skew=((0, -1), (1, 0)),
        central_charge=(1 + 0j, 1j),
        invariants={
            (1, 0): LPoly(1),
            (-1, 0): LPoly(1),
            (0, 1): LPoly(1),
            (0, -1): LPoly(1),
        },
    )
    with pytest.raises(DomainError):
        em_splitting(b)


def test_kappa_set():
    b = doubled_a1(1.0)
    eps, k = kappa_set(b, (0, 1), (1, 0))  # pairing +1
    assert eps == 1 and k == [Fraction(1, 2)]
    eps, k = kappa_set(b, (0, 1), (-2, 0))  # pairing -2
    assert eps == -1 and k == [Fraction(-1, 2), Fraction(-3, 2)]
    eps, k = kappa_set(b, (0, 1), (0, 3))  # pairing 0
    assert eps == 0 and k == []


def test_kappa_cardinality_and_sign():
    for m in range(-10, 11):
        b = RefinedBPSStructure(
            2,
            ((0, -m), (m, 0)),
            (1 + 0j, 0j),
            {(1, 0): LPoly(1), (-1, 0): LPoly(1)},
        )
        eps, k = kappa_set(b, (0, 1), (1, 0))
        assert len(k) == abs(m)
        assert all((lam > 0) == (eps > 0) for lam in k)


def test_json_roundtrip_bit_exact():
    b = direct_sum(doubled_a1(0.123456789 + 0.987654321j), doubled_a1(-0.5j))
    # a non-dyadic rational coefficient to stress exactness
    inv = dict(b.invariants)
    inv[(1, 0, 0, 0)] = LPoly({0: Fraction(1, 3), 2: Fraction(-7, 11), -2: Fraction(-7, 11)})
    inv[(-1, 0, 0, 0)] = inv[(1, 0, 0, 0)]
    b = RefinedBPSStructure(b.rank, b.skew, b.central_charge, inv)
    s = em_splitting(b)
    text = dumps(b, s)
    b2, s2 = loads(text)
    assert b2 == b
    assert s2 == s
    assert dumps(b2, s2) == text  # stable serialisation
    doc = json.loads(text)
    assert doc["omega"][0]["poly"][0]["c"].count("/") == 1
