import cmath
import json
import math
import random
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from qrh.bps import (
    EMSplitting,
    LPoly,
    QuadraticRefinement,
    RefinedBPSStructure,
    active_rays,
    canonical_refinement,
    classify,
    direct_sum,
    doubled_a1,
    em_splitting,
    kappa_set,
    parse_json,
    structure_from_dict,
)
from qrh.rhsolver import RHInstance, adjoint_general
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


def _exhaustive_refinement(b):
    """The first sign choice, in the order mask = 0, 1, ..., 2^rank - 1 (bit i
    set means s_i = -1), that puts sigma = (-1)^(n+1) on every class."""
    n = b.rank
    for mask in range(1 << n):
        signs = tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))
        sigma = QuadraticRefinement(b.skew, signs)
        if all(
            sigma(g) == (-1) ** ((k + 1) % 2) for g, om in b.invariants.items() for k, _ in om.items()
        ):
            return signs
    return None


def _random_refinement_input(rng: random.Random) -> RefinedBPSStructure:
    """Rank 2-8, a random skew form, random classes whose Omega has one
    parity of n (coupled structures included: the refinement ignores it)."""
    n = rng.randint(2, 8)
    skew = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = rng.choice([0, 0, 1, -1, 2, 3])
            skew[j][i] = -skew[i][j]
    inv = {}
    for _ in range(rng.randint(1, 2 * n)):
        g = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(g):
            parity = rng.randint(0, 1)
            om = LPoly({parity: 1, -parity: 1, parity + 2: 2, -parity - 2: 2})
            inv[g] = inv[tuple(-x for x in g)] = om
    inv.setdefault((1,) + (0,) * (n - 1), LPoly(1))
    inv.setdefault((-1,) + (0,) * (n - 1), LPoly(1))
    return RefinedBPSStructure(n, tuple(map(tuple, skew)), (1j,) * n, inv)


def test_canonical_refinement_matches_exhaustive_search():
    rng = random.Random(20)
    solved = inconsistent = 0
    for _ in range(150):
        b = _random_refinement_input(rng)
        want = _exhaustive_refinement(b)
        if want is None:
            inconsistent += 1
            with pytest.raises(DomainError, match="no consistent quadratic refinement"):
                canonical_refinement(b)
        else:
            solved += 1
            assert canonical_refinement(b).basis_signs == want
    assert solved > 30 and inconsistent > 30


def test_instance_construction_is_polynomial_in_rank():
    b = doubled_a1(1 + 0.5j)
    for k in range(1, 20):
        b = direct_sum(b, doubled_a1(cmath.exp(0.3j * k)))

    def too_slow(signum, frame):
        raise TimeoutError("building a rank-40 instance takes seconds")

    # an exponential construction would run for hours: stop it after 5 s
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        t0 = time.perf_counter()
        inst = RHInstance(b)
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    assert b.rank == 40 and inst.splitting.theta_space_dim == 20
    assert inst.refinement.basis_signs == (-1, 1) * 20


def test_instance_runs_one_elimination_per_matrix(monkeypatch):
    import qrh.bps as bps

    counts = {"eliminations": 0, "decompose": 0}
    solve, decompose = bps._integer_solve, EMSplitting.decompose

    def counting_solve(*args):
        counts["eliminations"] += 1
        return solve(*args)

    def counting_decompose(self, g):
        counts["decompose"] += 1
        return decompose(self, g)

    monkeypatch.setattr(bps, "_integer_solve", counting_solve)
    monkeypatch.setattr(EMSplitting, "decompose", counting_decompose)
    b = direct_sum(direct_sum(doubled_a1(1 + 0.5j), doubled_a1(-0.3 + 1j)), doubled_a1(0.8j))
    inst = RHInstance(b)
    # the duals and the inverse of the basis, one pass each
    assert counts["eliminations"] <= 2
    # the splitting's check hands the instance its per-class coordinates
    assert counts["decompose"] == len(b.active_classes)
    assert [(g, z) for g, z, _, _ in inst.classes] == [(g, b.charge(g)) for g in b.active_classes]
    assert all(inst.splitting.decompose(g) == (ge, (0, 0, 0)) for g, _, ge, _ in inst.classes)
    assert all(terms == ((0, 1),) for _, _, _, terms in inst.classes)


def test_em_splitting_saturates_the_active_span():
    # {+-a_1, +-(3 a_1 + 2 a_2)} generate a_1 Z + 2 a_2 Z: the duals need the
    # saturation a_1 Z + a_2 Z
    base = direct_sum(doubled_a1(1 + 0.5j), doubled_a1(0.7 - 0.2j))
    classes = [(1, 0, 0, 0), (-1, 0, 0, 0), (3, 0, 2, 0), (-3, 0, -2, 0)]
    b = RefinedBPSStructure(4, base.skew, base.central_charge, {g: LPoly(1) for g in classes})
    stored = EMSplitting(((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1)))
    built = RHInstance(b)
    assert built.splitting.electric == stored.electric
    args = (1j, 1 + 0.2j, 0.3 + 1j, (0.1, 0.2))
    want = adjoint_general(RHInstance(b, stored), *args)
    assert want == 0.9224933150744057 - 0.0005327856409616186j
    assert adjoint_general(built, *args) == want


def test_saturated_active_span_keeps_its_basis():
    import qrh.bps as bps

    # saturated lattices keep their echelon basis, leading entries above 1 too
    assert bps._saturated_basis([(2, 1)], 2) == [(2, 1)]
    assert bps._saturated_basis([(2, 1, 0), (0, 3, 1)], 3) == [(2, 1, 0), (0, 3, 1)]
    # index-2 sublattices are replaced by their saturation
    assert bps._saturated_basis([(4, 2)], 2) == [(2, 1)]
    assert bps._saturated_basis([(1, 0, 0, 0), (3, 0, 2, 0)], 4) == [(1, 0, 0, 0), (0, 0, 1, 0)]
    sat = bps._saturated_basis([(2, 0, 1), (0, 2, 1)], 3)  # (1, -1, 0) is half their difference
    assert bps._integer_kernel(sat, 3) == [(1, 1, -2)]
    assert sat == bps._lattice_basis([(1, -1, 0), (0, 2, 1)], 3)


def test_em_splitting_finds_duals_that_need_a_free_variable():
    # <d, (1,-4)> = 4 d_1 + d_2 = 1: the particular solution (1/4, 0) is not
    # integral, (0, 1) is
    one = LPoly({0: 1})
    b = RefinedBPSStructure(2, ((0, -1), (1, 0)), (1 + 0.5j, 0.3j), {(1, -4): one, (-1, 4): one})
    stored = EMSplitting(((1, -4),), ((0, 1),))
    assert em_splitting(b, stored) == stored
    assert em_splitting(b) == stored
    assert RHInstance(b).classes[1] == ((1, -4), b.charge((1, -4)), (1,), ((0, 1),))


def _transformed_doubled_sum(rng: random.Random) -> RefinedBPSStructure:
    """A direct sum of 1-3 doubled A1 structures in a seeded unimodular basis
    (columns of u); it has an integral splitting by construction."""
    b = doubled_a1(complex(rng.uniform(0.2, 1), rng.uniform(-1, 1)))
    for _ in range(rng.randint(0, 2)):
        b = direct_sum(b, doubled_a1(complex(rng.uniform(0.2, 1), rng.uniform(-1, 1))))
    n = b.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:  # column j += c column i
            row[j] += c * row[i]
        u_inv[i] = [x - c * y for x, y in zip(u_inv[i], u_inv[j])]  # row i -= c row j
    skew = tuple(
        tuple(
            sum(u[p][a] * b.skew[p][q] * u[q][c] for p in range(n) for q in range(n))
            for c in range(n)
        )
        for a in range(n)
    )
    charges = tuple(sum(u[i][a] * b.central_charge[i] for i in range(n)) for a in range(n))
    invariants = {
        tuple(sum(u_inv[a][i] * g[i] for i in range(n)) for a in range(n)): om
        for g, om in b.invariants.items()
    }
    return RefinedBPSStructure(n, skew, charges, invariants)


def test_em_splitting_on_transformed_doubled_sums():
    rng = random.Random(2024)
    for _ in range(150):
        b = _transformed_doubled_sum(rng)
        s = em_splitting(b)  # verified before it is returned
        k = len(s.electric)
        assert 2 * k == b.rank
        assert [[b.pairing(d, e) for e in s.electric] for d in s.magnetic] == [
            [int(i == j) for j in range(k)] for i in range(k)
        ]
        assert all(b.pairing(d1, d2) == 0 for d1 in s.magnetic for d2 in s.magnetic)


def test_integer_inverse_is_exact_on_transformed_doubled_sums():
    rng = random.Random(2024)
    for _ in range(150):
        b = _transformed_doubled_sum(rng)
        s = em_splitting(b)
        basis, inverse = s.full_basis(), s._inverse
        n = b.rank
        # the columns of M are the basis vectors: M . inverse == I exactly
        assert [
            [sum(basis[l][i] * inverse[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ] == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("summands", [1, 2, 3, 20])
def test_constructed_splitting_of_doubled_sums_is_pinned(summands):
    # direct sums of doubled A1 split into the a_i (electric) and the a_i
    # duals (magnetic), in order, at every rank
    b = doubled_a1(1 + 0.5j)
    for k in range(1, summands):
        b = direct_sum(b, doubled_a1(cmath.exp(0.3j * k)))
    n = b.rank
    s = em_splitting(b)
    assert s.electric == tuple(tuple(int(j == 2 * i) for j in range(n)) for i in range(summands))
    assert s.magnetic == tuple(tuple(int(j == 2 * i + 1) for j in range(n)) for i in range(summands))
    # a permutation matrix: its inverse is its transpose
    assert s._inverse == tuple(s.full_basis())


@pytest.mark.parametrize(
    "charges, gamma",
    [
        ((1 + 0.5j, 0j), (10**400 + 1, 0)),  # Z(gamma) beyond float range
        ((1e308 + 1e308j, 0j), (3, 0)),  # Z(gamma) = inf + inf i
    ],
)
def test_active_rays_refuses_a_charge_that_is_not_finite(charges, gamma):
    one = LPoly(1)
    neg = tuple(-x for x in gamma)
    b = RefinedBPSStructure(2, ((0, -1), (1, 0)), charges, {gamma: one, neg: one})
    with pytest.raises(DomainError, match="not a finite number"):
        active_rays(b)


def test_a_class_entry_beyond_float_range_counts_only_where_its_z_is_not_0():
    one = LPoly(1)
    big = 10**400 + 1
    b = RefinedBPSStructure(2, ((0, -1), (1, 0)), (0j, 1 + 0.5j), {(big, 1): one, (-big, -1): one})
    assert b.charge((big, 1)) == 1 + 0.5j
    assert [r.classes for r in active_rays(b)] == [((-big, -1),), ((big, 1),)]
    # an all-zero sum keeps its +0.0 parts, whatever the signs of the zeros
    z = RefinedBPSStructure(2, ((0, -1), (1, 0)), (complex(-0.0, -0.0), 1 - 1j), {})
    assert [math.copysign(1, x) for c in (z.charge((big, 0)), z.charge((-3, 0))) for x in (c.real, c.imag)] == [1] * 4


def test_parse_json_refuses_deep_nesting():
    import qrh.bps as bps

    with pytest.raises(ValueError, match="nested too deeply"):
        bps.parse_json("[" * 100000 + "]" * 100000)
    # moderate nesting still parses
    nested = []
    for _ in range(49):
        nested = [nested]
    assert bps.parse_json("[" * 50 + "]" * 50) == nested


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
    matrix = [[basis[j][i] for j in range(n)] for i in range(n)]
    rng = np.random.default_rng(copies)
    cases = []
    for _ in range(200):
        g = tuple(int(x) for x in rng.integers(-50, 51, n))
        sol = [x for (x,) in bps._integer_solve(matrix, [[x] for x in g])]
        cases.append((g, (tuple(sol[:copies]), tuple(sol[copies:]))))

    def no_elimination(*args):
        raise AssertionError("decompose must not run an elimination per call")

    # the verified splitting keeps its integer inverse
    monkeypatch.setattr(bps, "_integer_solve", no_elimination)
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


#: A rank-4 document whose Omega(+-a1) has non-dyadic rational coefficients.
RANK4_DOC = """{
  "rank": 4,
  "skew_form": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
  "Z": [[0.123456789, 0.987654321], [0.0, 0.0], [-0.0, -0.5], [0.0, 0.0]],
  "omega": [
    {"gamma": [-1, 0, 0, 0], "poly": [{"n": -2, "c": "-7/11"}, {"n": 0, "c": "1/3"}, {"n": 2, "c": "-7/11"}]},
    {"gamma": [0, 0, -1, 0], "poly": [{"n": 0, "c": "1/1"}]},
    {"gamma": [0, 0, 1, 0], "poly": [{"n": 0, "c": "1/1"}]},
    {"gamma": [1, 0, 0, 0], "poly": [{"n": -2, "c": "-7/11"}, {"n": 0, "c": "1/3"}, {"n": 2, "c": "-7/11"}]}
  ],
  "splitting": {"electric": [[1, 0, 0, 0], [0, 0, 1, 0]], "magnetic": [[0, 1, 0, 0], [0, 0, 0, 1]]}
}"""


def test_json_reader_is_exact():
    b = direct_sum(doubled_a1(0.123456789 + 0.987654321j), doubled_a1(-0.5j))
    inv = dict(b.invariants)
    inv[(1, 0, 0, 0)] = LPoly({0: Fraction(1, 3), 2: Fraction(-7, 11), -2: Fraction(-7, 11)})
    inv[(-1, 0, 0, 0)] = inv[(1, 0, 0, 0)]
    b = RefinedBPSStructure(b.rank, b.skew, b.central_charge, inv)
    b2, s2 = structure_from_dict(parse_json(RANK4_DOC))
    assert (b2, s2) == (b, em_splitting(b))
    assert [(z.real.hex(), z.imag.hex()) for z in b2.central_charge] == [
        (z.real.hex(), z.imag.hex()) for z in b.central_charge
    ]


@pytest.mark.parametrize(
    "text",
    [
        # a top-level key, and a key inside a poly term, given twice
        '{"rank": 2, "rank": 2, "skew_form": [], "Z": [], "omega": []}',
        '{"rank": 1, "skew_form": [[0]], "Z": [[1, 0]], '
        '"omega": [{"gamma": [1], "poly": [{"n": 0, "c": "1/1", "c": "2/1"}]}]}',
    ],
)
def test_loads_refuses_a_key_given_twice(text):
    with pytest.raises(ValueError, match="given twice"):
        structure_from_dict(parse_json(text))
