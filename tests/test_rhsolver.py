import cmath
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from qrh import bps, rhsolver
from qrh.bps import (
    EMSplitting,
    LPoly,
    RefinedBPSStructure,
    active_rays,
    canonical_refinement,
    direct_sum,
    doubled_a1,
    em_splitting,
)
from qrh.qtorus import TorusContext, compose, eps_z, eval_expr, s_q_ray
from qrh.rhsolver import (
    EXCLUDED_RAY_TOL,
    RHInstance,
    adjoint_general,
    adjoint_general_many,
    adjoint_psi_a1,
    adjoint_psi_a1_many,
    detect_special_t,
    hamiltonian_extrapolated,
    hamiltonian_limit,
    hamiltonian_limit_many,
    predicted_special_t,
    richardson,
    solve_a1,
    solve_general,
    tau_function_limit,
    tau_function_limit_many,
    tau_psi_closed,
    tau_psi_extrapolated,
    verify_jump_a1,
    verify_limits_a1,
)
from qrh.signals import DomainError, PoleSignal, outcome
from qrh.special import f_fn, lambda_fn, log_lambda

Z = 1.1 - 0.3j
TAU = 0.21 + 0.73j
TH = 0.17 - 0.08j
TWO_PI_I = 2j * math.pi


def _instance(z=Z):
    return RHInstance(doubled_a1(z))


# ---------------------------------------------------------------------------
# doubled case


def test_solve_a1_definitional():
    t = 0.7 + 0.9j
    for side in (1, -1):
        w = side * Z / (TWO_PI_I * t)
        expected = lambda_fn(w, 0.5 - side * (TH + TAU / 2), 1.0) ** side
        assert solve_a1(Z, t, TAU, TH, side, 1) == pytest.approx(expected, rel=1e-13)


def test_solve_a1_n_zero_is_one():
    assert solve_a1(Z, 0.7 + 0.9j, TAU, TH, 1, 0) == 1


def test_solve_a1_n2_matches_twisted_square():
    # oracle: the twisted square (f . y_dual)^2 = f(theta) f(theta + tau<dual,->)
    # . y_dual^2 of the n=1 multiplier f, a Lambda value
    t = 0.7 + 0.9j
    b = doubled_a1(Z)
    s = em_splitting(b)
    (pv,) = TorusContext(b.skew, s).pair_vec((1,))
    w = Z / (TWO_PI_I * t)

    def f(th):
        return lambda_fn(w, 0.5 - (th + TAU / 2), 1.0)

    oracle = f(TH) * f(TH + TAU * pv)
    assert solve_a1(Z, t, TAU, TH, 1, 2) == pytest.approx(oracle, rel=1e-12)


def test_solve_a1_negative_n_inverse():
    t = 0.7 + 0.9j
    for side in (1, -1):
        # y_dual * y_-dual = 1 under the twisted product
        m1 = solve_a1(Z, t, TAU, TH, side, 1)
        m_neg_shift = solve_a1(Z, t, TAU, TH + TAU, side, -1)
        assert m1 * m_neg_shift == pytest.approx(1, rel=1e-13)


def test_solve_a1_excluded_ray():
    with pytest.raises(DomainError):
        solve_a1(Z, 1j * Z, TAU, TH, 1, 1)
    with pytest.raises(DomainError):
        solve_a1(Z, -1j * Z, TAU, TH, -1, 1)
    # the opposite ray is fine
    solve_a1(Z, -1j * Z, TAU, TH, 1, 1)


def test_adjoint_psi_matches_easter_formula():
    t = 0.7 + 0.9j
    for side in (1, -1):
        w = side * Z / (TWO_PI_I * t)
        expected = 1 / f_fn(w, (1 + TAU) / 2 - side * TH, 1.0, TAU)
        assert adjoint_psi_a1(Z, t, TAU, TH, side) == pytest.approx(expected, rel=1e-12)


def test_adjoint_ad_consistency():
    rng = np.random.default_rng(42)
    for side in (1, -1):
        done = 0
        while done < 50:
            t = rng.uniform(0.2, 5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            try:
                psi0 = adjoint_psi_a1(Z, t, TAU, TH, side)
                psi1 = adjoint_psi_a1(Z, t, TAU, TH + TAU, side)
                m = solve_a1(Z, t, TAU, TH, side, 1)
            except (PoleSignal, DomainError):
                continue
            assert abs(psi0 / psi1 / m - 1) < 1e-8
            done += 1


def test_adjoint_psi_scaling_invariance():
    # homogeneity of F: scaling (w, eta, om1, om2) jointly leaves psi fixed
    t = 0.8 - 0.4j
    w = Z / (TWO_PI_I * t)
    eta = (1 + TAU) / 2 - TH
    lam = 1.3 * cmath.exp(0.4j)
    assert f_fn(w, eta, 1.0, TAU) == pytest.approx(
        f_fn(lam * w, lam * eta, lam, lam * TAU), rel=1e-10
    )


def test_jump_identity_both_half_planes():
    rng = np.random.default_rng(7)
    counts = {1: 0, -1: 0}
    while min(counts.values()) < 100:
        t = rng.uniform(0.1, 10) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        re = (t / Z).real
        if abs(re) < 1e-3:
            continue
        c = 1 if re > 0 else -1
        if counts[c] >= 100:
            continue
        try:
            res = verify_jump_a1(Z, t, TAU, TH)
        except PoleSignal:
            continue
        assert res < 1e-9
        counts[c] += 1


def test_jump_degenerate_theta_signals():
    # choose theta so the jump factor 1 + e^(i pi tau - z/t + 2 pi i theta) vanishes
    t = 0.9 * Z  # Re(t/z) > 0
    th = (1j * math.pi - 1j * math.pi * TAU + Z / t) / TWO_PI_I
    with pytest.raises(PoleSignal):
        verify_jump_a1(Z, t, TAU, th)


def test_limits_a1_decay_and_growth():
    for side in (1, -1):
        lim = verify_limits_a1(Z, side, TAU, TH)
        tail = lim.residuals[-7:]
        assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
        assert lim.zero_limit_residual < 1e-6
        assert lim.growth_exponent <= 5


def test_limits_profile_rotation_invariant():
    # rotating z and the sampling ray together leaves residuals unchanged up
    # to the cancellation noise of evaluating log Lambda at huge |w|
    phi = 0.8
    lim1 = verify_limits_a1(Z, 1, TAU, TH)
    lim2 = verify_limits_a1(Z * cmath.exp(1j * phi), 1, TAU, TH)
    for r1, r2 in zip(lim1.residuals, lim2.residuals):
        assert r1 == pytest.approx(r2, rel=2e-2, abs=1e-12)


# ---------------------------------------------------------------------------
# general case


def _pick_ray(z, t, side):
    az = cmath.phase(side * z)
    at = cmath.phase(t)
    lo1, hi1 = az - math.pi, az

    def wrap(x):
        while x <= lo1 - math.pi:
            x += 2 * math.pi
        while x > lo1 + math.pi:
            x -= 2 * math.pi
        return x

    lo2 = wrap(at - math.pi / 2)
    lo = max(lo1, lo2)
    hi = min(hi1, lo2 + math.pi)
    assert hi > lo
    return cmath.exp(1j * (lo + hi) / 2)


def test_general_specialises_to_doubled():
    inst = _instance()
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        t = rng.uniform(0.1, 10) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        side = 1 if done % 2 == 0 else -1
        try:
            r = _pick_ray(Z, t, side)
            general = solve_general(inst, r, t, TAU, (TH,), (0, 1))
            a1 = solve_a1(Z, t, TAU, TH, side, 1)
        except (PoleSignal, DomainError, AssertionError):
            continue
        assert abs(general / a1 - 1) < 1e-12
        done += 1


def test_general_empty_structure_gives_one():
    b = RefinedBPSStructure(2, ((0, -1), (1, 0)), (1 + 0j, 0j), {})
    s = em_splitting(doubled_a1(1.0))  # same lattice shape; no active classes
    inst = RHInstance(b, s)
    assert inst.rays == ()
    assert solve_general(inst, 1.0, 0.5, TAU, (TH,), (0, 1)) == 1
    assert adjoint_general(inst, 1.0, 0.5, TAU, (TH,)) == 1


def test_general_rejects_active_ray_and_wrong_halfplane():
    inst = _instance()
    with pytest.raises(DomainError):
        solve_general(inst, Z, 0.5 * Z, TAU, (TH,), (0, 1))
    r = _pick_ray(Z, 0.5 * Z, 1)
    with pytest.raises(DomainError):
        solve_general(inst, r, -0.5 * Z * r / abs(Z), TAU, (TH,), (0, 1))
    with pytest.raises(DomainError):
        solve_general(inst, r, 0.5 * Z, TAU, (TH,), (1, 0))  # beta not magnetic


def test_general_rejects_theta_of_wrong_length():
    inst = RHInstance(direct_sum(doubled_a1(Z), doubled_a1(0.4 + 0.9j)))
    r = cmath.exp(0.3j)
    for theta in ((TH,), (TH, TH, TH)):
        with pytest.raises(DomainError):
            adjoint_general(inst, r, 0.5 * r, TAU, theta)
        with pytest.raises(DomainError):
            solve_general(inst, r, 0.5 * r, TAU, theta, inst.splitting.magnetic[0])


def test_rh_instance_verifies_given_splitting():
    b = doubled_a1(Z)
    swapped = EMSplitting(((0, 1),), ((1, 0),))  # the active class would be magnetic
    with pytest.raises(DomainError):
        RHInstance(b, swapped)
    assert RHInstance(b).splitting == em_splitting(b)


def test_rh_instance_derives_refinement_and_rays():
    b = direct_sum(doubled_a1(Z), doubled_a1(0.4 + 0.9j))
    inst = RHInstance(b)
    assert inst.rays == tuple(active_rays(b))
    assert inst.refinement == canonical_refinement(b)


def test_adjoint_general_reduces_to_easter():
    inst = _instance()
    rng = np.random.default_rng(12)
    done = 0
    while done < 20:
        t = rng.uniform(0.2, 5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        side = 1 if done % 2 == 0 else -1
        try:
            r = _pick_ray(Z, t, side)
            general = adjoint_general(inst, r, t, TAU, (TH,))
            closed = adjoint_psi_a1(Z, t, TAU, TH, side)
        except (PoleSignal, DomainError, AssertionError):
            continue
        assert abs(general / closed - 1) < 1e-10
        done += 1


#: Omega(+-gamma) for the general-case identities: the unrefined 1 and the
#: refined L^(1/2) + L^(-1/2) (odd Laurent index n) and L + 1 + L^(-1) (even n)
OMEGAS = {
    "trivial": LPoly(1),
    "refined-odd": LPoly({1: 1, -1: 1}),
    "refined-even": LPoly({2: 1, 0: 1, -2: 1}),
}


def _doubled(z, omega):
    """doubled_a1(z) with Omega(+-a) = omega."""
    return RefinedBPSStructure(2, ((0, -1), (1, 0)), (complex(z), 0j), {(1, 0): omega, (-1, 0): omega})


def _direct_sum_instance(omega):
    return RHInstance(direct_sum(_doubled(Z, omega), _doubled(0.4 + 0.9j, omega)))


def _kappa_instance(omega):
    """Doubled A1 squared (basis e1, d1, e2, d2) whose one active pair is
    +-(2 e1 + e2), with the stored splitting e1, e2 / d1, d2: <d1, gamma> = 2,
    so kappa(d1, gamma) = {1/2, 3/2}."""
    g = (2, 0, 1, 0)
    b = RefinedBPSStructure(
        4,
        direct_sum(doubled_a1(Z), doubled_a1(Z)).skew,
        (Z, 0j, 0.4 + 0.9j, 0j),
        {g: omega, tuple(-x for x in g): omega},
    )
    return RHInstance(b, EMSplitting(((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))))


@pytest.mark.parametrize("omega", list(OMEGAS))
@pytest.mark.parametrize("build", [_direct_sum_instance, _kappa_instance], ids=["direct-sum", "kappa"])
def test_adjoint_general_ad_agreement_direct_sum(build, omega):
    inst = build(OMEGAS[omega])
    b, s = inst.structure, inst.splitting
    rng = np.random.default_rng(13)
    done = 0
    while done < 20:
        t = rng.uniform(0.3, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        r = t / abs(t)
        thv = (
            complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)),
            complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)),
        )
        if any(abs(r - ry.phase) < 1e-2 or abs(r + ry.phase) < 1e-2 for ry in inst.rays):
            continue
        beta = s.magnetic[done % 2]
        pv = tuple(b.pairing(beta, e) for e in s.electric)
        th_shift = tuple(x + TAU * c for x, c in zip(thv, pv))
        try:
            psi0 = adjoint_general(inst, r, t, TAU, thv)
            psi1 = adjoint_general(inst, r, t, TAU, th_shift)
            mult = solve_general(inst, r, t, TAU, thv, beta)
        except (PoleSignal, DomainError):
            continue
        assert abs(psi0 / psi1 / mult - 1) < 1e-8
        done += 1


@pytest.mark.parametrize("omega", list(OMEGAS))
def test_two_ray_jump_matches_wall_crossing(omega):
    inst = RHInstance(_doubled(Z, OMEGAS[omega]))
    b, s = inst.structure, inst.splitting
    ray_plus = [ry for ry in inst.rays if abs(ry.phase - Z / abs(Z)) < 1e-9][0]
    rng = np.random.default_rng(14)
    done = 0
    while done < 50:
        t = Z * rng.uniform(0.3, 3) * cmath.exp(1j * rng.uniform(-1.2, 1.2))
        delta = 0.15
        r_plus = Z / abs(Z) * cmath.exp(-1j * delta)
        r_minus = Z / abs(Z) * cmath.exp(1j * delta)
        try:
            psi_p = solve_general(inst, r_plus, t, TAU, (TH,), (0, 1))
            psi_m = solve_general(inst, r_minus, t, TAU, (TH,), (0, 1))
            s_tilde = compose(eps_z(b, s, -t), compose(s_q_ray(inst, ray_plus), eps_z(b, s, t)))
            jump = eval_expr(s_tilde.multiplier_for((1,)), TAU, (TH,))
        except (PoleSignal, DomainError):
            continue
        assert abs(psi_p / (jump * psi_m) - 1) < 1e-9
        done += 1


def test_rh_instance_requires_good_structure():
    b = RefinedBPSStructure(
        2,
        ((0, -1), (1, 0)),
        (1 + 0j, 1j),
        {(1, 0): LPoly(1), (-1, 0): LPoly(1), (0, 1): LPoly(1), (0, -1): LPoly(1)},
    )
    with pytest.raises(DomainError):
        RHInstance(b)
    with pytest.raises(DomainError):
        RHInstance(b, em_splitting(doubled_a1(1.0)))


def test_rh_instance_rejects_half_integer_omega():
    with pytest.raises(DomainError):
        RHInstance(_doubled(Z, LPoly({0: Fraction(1, 2)})))


# ---------------------------------------------------------------------------
# the per-lattice memo of RHInstance


def _count_analysis(monkeypatch) -> dict:
    """Counts of the eliminations, classifications and refinements that
    instance construction runs from here on."""
    counts = {"_integer_solve": 0, "classify": 0, "canonical_refinement": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(bps, "_integer_solve")
    counting(rhsolver, "classify")
    counting(rhsolver, "canonical_refinement")
    return counts


def test_instances_that_differ_only_in_z_share_one_analysis(monkeypatch):
    first = RHInstance(direct_sum(doubled_a1(Z), doubled_a1(0.4 + 0.9j)))
    counts = _count_analysis(monkeypatch)
    b = direct_sum(doubled_a1(-0.7 + 0.2j), doubled_a1(1.1j))
    second = RHInstance(b)
    assert counts == {"_integer_solve": 0, "classify": 0, "canonical_refinement": 0}
    assert (second.splitting, second.refinement) == (first.splitting, first.refinement)
    # the charges and rays are the second structure's own
    assert [(g, z) for g, z, _, _ in second.classes] == [(g, b.charge(g)) for g in b.active_classes]
    assert second.rays == tuple(active_rays(b)) != first.rays
    assert second.structure is b


def test_a_new_lattice_is_analysed_and_kept(monkeypatch):
    counts = _count_analysis(monkeypatch)
    RHInstance(doubled_a1(Z))
    assert counts["classify"] == counts["canonical_refinement"] == 1
    assert counts["_integer_solve"] >= 1
    assert rhsolver._lattice_analysis.cache_info().currsize == 1


def test_the_given_splitting_is_part_of_the_key():
    b = doubled_a1(Z)
    RHInstance(b)  # kept with the constructed splitting
    swapped = EMSplitting(((0, 1),), ((1, 0),))
    for _ in range(2):
        with pytest.raises(DomainError):
            RHInstance(b, swapped)
    assert RHInstance(doubled_a1(0.3j), em_splitting(b)).splitting == em_splitting(b)


@pytest.mark.parametrize(
    "b",
    [
        RefinedBPSStructure(
            2,
            ((0, -1), (1, 0)),
            (1 + 0j, 1j),
            {(1, 0): LPoly(1), (-1, 0): LPoly(1), (0, 1): LPoly(1), (0, -1): LPoly(1)},
        ),
        _doubled(Z, LPoly({1: 1})),
        _doubled(Z, LPoly({0: Fraction(1, 2)})),
    ],
    ids=["coupled", "non-palindromic", "non-integral"],
)
def test_a_structure_that_fails_a_check_raises_on_every_construction(b):
    for _ in range(3):
        with pytest.raises(DomainError):
            RHInstance(b)
    assert rhsolver._lattice_analysis.cache_info().currsize == 0


def test_the_memo_keeps_the_most_recently_used_lattices(monkeypatch):
    # nine lattices, one more than the memo keeps: Omega(+-a) = k for k = 1..9
    first, second, *rest = (LPoly(k) for k in range(1, 10))
    for omega in (first, second, *rest[:-1]):
        RHInstance(_doubled(Z, omega))
    RHInstance(_doubled(0.3j, first))  # a hit, so the first is now the newest
    RHInstance(_doubled(Z, rest[-1]))  # the ninth pushes out the second
    info = rhsolver._lattice_analysis.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 9, 8)
    counts = _count_analysis(monkeypatch)
    RHInstance(_doubled(0.7 - 1j, first))
    assert counts["classify"] == 0
    RHInstance(_doubled(0.7 - 1j, second))
    assert counts["classify"] == 1


@pytest.mark.parametrize("order", [((1, 0), (-1, 0)), ((-1, 0), (1, 0))])
def test_a_refinement_error_names_the_first_class_of_the_structure(order):
    # Omega(+-a) carries both parities of n; the message names the class given first
    om = LPoly({-1: 1, 0: 1, 1: 1})
    b = RefinedBPSStructure(2, ((0, -1), (1, 0)), (Z, 0j), {g: om for g in order})
    with pytest.raises(DomainError) as err:
        RHInstance(b)
    assert str(err.value) == f"no consistent refinement: {order[0]} carries both parities of n"


def test_a_lattice_with_another_skew_form_is_analysed_again():
    one = LPoly(1)
    RHInstance(doubled_a1(Z))
    # <d, a> = 2 has no integral dual for the same classes
    b = RefinedBPSStructure(2, ((0, -2), (2, 0)), (Z, 0j), {(1, 0): one, (-1, 0): one})
    with pytest.raises(DomainError, match="no integral dual basis"):
        RHInstance(b)


def test_a_lattice_given_in_lists_is_analysed_but_not_kept():
    b = RefinedBPSStructure(2, [[0, -1], [1, 0]], (Z, 0j), doubled_a1(Z).invariants)
    inst = RHInstance(b)
    assert inst.splitting == RHInstance(doubled_a1(Z)).splitting
    assert rhsolver._lattice_analysis.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# limits


def test_richardson_exactness_on_polynomial():
    # f(s) = L + 2s - s^2 + 0.3 s^3: four levels recover L exactly
    L = 3.7 - 0.2j

    def f(s):
        return L + 2 * s - s * s + 0.3 * s**3

    vals = [f(0.5 * 2.0**-j) for j in range(5)]
    assert richardson(vals) == pytest.approx(L, abs=1e-12)


def test_hamiltonian_limit_closed_vs_extrapolated():
    for side in (1, -1):
        t = side * (0.8 + 0.2j) * Z
        closed = hamiltonian_limit(Z, t, 0.13, side)
        assert type(closed) is complex
        assert abs(closed - hamiltonian_extrapolated(Z, t, 0.13, side)) < 1e-5


def test_hamiltonian_derivative_identity():
    t = 0.8 + 0.2j
    for side in (1, -1):
        ts = side * t * Z
        w = side * Z / (TWO_PI_I * ts)
        for h in (1e-4, 5e-5):
            hp = hamiltonian_limit(Z, ts, 0.13 + h, side)
            hm = hamiltonian_limit(Z, ts, 0.13 - h, side)
            d = (hp - hm) / (2 * h)
            expected = -side * TWO_PI_I * log_lambda(w, 0.5 - side * 0.13, 1.0)
            assert abs(d - expected) < 1e-6


def test_hamiltonian_flow_reproduces_classical_multiplier():
    # exp(-(dH/dtheta)/(2 pi i)) equals the classical multiplier Lambda^side
    t = 0.9 - 0.3j
    for side in (1, -1):
        ts = side * t * Z
        w = side * Z / (TWO_PI_I * ts)
        h = 1e-5
        hp = hamiltonian_limit(Z, ts, 0.21 + h, side)
        hm = hamiltonian_limit(Z, ts, 0.21 - h, side)
        d = (hp - hm) / (2 * h)
        got = cmath.exp(-d / TWO_PI_I)
        want = lambda_fn(w, 0.5 - side * 0.21, 1.0) ** side
        assert got == pytest.approx(want, rel=1e-6)


def test_limits_compute_closed_form_without_log_f(monkeypatch):
    # the closed forms need no F; only the cross-checks evaluate it
    import qrh.rhsolver as rh
    from qrh.special import log_delta, upsilon_fn

    def no_log_f(*args, **kwargs):
        raise RuntimeError("log_f evaluated")

    monkeypatch.setattr(rh, "log_f", no_log_f)
    t, th = 0.8 * Z, 0.13
    w = Z / (TWO_PI_I * t)
    assert hamiltonian_limit(Z, t, th) == -TWO_PI_I * log_delta(w, 0.5 - th)
    assert tau_function_limit(Z, t, th) == upsilon_fn(w, -th)
    for cross_check in (hamiltonian_extrapolated, tau_psi_closed, tau_psi_extrapolated):
        with pytest.raises(RuntimeError):
            cross_check(Z, t, th)


def test_tau_function_limit_identities():
    rng = np.random.default_rng(15)
    done = 0
    while done < 50:
        t = rng.uniform(0.3, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        side = 1 if done % 2 == 0 else -1
        th = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        try:
            upsilon = tau_function_limit(Z, t, th, side)
            psi_closed = tau_psi_closed(Z, t, th, side)
        except (PoleSignal, DomainError):
            continue
        w = side * Z / (TWO_PI_I * t)
        assert abs(psi_closed / (cmath.exp(-cmath.log(w) / 12) * upsilon) - 1) < 1e-9
        done += 1


def test_tau_function_difference_relation():
    # Upsilon(w, -(th - 1/2)) = Upsilon(w, -(th + 1/2)) * Lambda(w, 1/2 - th | 1)
    from qrh.special import upsilon_fn

    t = 0.7 - 0.2j
    w = Z / (TWO_PI_I * t)
    for th in (0.1, 0.3 - 0.2j):
        lhs = upsilon_fn(w, -(th - 0.5))
        rhs = upsilon_fn(w, -(th + 0.5)) * lambda_fn(w, 0.5 - th, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_tau_function_extrapolation():
    t = 0.8 * Z
    assert abs(tau_psi_extrapolated(Z, t, 0.13, 1) / tau_psi_closed(Z, t, 0.13, 1) - 1) < 1e-5


def test_tau_zero_is_tau_function():
    # theta = 0 gives the tau-function value Upsilon(+-z/(2 pi i t), 0)
    from qrh.special import upsilon_fn

    t = 0.8 * Z
    want = upsilon_fn(Z / (TWO_PI_I * t), 0.0)
    assert tau_function_limit(Z, t, 0.0, 1) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# pole locations


def test_pole_zero_locations():
    rng = np.random.default_rng(16)
    for _ in range(3):
        z = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        tv = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2))
        th = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        for n in (-3, -2, -1, 0, 1, 2, 3):
            pred = predicted_special_t(z, tv, th, n)
            det = detect_special_t(z, tv, th, n)
            assert abs(det - pred) < 1e-8 * abs(pred)


def test_multiplier_signals_at_predicted_pole():
    # evaluating exactly at the predicted location raises the pole signal
    t_star = predicted_special_t(Z, TAU, TH, -1)
    with pytest.raises(PoleSignal):
        solve_a1(Z, t_star, TAU, TH, 1, 1)
    t_star = predicted_special_t(Z, TAU, TH, 1)
    with pytest.raises(PoleSignal):
        solve_a1(Z, t_star, TAU, TH, -1, 1)


# ---------------------------------------------------------------------------
# point-list forms: the scalar entries, values bit for bit


def _outcome(entry):
    """A value, or the attributes of the exception that replaced it."""
    if isinstance(entry, PoleSignal):
        return ("pole signal", entry.kind, entry.location, entry.source)
    if isinstance(entry, DomainError):
        return (type(entry).__name__, str(entry))
    return entry


def _bits(entry):
    """A value by its IEEE bytes, so signed zeros count; other entries as they are."""
    return struct.pack("<dd", entry.real, entry.imag) if isinstance(entry, complex) else entry


def _scalar_outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleSignal, DomainError) as exc:
        return _outcome(exc)


#: Multiples of EXCLUDED_RAY_TOL by which _a1_points steps t off the excluded
#: ray: the first lies inside its band, the others outside.
RAY_OFFSETS = (0.5, 1.5, 2.5)


def _a1_points(z, tau, theta, side):
    """t on a ring and a spiral, with t = 0, t on the excluded ray and
    RAY_OFFSETS x EXCLUDED_RAY_TOL off it, and t putting w + eta within 1e-11
    of the pole lattice and on the lattice."""
    ts = [0.05 * (1 + k % 7) * cmath.exp(0.37j * k) for k in range(40)]
    ts += [0j, 0.3j * side * z]
    ts += [0.3j * side * z * (1 + 1j * k * EXCLUDED_RAY_TOL) for k in RAY_OFFSETS]
    eta = (1 + tau) / 2 - side * theta
    for m1, m2, offset in ((0, 0, 0), (2, 1, 3e-12), (5, 0, -4e-12j), (1, 3, 2e-11), (7, 2, 0)):
        w = -(m1 + m2 * tau) + offset - eta
        ts.append(side * z / (TWO_PI_I * w))
    return ts


@pytest.mark.parametrize("side", [1, -1])
def test_adjoint_psi_a1_many_is_the_scalar_loop(side):
    ts = _a1_points(Z, TAU, TH, side)
    got = [_outcome(e) for e in adjoint_psi_a1_many(Z, ts, TAU, TH, side)]
    want = [_scalar_outcome(adjoint_psi_a1, Z, t, TAU, TH, side) for t in ts]
    assert got == want
    kinds = {type(x) for x in want}
    assert kinds == {complex, tuple}  # values and exceptions both occur
    assert sum(isinstance(x, tuple) and x[0] == "pole signal" for x in want) >= 3
    # across the excluded ray's band: excluded inside it, a value outside
    band = got[42 : 42 + len(RAY_OFFSETS)]
    assert band[0] == ("DomainError", f"t lies on the excluded ray i*l_{'+' if side > 0 else '-'}")
    assert [type(x) for x in band[1:]] == [complex, complex]


def test_adjoint_psi_a1_many_collinear_and_bad_side():
    ts = [0.3 + 0.1j, 0.2 - 0.4j]
    # tau = 1: collinear parameters, every point through the scalar path
    got = [_outcome(e) for e in adjoint_psi_a1_many(Z, ts, 1.0, TH, 1)]
    assert got == [_scalar_outcome(adjoint_psi_a1, Z, t, 1.0, TH, 1) for t in ts]
    assert [_outcome(e) for e in adjoint_psi_a1_many(Z, ts, TAU, TH, 2)] == [
        ("DomainError", "side must be +1 or -1")
    ] * 2


def test_adjoint_psi_a1_many_gives_the_scalar_outcome_where_it_overflows():
    # at |w| near 30 on this ray log F is far off (ROADMAP Open item 2), and
    # exp(-log F) overflows in the scalar call and in the batch alike: the
    # point list holds the DomainError that outcome() makes of the overflow,
    # and goes on to the points after it
    z = 1.1475977539097284 + 0.0830758900653913j
    tau = 0.0810763060401595 + 0.361481692326996j
    theta = -0.16396722303508726 + 0.0501290646395236j
    bad_t = 0.0011075613843695023 + 0.005568087087594374j
    with pytest.raises(OverflowError):
        adjoint_psi_a1(z, bad_t, tau, theta, 1)
    ts = [0.3 + 0.1j, 0j, bad_t, 0.2 - 0.4j]
    got = [_outcome(e) for e in adjoint_psi_a1_many(z, ts, tau, theta, 1)]
    assert got == [_outcome(outcome(adjoint_psi_a1, z, t, tau, theta, 1)) for t in ts]
    assert got[2] == (
        "DomainError",
        "floating point fails at these arguments (OverflowError: math range error)",
    )
    assert type(got[0]) is type(got[3]) is complex


@pytest.mark.parametrize("omega", list(OMEGAS))
@pytest.mark.parametrize("build", [_direct_sum_instance, _kappa_instance], ids=["direct-sum", "kappa"])
def test_adjoint_general_many_is_the_scalar_loop(build, omega):
    inst = build(OMEGAS[omega])
    thv = (0.2 - 0.1j, -0.3 + 0.25j)
    r = cmath.exp(0.3j)
    ts = [0.1 * (1 + k % 5) * cmath.exp(0.41j * k) for k in range(30)] + [0j]
    got = [_outcome(e) for e in adjoint_general_many(inst, r, ts, TAU, thv)]
    want = [_scalar_outcome(adjoint_general, inst, r, t, TAU, thv) for t in ts]
    assert got == want
    assert {type(x) for x in want} == {complex, tuple}


ACTIVE_R = "r must be a non-active ray (and not opposite to one)"


@pytest.mark.parametrize(
    "r, thv, fixed_error",
    [
        (0j, (0.2, 0.3), "ray direction and t must be non-zero"),
        (2 * Z, (0.2, 0.3), ACTIVE_R),
        (-0.5 * Z, (0.2, 0.3), ACTIVE_R),
        (cmath.exp(0.3j), (0.2,), "theta needs 2 values, one per electric basis vector, got 1"),
        (cmath.exp(0.3j), (0.2, 0.3, 0.1), "theta needs 2 values, one per electric basis vector, got 3"),
        (cmath.exp(0.3j), (0.2, 0.3), None),
    ],
    ids=["r-zero", "active", "opposite", "theta-short", "theta-long", "good"],
)
def test_adjoint_general_many_keeps_the_scalar_error_order(r, thv, fixed_error):
    # t = 0, t outside H_r and t inside it, against each failing r or theta:
    # a bad r or theta gives every point the one DomainError of the checks
    # on the call's fixed arguments (zero r, then active r, then theta
    # length); with both good, each point gets its own t error (zero t, then
    # H_r) or its value; every outcome is the scalar call's
    inst = _direct_sum_instance(OMEGAS["trivial"])
    ts = [0j, 0.4 * cmath.exp(0.3j + 2j), 0.3 + 0.1j, -0.3 - 0.1j, 0.5 * cmath.exp(0.2j)]
    got = [_outcome(e) for e in adjoint_general_many(inst, r, ts, TAU, thv)]
    want = [_scalar_outcome(adjoint_general, inst, r, t, TAU, thv) for t in ts]
    assert got == want
    if fixed_error is not None:
        assert want == [("DomainError", fixed_error)] * len(ts)
    else:
        assert want[:2] == [
            ("DomainError", "ray direction and t must be non-zero"),
            ("DomainError", "t must lie in the half-plane H_r"),
        ]
        assert [type(x) for x in want[2:]] == [complex, tuple, complex]


def test_adjoint_general_many_builds_one_factor_table_per_call(monkeypatch):
    # the F factors once per call, the per-point part once per point
    import qrh.rhsolver as rh

    calls = []
    f_factors, ws = rh._f_factors, rh._RaySelection.ws
    monkeypatch.setattr(rh, "_f_factors", lambda *a: calls.append("f") or f_factors(*a))
    monkeypatch.setattr(rh._RaySelection, "ws", lambda *a: calls.append("ws") or ws(*a))
    inst = _direct_sum_instance(OMEGAS["trivial"])
    ts = [0.1 * (1 + k % 5) * cmath.exp(0.41j * k) for k in range(12)]
    adjoint_general_many(inst, cmath.exp(0.3j), ts, TAU, (0.2, 0.3))
    assert calls == ["f"] + ["ws"] * len(ts)


def test_adjoint_general_many_raises_a_malformed_theta_once():
    # an entry of theta that is not a number raises from the call, before any
    # point, as it does from the scalar call at every t
    inst = _direct_sum_instance(OMEGAS["trivial"])
    r, thv = cmath.exp(0.3j), ("x", 0.3)
    outside = [0j, -0.3 - 0.1j]
    for t in outside + [0.3 + 0.1j]:
        with pytest.raises(ValueError):
            adjoint_general(inst, r, t, TAU, thv)
    with pytest.raises(ValueError):
        adjoint_general_many(inst, r, outside, TAU, thv)


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize(
    "many, scalar",
    [(hamiltonian_limit_many, hamiltonian_limit), (tau_function_limit_many, tau_function_limit)],
    ids=["hamiltonian", "tau"],
)
def test_limit_many_is_the_scalar_outcome_bit_for_bit(many, scalar, side):
    # the points of _a1_points (t = 0, the excluded ray's band), t where
    # w + eta sits on a zero of G or a pole of Gamma, t so small that the
    # shift cap refuses, and t = 1e-300, where the value is not finite
    eta = 0.5 - side * TH if many is hamiltonian_limit_many else -side * TH
    ts = _a1_points(Z, TAU, TH, side)
    ts += [side * Z / (TWO_PI_I * (-m - eta + offset)) for m, offset in ((0, 0), (1, 3e-13), (3, 0))]
    ts += [side * Z / (TWO_PI_I * (-1e8 + 1j)), 1e-300, 1e-300j]
    got = [_outcome(e) for e in many(Z, ts, TH, side)]
    want = [_outcome(outcome(scalar, Z, t, TH, side)) for t in ts]
    assert list(map(_bits, got)) == list(map(_bits, want))
    assert {type(x) for x in want} == {complex, tuple}
    assert ("DomainError", f"t lies on the excluded ray i*l_{'+' if side > 0 else '-'}") in want
    assert any(x[0] == "pole signal" for x in want if isinstance(x, tuple))
    assert [_outcome(e) for e in many(Z, ts[:2], TH, 2)] == [("DomainError", "side must be +1 or -1")] * 2
    assert [_outcome(e) for e in many(0, ts[:2], TH, side)] == [("DomainError", "z must be non-zero")] * 2


#: Limit grids (fixed arguments, point spec) whose rows are ok, excluded-ray,
#: zero and domain: the shift cap refuses the point t = -1.6e-17+1.6e-9i, at
#: |t| = 1e-300 the value is not finite.
LIMIT_GRIDS = [
    (["z=1", "theta=0.1"], ["--annulus", "0.2:0.5:2:4"]),
    (["z=1+0.5i", "theta=0.2-0.1i", "side=-1"], ["--annulus", "0.01:3:3:5"]),
    (["z=1", "theta=0"], ["--t-re=-1.5915494309189534e-17:-1.5915494309189534e-17:1",
                          "--t-im", "1.5915494309189533e-09:1.5915494309189533e-09:1"]),
    (["z=1", "theta=0"], ["--annulus", "1e-300:1e-300:1:2"]),
    # G(u + 1) vanishes at the first point, u = w - theta (tau) and
    # u = w + 1/2 - theta (hamiltonian)
    (["z=1", "theta=0.1+0.2i"], ["--t-re", "-0.03744822190397537:0.06255177809602464:2",
                                 "--t-im", "0.16851699856788918:0.16851699856788918:1"]),
    (["z=1", "theta=0.6+0.2i"], ["--t-re", "-0.03744822190397537:0.06255177809602464:2",
                                 "--t-im", "0.16851699856788918:0.16851699856788918:1"]),
]


@pytest.mark.parametrize("digits", ["17", "5"])
@pytest.mark.parametrize("function", ["hamiltonian", "tau"])
def test_limit_many_grid_rows_follow_eval_bit_for_bit(capsys, function, digits):
    # each row's cells are those of eval --format csv at the row's exact t
    # (printed, at --digits 5, to 5 digits), and a domain or excluded-ray row
    # is an eval exit 64
    from qrh.cli import _grid_points, _parse_kv_tokens, main

    statuses = set()
    for fixed, spec in LIMIT_GRIDS:
        assert main(["--digits", digits, "grid", function, *fixed, *spec]) == 0
        out, err = capsys.readouterr()
        rows = out.splitlines()
        assert rows[0] == "t_re,t_im,value_re,value_im,status" and err == ""
        points = _grid_points(_parse_kv_tokens(spec))
        assert len(rows) == len(points) + 1
        for t, row in zip(points, rows[1:]):
            status = row.rsplit(",", 1)[1]
            statuses.add(status)
            code = main(["--digits", digits, "--format", "csv", "eval", function, *fixed,
                         f"t={t.real!r},{t.imag!r}"])
            out, err = capsys.readouterr()
            if status in ("domain", "excluded-ray"):
                assert (code, out) == (64, "") and len(err.splitlines()) == 1, row
            else:
                cells = row.split(",", 2)[2]
                assert (code, out, err) == (0 if status == "ok" else 2, f"value_re,value_im,status\n{cells}\n", ""), row
    assert statuses == {"ok", "excluded-ray", "domain", "zero"}
