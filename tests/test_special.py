import cmath
import json
import math
import struct
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import loggamma

from qrh.bernoulli import (
    bernoulli_numbers,
    multi_bernoulli,
    multi_bernoulli_coeffs,
    multi_bernoulli_zero_series,
)
from qrh.cli import main
from qrh.constants import (
    EM_TOL,
    _euler_maclaurin,
    _lipschitz,
    em_gap,
    hurwitz_zeta,
    hurwitz_zeta_sprime,
    rho_constant,
    zeta_prime_minus_one,
)
from qrh.signals import DomainError, PoleSignal, UnsupportedRegimeError, near_nonpositive_integer
from qrh import special
from qrh.suites import _brute_zeta1, _log_gamma2_third_derivative
from qrh.special import (
    asymptotic_log_f,
    asymptotic_log_lambda,
    barnes_zeta,
    delta_fn,
    f_fn,
    gamma_n_second_stirling,
    lambda_fn,
    log_barnes_g,
    log_delta,
    log_upsilon,
    log_f,
    log_gamma,
    log_gamma1,
    log_gamma2,
    log_lambda,
    quantum_dilog,
    quantum_dilog_inv_series,
    second_stirling_tail_coeff,
    upsilon_fn,
)

mpmath.mp.dps = 30

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# constants


def test_zeta_prime_minus_one_against_mpmath():
    # the constant is the double nearest zeta'(-1), bit for bit
    with mpmath.workdps(40):
        oracle = float(mpmath.zeta(-1, derivative=1))
    assert zeta_prime_minus_one() == oracle == -0.16542114370045094


def test_rho_constant():
    assert rho_constant() == pytest.approx(
        math.sqrt(TWO_PI) * math.exp(-zeta_prime_minus_one()), rel=1e-15
    )


def test_hurwitz_zeta_against_mpmath():
    for s, q in [(2.3, 1.7 + 0.4j), (3.0 - 1.0j, 0.6), (1.5, 4.2 - 0.8j)]:
        ref = complex(mpmath.zeta(s, q))
        assert abs(hurwitz_zeta(s, q) - ref) < 1e-12 * max(1, abs(ref))


# ---------------------------------------------------------------------------
# log gamma and Barnes G


def test_log_gamma_basics():
    assert log_gamma(1) == pytest.approx(0)
    assert log_gamma(5) == pytest.approx(math.log(24))


def test_log_gamma_half_against_quadrature():
    # Gamma(1/2) via its integral definition, independent of loggamma
    val, _err = quad(lambda t: t ** (-0.5) * math.exp(-t), 0, np.inf)
    assert log_gamma(0.5).real == pytest.approx(math.log(val), abs=1e-10)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi))


def test_log_gamma_pole_signal():
    with pytest.raises(PoleSignal) as ei:
        log_gamma(-3)
    assert ei.value.kind == "pole" and ei.value.location == -3


def test_barnes_g_small_integers():
    assert abs(log_barnes_g(1)) < 1e-11
    assert abs(log_barnes_g(3)) < 1e-11  # G(3) = Gamma(2) G(2) = 1
    assert log_barnes_g(4) == pytest.approx(math.log(2), abs=1e-11)  # G(4) = Gamma(3) = 2


def test_barnes_g_recurrence_as_implemented():
    for z in [0.3 + 0.8j, 5.5, -2.3 + 1.0j, 40 - 7j]:
        lhs = log_barnes_g(z + 1)
        rhs = log_gamma(z) + log_barnes_g(z)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_barnes_g_vs_mpmath_values():
    # compare values (branch-free) over |z| <= 100
    rng = np.random.default_rng(5)
    for _ in range(12):
        z = complex(rng.uniform(-20, 90), rng.uniform(-40, 40))
        if abs(z - round(z.real)) < 1e-3 and round(z.real) <= 0:
            continue
        mine = log_barnes_g(z)
        ref = complex(mpmath.log(mpmath.barnesg(mpmath.mpc(z.real, z.imag))))
        # branches may differ by 2 pi i k; compare real parts and exp
        assert abs(mine.real - ref.real) < 1e-11 * max(1.0, abs(ref.real))
        k = (mine.imag - ref.imag) / TWO_PI
        assert abs(k - round(k)) < 1e-9


def test_barnes_g_zero_signal():
    with pytest.raises(PoleSignal) as ei:
        log_barnes_g(0)
    assert ei.value.kind == "zero"


# ---------------------------------------------------------------------------
# Barnes zeta (direct-sum oracle)


def test_barnes_zeta_reduces_to_hurwitz():
    a = 1.3 - 0.2j
    s, x = 2.7 + 0.3j, 1.1 + 0.4j
    ref = cmath.exp(-s * cmath.log(a)) * complex(mpmath.zeta(s, x / a))
    assert abs(barnes_zeta(1, s, x, (a,)) - ref) < 1e-10 * abs(ref)


def test_barnes_zeta_classical_values():
    # zeta(2) = pi^2/6 via the N=1 sum
    assert barnes_zeta(1, 2, 1, (1,)) == pytest.approx(math.pi**2 / 6, rel=1e-10)
    # N=2, s=3, x=1, a=(1,1): sum (m+1)(1+k)^-3 collapses to zeta(2)
    brute = sum((1 + k) * (1 + k) ** -3.0 for k in range(400000))
    assert brute == pytest.approx(math.pi**2 / 6, rel=1e-5)
    assert barnes_zeta(2, 3, 1, (1, 1)) == pytest.approx(math.pi**2 / 6, rel=1e-10)


def test_barnes_zeta_divergent_regime_rejected():
    with pytest.raises(UnsupportedRegimeError):
        barnes_zeta(1, 0.5, 1.0, (1.0,))
    with pytest.raises(UnsupportedRegimeError):
        barnes_zeta(3, 5.0, 1.0, (1.0, 1.0, 1.0))


#: Rows of the N = 2 brute-force box summed per numpy block.  A block of the
#: 600 x 600 box keeps its temporaries to a few hundred kB; the whole box at
#: once would take over 10 MB.
BRUTE_ROWS = 25


def _brute_zeta2(s: complex, x: complex, a: tuple, big: int) -> complex:
    """Brute-force reference for zeta_2(s, x | a): the terms of the box
    n_1, n_2 < big, summed BRUTE_ROWS rows of n_1 at a time.  Each term is the
    principal power exp(-s log z), summed by numpy."""
    n = np.arange(big)
    cols = n * a[1]
    total = 0j
    for start in range(0, big, BRUTE_ROWS):
        z = (x + n[start : start + BRUTE_ROWS] * a[0])[:, None] + cols
        total += complex(np.exp(-s * np.log(z)).sum())
    return total


def _loop_zeta(N, s, x, a, big):
    # the brute-force references as scalar loops, before they were summed in
    # numpy blocks
    if N == 1:
        brute = sum(cmath.exp(-s * cmath.log(x + n * a[0])) for n in range(big))
        end = x + big * a[0]
        tail = cmath.exp((1 - s) * cmath.log(end)) / ((s - 1) * a[0]) + cmath.exp(
            -s * cmath.log(end)
        ) / 2
        return brute + tail
    ref = 0j
    for m in range(big):
        zrow = x + m * a[0]
        for n in range(big):
            ref += (zrow + n * a[1]) ** (-s)
    return ref


def test_brute_zeta_matches_scalar_loops():
    # numpy sums pairwise and takes exp(-s log z) for z**-s, so the bound is
    # a few hundred ulps of the sum, not equality
    rng = np.random.default_rng(7)
    for _ in range(4):
        a = (complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3)),)
        x = complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))
        s = complex(rng.uniform(2.5, 4.0), rng.uniform(-0.5, 0.5))
        ref = _loop_zeta(1, s, x, a, 400)
        assert abs(_brute_zeta1(s, x, a, 400) - ref) <= 1e-13 * abs(ref)
        a = tuple(complex(rng.uniform(0.6, 1.4), rng.uniform(-0.2, 0.2)) for _ in range(2))
        x = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3))
        s = complex(rng.uniform(5.5, 6.5), 0)
        ref = _loop_zeta(2, s, x, a, 40)
        assert abs(_brute_zeta2(s, x, a, 40) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("x", [-3.3 + 0.5j, -2.5 + 0j])
def test_barnes_zeta_left_of_the_parameters(x):
    # Re(x/a_i) < 0 is allowed; at an integer s every term is single-valued
    a, s = (1, 1 + 0.1j), 6
    ref = _brute_zeta2(s, x, a, 600)
    assert abs(barnes_zeta(2, s, x, a) - ref) < 1e-8 * abs(ref)


def test_barnes_zeta_matches_the_box_at_a_non_integer_s():
    # a non-integer s needs Re(x/a_i) > 0, where the principal powers are the
    # terms; the tolerance is the suite's, far above the box's truncation
    a, x, s = (1.3 + 0.15j, 0.7 - 0.2j), 0.6 + 0.25j, 5.7
    ref = _brute_zeta2(s, x, a, 600)
    assert abs(barnes_zeta(2, s, x, a) - ref) < 1e-8 * abs(ref)


@pytest.mark.parametrize(
    "x, a",
    [
        (0.5 + 0.3j, (0.6 - 0.2j, 1.4 + 0.2j)),
        (1.2 - 0.1j, (1.0 + 0.05j, 0.9 - 0.15j)),
        (2.0 - 0.3j, (1.4 + 0.2j, 0.6 + 0.2j)),
    ],
)
def test_log_gamma2_third_derivative_is_minus_twice_barnes_zeta(x, a):
    # d^3/dx^3 log Gamma_2(x | a) = -2 zeta_2(3, x | a), the zeta-oracle check
    # of Gamma_2, at the corners and the middle of its draw ranges
    ref = -2 * barnes_zeta(2, 3, x, a)
    assert abs(_log_gamma2_third_derivative(x, a) - ref) <= 1e-11 * abs(ref)


def test_barnes_zeta_rejects_hurwitz_argument_on_the_cut():
    # (x + 0 a_1) / a_2 = -2.5
    with pytest.raises(DomainError):
        barnes_zeta(2, 6, -2.5, (1 + 0.1j, 1))
    with pytest.raises(DomainError):
        barnes_zeta(1, 6, -2.5, (1,))


@pytest.mark.parametrize(
    "N, s, x, a",
    [
        # the tail m >= 24 starts 3 from a pole, and a ray of poles crosses it
        (2, 6, -24 + 3j, (1, 1 + 0.1j)),
        (2, 6, -30 + 0.5j, (1, 1 - 0.1j)),
        # the tail m >= 24 passes the poles m = 30 - n (1+0.1i) - 0.5i
        (2, 6, -30 + 0.5j, (1, 1 + 0.1j)),
        # a pole 9.01 from the tail, with s = 4
        (2, 4, -15 + 0.5j, (1, 1 + 0.1j)),
        # just outside EM_MARGIN: gap 9.5
        (2, 6, -14.5 + 0.5j, (1, 1 + 0.1j)),
    ],
)
def test_barnes_zeta_refuses_a_tail_next_to_a_pole(N, s, x, a):
    # the N = 2 tail in m is wrong by any factor there: at the third point it
    # gives -0.70+23.6i, where a brute sum gives -104.46
    with pytest.raises(UnsupportedRegimeError, match="Euler-Maclaurin"):
        barnes_zeta(N, s, x, a)


@pytest.mark.parametrize(
    "N, s, x, a, big",
    [
        # gaps 10.05 (|q + 25|) and 10.5 (|Im q|)
        (1, 3, -15 + 1j, (1,), 4000),
        (1, 3, -100 + 10.5j, (1,), 4000),
        # gaps 10.5 (|M + x/a_1|) and 10.5 (|Im x|); at s = 8 a 2000 x 2000
        # box leaves out about 1e-10 of the value, a 600 x 600 box 1e-6
        (2, 6, -13.5 + 0.5j, (1, 1 + 0.1j), 600),
        (2, 8, -40 + 10.5j, (1, 1 + 0.1j), 2000),
    ],
)
def test_barnes_zeta_just_inside_the_margin_matches_brute_sums(N, s, x, a, big):
    ref = _brute_zeta1(s, x, a, big) if N == 1 else _brute_zeta2(s, x, a, big)
    assert abs(barnes_zeta(N, s, x, a) - ref) < 1e-8 * abs(ref)


def _zeta_reference(s, q):
    """zeta(s, q) at 60 digits: the direct sum while Re(q + n) <= 0, then
    mp.zeta, which is not a reference far left of 0 (ROADMAP item 4)."""
    with mpmath.workdps(60):
        k = max(0, math.ceil(1 - q.real))
        S = mpmath.mpc(s)
        head = mpmath.fsum((mpmath.mpc(q) + n) ** -S for n in range(k))
        return complex(head + mpmath.zeta(S, mpmath.mpc(q) + k))


@pytest.mark.parametrize(
    "s, q",
    [
        # barnes_zeta's N = 1 tail next to its pole: gaps 1.1, 0.01 and 9.5
        (3, -24.5 + 1j),
        (3, -100 + 0.01j),
        (3, -100 + 9.5j),
        # gap 10.01, where the unshifted s = 12 tail was 6e-8 off
        (12, -21.3728 - 9.3297j),
        (6, -21.3728 - 9.3297j),
        # 640 steps down the unshifted tail, where it was 100% off, and three
        # points it got 1e-10 to 1e-5 off
        (12, -665 + 12j),
        (12, -185 + 13.17j),
        (19, -185 - 17.51j),
        (12 + 4j, -665 + 13.46j),
    ],
)
def test_hurwitz_zeta_past_the_pole_matches_the_reference(s, q):
    ref = _zeta_reference(s, q)
    assert abs(hurwitz_zeta(s, q) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("s", [12, 19, 26, 12 + 4j])
def test_hurwitz_zeta_at_the_former_margin_matches_the_reference(s):
    # the least gap g around the pole of the unshifted tail n >= 25 that its
    # fitted rule accepted, on the arc and on lines past the pole
    g = {12: 11.22, 19: 15.56, 26: 19.44, 12 + 4j: 12.51}[s]
    for p in (g * 1j, g * cmath.exp(0.25j * math.pi), complex(-10, g), complex(-40, -g)):
        ref = _zeta_reference(s, p - 25)
        assert abs(hurwitz_zeta(s, p - 25) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "s, x",
    [("12", "-665+12i"), ("12", "-21.3728-9.3297i"), ("3", "-24.5+1i")],
)
def test_eval_zeta_left_of_zero_matches_the_reference(capsys, s, x):
    # three points that the fitted tail rules refused with exit 64
    code = main(["--format", "json", "--digits", "17", "eval", "zeta", "N=1", f"s={s}", f"x={x}", "a=1"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    value = complex(*json.loads(out)["value"])
    ref = _zeta_reference(float(s), complex(x.replace("i", "j")))
    assert abs(value - ref) < 1e-12 * abs(ref)


def test_hurwitz_zeta_answers_or_refuses_by_its_estimate():
    # a non-integer s that barnes_zeta refuses left of the parameters
    ref = _zeta_reference(3.5 + 0.3j, -300 + 5j)
    assert abs(hurwitz_zeta(3.5 + 0.3j, -300 + 5j) - ref) < 1e-12 * abs(ref)
    # 1 + 2^-50 + ..., far from any pole
    assert abs(hurwitz_zeta(50, 1) - (1 + 2**-50)) < 1e-15
    # Re s < 0: the terms cancel to a value 31% off
    with pytest.raises(UnsupportedRegimeError, match="no route estimates"):
        hurwitz_zeta(-10 + 3j, 1.3 + 0.2j)
    # neither route reaches: M is past the cap and the k-sum barely decays
    start = time.perf_counter()
    with pytest.raises(UnsupportedRegimeError, match="no route estimates"):
        hurwitz_zeta(3, -1e6 + 1e-6j)
    assert time.perf_counter() - start < 0.5


def _zeta_sprime_reference(s, q):
    """d/ds zeta(s, q) at 40 digits: mpmath.diff of the direct sum while
    Re(q + n) <= 0 plus mp.zeta."""
    with mpmath.workdps(40):
        k, Q = max(0, math.ceil(1 - q.real)), mpmath.mpc(q)

        def zeta(S):
            return mpmath.fsum((Q + n) ** -S for n in range(k)) + mpmath.zeta(S, Q + k)

        return complex(mpmath.diff(zeta, mpmath.mpc(s)))


def test_hurwitz_zeta_sprime_answers_or_refuses_by_its_estimate():
    # from a fixed M = 32 and with no estimate these came out 100% and 16
    # times off: the first sum now runs past the pole n = 40, the second
    # cancels, and each is within 1e-5 of the reference or refused
    for s, q in ((3, -40 + 0.5j), (-10 + 3j, 1.3 + 0.2j)):
        ref = _zeta_sprime_reference(s, q)
        try:
            assert abs(hurwitz_zeta_sprime(s, q) - ref) < 1e-5 * abs(ref)
        except UnsupportedRegimeError:
            assert s != 3  # left of the pole the shifted sum is accurate
    # the reference route to zeta'(-1) and the program's call keep their bits
    assert hurwitz_zeta_sprime(-1.0, 1.0, M=20).real == -0.16542114370040978
    assert hurwitz_zeta_sprime(2.0, 1.0) == -0.9375482543158437


@pytest.mark.parametrize("s", [2.5, 3.5 + 0.3j])
def test_hurwitz_zeta_far_left_keeps_the_phase_of_its_reflection(s):
    # 1e6 steps left a direct sum is out of reach, so the reference is the
    # reflection itself at 40 digits; without Re q reduced mod 1 first, the
    # phases 2 pi k Re q leave the value 3e-8 to 3e-7 off
    q = -999999.7 + 0.05j
    with mpmath.workdps(40):
        S, Q = mpmath.mpmathify(s), mpmath.mpc(q)
        sum_k = mpmath.polylog(1 - S, mpmath.exp(2j * mpmath.pi * Q))
        ref = complex(
            (2 * mpmath.pi) ** S * mpmath.exp(-0.5j * mpmath.pi * S) / mpmath.gamma(S) * sum_k
            - mpmath.exp(-1j * mpmath.pi * S) * mpmath.zeta(S, 1 - Q)
        )
    assert abs(hurwitz_zeta(s, q) - ref) < 1e-12 * abs(ref)


def test_hurwitz_zeta_sweep_is_within_its_tolerance_on_both_routes():
    rng = np.random.default_rng(28)
    points = [
        (
            complex(rng.uniform(-2, 30), rng.choice([0.0, rng.uniform(-5, 5)])),
            complex(
                -(10 ** rng.uniform(-1, 3)) * rng.choice([-0.1, 1, 1]),
                rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1.3),
            ),
        )
        for _ in range(40)
    ]
    points.append((3.5 + 0.3j, -5000.3 + 2j))
    routes = []
    for s, q in points:
        try:
            value = hurwitz_zeta(s, q)
        except UnsupportedRegimeError:
            continue
        ref = _zeta_reference(s, q)
        assert abs(value - ref) <= EM_TOL * abs(ref)
        routes.append("lipschitz" if q.real < 0 and value == _lipschitz(s, q)[0] else "euler-maclaurin")
    assert len(routes) >= 35
    assert routes.count("lipschitz") >= 5 and routes.count("euler-maclaurin") >= 5


def test_em_gap():
    # a point: its distance to (-inf, 0]
    assert em_gap(3 + 4j) == 5
    assert em_gap(-7 + 2j) == 2
    # a ray that crosses the half-line, one that runs away from it, and one
    # that passes it
    assert em_gap(-1 + 1j, 1 - 1j) == 0
    assert em_gap(2 + 1j, 1 + 0.5j) == abs(2 + 1j)
    assert em_gap(3 - 3j, 1j) == 3
    assert em_gap(-3 + 2j, -1 + 0j) == 2


def _complex_bits(values) -> bytes:
    """The IEEE bytes of complex values, so signed zeros and NaNs count."""
    return b"".join(struct.pack("<dd", complex(z).real, complex(z).imag) for z in values)


def _reference_rising(s, m):
    # (s)_m as one running product, rebuilt for every m
    factors = [s + i for i in range(m)]
    prefix = [1.0 + 0j] * (m + 1)
    for i in range(m):
        prefix[i + 1] = prefix[i] * factors[i]
    return prefix[m]


def _reference_hurwitz_zeta(s, q):
    # hurwitz_zeta's sum with one rising factorial rebuilt per term
    M, J = 25, 12
    bern = [complex(b) for b in bernoulli_numbers(2 * J)]
    total = 0j
    for n in range(M):
        total += cmath.exp(-s * cmath.log(q + n))
    qm = q + M
    lqm = cmath.log(qm)
    total += cmath.exp((1 - s) * lqm) / (s - 1)
    total += cmath.exp(-s * lqm) / 2
    fact = 2.0
    for j in range(1, J + 1):
        rising = _reference_rising(s, 2 * j - 1)
        total += bern[2 * j].real / fact * rising * cmath.exp((-s - 2 * j + 1) * lqm)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _reference_barnes_zeta2(s, x, a1, a2):
    # barnes_zeta's N = 2 sum with (s)_r rebuilt by `rising *= s + i` per term
    M, J = 24, 6
    bern = [complex(b) for b in bernoulli_numbers(2 * J)]
    total = 0j
    pref = cmath.exp(-s * cmath.log(a2))
    for m in range(M):
        total += pref * _reference_hurwitz_zeta(s, (x + m * a1) / a2)
    u_m = (x + M * a1) / a2
    total += cmath.exp((1 - s) * cmath.log(a2)) / (a1 * (s - 1)) * _reference_hurwitz_zeta(s - 1, u_m)
    total += pref * _reference_hurwitz_zeta(s, u_m) / 2
    fact = 2.0
    ratio = a1 / a2
    for j in range(1, J + 1):
        r = 2 * j - 1
        rising = 1.0 + 0j
        for i in range(r):
            rising *= s + i
        deriv = pref * ratio**r * (-1) ** r * rising * _reference_hurwitz_zeta(s + r, u_m)
        total -= bern[2 * j].real / fact * deriv
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _reference_gamma2_coefficients(a1, a2):
    # the per-pair coefficients through the public multi-Bernoulli functions
    zeros = multi_bernoulli_zero_series(2, (a1, a2), special.MAX_TAIL_TERMS + 2)
    tail = tuple(
        (-1) ** k * zeros[k + 2] / (k * (k + 1) * (k + 2))
        for k in range(1, special.MAX_TAIL_TERMS + 1)
    )
    return tail, tuple(reversed(multi_bernoulli_coeffs(2, 2, (a1, a2))))


def _random_complex(rng, lo, hi, phase):
    r, phi = rng.uniform(lo, hi), rng.uniform(-phase, phase)
    return complex(r * math.cos(phi), r * math.sin(phi))


def test_hurwitz_zeta_running_rising_factorial_is_bitwise_the_rebuilt_one():
    rng = np.random.default_rng(19)
    for _ in range(300):
        s = complex(rng.uniform(-20, 20), rng.choice([0.0, rng.uniform(-10, 10)]))
        q = _random_complex(rng, 0.01, 60, 3.0)
        # left of 0 the terms start at another M, or the value is reflected
        if s == 1 or q.real < 0 or em_gap(q + 25) < 40:
            continue
        assert _complex_bits([hurwitz_zeta(s, q)]) == _complex_bits([_reference_hurwitz_zeta(s, q)])
    # integer s, where the rising factorial passes through zero; at s = -7
    # the terms cancel to a value 1.7% off, which hurwitz_zeta refuses
    for s in (-7, -3, 0, 2, 3):
        value = _euler_maclaurin(complex(s), 0.7 + 0j, 25)[0]
        assert _complex_bits([value]) == _complex_bits([_reference_hurwitz_zeta(s, 0.7)])
    with pytest.raises(UnsupportedRegimeError, match="no route estimates"):
        hurwitz_zeta(-7, 0.7)


def test_barnes_zeta_two_tail_is_bitwise_the_rebuilt_one():
    rng = np.random.default_rng(1919)
    for _ in range(25):
        s = complex(rng.uniform(2.2, 9), rng.choice([0.0, rng.uniform(-3, 3)]))
        # phases below pi/2 apart: Re(x/a_i) > 0
        a1, a2 = (_random_complex(rng, 0.5, 2, 0.7) for _ in range(2))
        x = _random_complex(rng, 0.2, 5, 0.8)
        got = barnes_zeta(2, s, x, (a1, a2))
        assert _complex_bits([got]) == _complex_bits([_reference_barnes_zeta2(s, x, a1, a2)])


def test_gamma2_coefficients_are_bitwise_the_multi_bernoulli_ones():
    rng = np.random.default_rng(191919)

    def draw(lo, hi):  # |a| log-uniform in [10^lo, 10^hi]
        return cmath.rect(10 ** rng.uniform(lo, hi), rng.uniform(-3, 3))

    pairs = [(1 + 0j, 1 + 0j), (1 + 0j, 1j), (1e-3 + 0j, 1 + 0j), (1 + 0j, 1e6 + 0j)]
    pairs += [tuple(_random_complex(rng, 0.05, 20, 1.5) for _ in range(2)) for _ in range(60)]
    pairs += [(draw(-3, 3), draw(-3, 3)) for _ in range(200)]
    # up to |a| = 1e16 every power the coefficients take, the
    # (MAX_TAIL_TERMS + 1)-th at most, is finite; from 1e21 on it overflows,
    # for the record as for the public functions
    huge = [(draw(10, 16), draw(-3, 16)) for _ in range(20)]
    for a1, a2 in [(draw(21, 22), draw(-3, 22)) for _ in range(10)]:
        with pytest.raises(OverflowError):
            special._Gamma2Pair(a1, a2).coefficients
        with pytest.raises(OverflowError):
            _reference_gamma2_coefficients(a1, a2)
    for a1, a2 in pairs + huge:
        tail, b22, re, im = special._Gamma2Pair(a1, a2).coefficients
        ref_tail, ref_b22 = _reference_gamma2_coefficients(a1, a2)
        assert _complex_bits(tail) == _complex_bits(ref_tail)
        assert _complex_bits(b22) == _complex_bits(ref_b22)
        assert re.tobytes() == np.array(ref_tail).real.tobytes()
        assert im.tobytes() == np.array(ref_tail).imag.tobytes()


# ---------------------------------------------------------------------------
# Gamma_1 and Gamma_2


def test_log_gamma1_values():
    assert log_gamma1(1, 1) == pytest.approx(-0.5 * math.log(TWO_PI))
    a = 1.7 - 0.6j
    expected = -0.5 * math.log(TWO_PI) + 0.5 * cmath.log(a)  # x = a: log Gamma(1) = 0
    assert log_gamma1(a, a) == pytest.approx(expected)


def test_log_gamma1_homogeneity():
    # log Gamma_1(lam x | lam a) - log Gamma_1(x | a) = +B_{1,1}(x|a) log lam
    # (sign from zeta_1(0,x|a) = -B_{1,1}(x|a); small |arg lam| so branches align)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
        a = complex(rng.uniform(0.4, 2), rng.uniform(-0.8, 0.8))
        lam = rng.uniform(0.4, 2.5) * cmath.exp(1j * rng.uniform(-0.9, 0.9))
        diff = log_gamma1(lam * x, lam * a) - log_gamma1(x, a)
        expected = multi_bernoulli(1, 1, x, (a,)) * cmath.log(lam)
        assert abs(diff - expected) < 1e-11 * max(1.0, abs(expected))


def test_log_gamma2_one_one_identity():
    # Gamma_2(x|1,1)^(-1) = rho G(x) (2 pi)^(-x/2)
    for x in [0.8, 2.1, 7.3, 5 + 2j, 3 - 1.5j]:
        lhs = -log_gamma2(x, 1.0, 1.0)
        rhs = math.log(rho_constant()) + log_barnes_g(x) - (x / 2) * math.log(TWO_PI)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_log_gamma2_zeta_regularized_anchor():
    # log Gamma_2(x|1,1) = zeta_H'(-1,x) + (1-x) zeta_H'(0,x)
    for x in [0.7, 1.6, 2.3, 4.1]:
        ref = complex(mpmath.zeta(-1, x, 1) + (1 - x) * mpmath.zeta(0, x, 1))
        assert abs(log_gamma2(x, 1.0, 1.0) - ref) < 1e-11 * max(1.0, abs(ref))


def test_log_gamma2_difference_relation():
    # log Gamma_2(x + om2) - log Gamma_2(x) = -log Gamma_1(x | om1)
    rng = np.random.default_rng(3)
    for _ in range(15):
        w1 = complex(rng.uniform(0.4, 2), rng.uniform(-0.8, 0.8))
        w2 = complex(rng.uniform(0.4, 2), rng.uniform(-0.8, 0.8))
        x = complex(rng.uniform(0.3, 4), rng.uniform(-2, 2))
        diff = log_gamma2(x + w2, w1, w2) - log_gamma2(x, w1, w2)
        assert abs(diff + log_gamma1(x, w1)) < 1e-10 * max(1.0, abs(diff))


def test_log_gamma2_homogeneity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        w1 = complex(rng.uniform(0.5, 1.8), rng.uniform(-0.5, 0.5))
        w2 = complex(rng.uniform(0.5, 1.8), rng.uniform(-0.5, 0.5))
        x = complex(rng.uniform(0.4, 3), rng.uniform(-1.5, 1.5))
        lam = rng.uniform(0.5, 2) * cmath.exp(1j * rng.uniform(-0.7, 0.7))
        diff = log_gamma2(lam * x, lam * w1, lam * w2) - log_gamma2(x, w1, w2)
        expected = -0.5 * multi_bernoulli(2, 2, x, (w1, w2)) * cmath.log(lam)
        assert abs(diff - expected) < 1e-9 * max(1.0, abs(expected))


def test_log_gamma2_path_independence():
    x, w1, w2 = 1.2 - 0.8j, 1.1 + 0.3j, 0.7 - 0.2j
    assert abs(log_gamma2(x, w1, w2) - log_gamma2(x, w1, w2, extra_shift=5)) < 1e-9


def test_log_gamma2_pole_signal():
    with pytest.raises(PoleSignal):
        log_gamma2(-1.0 - 2.0 * (0.5 + 0.5j), 1.0, 0.5 + 0.5j)
    with pytest.raises(PoleSignal):
        log_gamma2(-3.0, 1.0, 1.0)


def test_log_gamma2_antiparallel_rejected():
    with pytest.raises(DomainError):
        log_gamma2(1.0, 1.0, -2.0 + 0j)


@pytest.mark.parametrize("lam", [1e-100, 1e-20, 1.5e16, 1.6e16])
def test_log_gamma2_refuses_where_its_sum_is_not_finite(lam):
    # two bands of scale, about 3e-162 to 3e-19 and 1.4e16 to 1.7e16, where the
    # sum at x = (1/3 + i/6) lam, om = (lam, i lam) is NaN; log_f and every
    # log_f_many entry refuse with log_gamma2
    x = complex(1 / 3, 1 / 6) * lam
    with pytest.raises(UnsupportedRegimeError, match="not finite"):
        log_gamma2(x, lam, 1j * lam)
    with pytest.raises(UnsupportedRegimeError, match="not finite"):
        log_f(x, 0, lam, 1j * lam)
    outs = special.log_f_many([x, x / 2], [0, 0], lam, 1j * lam)
    assert all(isinstance(o, UnsupportedRegimeError) for o in outs)


def test_log_gamma2_extra_shift_past_the_shift_cap_raises_before_any_step(monkeypatch):
    # 2^21 extra steps exceed MAX_SHIFTS: refused before the tail or any
    # log Gamma_1 factor is evaluated
    def no_step(*args):
        raise AssertionError("log_gamma2 evaluated a term")

    monkeypatch.setattr(special, "_loggamma", no_step)
    monkeypatch.setattr(special, "_cor_a2_expansion", no_step)
    with pytest.raises(UnsupportedRegimeError, match="recurrence steps"):
        log_gamma2(1, 1, 1j, extra_shift=2**21)


# ---------------------------------------------------------------------------
# cached coefficients and vectorised recurrences, against term-by-term
# references: the values must agree bit for bit, not approximately


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PoleSignal as sig:
        return (sig.kind, sig.location, sig.source)


def _reference_cor_a2(x, a1, a2):
    # the second-Stirling form, every coefficient rebuilt from the
    # multi-Bernoulli functions; 40 tail terms, more than
    # special.MAX_TAIL_TERMS, so the shorter sum must give the same bits
    total = -0.5 * multi_bernoulli(2, 2, x, (a1, a2)) * cmath.log(x)
    total += 3 * x * x / (4 * a1 * a2) - x * (a1 + a2) / (2 * a1 * a2)
    zeros = multi_bernoulli_zero_series(2, (a1, a2), 42)
    invx = 1 / x
    p = invx
    terms = []
    for k in range(1, 41):
        terms.append((-1) ** k * zeros[k + 2] / (k * (k + 1) * (k + 2)) * p)
        p *= invx
    cut = min(range(len(terms)), key=lambda i: abs(terms[i]))
    return total + sum(terms[: cut + 1])


def _reference_log_gamma2(x, w1, w2, extra_shift):
    # one log_gamma1 call per shift, added in order of the shift
    shift, other = (w1, w2) if abs(w1) >= abs(w2) else (w2, w1)
    target = 10.0 * max(abs(w1), abs(w2))
    c = (x * shift.conjugate()).real
    s2 = abs(shift) ** 2
    disc = c * c + s2 * (target * target - abs(x) * abs(x))
    n = 0 if disc <= 0 else max(0, math.ceil((-c + math.sqrt(disc)) / s2))
    n += extra_shift
    total = _reference_cor_a2(x + n * shift, w1, w2)
    for j in range(n):
        total += log_gamma1(x + j * shift, other)
    return total


_UPPER = st.builds(complex, st.floats(-1.5, 1.5), st.floats(0.05, 2.0))
_POLAR = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi), st.floats(0.1, 50.0), st.floats(-math.pi, math.pi)
)


@settings(max_examples=150, deadline=None)
@given(x=_POLAR, om2=_UPPER, k=st.integers(0, 5))
def test_log_gamma2_bitwise_term_by_term(x, om2, k):
    try:
        special._gamma2_pole_check(x, special._gamma2_pair(1 + 0j, om2))
    except PoleSignal:
        assume(False)  # on the pole lattice
    got = _outcome(log_gamma2, x, 1.0, om2, extra_shift=k)
    assert got == _outcome(_reference_log_gamma2, x, 1 + 0j, om2, k)


@settings(max_examples=60, deadline=None)
@given(w=_POLAR, eta=_UPPER, om2=_UPPER)
def test_log_f_bitwise_term_by_term(w, eta, om2):
    lg2 = _outcome(log_gamma2, w + eta, 1.0, om2)
    if isinstance(lg2, tuple):  # a pole
        return
    w1 = 1 + 0j
    b22 = multi_bernoulli(2, 2, w + eta, (w1, om2))
    g = -3 * w * w / (4 * w1 * om2) - eta * w / (w1 * om2) + w * (w1 + om2) / (2 * w1 * om2)
    assert log_f(w, eta, 1.0, om2) == lg2 + 0.5 * b22 * cmath.log(w) + g


def test_gamma2_coefficient_cache_is_small():
    assert special._gamma2_pair_of_bits.cache_info().maxsize <= 64


def test_log_gamma2_after_a_pair_that_differs_in_the_sign_of_a_zero_is_its_fresh_value():
    # om2 = 0.7j and -0.0+0.7j are equal as complex keys, but the shifts
    # x + 3 om1 divided by them land on opposite sides of log Gamma's cut
    x, om1 = -4.5 - 2.6157703078950068j, complex(1.5, -0.0)
    om2s = (complex(0.0, 0.7), complex(-0.0, 0.7))
    fresh = []
    for om2 in om2s:
        special._gamma2_pair_of_bits.cache_clear()
        fresh.append(_complex_bits([log_gamma2(x, om1, om2)]))
    assert fresh[0] != fresh[1]
    for first, then in ((0, 1), (1, 0)):
        special._gamma2_pair_of_bits.cache_clear()
        log_gamma2(x, om1, om2s[first])
        assert _complex_bits([log_gamma2(x, om1, om2s[then])]) == fresh[then]


def test_gamma2_tail_cut_drops_nothing_double_precision_sees():
    # log_gamma2 sums the tail at |y| >= 10 max|om|; there the first term past
    # MAX_TAIL_TERMS is far below the last bit of the value, ~|y|^2 / |om1 om2|
    k = special.MAX_TAIL_TERMS + 1
    for r in (0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 1.5, 3.0, 10.0, 30.0):
        for phi in (-3.1, -2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.1):
            a = (1 + 0j, r * cmath.exp(1j * phi))
            y = 10 * max(abs(a[0]), abs(a[1]))
            zeros = multi_bernoulli_zero_series(2, a, k + 2)
            dropped = abs(zeros[k + 2]) / (k * (k + 1) * (k + 2)) * y**-k
            assert dropped < 2.0**-60 * y * y / abs(a[0] * a[1]), (r, phi)


def test_barnes_g_tail_cut_drops_nothing_double_precision_sees():
    # _log_barnes_g_asymptotic runs at |v| >= 14, where log G(1+v) ~ (v^2/2) log v
    k = special.MAX_TAIL_TERMS + 1
    v = special.BARNES_G_THRESHOLD - 1
    b = float(bernoulli_numbers(2 * k + 2)[2 * k + 2])
    dropped = abs(b) / ((2 * k) * (2 * k + 2)) * v ** (-2 * k)
    assert dropped < 2.0**-60 * v * v / 2


def test_barnes_g_tail_terms_shrink_wherever_it_is_summed():
    # at |v| >= BARNES_G_THRESHOLD - 1 each term c_k v^-2k is smaller than the
    # one before, so the last of the MAX_TAIL_TERMS summed terms is the smallest
    c = special._barnes_g_tail()
    ratio = max(abs(c[k] / c[k - 1]) for k in range(1, len(c)))
    assert ratio < (special.BARNES_G_THRESHOLD - 1) ** 2


def _mp_log_gamma2(x, w1, w2):
    """log_gamma2's recurrence (its shift count, shift and order of terms) and
    a 40-term second-Stirling tail, in mpmath at 40 digits."""
    pair = special._gamma2_pair(w1, w2)
    c = (x * pair.shift.conjugate()).real
    disc = c * c + pair.s2 * (pair.target * pair.target - abs(x) * abs(x))
    n = 0 if disc <= 0 else max(0, math.ceil((-c + math.sqrt(disc)) / pair.s2))
    with mpmath.workdps(40):
        a1, a2, shift, other, x = map(mpmath.mpc, (w1, w2, pair.shift, pair.other, x))
        y, p = x + n * shift, a1 * a2
        b22 = y * y / p - y * (a1 + a2) / p + (a1 * a1 + a2 * a2 + 3 * p) / (6 * p)
        total = -b22 / 2 * mpmath.log(y) + 3 * y * y / (4 * p) - y * (a1 + a2) / (2 * p)
        # B_{2,m}(0 | a) = m! [t^m] of the product of t / (e^{a t} - 1)
        f1, f2 = ([mpmath.bernoulli(i) * a ** (i - 1) / mpmath.factorial(i) for i in range(43)] for a in (a1, a2))
        for k in range(1, 41):
            b2 = mpmath.factorial(k + 2) * sum(f1[i] * f2[k + 2 - i] for i in range(k + 3))
            total += (-1) ** k * b2 / (k * (k + 1) * (k + 2)) / y**k
        log_other = mpmath.log(other)
        for j in range(n):
            v = (x + j * shift) / other
            total += -mpmath.log(2 * mpmath.pi) / 2 + mpmath.loggamma(v) + (v - 0.5) * log_other
        return total


def test_log_gamma2_is_accurate_where_the_grids_evaluate_it():
    # 240 seeded points x = w + (1 + tau)/2 - side theta at om = (1, tau), as
    # the grid-a1 and grid-general benchmark workloads draw them: |w| from 0.1
    # to 50, Re tau in [-0.5, 0.5], Im tau in [0.3, 1.5], theta in the unit box.
    # The 24-term tail of earlier versions meets the same tolerance with the
    # same worst error, 1.4e-13 max(1, |value|): rounding, not the tail, sets
    # it.  An 8-term tail misses it (5.8e-13).
    rng = np.random.default_rng(2035)
    worst = 0.0
    for _ in range(240):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5))
        w = cmath.rect(math.exp(rng.uniform(math.log(0.1), math.log(50))), rng.uniform(-math.pi, math.pi))
        x = w + (1 + tau) / 2 - rng.choice((1, -1)) * complex(*rng.uniform(-1, 1, 2))
        ref = _mp_log_gamma2(x, 1 + 0j, tau)
        with mpmath.workdps(40):
            diff = mpmath.mpc(log_gamma2(x, 1.0, tau)) - ref
            diff = complex(diff.real, mpmath.fmod(diff.imag + mpmath.pi, 2 * mpmath.pi) - mpmath.pi)
        worst = max(worst, abs(diff) / max(1.0, abs(complex(ref))))
    assert worst < 3e-13


def _reference_log_barnes_g(z):
    # one loggamma call per recurrence step, and the v^-2k tail with a
    # first-increase stop
    steps = max(0, math.ceil(special.BARNES_G_THRESHOLD - z.real))
    v = z + steps - 1
    lv = cmath.log(v)
    total = (v * v / 2) * lv - 3 * v * v / 4 + (v / 2) * special.LOG_2PI - lv / 12
    total += zeta_prime_minus_one()
    inv2 = 1 / (v * v)
    p = inv2
    best = math.inf
    correction = 0j
    for c in special._barnes_g_tail():
        term = c * p
        if abs(term) >= best:
            break
        best = abs(term)
        correction += term
        p *= inv2
    total += correction
    for j in range(steps):
        total -= complex(loggamma(z + j))
    return total


@settings(max_examples=120, deadline=None)
@given(
    z=st.one_of(
        st.builds(complex, st.floats(-40.0, 40.0), st.floats(-5.0, 5.0)),
        st.builds(complex, st.floats(-3000.0, -40.0), st.floats(-50.0, 50.0)),
        st.builds(complex, st.floats(-40.0, 40.0), st.floats(-1e-3, 1e-3)),
        st.builds(complex, st.floats(15.0, 1e6), st.floats(-1e6, 1e6)),
    )
)
def test_log_barnes_g_bitwise_term_by_term(z):
    if near_nonpositive_integer(z) is not None:
        return
    assert log_barnes_g(z) == _reference_log_barnes_g(z)


# ---------------------------------------------------------------------------
# Lambda


def test_lambda_at_one():
    assert lambda_fn(1, 0, 1) == pytest.approx(math.e / math.sqrt(TWO_PI))


def test_lambda_homogeneity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        w = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
        om = complex(rng.uniform(0.3, 2), rng.uniform(-1, 1))
        eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lam = rng.uniform(0.3, 3) * cmath.exp(1j * rng.uniform(-1, 1))
        assert lambda_fn(lam * w, lam * eta, lam * om) == pytest.approx(
            lambda_fn(w, eta, om), rel=1e-10
        )


def test_lambda_reflection():
    rng = np.random.default_rng(7)
    done = 0
    while done < 60:
        om = complex(rng.uniform(0.4, 2), rng.uniform(-1, 1))
        eta = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        sgn = 1 if done % 2 == 0 else -1
        w = om * complex(rng.uniform(-2, 2), sgn * rng.uniform(0.15, 2))
        if (w.imag > 0) != (sgn > 0):
            continue
        try:
            lhs = lambda_fn(w, eta, om) * lambda_fn(-w, om - eta, om)
            rhs = 1 / (1 - cmath.exp(sgn * 2j * math.pi * (w + eta) / om))
        except PoleSignal:
            continue
        assert abs(lhs / rhs - 1) < 1e-9
        done += 1


def test_lambda_pole_signal():
    with pytest.raises(PoleSignal) as ei:
        lambda_fn(1.0, -3.0, 1.0)  # w + eta = -2
    assert ei.value.location == -2


# ---------------------------------------------------------------------------
# F


def test_f_symmetry_and_homogeneity():
    w, eta = 0.9 + 0.6j, 0.2 - 0.3j
    w1, w2 = 1.2 + 0.2j, 0.8 - 0.1j
    assert f_fn(w, eta, w1, w2) == pytest.approx(f_fn(w, eta, w2, w1), rel=1e-12)
    lam = 1.4 * cmath.exp(0.5j)
    assert f_fn(lam * w, lam * eta, lam * w1, lam * w2) == pytest.approx(
        f_fn(w, eta, w1, w2), rel=1e-10
    )


def test_f_difference_relation():
    rng = np.random.default_rng(8)
    done = 0
    while done < 40:
        w1 = complex(rng.uniform(0.4, 2), rng.uniform(-0.7, 0.7))
        w2 = complex(rng.uniform(0.4, 2), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(0.3, 3), rng.uniform(-2, 2))
        eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        try:
            r = f_fn(w, eta + w2, w1, w2) / f_fn(w, eta, w1, w2) * lambda_fn(w, eta, w1)
        except PoleSignal:
            continue
        assert abs(r - 1) < 1e-8
        done += 1


def test_f_pole_signal():
    with pytest.raises(PoleSignal):
        f_fn(1.0, -1.0 - 1.3, 1.0, 1.3)  # w + eta = -om2


# ---------------------------------------------------------------------------
# quantum dilogarithm


def test_eq_trivial_values():
    assert quantum_dilog(0.5, 0) == 1
    assert quantum_dilog(0.5, 1) == pytest.approx(0, abs=1e-300)


def test_eq_difference_relation_with_independent_product():
    q, x = 0.3 + 0.2j, 0.4
    # independent truncated-product oracle
    prod = 1.0 + 0j
    for k in range(400):
        prod *= 1 - q**k * x
    assert quantum_dilog(q, x) == pytest.approx(prod, rel=1e-13)
    lhs = quantum_dilog(q, x) / quantum_dilog(q, q * x)
    assert lhs == pytest.approx(1 - x, rel=1e-13)


def test_eq_series_identity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        q = rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        x = rng.uniform(0.05, 0.8) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        assert quantum_dilog(q, x) * quantum_dilog_inv_series(q, x) == pytest.approx(
            1, abs=1e-12
        )


def test_eq_domain_error():
    with pytest.raises(DomainError):
        quantum_dilog(1.0, 0.5)


def test_eq_near_unit_circle_unsupported():
    # |q| = 0.9999 needs ~4e5 factors to reach the truncation guard
    with pytest.raises(UnsupportedRegimeError):
        quantum_dilog(0.9999 * cmath.exp(1j), 0.001)


# ---------------------------------------------------------------------------
# Delta and Upsilon


def test_delta_at_one_zero():
    expected = math.exp(-zeta_prime_minus_one()) * math.exp(-1 / 6)
    assert delta_fn(1, 0) == pytest.approx(expected, rel=1e-12)


def test_delta_derivative_identity():
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(15):
        w = complex(rng.uniform(0.3, 3), rng.uniform(-2, 2))
        eta = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        dd = (log_delta(w, eta + h) - log_delta(w, eta - h)) / (2 * h)
        assert abs(dd + log_lambda(w, eta, 1.0)) < 1e-7


def test_delta_is_tau_to_zero_limit_of_f():
    # Richardson extrapolation of tau*log F(w,eta|1,tau) along tau = i s
    from qrh.rhsolver import richardson

    w, eta = 1.3 + 0.7j, 0.35 + 0.1j
    samples = [
        (1j * s) * log_f(w, eta, 1.0, 1j * s) for s in (0.5 / 2**j for j in range(3, 8))
    ]
    assert richardson(samples) == pytest.approx(log_delta(w, eta), abs=1e-7)


def test_upsilon_at_one_zero():
    expected = math.exp(-zeta_prime_minus_one()) * math.exp(0.75) / math.sqrt(TWO_PI)
    assert upsilon_fn(1, 0) == pytest.approx(expected, rel=1e-12)


def test_upsilon_difference_relation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = complex(rng.uniform(0.3, 3), rng.uniform(-2, 2))
        th = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
        r = upsilon_fn(w, th) / upsilon_fn(w, th - 1) / lambda_fn(w, th, 1.0)
        assert abs(r - 1) < 1e-9


def test_upsilon_f_identity():
    # F(w, 1 - th | 1, 1)^(-1) = w^(-1/12) Upsilon(w, -th)
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = complex(rng.uniform(0.3, 3), rng.uniform(-2, 2))
        th = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
        lhs = 1 / f_fn(w, 1 - th, 1.0, 1.0)
        rhs = cmath.exp(-cmath.log(w) / 12) * upsilon_fn(w, -th)
        assert abs(lhs / rhs - 1) < 1e-9


# ---------------------------------------------------------------------------
# asymptotic expansions


def test_asymptotic_log_lambda_leading_coefficient():
    # K=1, eta=0, omega=1: B_{1,2}(0|1)/2 = 1/12
    w = 37.0 + 4.0j
    assert asymptotic_log_lambda(w, 0, 1, 1) == pytest.approx(1 / (12 * w))


def test_log_lambda_tends_to_zero():
    for j in range(1, 5):
        assert abs(log_lambda(10.0**j, 0.3, 1.0)) < 0.02 / 10.0 ** (j - 1)


def test_asymptotic_order_lambda():
    eta, om = 0.31 + 0.17j, 1.0
    for K in (1, 2, 3):
        errs = [
            abs(
                log_lambda(10 * 2**j + 0j, eta, om)
                - asymptotic_log_lambda(10 * 2**j, eta, om, K)
            )
            for j in range(4)
        ]
        expo = math.log2(errs[2] / errs[3])
        assert abs(expo - (K + 1)) < 0.2


def test_asymptotic_log_f_leading_coefficient():
    w1, w2 = 1.1, 0.9
    eta = 0.4 - 0.2j
    w = 55.0
    expected = -multi_bernoulli(2, 3, eta, (w1, w2)) / 6 / w
    assert asymptotic_log_f(w, eta, w1, w2, 1) == pytest.approx(expected)


def test_asymptotic_order_f():
    eta = 0.23 + 0.12j
    w1, w2 = 1.2, 0.8
    for K in (1, 2, 3):
        errs = [
            abs(log_f(10 * 2**j + 0j, eta, w1, w2) - asymptotic_log_f(10 * 2**j, eta, w1, w2, K))
            for j in range(4)
        ]
        expo = math.log2(errs[2] / errs[3])
        assert abs(expo - (K + 1)) < 0.2


def test_asymptotic_series_telescopes_through_lambda():
    # the partial sums inherit the F difference relation exactly:
    # S_F(w, eta + om2) - S_F(w, eta) = -S_Lambda(w, eta | om1) at equal order
    w = 23.0 - 4.0j
    eta = 0.3 + 0.2j
    w1, w2 = 1.2 - 0.1j, 0.7 + 0.3j
    for K in (1, 2, 3, 6):
        lhs = asymptotic_log_f(w, eta + w2, w1, w2, K) - asymptotic_log_f(w, eta, w1, w2, K)
        rhs = -asymptotic_log_lambda(w, eta, w1, K)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_asymptotic_derivative_consistency():
    # d/deta of the F series telescopes through the Lambda series: compare
    # finite differences of the partial sums at matched order
    eta = 0.2 + 0.1j
    w1, w2 = 1.3, 0.9
    w = 40.0
    h = 1e-6
    df = (asymptotic_log_f(w, eta + h, w1, w2, 4) - asymptotic_log_f(w, eta - h, w1, w2, 4)) / (
        2 * h
    )
    # analytic eta-derivative of each tail coefficient
    direct = sum(
        (-1) ** k
        * (k + 2)
        * multi_bernoulli(2, k + 1, eta, (w1, w2))
        / (k * (k + 1) * (k + 2))
        * w**-k
        for k in range(1, 5)
    )
    assert df == pytest.approx(direct, rel=1e-6)


# ---------------------------------------------------------------------------
# second Stirling approximant for the multiple gamma functions


def test_second_stirling_n1_matches_classical():
    # classical second Stirling of log Gamma(x + d):
    #   (x+d-1/2) log x - x + (1/2) log 2pi + sum (-1)^(k+1) B_{k+1}(d)/(k(k+1)) x^-k
    x, d = 60.0 + 10.0j, 0.37 - 0.21j
    mine = gamma_n_second_stirling(1, x, d, (1.0,), 4)
    classical = (
        (x + d - 0.5) * cmath.log(x)
        - x
        + 0.5 * math.log(TWO_PI)
        + sum(
            (-1) ** (k + 1) * multi_bernoulli(1, k + 1, d, (1.0,)) / (k * (k + 1)) * x**-k
            for k in range(1, 5)
        )
    )
    # log Gamma_1(x|1) = log Gamma(x) - (1/2) log 2pi
    assert mine == pytest.approx(classical - 0.5 * math.log(TWO_PI), rel=1e-13)


def test_second_stirling_n1_functional():
    x, d, a = 200.0 + 30.0j, 0.4 + 0.2j, 1.3 - 0.2j
    approx = gamma_n_second_stirling(1, x, d, (a,), 4)
    assert abs(approx - log_gamma1(x + d, a)) < 1e-9


def test_second_stirling_n2_matches_cor_a2_display():
    # the N=2 specialisation reproduces the displayed form term by term
    a1, a2 = 1.2 - 0.1j, 0.8 + 0.2j
    d = 0.3 + 0.4j
    for x in [25.0, 40.0 + 15.0j]:
        mine = gamma_n_second_stirling(2, x, d, (a1, a2), 6)
        display = (
            -0.5 * multi_bernoulli(2, 2, x + d, (a1, a2)) * cmath.log(x)
            + 3 * x * x / (4 * a1 * a2)
            - x * (a1 + a2) / (2 * a1 * a2)
            + d * x / (a1 * a2)
            + sum(
                (-1) ** k
                * multi_bernoulli(2, k + 2, d, (a1, a2))
                / (k * (k + 1) * (k + 2))
                * x**-k
                for k in range(1, 7)
            )
        )
        assert mine == pytest.approx(display, rel=1e-12)


def test_second_stirling_n2_large_x_match():
    # against log Gamma_2 evaluated by recurrence at an independent shift depth
    a = (1.1 + 0.1j, 0.9 - 0.15j)
    d = 0.25 - 0.1j
    x = 35.0 + 5.0j
    approx = gamma_n_second_stirling(2, x, d, a, 20)
    ref = log_gamma2(x + d, a[0], a[1], extra_shift=7)
    assert abs(approx - ref) < 1e-9 * max(1.0, abs(ref))


def test_second_stirling_tail_decay_order():
    a = (1.0, 1.0)
    d = 0.3
    for K in (1, 2, 3):
        errs = []
        for j in range(3):
            x = 10.0 * 2**j  # small enough that truncation dominates rounding
            errs.append(abs(gamma_n_second_stirling(2, x, d, a, K) - log_gamma2(x + d, 1.0, 1.0)))
        expo = math.log2(errs[1] / errs[2])
        assert abs(expo - (K + 1)) < 0.25


def test_second_stirling_unsupported_n():
    with pytest.raises(UnsupportedRegimeError):
        gamma_n_second_stirling(3, 10.0, 0.0, (1.0, 1.0, 1.0), 2)


def test_tail_coeff_helper():
    d, a = 0.2 + 0.1j, (1.4 - 0.3j,)
    k = 3
    expected = (-1) ** (1 + k) * multi_bernoulli(1, 1 + k, d, a) / (k * (k + 1))
    assert second_stirling_tail_coeff(1, k, d, a) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# the batch kernel log_f_many: bit for bit the scalar log_f


def _scalar_log_f(w, eta, w1, w2):
    try:
        return log_f(w, eta, w1, w2)
    except (ArithmeticError, ValueError) as exc:  # PoleSignal, DomainError among them
        return exc


def _assert_batch_is_scalar(ws, etas, w1, w2):
    # every entry, masked ones included: the scalar value by ==, or an
    # exception of the scalar one's type and message
    entries = special.log_f_many(ws, etas, w1, w2)
    assert len(entries) == len(ws)
    for w, eta, entry in zip(ws, etas, entries):
        want = _scalar_log_f(w, eta, w1, w2)
        if isinstance(want, Exception):
            assert (type(entry), str(entry)) == (type(want), str(want)), (w, eta)
        else:
            assert type(entry) is complex and entry == want, (w, eta, entry, want)


def _kernel_mask(ws, etas, w1, w2) -> list[bool]:
    """The entries the private batch kernel leaves to log_f."""
    ws, etas = np.array(ws, dtype=complex), np.array(etas, dtype=complex)
    return special._log_f_batch(ws, etas, w1, w2)[1].tolist()


_BOX = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
_TAU = st.builds(complex, st.floats(-0.6, 0.6), st.floats(0.25, 1.6))


@st.composite
def _gamma2_argument(draw, tau):
    """x = w + eta: anywhere with 0.05 <= |x| <= 60, in the cone
    -(R>=0 + R>=0 tau), or within 1e-11 of the pole lattice."""
    kind = draw(st.sampled_from(("annulus", "cone", "pole")))
    if kind == "annulus":
        return draw(st.floats(0.05, 60.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    if kind == "cone":
        return -(draw(st.floats(0.0, 30.0)) + draw(st.floats(0.0, 30.0)) * tau)
    offset = complex(draw(st.floats(-1e-11, 1e-11)), draw(st.floats(-1e-11, 1e-11)))
    return -(draw(st.integers(0, 25)) + draw(st.integers(0, 25)) * tau) + offset


@settings(max_examples=120, deadline=None)
@given(data=st.data(), tau=_TAU)
def test_log_f_many_is_log_f_bit_for_bit(data, tau):
    xs = data.draw(st.lists(_gamma2_argument(tau), min_size=1, max_size=12))
    etas = data.draw(st.lists(_BOX, min_size=len(xs), max_size=len(xs)))
    _assert_batch_is_scalar([x - e for x, e in zip(xs, etas)], etas, 1.0, tau)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


# finite parts of 1/y, with zeros of both signs
_PART = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-25.0, 25.0))


@settings(max_examples=150, deadline=None)
@given(vs=st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=96))
def test_inverse_powers_are_python_complex_products(vs):
    # row k is v^(k+1) by repeated p *= v, bit for bit, signs of zero included
    pr, pi = special._inverse_powers(
        np.array([v.real for v in vs]), np.array([v.imag for v in vs]), 40
    )
    for j, v in enumerate(vs):
        p = v
        for k in range(40):
            assert (_bits(pr[k, j]), _bits(pi[k, j])) == (_bits(p.real), _bits(p.imag))
            p *= v


@settings(max_examples=60, deadline=None)
@given(
    w=st.lists(_POLAR, min_size=1, max_size=8),
    om1=st.builds(complex, st.floats(0.2, 3.0), st.floats(-2.0, 2.0)),
    ratio=_UPPER,
)
def test_log_f_many_general_parameters(w, om1, ratio):
    # the larger parameter is shifted along, and each quotient branch is taken
    _assert_batch_is_scalar(w, [0.3 - 0.2j] * len(w), om1, om1 * ratio)


def test_log_gamma2_and_log_f_many_at_extreme_parameter_ratios_are_bitwise_the_references():
    # |om2/om1| from 1e-3 to 1e3 and phases up to +-pi/2, past the hypothesis
    # domain of test_log_gamma2_bitwise_term_by_term: the 24-term tail gives
    # the bits of the 40-term reference with its cut, and the batch those of
    # log_f
    rng = np.random.default_rng(32)
    for _ in range(300):
        om1 = cmath.rect(10 ** rng.uniform(-1, 1), rng.uniform(-math.pi / 2, math.pi / 2))
        om2 = om1 * cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(-math.pi / 2, math.pi / 2))
        big, small = max(abs(om1), abs(om2)), min(abs(om1), abs(om2))
        xs = [cmath.rect(10 ** rng.uniform(math.log10(small), math.log10(50 * big)),
                         rng.uniform(-math.pi, math.pi)) for _ in range(4)]
        for x in xs:
            got = _outcome(log_gamma2, x, om1, om2)
            want = _outcome(_reference_log_gamma2, x, om1, om2, 0)
            assert _complex_bits([got]) == _complex_bits([want]), (x, om1, om2)
        etas = [_random_complex(rng, 0.0, small, math.pi) for _ in xs]
        ws = [x - eta for x, eta in zip(xs, etas)]
        assert _kernel_mask(ws, etas, om1, om2) == [False] * len(ws)
        got = special.log_f_many(ws, etas, om1, om2)
        want = [log_f(w, eta, om1, om2) for w, eta in zip(ws, etas)]
        assert _complex_bits(got) == _complex_bits(want), (om1, om2)


def test_log_f_many_masks_what_the_scalar_rejects():
    ws = [1.5 + 0.5j, -2.0, 0.0, complex("nan"), complex("inf"), 3.0 + 1j]
    etas = [0.2, 0.3, 0.3, 0.3, 0.3, complex("nan+1j")]
    tau = 0.3 + 0.9j
    assert _kernel_mask(ws, etas, 1.0, tau) == [False, True, True, True, True, True]
    assert all(type(e) is DomainError for e in special.log_f_many(ws, etas, 1.0, tau)[1:])
    _assert_batch_is_scalar(ws, etas, 1.0, tau)
    # collinear parameters and parameters on the cut: log_f decides every entry
    for om2 in (1.0, -1.0, 0.0):
        assert _kernel_mask(ws[:2], etas[:2], 1.0, om2) == [True, True]
        _assert_batch_is_scalar(ws, etas, 1.0, om2)
    assert special.log_f_many([], [], 1.0, tau) == []
    with pytest.raises(DomainError):
        special.log_f_many(ws, etas[:2], 1.0, tau)


@pytest.mark.parametrize(
    "w, tau",
    [
        (-18.65933353690608 - 0.419000566588108j, 0.7599394124457973 + 0.029000051508264166j),
        (-11.075710045245197 - 0.11616723492715628j, 0.7757100452447628 + 0.01616723492690561j),
        (-5.09193848852758 - 0.8400905332365642j, -0.3680102519119479 + 0.12334842220580385j),
    ],
)
def test_log_f_many_masks_shift_pole_windows(w, tau):
    # near-collinear parameters: x = w + eta is outside log_gamma2's own pole
    # window, but a shift x + j lands in log_gamma1's
    with pytest.raises(PoleSignal) as exc:
        log_f(w, 0.3 + 0.1j, 1.0, tau)
    assert exc.value.source == "log_gamma1"
    ws, etas = [w, 2.5 + 1j], [0.3 + 0.1j] * 2
    assert _kernel_mask(ws, etas, 1.0, tau) == [True, False]
    entries = special.log_f_many(ws, etas, 1.0, tau)
    assert isinstance(entries[0], PoleSignal) and entries[0] == exc.value
    _assert_batch_is_scalar(ws, etas, 1.0, tau)


def test_log_f_many_long_recurrence_in_blocks():
    # |x| near 1e3 on the far side: hundreds of shifts, several blocks
    tau = 0.1 + 0.9j
    ws = [-1000.0 + 3j, -700.5 - 40j, 900.0 + 1j, -300.0 + 0.5j]
    etas = [0.3 + 0.1j] * len(ws)
    assert _kernel_mask(ws, etas, 1.0, tau) == [False] * len(ws)
    assert special.log_f_many(ws, etas, 1.0, tau) == [log_f(w, e, 1.0, tau) for w, e in zip(ws, etas)]


def test_log_f_many_keeps_rows_up_to_the_shift_cap_and_masks_rows_past_it():
    # at om = (1, tau), |tau| < 1, x = -a + 0.5 takes n = a + 10 shifts (disc
    # is 100 exactly): rows of 4,097 to 6,000 shifts stay in the batch with
    # log_f's bits, and one of MAX_SHIFTS + 1 is left to log_f, which refuses
    tau, eta = 0.3 + 0.9j, 0.25 + 0.125j  # dyadic, so that w + eta is x again
    xs = [complex(-a + 0.5, 0.0) for a in (4087, 4990, 5990)] + [2.5 + 1j]
    xs.append(complex(-special.MAX_SHIFTS + 9.5, 0.0))
    ws, etas = [x - eta for x in xs], [eta] * len(xs)
    assert [w + eta for w in ws] == xs
    assert _kernel_mask(ws, etas, 1.0, tau) == [False] * 4 + [True]
    entries = special.log_f_many(ws, etas, 1.0, tau)
    assert _complex_bits(entries[:4]) == _complex_bits(log_f(w, eta, 1.0, tau) for w in ws[:4])
    with pytest.raises(UnsupportedRegimeError, match="recurrence steps") as exc:
        log_f(ws[4], eta, 1.0, tau)
    assert (type(entries[4]), str(entries[4])) == (UnsupportedRegimeError, str(exc.value))


def test_log_f_many_shift_cap_is_the_scalar_one(monkeypatch):
    # n = MAX_SHIFTS passes both shift checks and n = MAX_SHIFTS + 1 fails
    # both; the scalar path is stopped at its tail, before any work
    def at_the_tail(*args):
        raise AssertionError("reached the tail")

    monkeypatch.setattr(special, "_cor_a2_expansion", at_the_tail)
    pair = special._gamma2_pair(1.0, 0.3 + 0.9j)
    for n, refused in ((special.MAX_SHIFTS, False), (special.MAX_SHIFTS + 1, True)):
        x = complex(-(n - 10) + 0.5, 0.0)
        bad = np.zeros(1, dtype=bool)
        count = special._shift_count(np.array([x.real]), np.array([x.imag]), pair, bad)
        assert (bad.tolist(), count.tolist()) == ([refused], [0 if refused else n])
        with pytest.raises(UnsupportedRegimeError if refused else AssertionError):
            log_gamma2(x, 1.0, 0.3 + 0.9j)


@pytest.mark.parametrize("tau", [0.3 + 0.9j, 0.4 + 1.3j], ids=["shift-om1", "shift-om2"])
def test_log_f_many_counts_shifts_where_the_scalar_count_is_close(tau):
    # the batch counts shifts in log_gamma2's own float operations (|x|^2 as
    # ax * ax), so rows whose count a last bit could move stay in the batch:
    # x + n shift on the circle |.| = target at the larger root n, x whose
    # shift line is tangent to that circle (disc near 0), and such x on the
    # circle whose abs(x) ** 2 is not abs(x) * abs(x); all were masked before
    shift = 1.0 if abs(tau) <= 1 else tau
    target = 10.0 * max(1.0, abs(tau))
    unit = shift / abs(shift)
    on_circle = [
        target * unit * cmath.exp(1j * phi) - n * shift for phi in (0.5, 1.3, -0.9) for n in (1, 3, 6)
    ]
    if shift == 1:  # exact: |x + n| = 10 on Pythagorean points
        on_circle += [complex(a, b) - n for a, b in ((6, 8), (8, -6), (0, 10)) for n in (2, 5)]
    tangent = [(a + 1j * side * target) * unit for a in (-12.0, -7.5, 0.5, 3.0) for side in (1, -1)]
    rng = np.random.default_rng(30)
    pow_differs = []
    while len(pow_differs) < 4:
        x = target * unit * cmath.exp(1j * rng.uniform(-1.4, 1.4)) - int(rng.integers(1, 8)) * shift
        if abs(x) ** 2 != abs(x) * abs(x):
            pow_differs.append(x)
    eta = 0.25 + 0.125j  # dyadic, so that w + eta is x again
    xs = on_circle + tangent + pow_differs
    ws, etas = [x - eta for x in xs], [eta] * len(xs)
    assert [w + eta for w in ws] == xs
    assert _kernel_mask(ws, etas, 1.0, tau) == [False] * len(ws)
    _assert_batch_is_scalar(ws, etas, 1.0, tau)


def test_log_f_many_refuses_where_the_pole_window_covers_half_a_cell():
    # the Gamma_2 pole window, 1e-12 |x| / min|om| in lattice coordinates,
    # reaches half a cell at |x| / min|om| = 5e11: below, a point between
    # lattice points has its value; above, log_f refuses and the batch leaves
    # the row to it
    tau = 0.3 + 0.9j
    eta = 0.25 + 0.125j
    for side, want in ((1 - 1e-6, complex), (1 + 1e-6, UnsupportedRegimeError)):
        ws = [5e11 * side * abs(tau) * cmath.exp(1j * phi) - eta for phi in (0.1, 0.7, 1.2)]
        for w in ws:
            assert type(_scalar_log_f(w, eta, 1.0, tau)) is want
        ws.append(2.5 + 1j)
        assert _kernel_mask(ws, [eta] * 4, 1.0, tau) == [want is not complex] * 3 + [False]
        _assert_batch_is_scalar(ws, [eta] * 4, 1.0, tau)


def test_log_f_many_refuses_where_a_lattice_coordinate_overflows():
    # x Im(om2) - Im(x) Re(om2) is inf - inf: the Gamma_2 pole test has no
    # lattice point to round to, so log_f refuses and the batch leaves the
    # row to it
    ws, om1, om2 = [1e159 + 1e159j, 2.5 + 1j], 1e150, 1e150 + 1e150j
    with pytest.raises(UnsupportedRegimeError, match="lattice coordinates"):
        log_f(ws[0], 0, om1, om2)
    assert _kernel_mask(ws, [0, 0], om1, om2)[0]
    assert type(special.log_f_many(ws, [0, 0], om1, om2)[0]) is UnsupportedRegimeError
    _assert_batch_is_scalar(ws, [0, 0], om1, om2)


def test_log_f_many_after_pairs_that_differ_in_the_sign_of_a_zero_is_fresh_log_f():
    # om1 = r1 +-0i and om2 = +-0 + i y: the four pairs are equal as complex
    # keys, but each x = -m om1 + i y', shifted m times, divided by om2 lands
    # on the negative real axis with the sign of zero that its pair gives it
    rng = np.random.default_rng(31)
    for _ in range(12):
        r1, y = rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.75)
        pairs = [(complex(r1, s1), complex(s2, y)) for s1 in (0.0, -0.0) for s2 in (0.0, -0.0)]
        xs = [complex(-m * r1, rng.uniform(-3.0, -0.1)) for m in rng.integers(0, 6, size=6)]
        xs += [complex(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(3)]
        etas = [0j] * len(xs)
        fresh = []
        for om1, om2 in pairs:
            special._gamma2_pair_of_bits.cache_clear()
            fresh.append([_scalar_log_f(x, 0j, om1, om2) for x in xs])
        for i in rng.permutation(len(pairs)).tolist() * 2:
            for entry, want in zip(special.log_f_many(xs, etas, *pairs[i]), fresh[i]):
                if isinstance(want, Exception):
                    assert (type(entry), str(entry)) == (type(want), str(want))
                else:
                    assert _complex_bits([entry]) == _complex_bits([want]), (pairs[i], entry, want)


# ---------------------------------------------------------------------------
# non-finite arguments


_NON_FINITE = [complex("nan"), complex("nan+1j"), complex("inf")]


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "nan+1j", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: log_gamma2(v, 1, 0.3 + 1j),
        lambda v: log_gamma2(1 + 1j, v, 0.3 + 1j),
        lambda v: log_f(v, 0.2, 1, 0.3 + 1j),
        lambda v: log_f(1 + 1j, v, 1, 0.3 + 1j),
        lambda v: log_lambda(v, 0.2, 1),
        lambda v: log_lambda(1 + 1j, v, 1),
        lambda v: log_delta(v, 0.2),
        lambda v: log_delta(1 + 1j, v),
        lambda v: log_barnes_g(v),
        lambda v: log_gamma1(v, 1),
        lambda v: log_gamma(v),
        lambda v: hurwitz_zeta_sprime(v, 1.5),
        lambda v: hurwitz_zeta_sprime(2, v),
        lambda v: quantum_dilog(v, 0.5),
        lambda v: quantum_dilog(0.5, v),
        lambda v: quantum_dilog_inv_series(v, 0.5),
        lambda v: quantum_dilog_inv_series(0.5, v),
    ],
    ids=[
        "log_gamma2-x", "log_gamma2-omega", "log_f-w", "log_f-eta", "log_lambda-w",
        "log_lambda-eta", "log_delta-w", "log_delta-eta", "log_barnes_g", "log_gamma1",
        "log_gamma", "hurwitz_zeta_sprime-s", "hurwitz_zeta_sprime-q", "quantum_dilog-q",
        "quantum_dilog-x", "quantum_dilog_inv_series-q", "quantum_dilog_inv_series-x",
    ],
)
def test_non_finite_arguments_raise_domain_error(call, bad):
    with pytest.raises(DomainError, match="finite"):
        call(bad)


@pytest.mark.parametrize(
    "call, args",
    [
        (quantum_dilog, (0.5, 1e200)),
        (quantum_dilog, (0.9, 1e30j)),
        (quantum_dilog_inv_series, (0.999999, 0.9999)),
    ],
    ids=["quantum_dilog-real", "quantum_dilog-imaginary", "quantum_dilog_inv_series"],
)
def test_quantum_dilog_refuses_a_product_or_sum_that_overflows(call, args):
    # finite arguments in the domain whose product or sum overflows: a
    # refusal, not nan+nanj
    with pytest.raises(UnsupportedRegimeError, match="overflows"):
        call(*args)


def test_eval_eq_refuses_an_overflowing_product(capsys):
    assert main(["eval", "eq", "q=0.5", "x=1e200"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err == "eq: E_q overflows at q = (0.5+0j), x = (1e+200+0j)\n"


def _entry_key(entry):
    """A batch entry by its IEEE bytes, or its exception by type, message and,
    for a PoleSignal, attributes."""
    if isinstance(entry, PoleSignal):
        return ("PoleSignal", entry.kind, entry.location, entry.source)
    if isinstance(entry, Exception):
        return (type(entry).__name__, str(entry))
    return _complex_bits([entry])


def _scalar_entry(fn, w, eta):
    try:
        return fn(w, eta)
    except (ArithmeticError, ValueError) as exc:
        return exc


@pytest.mark.parametrize(
    "batch, scalar", [(special.log_delta_many, log_delta), (special.log_upsilon_many, log_upsilon)],
    ids=["delta", "upsilon"],
)
def test_log_delta_and_log_upsilon_many_are_the_scalar_bit_for_bit(batch, scalar):
    # seeded points of every |w| the grids reach, then the windows and edges:
    # G(u + 1) at a zero and beside it, Gamma(u) at a pole and beside it, w on
    # the cut and at 0, non-finite w and eta, a u that overflows, steps = 0,
    # more steps than one block, and the shift cap (w = -1e8+1i)
    rng = np.random.default_rng(33)
    ws = [cmath.rect(10 ** rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi)) for _ in range(300)]
    etas = [_random_complex(rng, 0.0, 1.5, math.pi) for _ in ws]
    eta = 0.2 + 0.1j
    edges = [
        (-3 - eta, eta), (-3 - eta + 1e-13, eta), (-3 - eta + 1e-9j, eta),
        (-eta, eta), (-2 - eta + 3e-13j, eta), (-1 - eta, eta), (-1.0 - eta + 2e-12, eta),
        (-2.0 + 0j, eta), (complex(-2.0, -0.0), eta), (0j, eta), (complex(-0.0, 0.0), eta),
        (complex("inf"), eta), (complex("nan"), eta), (1 + 1j, complex("inf")),
        (1 + 1j, complex("nan+1j")), (1e308 + 1j, 1e308), (20.0 + 1j, eta), (14.0 - 1j, 0.0),
        (-300.0 + 1j, eta), (-1e8 + 1j, 0.0), (-1e8 + 1j, eta),
    ]
    ws += [w for w, _e in edges]
    etas += [e for _w, e in edges]
    got = [_entry_key(e) for e in batch(ws, etas)]
    want = [_entry_key(_scalar_entry(scalar, w, e)) for w, e in zip(ws, etas)]
    assert got == want
    kinds = {k[0] if isinstance(k, tuple) else "value" for k in want}
    assert {"value", "PoleSignal", "DomainError", "UnsupportedRegimeError"} <= kinds
    assert batch([], []) == []
    with pytest.raises(DomainError):
        batch(ws, etas[:2])


def test_log_delta_many_makes_one_loggamma_call_per_block(monkeypatch):
    # the recurrence terms of every point and each log Gamma(u) in one call;
    # a point past one block of steps takes the scalar path
    calls = []
    loggamma_ = special._loggamma
    monkeypatch.setattr(special, "_loggamma", lambda v: calls.append(np.size(v)) or loggamma_(v))
    ws = [cmath.rect(1 + k, 0.3 * k) for k in range(20)]
    values = special.log_delta_many(ws, [0.2] * 20)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(special, "_loggamma", loggamma_)
    assert values == [log_delta(w, 0.2) for w in ws]
