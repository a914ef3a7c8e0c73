"""Named verification suites over seeded sample sets.

Each suite draws parameters from a seeded generator, evaluates one family
of identities at its documented tolerance, excludes draws that land within
a small margin of a pole lattice, and returns a report matching the JSON
schema

    {suite, seed, samples, max_abs_residual, max_rel_residual,
     excluded_near_pole, pass}.

Samples are evaluated sequentially in index order, so reports are
deterministic for a fixed (suite, samples, seed, tol).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from . import bps as bps_mod
from . import qtorus as qt
from . import rhsolver as rh
from .bernoulli import bernoulli_numbers, multi_bernoulli
from .constants import hurwitz_zeta, hurwitz_zeta_sprime, zeta_prime_minus_one, rho_constant
from .signals import DomainError, PoleSignal
from .special import (
    asymptotic_log_f,
    asymptotic_log_lambda,
    barnes_zeta,
    f_fn,
    gamma_n_second_stirling,
    lambda_fn,
    log_barnes_g,
    log_delta,
    log_f,
    log_gamma2,
    log_lambda,
    quantum_dilog,
    quantum_dilog_inv_series,
    second_stirling_tail_coeff,
    upsilon_fn,
)

__all__ = ["Report", "SUITES", "run_suite"]

TWO_PI_I = 2j * math.pi


@dataclass
class Report:
    suite: str
    seed: int
    samples: int
    max_abs_residual: float
    max_rel_residual: float
    excluded_near_pole: int
    passed: bool

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


#: Returned by a draw to discard it uncounted and draw again.
REDRAW = "redraw"
#: Returned by a draw that lands within a margin of a pole lattice.
EXCLUDE = "exclude"


class _Acc:
    """Residual accumulator and the sampling loop of every suite."""

    def __init__(self):
        self.n = 0
        self.excluded = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.passed = True  # cleared by add and by extra pass rules

    def add(self, abs_res: float, rel_res: float | None = None, gate: float = math.inf):
        """Count a sample's residuals; an abs_res at or above gate fails the
        suite, and so does a residual that is not finite, which leaves the
        maxima finite (max(0.0, nan) would drop it silently)."""
        rel_res = abs_res if rel_res is None else rel_res
        self.n += 1
        if abs_res >= gate:
            self.passed = False
        if not (math.isfinite(abs_res) and math.isfinite(rel_res)):
            self.passed = False
            return
        self.max_abs = max(self.max_abs, abs_res)
        self.max_rel = max(self.max_rel, rel_res)

    def sample(self, count: int, draw, redraw: bool = True) -> None:
        """Call draw(i) until `count` draws are accepted; i counts accepted draws.

        draw takes its parameters from the suite's generator, evaluates its
        identities and adds the residuals.  It returns REDRAW to discard the
        draw uncounted.  It returns EXCLUDE, or raises PoleSignal or
        DomainError, to count the draw in excluded_near_pole; an excluded
        draw is drawn again, or with redraw=False uses up one of `count`.
        """
        done = 0
        while done < count:
            try:
                outcome = draw(done)
            except (PoleSignal, DomainError):
                outcome = EXCLUDE
            if outcome is REDRAW:
                continue
            if outcome is EXCLUDE:
                self.excluded += 1
                if redraw:
                    continue
            done += 1


#: name -> (fn(samples, seed, tol) -> Report, default samples, default tolerance)
SUITES: dict = {}


def _suite(name: str, default_samples: int, default_tol: float):
    """Register body(rng, acc, samples, tol) as the suite `name`.

    The registered fn(samples, seed, tol) seeds the generator, runs the body
    and reports.  The body returns its pass verdict, or None for the default:
    no extra pass rule cleared acc.passed and max_rel_residual < tol.
    """

    def register(body):
        def fn(samples: int, seed: int, tol: float) -> Report:
            acc = _Acc()
            passed = body(np.random.default_rng(seed), acc, samples, tol)
            if passed is None:
                passed = acc.passed and acc.max_rel < tol
            return Report(name, seed, acc.n, acc.max_abs, acc.max_rel, acc.excluded, passed)

        fn.__name__, fn.__doc__ = body.__name__, body.__doc__
        SUITES[name] = (fn, default_samples, default_tol)
        return fn

    return register


# ---------------------------------------------------------------------------
# draw helpers


def _uniform(rng, low, high) -> float:
    """rng.uniform(low, high), bit for bit and from the same one draw of the
    stream: numpy's scalar path computes low + (high - low) * next_double
    too, but costs about three times a bare rng.random() call."""
    return low + (high - low) * rng.random()


def _cplx(rng, rmin, rmax, arg_lo, arg_hi) -> complex:
    return _uniform(rng, rmin, rmax) * cmath.exp(1j * _uniform(rng, arg_lo, arg_hi))


def _box(rng, half_width: float) -> complex:
    return complex(
        _uniform(rng, -half_width, half_width), _uniform(rng, -half_width, half_width)
    )


def _dist_nonpos_int(v: complex) -> float:
    c = round(v.real)
    return min(abs(v - m) for m in {min(c - 1, 0), min(c, 0), min(c + 1, 0)})


POLE_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# special-function suites


@_suite("reflection", 200, 1e-9)
def suite_reflection(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Lambda(w,eta|om) Lambda(-w,om-eta|om) (1 - e^(+-2 pi i (w+eta)/om)) = 1
    on the half-planes +-Im(w/om) > 0 (draws keep sign Im(w/om) = sign Im w,
    where the principal-branch identity holds)."""

    def draw(_):
        om = _cplx(rng, 0.4, 2.0, -1.1, 1.1)
        eta = _box(rng, 1.5)
        w = om * complex(_uniform(rng, -2, 2), sgn * _uniform(rng, 0.15, 2.0))
        if (w.imag > 0) != (sgn > 0):
            return REDRAW
        if (
            _dist_nonpos_int((w + eta) / om) < POLE_MARGIN
            or _dist_nonpos_int((-w + om - eta) / om) < POLE_MARGIN
        ):
            return EXCLUDE
        lhs = lambda_fn(w, eta, om) * lambda_fn(-w, om - eta, om)
        rhs = 1 / (1 - cmath.exp(sgn * TWO_PI_I * (w + eta) / om))
        acc.add(abs(lhs - rhs), abs(lhs / rhs - 1))

    for sgn in (1, -1):
        acc.sample(samples, draw)


@_suite("f-difference", 200, 1e-8)
def suite_f_difference(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """F(w, eta+om2 | om1, om2) / F(w, eta | om1, om2) * Lambda(w, eta | om1) = 1."""

    def draw(_):
        w1 = _cplx(rng, 0.4, 2.0, -0.7, 0.7)
        w2 = _cplx(rng, 0.4, 2.0, -0.7, 0.7)
        w = _cplx(rng, 0.3, 3.0, -2.4, 2.4)
        eta = _box(rng, 1.0)
        r = f_fn(w, eta + w2, w1, w2) / f_fn(w, eta, w1, w2) * lambda_fn(w, eta, w1)
        acc.add(abs(r - 1))

    acc.sample(samples, draw)


@_suite("eq-identities", 200, 1e-12)
def suite_eq_identities(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """E_q(x) E_q(qx)^(-1) = 1-x and E_q(x)^(-1) = sum x^n/((1-q)...(1-q^n))."""

    def draw(_):
        q = _cplx(rng, 0.05, 0.9, -math.pi, math.pi)
        x = _cplx(rng, 0.05, 0.8, -math.pi, math.pi)
        if abs(1 - x) < 0.05:
            return EXCLUDE
        e_x = quantum_dilog(q, x)
        d = e_x / quantum_dilog(q, q * x) / (1 - x) - 1
        srs = e_x * quantum_dilog_inv_series(q, x) - 1
        acc.add(max(abs(d), abs(srs)))

    acc.sample(samples, draw)


@_suite("homogeneity", 200, 1e-10)
def suite_homogeneity(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Lambda(lam w, lam eta | lam om) = Lambda(w,eta|om) and likewise for F
    (lam drawn with |arg lam| <= 1 so no principal-branch crossings)."""

    def draw(i):
        lam = _cplx(rng, 0.3, 3.0, -1.0, 1.0)
        if i % 2 == 0:
            om = _cplx(rng, 0.3, 2.0, -1.0, 1.0)
            eta = _box(rng, 1.0)
            w = _cplx(rng, 0.2, 3.0, -2.0, 2.0)
            r = lambda_fn(lam * w, lam * eta, lam * om) / lambda_fn(w, eta, om) - 1
        else:
            w1 = _cplx(rng, 0.4, 2.0, -0.6, 0.6)
            w2 = _cplx(rng, 0.4, 2.0, -0.6, 0.6)
            w = _cplx(rng, 0.3, 3.0, -1.5, 1.5)
            eta = _box(rng, 1.0)
            r = f_fn(lam * w, lam * eta, lam * w1, lam * w2) / f_fn(w, eta, w1, w2) - 1
        acc.add(abs(r))

    acc.sample(samples, draw)


@_suite("small-w", 20, 10.0)
def suite_small_w(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """|log|Lambda(w,eta|om)|| <= k |log|w|| for |w| in {1e-1..1e-4} along a
    ray, with a single fitted k (must stay below 10)."""

    def draw(_):
        om = _cplx(rng, 0.4, 2.0, -1.0, 1.0)
        eta = _box(rng, 1.2)
        phi = _uniform(rng, -2.4, 2.4)
        if _dist_nonpos_int(eta / om) < 5e-2:
            return EXCLUDE
        k_fit = 0.0
        for r in (1e-1, 1e-2, 1e-3, 1e-4):
            w = r * cmath.exp(1j * phi)
            val = lambda_fn(w, eta, om)
            k_fit = max(k_fit, abs(math.log(abs(val))) / abs(math.log(abs(w))))
        acc.add(k_fit)

    acc.sample(samples, draw)


@_suite("asymptotic-order", 6, 0.2)
def suite_asymptotic_order(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Doubling-|w| decay exponents of the truncated large-w expansions of
    log Lambda and log F: within +-tol of K+1 for K in {1,2,3}.

    Draws where the (K+1)-st expansion coefficient degenerates are rejected:
    there the error is dominated by the next order and decays faster, which
    says nothing about the claimed order.
    """

    def dominant(coeffs) -> bool:
        # coeffs[k] is the x^-k coefficient, k = 2..5
        return all(
            abs(coeffs[k]) > 1e-3 and abs(coeffs[k + 1]) < 2.5 * abs(coeffs[k])
            for k in (2, 3, 4)
        )

    def draw(_):
        om = _uniform(rng, 0.5, 2.0)
        eta = _box(rng, 0.7)
        phi = _uniform(rng, -0.9, 0.9)
        lam_coeffs = {
            k: multi_bernoulli(1, k + 1, eta, (om,)) / (k * (k + 1)) for k in range(2, 6)
        }
        w1 = _cplx(rng, 0.5, 1.5, -0.5, 0.5)
        w2 = _cplx(rng, 0.5, 1.5, -0.5, 0.5)
        f_coeffs = {
            k: multi_bernoulli(2, k + 2, eta, (w1, w2)) / (k * (k + 1) * (k + 2))
            for k in range(2, 6)
        }
        if not (dominant(lam_coeffs) and dominant(f_coeffs)):
            return REDRAW
        # the decay exponent between the radii 40 and 80
        ws = [10.0 * 2**j * cmath.exp(1j * phi) for j in (2, 3)]
        for exact, asymptotic, params in (
            (log_lambda, asymptotic_log_lambda, (eta, om)),
            (log_f, asymptotic_log_f, (eta, w1, w2)),
        ):
            exacts = [exact(w, *params) for w in ws]
            for K in (1, 2, 3):
                e2, e3 = (abs(v - asymptotic(w, *params, K)) for w, v in zip(ws, exacts))
                acc.add(abs(math.log2(e2 / e3) - (K + 1)))

    acc.sample(samples, draw)


@_suite("gamma2-consistency", 50, 1e-9)
def suite_gamma2_consistency(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Second-Stirling form evaluated directly at |x| >= 20 against the
    recurrence-based log Gamma_2 (deepened shift), plus shift-count path
    independence."""

    def draw(_):
        w1 = _cplx(rng, 0.4, 2.0, -0.7, 0.7)
        w2 = _cplx(rng, 0.4, 2.0, -0.7, 0.7)
        x = _cplx(rng, 20.0, 60.0, -1.0, 1.0)
        direct = gamma_n_second_stirling(2, x, 0.0, (w1, w2), 30)
        shifted = log_gamma2(x, w1, w2, extra_shift=8)
        base = log_gamma2(x, w1, w2)
        deeper = log_gamma2(x, w1, w2, extra_shift=5)
        scale = max(1.0, abs(shifted))
        acc.add(abs(direct - shifted), abs(direct - shifted) / scale)
        acc.add(abs(base - deeper), abs(base - deeper) / scale)

    acc.sample(samples, draw)


def _classical_bernoulli_poly(n: int, x: complex) -> complex:
    # textbook binomial form, independent of the convolution route
    bern = bernoulli_numbers(n)
    return sum(comb(n, k) * float(bern[k]) * x ** (n - k) for k in range(n + 1))


@_suite("stirling-n1", 20, 1e-12)
def suite_stirling_n1(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """N=1 second-Stirling tail coefficients against the classical expansion
    of log Gamma: coefficient of x^-k equals (-1)^(k+1) a^k B_{k+1}(d/a)/(k(k+1))."""

    def draw(_):
        a = _cplx(rng, 0.4, 2.0, -1.0, 1.0)
        delta = _box(rng, 1.0)
        for k in range(1, 5):
            mine = second_stirling_tail_coeff(1, k, delta, (a,))
            classical = (-1) ** (k + 1) * a**k * _classical_bernoulli_poly(k + 1, delta / a) / (
                k * (k + 1)
            )
            acc.add(abs(mine - classical), abs(mine - classical) / max(1.0, abs(classical)))

    acc.sample(samples, draw)


@_suite("bernoulli", 200, 1e-10)
def suite_bernoulli(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Difference relation, homogeneity and the generating-function check
    for the multiple Bernoulli polynomials."""

    def draw(idx):
        n_params = int(rng.integers(1, 4))
        a = tuple(_cplx(rng, 0.3, 2.0, -2.5, 2.5) for _ in range(n_params))
        x = _box(rng, 2.0)
        k = int(rng.integers(1, 7))
        i = int(rng.integers(0, n_params))
        b_x = multi_bernoulli(n_params, k, x, a)
        lhs = multi_bernoulli(n_params, k, x + a[i], a) - b_x
        if n_params == 1:
            rhs = k * x ** (k - 1)  # B_{0,k-1}(x) = x^(k-1)
        else:
            rest = a[:i] + a[i + 1 :]
            rhs = k * multi_bernoulli(n_params - 1, k - 1, x, rest)
        acc.add(abs(lhs - rhs), abs(lhs - rhs) / max(1.0, abs(rhs)))
        lam = _cplx(rng, 0.3, 3.0, -2.5, 2.5)
        h1 = multi_bernoulli(n_params, k, lam * x, tuple(lam * ai for ai in a))
        h2 = lam ** (k - n_params) * b_x
        acc.add(abs(h1 - h2), abs(h1 - h2) / max(1.0, abs(h2)))
        if idx % 8 == 0:
            t = _uniform(rng, 0.2, 0.4) * cmath.exp(1j * _uniform(rng, -math.pi, math.pi))
            kmax = 12
            series = sum(
                multi_bernoulli(n_params, m, x, a) * t**m / math.factorial(m)
                for m in range(kmax + 1)
            )
            direct = t**n_params * cmath.exp(x * t)
            for ai in a:
                direct /= cmath.exp(ai * t) - 1
            # next-term truncation estimate with a safety factor, floored at
            # the floating noise of the series evaluation itself
            bound = (
                10
                * abs(multi_bernoulli(n_params, kmax + 1, x, a))
                * abs(t) ** (kmax + 1)
                / math.factorial(kmax + 1)
            )
            bound = max(bound, 1e-12 * max(1.0, abs(direct)))
            acc.add(abs(series - direct), abs(series - direct) / bound * tol)

    acc.sample(samples, draw)


@_suite("delta-upsilon", 40, 1e-9)
def suite_delta_upsilon(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """d/deta log Delta = -log Lambda(.|1) (central differences) and the
    Upsilon difference relation Upsilon(w,th)/Upsilon(w,th-1) = Lambda(w,th|1)."""
    fd_tol = 1e-6  # central differences carry their own budget

    def draw(_):
        w = _cplx(rng, 0.3, 3.0, -2.0, 2.0)
        eta = _box(rng, 0.8)
        th = _box(rng, 0.8)
        h = 1e-5
        dd = (log_delta(w, eta + h) - log_delta(w, eta - h)) / (2 * h)
        res1 = abs(dd + log_lambda(w, eta, 1.0))
        r2 = upsilon_fn(w, th) / upsilon_fn(w, th - 1) / lambda_fn(w, th, 1.0) - 1
        acc.add(res1, res1 * tol / fd_tol, gate=fd_tol)
        acc.add(abs(r2))

    acc.sample(samples, draw)


def _brute_zeta1(s: complex, x: complex, a: tuple, big: int) -> complex:
    """Brute-force reference for zeta_1(s, x | a): the terms n < big, each the
    principal power exp(-s log z) summed by numpy, plus the Euler-Maclaurin
    tail (x + big a)^(1-s) / ((s-1) a) + (x + big a)^-s / 2."""
    n = np.arange(big)
    end = x + big * a[0]
    tail = cmath.exp((1 - s) * cmath.log(end)) / ((s - 1) * a[0]) + cmath.exp(
        -s * cmath.log(end)
    ) / 2
    return complex(np.exp(-s * np.log(x + n * a[0])).sum()) + tail


#: Points of the trapezoidal Cauchy integral in `_log_gamma2_third_derivative`.
CAUCHY_POINTS = 64


def _log_gamma2_third_derivative(x: complex, a: tuple) -> complex:
    """d^3/dx^3 log Gamma_2(x | a) for Re x > 0, by the CAUCHY_POINTS-point
    trapezoidal Cauchy integral on the circle |y - x| = r = Re(x)/2:

        6 / (K r^3) * sum_k log_gamma2(x + r w^k | a) w^(-3k),  w = e^(2 pi i/K).

    For Re(a_i) > 0 every pole -(m1 a1 + m2 a2) has Re <= 0, at least 2r
    from x, so log Gamma_2 is analytic on and inside the circle and the
    rule's aliasing error is of order 2^-K.
    """
    K = CAUCHY_POINTS
    r = x.real / 2
    total = 0j
    for k in range(K):
        total += log_gamma2(x + r * cmath.exp(TWO_PI_I * k / K), *a) * cmath.exp(
            -3 * TWO_PI_I * k / K
        )
    return 6 * total / (K * r**3)


@_suite("zeta-oracle", 10, 1e-8)
def suite_zeta_oracle(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """barnes_zeta against brute-force sums (N = 1) and the Gamma_2 check (N = 2).

    N = 1: zeta_1(s, x | a) against `_brute_zeta1`, 4000 terms plus the
    Euler-Maclaurin tail.  N = 2: the identity
    d^3/dx^3 log Gamma_2(x | a) = -2 zeta_2(3, x | a) (Ruijsenaars, Adv. Math.
    156, 2000), with the derivative of `log_gamma2` from
    `_log_gamma2_third_derivative` and barnes_zeta as the reference, so that
    barnes_zeta checks Gamma_2 at run time.  The N = 2 draws keep Re x > 0.
    """

    def draw(idx):
        if idx % 2 == 0:
            a = (complex(_uniform(rng, 0.5, 2.0), _uniform(rng, -0.3, 0.3)),)
            x = complex(_uniform(rng, 0.5, 3.0), _uniform(rng, -0.5, 0.5))
            s = complex(_uniform(rng, 2.5, 4.0), _uniform(rng, -0.5, 0.5))
            val = barnes_zeta(1, s, x, a)
            ref = _brute_zeta1(s, x, a, 4000)
        else:
            a = (
                complex(_uniform(rng, 0.6, 1.4), _uniform(rng, -0.2, 0.2)),
                complex(_uniform(rng, 0.6, 1.4), _uniform(rng, -0.2, 0.2)),
            )
            x = complex(_uniform(rng, 0.5, 2.0), _uniform(rng, -0.3, 0.3))
            val = _log_gamma2_third_derivative(x, a)
            ref = -2 * barnes_zeta(2, 3, x, a)
        acc.add(abs(val - ref), abs(val - ref) / max(1e-12, abs(ref)))

    acc.sample(samples, draw)


# ---------------------------------------------------------------------------
# RH-solver suites


def _draw_jump_point(rng, z):
    t = _uniform(rng, 0.1, 10.0) * cmath.exp(1j * _uniform(rng, -math.pi, math.pi))
    tau_v = complex(_uniform(rng, -0.5, 0.5), _uniform(rng, 0.3, 1.5))
    th = _box(rng, 1.0)
    return t, tau_v, th


def _draw_limit_point(rng, i):
    """z, alternating side, t with Re(side t/z) > 0, and theta."""
    z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
    side = 1 if i % 2 == 0 else -1
    t = side * z * _uniform(rng, 0.3, 2.0) * cmath.exp(1j * _uniform(rng, -1.0, 1.0))
    return z, side, t, _box(rng, 0.6)


@_suite("jump-a1", 100, 1e-9)
def suite_jump_a1(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """The gluing identity behind (qRH1), per half-plane of Re(t/z)."""

    def draw(_):
        z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        t, tau_v, th = _draw_jump_point(rng, z)
        re = (t / z).real
        if abs(re) < 1e-3 or (re > 0) != want_pos:
            return REDRAW
        w = z / (TWO_PI_I * t)
        if (
            _dist_nonpos_int(w + 0.5 - (th + tau_v / 2)) < POLE_MARGIN
            or _dist_nonpos_int(-w + 0.5 + (th + tau_v / 2)) < POLE_MARGIN
        ):
            return EXCLUDE
        c = 1 if re > 0 else -1
        jump = 1 + cmath.exp(c * (1j * math.pi * tau_v - z / t + TWO_PI_I * th))
        if abs(jump) < POLE_MARGIN:
            return EXCLUDE
        acc.add(rh.verify_jump_a1(z, t, tau_v, th))

    for want_pos in (True, False):
        acc.sample(samples, draw)


@_suite("adjoint-a1", 50, 1e-8)
def suite_adjoint_a1(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Ad_psi agreement: psi(theta)/psi(theta+tau) equals the Psi multiplier."""

    def draw(_):
        z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        t, tau_v, th = _draw_jump_point(rng, z)
        psi0 = rh.adjoint_psi_a1(z, t, tau_v, th, side)
        psi1 = rh.adjoint_psi_a1(z, t, tau_v, th + tau_v, side)
        m = rh.solve_a1(z, t, tau_v, th, side, 1)
        acc.add(abs(psi0 / psi1 / m - 1))

    for side in (1, -1):
        acc.sample(samples, draw)


@_suite("limits-a1", 4, 1e-6)
def suite_limits_a1(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """(qRH2)/(qRH3): t->0 residual decay and bounded growth at t->infinity."""
    growth_cap = 5.0

    def draw(_):
        z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        tau_v = complex(_uniform(rng, -0.5, 0.5), _uniform(rng, 0.3, 1.5))
        th = _box(rng, 1.0)
        for side in (1, -1):
            lim = rh.verify_limits_a1(z, side, tau_v, th)
            tail = lim.residuals[-7:]
            if not all(tail[i + 1] < tail[i] for i in range(len(tail) - 1)):
                acc.passed = False
            if lim.growth_exponent > growth_cap:
                acc.passed = False
            acc.add(lim.zero_limit_residual)

    acc.sample(samples, draw)


def _pick_nonactive_ray(z, t, side) -> complex:
    """Direction r with Im(side*z/r) > 0 and Re(t/r) > 0 (angular midpoint)."""
    az = cmath.phase(side * z)
    at = cmath.phase(t)
    lo1, hi1 = az - math.pi, az  # Im(side*z / r) > 0

    def wrap(x):
        while x <= lo1 - math.pi:
            x += 2 * math.pi
        while x > lo1 + math.pi:
            x -= 2 * math.pi
        return x

    lo2 = wrap(at - math.pi / 2)  # Re(t/r) > 0 on (lo2, lo2 + pi)
    lo = max(lo1, lo2)
    hi = min(hi1, lo2 + math.pi)
    if hi <= lo:
        raise DomainError("t lies on the excluded ray for this side")
    return cmath.exp(1j * (lo + hi) / 2)


@_suite("general-consistency", 50, 1e-9)
def suite_general_consistency(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """General closed form against the doubled-case formulas:
    (a) specialisation agrees with the rank-one solver to 1e-12;
    (b) the two-ray jump across an active ray equals the wall-crossing
        multiplier with e^(-Z(gamma)/t) insertions;
    (c) Ad(psi_r) agreement for a direct sum of two doubled structures.
    """

    def specialisation(_):
        z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        inst = rh.RHInstance(bps_mod.doubled_a1(z))
        t, tau_v, th = _draw_jump_point(rng, z)
        side = 1 if rng.random() < 0.5 else -1
        r = _pick_nonactive_ray(z, t, side)
        general = rh.solve_general(inst, r, t, tau_v, (th,), (0, 1))
        a1 = rh.solve_a1(z, t, tau_v, th, side, 1)
        res = abs(general / a1 - 1)
        acc.add(res, gate=1e-12)

    def two_ray_jump(_):
        # across the active ray through z
        z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        inst = rh.RHInstance(bps_mod.doubled_a1(z))
        b, s = inst.structure, inst.splitting
        tau_v = complex(_uniform(rng, -0.5, 0.5), _uniform(rng, 0.3, 1.5))
        th = _box(rng, 1.0)
        t = z * _uniform(rng, 0.3, 3.0) * cmath.exp(1j * _uniform(rng, -1.2, 1.2))  # Re(t/z) > 0
        delta = 0.15
        r_plus = z / abs(z) * cmath.exp(-1j * delta)  # clockwise perturbation
        r_minus = z / abs(z) * cmath.exp(1j * delta)
        ray_plus = [ry for ry in inst.rays if abs(ry.phase - z / abs(z)) < 1e-9][0]
        psi_p = rh.solve_general(inst, r_plus, t, tau_v, (th,), (0, 1))
        psi_m = rh.solve_general(inst, r_minus, t, tau_v, (th,), (0, 1))
        s_tilde = qt.compose(
            qt.eps_z(b, s, -t),
            qt.compose(qt.s_q_ray(inst, ray_plus), qt.eps_z(b, s, t)),
        )
        jump = qt.eval_expr(s_tilde.multiplier_for((1,)), tau_v, (th,))
        acc.add(abs(psi_p / (jump * psi_m) - 1))

    def direct_sum_adjoint(_):
        # on a rank-4 direct sum
        z1 = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        z2 = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        inst = rh.RHInstance(bps_mod.direct_sum(bps_mod.doubled_a1(z1), bps_mod.doubled_a1(z2)))
        bsum, ssum = inst.structure, inst.splitting
        tau_v = complex(_uniform(rng, -0.3, 0.3), _uniform(rng, 0.4, 1.2))
        thv = (_box(rng, 0.8), _box(rng, 0.8))
        t = _uniform(rng, 0.3, 3.0) * cmath.exp(1j * _uniform(rng, -math.pi, math.pi))
        r = t / abs(t)
        if any(abs(r - ry.phase) < 1e-2 or abs(r + ry.phase) < 1e-2 for ry in inst.rays):
            return REDRAW
        beta = ssum.magnetic[int(rng.integers(0, 2))]
        pv = tuple(bsum.pairing(beta, e) for e in ssum.electric)
        th_shift = tuple(x + tau_v * c for x, c in zip(thv, pv))
        psi0 = rh.adjoint_general(inst, r, t, tau_v, thv)
        psi1 = rh.adjoint_general(inst, r, t, tau_v, th_shift)
        mult = rh.solve_general(inst, r, t, tau_v, thv, beta)
        res = abs(psi0 / psi1 / mult - 1)
        acc.add(res, gate=1e-8)

    acc.sample(samples, specialisation, redraw=False)
    acc.sample(samples, two_ray_jump)
    acc.sample(max(4, samples // 10), direct_sum_adjoint)


@_suite("tau0-limit", 6, 1e-5)
def suite_tau0_limit(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Extrapolated (2 pi i tau) log psi vs the closed form -2 pi i log Delta,
    plus the Hamiltonian derivative identity by stable central differences."""
    deriv_tol = tol * 0.1  # 1e-6 at the default 1e-5

    def draw(i):
        z, side, t, th = _draw_limit_point(rng, i)
        # the extrapolation path needs w + eta clear of the lower-left
        # quadrant, where the pole lattice -m1 - m2*tau accumulates as
        # tau -> 0 and the pointwise limit no longer matches the closed form
        x0 = side * z / (TWO_PI_I * t) + 0.5 - side * th
        if x0.real < 0.1 and x0.imag < 0.1:
            return REDRAW
        closed = rh.hamiltonian_limit(z, t, th, side)
        res = abs(closed - rh.hamiltonian_extrapolated(z, t, th, side)) / max(1.0, abs(closed))
        w = side * z / (TWO_PI_I * t)
        for h in (1e-4, 5e-5):
            hp = rh.hamiltonian_limit(z, t, th + h, side)
            hm = rh.hamiltonian_limit(z, t, th - h, side)
            dres = abs(
                (hp - hm) / (2 * h)
                - (-side * TWO_PI_I) * log_lambda(w, 0.5 - side * th, 1.0)
            )
            acc.add(dres, dres / deriv_tol * tol * 0.5, gate=deriv_tol)
        acc.add(res, gate=tol)

    acc.sample(samples, draw)
    return acc.passed


@_suite("tau1-limit", 50, 1e-9)
def suite_tau1_limit(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """tau -> 1: F(w, 1 -+ th | 1,1)^(-1) = w^(-1/12) Upsilon(w, -+th), the
    Upsilon difference relation, and the extrapolated psi limit."""
    extrap_tol = tol * 1e4  # 1e-5 at the default 1e-9

    def draw(i):
        z, side, t, th = _draw_limit_point(rng, i)
        upsilon = rh.tau_function_limit(z, t, th, side)
        w = side * z / (TWO_PI_I * t)
        psi_closed = rh.tau_psi_closed(z, t, th, side)
        rel1 = abs(psi_closed / (cmath.exp(-cmath.log(w) / 12) * upsilon) - 1)
        lam = lambda_fn(w, th, 1.0)
        rel2 = abs(upsilon_fn(w, th) / upsilon_fn(w, th - 1) / lam - 1)
        rel3 = abs(rh.tau_psi_extrapolated(z, t, th, side) / psi_closed - 1)
        acc.add(rel1)
        acc.add(rel2)
        acc.add(rel3, rel3 / extrap_tol * tol * 0.5, gate=extrap_tol)

    acc.sample(samples, draw)


@_suite("pole-locations", 4, 1e-8)
def suite_pole_locations(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Detected pole/zero t-values of the multipliers against
    t = z / (2 pi i (n + theta + (1+tau)/2)), |n| <= 3."""

    def draw(_):
        z = _cplx(rng, 0.5, 2.0, -math.pi, math.pi)
        tau_v = complex(_uniform(rng, -0.3, 0.3), _uniform(rng, 0.4, 1.2))
        th = _box(rng, 0.6)

        def locate(j):
            n = j - 3  # n = -3..3
            pred = rh.predicted_special_t(z, tau_v, th, n)
            det = rh.detect_special_t(z, tau_v, th, n)
            acc.add(abs(det - pred), abs(det - pred) / abs(pred))

        acc.sample(7, locate, redraw=False)

    acc.sample(samples, draw)


# ---------------------------------------------------------------------------
# constants


def _euler_gamma_em() -> float:
    M, J = 30, 8
    h = sum(1.0 / n for n in range(1, M + 1))
    bern = bernoulli_numbers(2 * J)
    corr = sum(float(bern[2 * j]) / (2 * j) * M ** (-2 * j) for j in range(1, J + 1))
    return h - math.log(M) - 1 / (2 * M) + corr


def zeta_prime_minus_one_functional() -> float:
    """zeta'(-1) through the functional equation:

        zeta'(-1) = zeta(-1) [log 2pi - psi(2) - zeta'(2)/zeta(2)],

    with psi(2) = 1 - gamma; all ingredients from independent E-M sums at
    well-conditioned points (s=2, harmonic numbers)."""
    g = _euler_gamma_em()
    z2 = hurwitz_zeta(2.0, 1.0).real
    z2p = hurwitz_zeta_sprime(2.0, 1.0).real
    return (-1.0 / 12.0) * (math.log(2 * math.pi) - (1 - g) - z2p / z2)


@_suite("constants", 10, 1e-9)
def suite_constants(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """zeta'(-1) against the functional-equation oracle, and the rho
    constant against the second-Stirling route for Gamma_2(x | 1, 1)."""
    zp = zeta_prime_minus_one()
    oracle = zeta_prime_minus_one_functional()
    acc.add(abs(zp - oracle))
    acc.add(abs(oracle - (-0.1654211437)))
    rho_tol = max(tol * 10, 1e-8)
    log_rho = math.log(rho_constant())
    acc.passed = abs(zp - oracle) < tol and abs(oracle - (-0.1654211437)) < 1e-9

    def draw(_):
        x = _cplx(rng, 0.5, 8.0, -1.0, 1.0)
        lhs = -log_gamma2(x, 1.0, 1.0)
        rhs = log_rho + log_barnes_g(x) - (x / 2) * math.log(2 * math.pi)
        res = abs(lhs - rhs)
        acc.add(res, gate=rho_tol)

    acc.sample(samples, draw)
    return acc.passed


# ---------------------------------------------------------------------------
# algebra suites


@_suite("bps", 500, 1e-9)
def suite_bps(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Classification of the doubled structure, twisted multiplicativity of
    the canonical refinement, ray stability under positive rescaling, and
    kappa cardinality/sign."""

    def rescaled_rays(_):
        z = _cplx(rng, 0.2, 3.0, -math.pi, math.pi)
        b = bps_mod.doubled_a1(z)
        if not bps_mod.classify(b).all:
            acc.passed = False
        rays0 = bps_mod.active_rays(b)
        lam = _uniform(rng, 0.2, 5.0)
        b2 = bps_mod.RefinedBPSStructure(
            b.rank, b.skew, tuple(lam * c for c in b.central_charge), b.invariants
        )
        rays1 = bps_mod.active_rays(b2)
        if [r.classes for r in rays0] != [r.classes for r in rays1]:
            acc.passed = False
        acc.add(max(abs(r0.phase - r1.phase) for r0, r1 in zip(rays0, rays1)))

    acc.sample(max(1, samples // 10), rescaled_rays)
    b = bps_mod.doubled_a1(1.3 - 0.4j)
    sigma = bps_mod.canonical_refinement(b)

    def twisted_multiplicativity(_):
        g1 = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        g2 = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        want = (-1) ** (b.pairing(g1, g2) % 2) * sigma(g1) * sigma(g2)
        g12 = (g1[0] + g2[0], g1[1] + g2[1])
        if sigma(g12) != want:
            acc.passed = False
        acc.add(abs(sigma(g12) - want))

    acc.sample(samples, twisted_multiplicativity)
    for m in range(-10, 11):
        bm = bps_mod.RefinedBPSStructure(
            2, ((0, -m), (m, 0)), (1.0 + 0j, 0j), {(1, 0): bps_mod.LPoly(1), (-1, 0): bps_mod.LPoly(1)}
        )
        eps, kappas = bps_mod.kappa_set(bm, (0, 1), (1, 0))
        if len(kappas) != abs(m) or any((k > 0) != (eps > 0) for k in kappas):
            acc.passed = False
        if m != 0 and eps != (1 if m > 0 else -1):
            acc.passed = False
    return acc.passed


@_suite("qtorus", 12, 1e-10)
def suite_qtorus(rng, acc: _Acc, samples: int, tol: float) -> bool | None:
    """Extended-product associativity, embedding homomorphism, automorphism
    multiplicativity and wall-crossing orientation inverses."""
    z = 0.9 + 0.4j
    inst = rh.RHInstance(bps_mod.doubled_a1(z))
    b, s = inst.structure, inst.splitting
    ray_plus = [r for r in inst.rays if abs(r.phase - z / abs(z)) < 1e-9][0]

    def rand_torus(nterms=2):
        t = qt.TorusElement(2, {})
        for _ in range(nterms):
            g = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
            t = t + qt.TorusElement.generator(
                g, int(rng.integers(-1, 2)), complex(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            )
        return t

    def pts(k):
        for _ in range(k):
            yield (
                complex(_uniform(rng, -0.4, 0.4), _uniform(rng, 0.3, 1.2)),
                (complex(_uniform(rng, -0.6, 0.6), _uniform(rng, -0.4, 0.4)),),
            )

    assoc_tol = min(tol, 1e-12)

    def compare(lhs, rhs, npts, gate):
        """Coefficient-wise residuals at npts drawn points, each failing the
        suite at or above gate: 0 where the two coefficients are equal as
        data, else the relative difference of their values (eps_z brings in
        float constants that need not agree to the last bit)."""
        for tv, thv in pts(npts):
            for d in set(lhs.terms) | set(rhs.terms):
                lf, rf = lhs.coefficient(d), rhs.coefficient(d)
                if lf == rf:
                    acc.add(0.0, gate=gate)
                    continue
                lv, rv = qt.eval_expr(lf, tv, thv), qt.eval_expr(rf, tv, thv)
                acc.add(abs(lv - rv) / max(1.0, abs(lv), abs(rv)), gate=gate)

    def products(_):
        e1, e2, e3 = (qt.embed(b, s, rand_torus()) for _ in range(3))
        compare(qt.ext_mul(qt.ext_mul(e1, e2), e3), qt.ext_mul(e1, qt.ext_mul(e2, e3)), 2, assoc_tol)
        u, v = rand_torus(), rand_torus()
        lhs = qt.embed(b, s, qt.qt_mul(u, v, b.skew))
        compare(lhs, qt.ext_mul(qt.embed(b, s, u), qt.embed(b, s, v)), 1, assoc_tol)

    def multiplicativity(_):
        u, v = qt.embed(b, s, rand_torus()), qt.embed(b, s, rand_torus())
        compare(A.apply(qt.ext_mul(u, v)), qt.ext_mul(A.apply(u), A.apply(v)), 1, math.inf)

    acc.sample(samples, products)
    S = qt.s_q_ray(inst, ray_plus)
    S_inv = qt.s_q_ray(inst, ray_plus, inverse=True)
    E = qt.eps_z(b, s, 0.7 - 0.8j)
    for A in (S, E):
        acc.sample(samples, multiplicativity)
    comp = qt.compose(S, S_inv)
    for tv, thv in pts(5):
        for coords in ((1,), (-1,), (2,)):
            got = qt.eval_expr(comp.multiplier_for(coords), tv, thv)
            acc.add(abs(got - 1))


def run_suite(name: str, samples: int | None = None, seed: int = 42, tol: float | None = None) -> Report:
    fn, default_samples, default_tol = SUITES[name]
    return fn(samples if samples is not None else default_samples, seed, tol if tol is not None else default_tol)
