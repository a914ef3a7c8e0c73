"""Scalar special functions: Barnes gammas, their modifications, and limits.

Everything here is a pure function of complex scalars, with principal
branches throughout.  Compound powers w^B are always computed as
exp(B * Log w), and ratios inside powers are split, Log(w/om) =
Log(w) - Log(om), each factor on its principal branch.  Evaluation within
~1e-12 of a known pole/zero lattice raises a structured PoleSignal instead
of returning an infinity.

Evaluation strategy for the double gamma function: the defining
zeta-regularisation is not directly computable, so log Gamma_2 is obtained
by shifting the argument with the difference relation

    Gamma_2(x | om1, om2) = Gamma_1(x | om1) * Gamma_2(x + om2 | om1, om2)

until |x| >= 10 * max(|om1|, |om2|) holds at that shift and every later one,
then summing exactly MAX_TAIL_TERMS = 18 terms of the large-x expansion
(second Stirling form): at that |x| the first term left out lies below 2^-69
of the value for |om2/om1| from 0.02 to 30.  The Barnes-G tail, summed at
|v| >= 14, also has exactly 18 terms (`_tail_sum` for both).  The same
expansion is exposed directly as `gamma_n_second_stirling` for N in {1, 2}.

What depends only on the parameters is computed once and reused: per pair
(om1, om2), one record `_Gamma2Pair` of the checks on the pair, the
quantities of the recurrence and, built at first use, the x^-k tail
coefficients (also as arrays for the batch kernel) and the monomial
coefficients of B_{2,2}(x | om1, om2), in a small LRU cache keyed by the bits
of the four parts (a grid uses one pair); once per process, the Barnes-G
tail coefficients.  The recurrence loops of `log_gamma2` and `log_barnes_g`
evaluate their log Gamma terms in one vectorised `loggamma` call per block of
shifts.  Every sum still adds the same terms in the same order, so the values
are bitwise those of the term-by-term evaluation.

`log_f_many` is the batch form of `log_f` that grids use: one point per row,
the same per-pair record, pole window, shift count, 18-term tail and
recurrence order.  Its values are bitwise those of `log_f` because every
complex operation is written out in real arithmetic in CPython's order (see
the comment above `_mul`).  Where a scalar check fires, the point is masked
and `log_f_many` itself evaluates it with `log_f`, so exceptions stay the
scalar ones.  The scalar functions stay: `qrh report` calls `log_f` one
point at a time.  `log_delta_many` and `log_upsilon_many`, the batch forms
of the limit functions, keep each point's arithmetic scalar and batch only
its log Gamma values, in one `loggamma` call per block of points.  The
log-valued functions (`log_gamma` to `log_upsilon`) and both quantum
dilogarithms reject a non-finite argument with DomainError.
"""

from __future__ import annotations

import cmath
import math
import struct
from functools import cache, cached_property, lru_cache
from math import comb

import numpy as np
from scipy.special import loggamma as _loggamma

from .bernoulli import MAX_ORDER, float_bernoulli, multi_bernoulli, multi_bernoulli_coeffs
from .bernoulli import multi_bernoulli_zero_series
from .constants import EM_MARGIN, em_gap, hurwitz_zeta, rising_factorials, zeta_prime_minus_one
from .signals import (
    POLE_TOL,
    DomainError,
    PoleSignal,
    UnsupportedRegimeError,
    near_nonpositive_integer,
)

__all__ = [
    "log_gamma",
    "log_barnes_g",
    "barnes_zeta",
    "log_gamma1",
    "log_gamma2",
    "log_lambda",
    "lambda_fn",
    "log_f",
    "f_fn",
    "log_f_many",
    "quantum_dilog",
    "quantum_dilog_inv_series",
    "log_delta",
    "delta_fn",
    "log_upsilon",
    "upsilon_fn",
    "log_delta_many",
    "log_upsilon_many",
    "asymptotic_log_lambda",
    "asymptotic_log_f",
    "gamma_n_second_stirling",
    "second_stirling_tail_coeff",
]

LOG_2PI = math.log(2 * math.pi)

#: Re(z) above which the Barnes-G large-z expansion is summed directly.
BARNES_G_THRESHOLD = 15.0
#: Terms summed in the Gamma_2 and Barnes-G tails.  Where they are summed, the
#: first term left out is below 2^-69 of the value.  14 terms would meet the
#: 2^-60 that tests/test_special.py asserts, but their first dropped term still
#: moves the last bit of log_gamma2 at about 8 of 10,000 points drawn as its
#: bitwise test draws them.  The Gamma_2 coefficients need the multi-Bernoulli
#: series to order MAX_TAIL_TERMS + 2, bernoulli.MIN_ORDER.
MAX_TAIL_TERMS = 18
#: Parameter pairs whose Gamma_2 records are kept.  A grid call uses one
#: pair; every suite sample draws a new one, so the bound keeps memory flat.
GAMMA2_CACHE_SIZE = 32
#: Recurrence steps per vectorised loggamma call; bounds the memory of a long
#: recurrence.
_SHIFT_BLOCK = 256
#: The most recurrence steps `log_gamma2` and `log_barnes_g` take, about a
#: second of work; an argument that needs more raises UnsupportedRegimeError,
#: and the batch kernel leaves its row to log_f.
MAX_SHIFTS = 2**20


def _check_shifts(n: int, name: str) -> None:
    if n > MAX_SHIFTS:
        raise UnsupportedRegimeError(
            f"{name} would take {n} recurrence steps, more than the cap of {MAX_SHIFTS}"
        )


def _finite(v, name: str) -> complex:
    v = complex(v)
    if not cmath.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v}")
    return v


def _check_off_cut(v: complex, name: str) -> complex:
    v = _finite(v, name)
    if v == 0 or (v.imag == 0.0 and v.real < 0.0):
        raise DomainError(f"{name} must lie in C* minus the negative real axis, got {v}")
    return v


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z), continuous on C minus (-inf, 0]."""
    z = _finite(z, "z")
    m = near_nonpositive_integer(z)
    if m is not None:
        raise PoleSignal("pole", m, "log_gamma")
    return complex(_loggamma(z))


def _tail_sum(coeffs, r: complex) -> complex:
    """sum_k coeffs[k-1] r^k, k = 1..len(coeffs), left to right from the int 0;
    r^k by repeated multiplication."""
    p = r
    acc = 0
    for c in coeffs:
        acc += c * p
        p *= r
    return acc


@cache
def _barnes_g_tail() -> tuple[float, ...]:
    # B_{2k+2} / (2k (2k+2)), k = 1..MAX_TAIL_TERMS
    bern = float_bernoulli(2 * MAX_TAIL_TERMS + 2)[0]
    return tuple(
        bern[2 * k + 2].real / ((2 * k) * (2 * k + 2)) for k in range(1, MAX_TAIL_TERMS + 1)
    )


def _log_barnes_g_asymptotic(u: complex) -> complex:
    # log G(1+v) at v = u-1, for Re(u) large:
    #   (v^2/2) log v - 3 v^2/4 + (v/2) log 2pi - (1/12) log v + zeta'(-1)
    #   + sum_k B_{2k+2} / (2k (2k+2)) * v^(-2k),
    # its MAX_TAIL_TERMS terms summed by _tail_sum.  The tail follows from
    # log G(v+1) = zeta'(-1) + v log Gamma(v) - zeta_H'(-1, v) and the
    # Stirling / Euler-Maclaurin expansions of the two terms.
    v = u - 1
    lv = cmath.log(v)
    total = (v * v / 2) * lv - 3 * v * v / 4 + (v / 2) * LOG_2PI - lv / 12 + zeta_prime_minus_one()
    return total + _tail_sum(_barnes_g_tail(), 1 / (v * v))


def log_barnes_g(z) -> complex:
    """A branch of log G(z) for the Barnes G-function.

    Satisfies log G(z+1) = log Gamma(z) + log G(z) exactly as implemented
    (the value is built from that recurrence), with G(1) = 1.  Zeros of G
    at the non-positive integers raise a zero-signal.  The recurrence takes
    ceil(15 - Re z) steps; more than MAX_SHIFTS raise UnsupportedRegimeError.
    """
    z = _finite(z, "z")
    m = near_nonpositive_integer(z)
    if m is not None:
        raise PoleSignal("zero", m, "log_barnes_g")
    steps = _barnes_g_steps(z)
    _check_shifts(steps, "log_barnes_g")
    blocks = (
        _loggamma([z + j for j in range(lo, min(steps, lo + _SHIFT_BLOCK))]).tolist()
        for lo in range(0, steps, _SHIFT_BLOCK)
    )
    return _log_barnes_g_sum(z, steps, blocks)


def _barnes_g_steps(z: complex) -> int:
    """The recurrence steps of log_barnes_g at a finite z: up to Re z >= 15."""
    return max(0, math.ceil(BARNES_G_THRESHOLD - z.real))


def _log_barnes_g_sum(z: complex, steps: int, blocks) -> complex:
    """log G(z) from the asymptotic value at z + steps less the recurrence
    terms, log Gamma(z + j) for j = 0..steps-1, given in order in blocks."""
    total = _log_barnes_g_asymptotic(z + steps)
    for block in blocks:
        for lg in block:
            total -= lg
    return total


def barnes_zeta(N: int, s, x, a) -> complex:
    """Barnes zeta zeta_N(s, x | a) = sum over n in (Z>=0)^N of (x + n.a)^-s.

    Direct-summation oracle with an Euler-Maclaurin tail bound; only the
    absolutely convergent regime Re(s) > N is supported (no analytic
    continuation here).  N in {1, 2}.  The zeta-oracle suite uses
    zeta_2(3, x | a) as its run-time check of log_gamma2, through
    d^3/dx^3 log Gamma_2(x | a) = -2 zeta_2(3, x | a).  The checks are:

    - Re(a_i) > 0, else DomainError;
    - Re(s) > N, else UnsupportedRegimeError;
    - s an integer or Re(x/a_i) > 0 for every i, else UnsupportedRegimeError;
    - no Hurwitz argument on the non-positive real axis, else DomainError:
      x/a_1 for N = 1, and (x + m a_1)/a_2 for m = 0..24 for N = 2;
    - each Hurwitz zeta within its own error estimate, else
      UnsupportedRegimeError (see `hurwitz_zeta`);
    - for N = 2, the Euler-Maclaurin tail m >= 24 at least
      constants.EM_MARGIN steps from the poles m = -(x + n a_2)/a_1, n >= 0,
      of its summand, else UnsupportedRegimeError.  Re(x/a_i) > 0 with
      phases of a_1, a_2 less than pi/2 apart always passes this rule.

    The terms are computed as a_N^-s (q + n)^-s with principal powers, q the
    Hurwitz argument.  They are the principal (x + n.a)^-s when s is an
    integer, or when Re(x/a_i) > 0; otherwise a non-integer s can put a term
    on another branch, so that regime is refused.  At an integer s, x may
    lie anywhere else, Re(x/a_i) < 0 included.
    """
    s = complex(s)
    x = complex(x)
    a = tuple(complex(ai) for ai in a)
    if len(a) != N:
        raise DomainError(f"expected {N} parameters, got {len(a)}")
    if any(ai.real <= 0 for ai in a):
        raise DomainError("direct summation requires Re(a_i) > 0")
    if s.real <= N:
        raise UnsupportedRegimeError(
            f"Re(s) <= {N} is outside the direct-sum regime (oracle only)"
        )
    if not (s.imag == 0 and s.real.is_integer()) and any((x / ai).real <= 0 for ai in a):
        raise UnsupportedRegimeError(
            "a non-integer s needs Re(x/a_i) > 0: elsewhere the principal powers "
            "a_N^-s (q + n)^-s can leave the branch of (x + n.a)^-s"
        )
    if N == 1:
        return cmath.exp(-s * cmath.log(a[0])) * hurwitz_zeta(s, x / a[0])
    if N == 2:
        a1, a2 = a
        M, J = 24, 6
        if em_gap(M + x / a1, a2 / a1) < EM_MARGIN:
            raise UnsupportedRegimeError(
                f"x = {x} puts a pole of zeta_2 within {EM_MARGIN} of the "
                f"Euler-Maclaurin tail m >= {M}"
            )
        bern = float_bernoulli(2 * J)[0]
        total = 0j
        pref = cmath.exp(-s * cmath.log(a2))
        for m in range(M):
            total += pref * hurwitz_zeta(s, (x + m * a1) / a2)
        u_m = (x + M * a1) / a2
        # integral part of the tail: int_M^inf a2^-s zeta_H(s,(x+m a1)/a2) dm
        total += cmath.exp((1 - s) * cmath.log(a2)) / (a1 * (s - 1)) * hurwitz_zeta(s - 1, u_m)
        total += pref * hurwitz_zeta(s, u_m) / 2
        fact = 2.0
        ratio = a1 / a2
        rising = rising_factorials(s, 2 * J - 1)
        for j in range(1, J + 1):
            r = 2 * j - 1
            deriv = pref * ratio**r * (-1) ** r * rising[r] * hurwitz_zeta(s + r, u_m)
            total -= bern[2 * j].real / fact * deriv
            fact *= (2 * j + 1) * (2 * j + 2)
        return total
    raise UnsupportedRegimeError("barnes_zeta is implemented for N in {1, 2}")


def log_gamma1(x, a) -> complex:
    """log Gamma_1(x | a) = log[ Gamma(x/a) a^(x/a - 1/2) / sqrt(2 pi) ]."""
    a = _check_off_cut(a, "a")
    v = _finite(x, "x") / a
    m = near_nonpositive_integer(v)
    if m is not None:
        raise PoleSignal("pole", m, "log_gamma1")
    return -0.5 * LOG_2PI + complex(_loggamma(v)) + (v - 0.5) * cmath.log(a)


class _Gamma2Pair:
    """The checks on (om1, om2) of log_gamma2 and the batch kernel, DomainError
    unless each lies off the cut and both in one open half-plane, and what
    follows from the pair alone: shift (the larger) and other, target = 10
    max|om|, s2 = abs(shift) ** 2, smaller = min|om|, det = Im(conj(om1) om2)."""

    def __init__(self, w1, w2):
        self.w1 = w1 = _check_off_cut(w1, "omega1")
        self.w2 = w2 = _check_off_cut(w2, "omega2")
        q = w2 / w1
        if q.imag == 0.0 and q.real < 0.0:
            raise DomainError("omega1, omega2 must lie in a common open half-plane")
        a1, a2 = abs(w1), abs(w2)
        self.shift, self.other = (w1, w2) if a1 >= a2 else (w2, w1)
        self.det = det = w1.real * w2.imag - w1.imag * w2.real
        self.log_other, self.target = cmath.log(self.other), 10.0 * max(a1, a2)
        self.s2, self.smaller = abs(self.shift) ** 2, min(a1, a2)
        self.collinear = not abs(det) > 1e-14 * a1 * a2

    @cached_property
    def coefficients(self) -> tuple:
        """(tail, b22, tail_re, tail_im): tail[k-1] = (-1)^k B_{2,k+2}(0) / (k(k+1)(k+2)),
        k = 1..MAX_TAIL_TERMS, B_{2,2}(x | om1, om2)'s monomial coefficients in
        Horner order, and tail's parts as arrays for the batch kernel, which must
        not modify them.  Built at first use, so that the pole test raises first."""
        a = (self.w1, self.w2)
        zeros = multi_bernoulli_zero_series(2, a, MAX_TAIL_TERMS + 2)[3:]
        tail = tuple((-1) ** k * z / (k * (k + 1) * (k + 2)) for k, z in enumerate(zeros, 1))
        parts = np.array(tail, dtype=complex)
        return tail, tuple(reversed(multi_bernoulli_coeffs(2, 2, a))), parts.real, parts.imag


def _gamma2_pair(w1, w2) -> _Gamma2Pair:
    """The record of (om1, om2), cached by the bits of their four parts: pairs
    that differ only in the sign of a zero part are equal as complex keys, but
    their quotients by other, and so log Gamma_1, can lie on another branch."""
    w1, w2 = complex(w1), complex(w2)
    return _gamma2_pair_of_bits(struct.pack("4d", w1.real, w1.imag, w2.real, w2.imag))


@lru_cache(maxsize=GAMMA2_CACHE_SIZE)
def _gamma2_pair_of_bits(bits: bytes) -> _Gamma2Pair:
    r1, i1, r2, i2 = struct.unpack("4d", bits)
    return _Gamma2Pair(complex(r1, i1), complex(r2, i2))


def _pole_window(reach):
    """Gamma_2's pole window in lattice coordinates at reach = |x| / min|om|."""
    return POLE_TOL * (np.maximum(1.0, reach) if isinstance(reach, np.ndarray) else max(1.0, reach))


def _gamma2_pole_check(x: complex, pair: _Gamma2Pair) -> None:
    # poles of Gamma_2 at x = -m1 w1 - m2 w2, m_i >= 0
    tol = _pole_window(abs(x) / pair.smaller)
    if not tol < 0.5:
        raise UnsupportedRegimeError(f"log_gamma2: the pole window at x = {x} covers half a lattice cell")
    w1, w2, det = pair.w1, pair.w2, pair.det
    if not pair.collinear:
        xi1 = (x.real * w2.imag - x.imag * w2.real) / det
        xi2 = (w1.real * x.imag - w1.imag * x.real) / det
        if not (math.isfinite(xi1) and math.isfinite(xi2)):
            raise UnsupportedRegimeError(f"log_gamma2: the lattice coordinates of x = {x} overflow")
        m1, m2 = round(xi1), round(xi2)
        if m1 <= 0 and m2 <= 0 and abs(xi1 - m1) < tol and abs(xi2 - m2) < tol:
            raise PoleSignal("pole", complex(m1, m2), "log_gamma2")
        return
    # collinear parameters (e.g. om1 = om2): lattice is {-(m1 + m2*r) w1}
    r = (w2 / w1).real
    u = -(x / w1)
    if abs((x / w1).imag) > 1e-9 * max(1.0, abs(u)):
        return
    m2 = 0
    while m2 * r <= u.real + 0.5 and m2 <= 500:
        m1 = round(u.real - m2 * r)
        if m1 >= 0 and abs(u.real - m2 * r - m1) < tol:
            raise PoleSignal("pole", complex(-m1, -m2), "log_gamma2")
        m2 += 1


def _b22(x: complex, pair: _Gamma2Pair) -> complex:
    """B_{2,2}(x | om1, om2), by Horner from the pair's coefficients (`_b22_many`)."""
    return complex(*_b22_many(x.real, x.imag, pair.coefficients[1]))


def _cor_a2_expansion(x: complex, pair: _Gamma2Pair) -> complex:
    # second Stirling form of log Gamma_2 at large |x| (delta = 0)
    a1, a2 = pair.w1, pair.w2
    total = -0.5 * _b22(x, pair) * cmath.log(x)
    total += 3 * x * x / (4 * a1 * a2) - x * (a1 + a2) / (2 * a1 * a2)
    return total + _tail_sum(pair.coefficients[0], 1 / x)


def log_gamma2(x, w1, w2, extra_shift: int = 0) -> complex:
    """A branch of log Gamma_2(x | om1, om2).

    Computed by difference-relation shifting along the larger parameter,
    accumulating log Gamma_1 factors, then the large-argument expansion at
    the first shift x' from which every later one has |x'| >= 10 max(|om1|,
    |om2|).  `extra_shift` forces additional recurrence steps (used by
    path-independence checks).  UnsupportedRegimeError for more than MAX_SHIFTS
    steps in all, where the pole window covers half a lattice cell, and where
    the sum is not finite.
    """
    x = _finite(x, "x")
    pair = _gamma2_pair(w1, w2)
    _gamma2_pole_check(x, pair)
    # the first n >= 0 from which |x + m*shift| >= target holds for every
    # m >= n: the larger root of |x + n*shift| = target, rounded up, or 0
    # when there is none or it is negative.  A far-left x with |x| >= target
    # is thus still shifted past the origin (x = -1e8+1i at om = (1, 1)
    # takes 100000010 steps).  |x|^2 is ax * ax, as in the batch kernel.
    c = (x * pair.shift.conjugate()).real
    ax = abs(x)
    disc = c * c + pair.s2 * (pair.target * pair.target - ax * ax)
    if not math.isfinite(disc):
        raise OverflowError(f"log_gamma2's shift count overflows at x = {x}")
    n = 0 if disc <= 0 else max(0, math.ceil((-c + math.sqrt(disc)) / pair.s2))
    n += max(0, extra_shift)
    _check_shifts(n, "log_gamma2")
    total = _cor_a2_expansion(x + n * pair.shift, pair)
    # the log Gamma_1(x + j*shift | other) factors, j = 0..n-1, added in order
    for lo in range(0, n, _SHIFT_BLOCK):
        vs = [(x + j * pair.shift) / pair.other for j in range(lo, min(n, lo + _SHIFT_BLOCK))]
        for v in vs:
            m = near_nonpositive_integer(v)
            if m is not None:
                raise PoleSignal("pole", m, "log_gamma1")
        for v, lg in zip(vs, _loggamma(vs).tolist()):
            total += -0.5 * LOG_2PI + lg + (v - 0.5) * pair.log_other
    if not cmath.isfinite(total):
        # the tail's terms over- or underflow at these scales of om
        raise UnsupportedRegimeError(f"log_gamma2: the sum at x = {x} is not finite ({total})")
    return total


def log_lambda(w, eta, omega) -> complex:
    """log of the modified gamma function Lambda(w, eta | omega).

    Lambda(w,eta|om) = (2pi)^(-1/2) Gamma((w+eta)/om) exp(w/om)
                       * (w/om)^(1/2 - (w+eta)/om),
    where the last factor uses Log(w/om) = Log(w) - Log(om), each principal.
    Poles exactly at w + eta = n*om, n <= 0.
    """
    w = _check_off_cut(w, "w")
    omega = _check_off_cut(omega, "omega")
    eta = _finite(eta, "eta")
    v = (w + eta) / omega
    m = near_nonpositive_integer(v)
    if m is not None:
        raise PoleSignal("pole", m, "log_lambda")
    return (
        -0.5 * LOG_2PI
        + complex(_loggamma(v))
        + w / omega
        + (0.5 - v) * (cmath.log(w) - cmath.log(omega))
    )


def lambda_fn(w, eta, omega) -> complex:
    """The modified gamma function Lambda(w, eta | omega)."""
    return cmath.exp(log_lambda(w, eta, omega))


def log_f(w, eta, w1, w2) -> complex:
    """log of the modified double gamma function F(w, eta | om1, om2).

    F = Gamma_2(w+eta | om1, om2) * exp((1/2) B_{2,2}(w+eta|om1,om2) Log w)
        * exp(-3w^2/(4 om1 om2) - eta w/(om1 om2) + w(om1+om2)/(2 om1 om2)).
    """
    w = _check_off_cut(w, "w")
    eta = _finite(eta, "eta")
    w1 = complex(w1)
    w2 = complex(w2)
    lg2 = log_gamma2(w + eta, w1, w2)
    b22 = _b22(w + eta, _gamma2_pair(w1, w2))
    g = -3 * w * w / (4 * w1 * w2) - eta * w / (w1 * w2) + w * (w1 + w2) / (2 * w1 * w2)
    return lg2 + 0.5 * b22 * cmath.log(w) + g


def f_fn(w, eta, w1, w2) -> complex:
    """The modified double gamma function F(w, eta | om1, om2)."""
    return cmath.exp(log_f(w, eta, w1, w2))


# ---------------------------------------------------------------------------
# the batch kernel: log_f over arrays, bit for bit
#
# A complex value is a pair (re, im) of float64 arrays, and each complex
# operation of the scalar code is written out in real arithmetic in the order
# CPython evaluates it: _mul is _Py_c_prod, _div is _Py_c_quot, and an int or
# float operand is first widened to (value, 0.0) as CPython does.  Real + - * /,
# np.hypot (CPython's abs), np.round, np.ceil, np.sqrt and np.add.accumulate
# (a left-to-right sum) round as their scalar counterparts do; numpy's complex
# * / abs and log need not, so none is used, and log is cmath.log per entry.


def _mul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi), as CPython's _Py_c_prod."""
    return ar * br - ai * bi, ar * bi + ai * br


def _div(ar, ai, b: complex):
    """(ar + i ai) / b for a finite non-zero scalar b, as CPython's _Py_c_quot."""
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        ratio = bi / br
        denom = br + bi * ratio
        return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    ratio = br / bi
    denom = br * ratio + bi
    return (ar * ratio + ai) / denom, (ai * ratio - ar) / denom


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) entrywise, as CPython's _Py_c_quot, its
    branch chosen per entry; entries with b = 0 come out non-finite."""
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    re = np.where(wide, ar + ai * ratio, ar * ratio + ai)
    im = np.where(wide, ai - ar * ratio, ai * ratio - ar)
    return re / denom, im / denom


def _logs(re, im):
    """cmath.log entrywise."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    out = np.array(list(map(cmath.log, z.tolist())), dtype=complex)
    return out.real, out.imag


def _b22_many(xr, xi, coeffs):
    """B_{2,2} by Horner from (0, 0) over the cached coefficients, entrywise."""
    ar = ai = 0.0
    for c in coeffs:  # (ar, ai) * (xr, xi) + c, the product as in _mul
        ar, ai = ar * xr - ai * xi + c.real, ar * xi + ai * xr + c.imag
    return ar, ai


def _cor_a2_many(yr, yi, pair: _Gamma2Pair):
    """_cor_a2_expansion entrywise, its tail summed left to right as `_tail_sum`
    sums it."""
    (tail, b22, cr, ci), a1, a2 = pair.coefficients, pair.w1, pair.w2
    hr, hi = _mul(-0.5, 0.0, *_b22_many(yr, yi, b22))
    tr, ti = _mul(hr, hi, *_logs(yr, yi))
    sr, si = _div(*_mul(*_mul(3.0, 0.0, yr, yi), yr, yi), 4 * a1 * a2)
    ur, ui = _div(*_mul(yr, yi, (a1 + a2).real, (a1 + a2).imag), 2 * a1 * a2)
    tr, ti = tr + (sr - ur), ti + (si - ui)
    # the terms c_k / y^k
    pr, pi = _inverse_powers(*_quot(1.0, 0.0, yr, yi), len(tail))
    er, ei = _mul(cr[:, None], ci[:, None], pr, pi)
    # _tail_sum starts from the int 0
    er[0] += 0.0
    ei[0] += 0.0
    return tr + np.add.accumulate(er, axis=0)[-1], ti + np.add.accumulate(ei, axis=0)[-1]


def _inverse_powers(ir, ii, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows k = 0, ..., count-1 of (re, im) of v^(k+1) entrywise, v = ir + i ii,
    by repeated multiplication (p *= v): row k is _mul(row k-1, v), bit for bit.

    Each step is one product of the row (a, b) with [[ir, ii], [-ii, ir]] and
    one sum of its two halves, (a ir + b (-ii), a ii + b ir): b (-ii) is
    -(b ii) exactly, and x + (-y) is x - y, so the rows are _Py_c_prod's.
    """
    m = np.array([[ir, ii], [-ii, ir]])
    p = np.empty((count, 2, len(ir)))
    p[0] = ir, ii
    prods = np.empty_like(m)
    for prev, row in zip(p[:, :, None], p[1:]):
        np.multiply(prev, m, out=prods)
        np.add(prods[0], prods[1], out=row)
    return p[:, 0], p[:, 1]


def _shift_count(xr, xi, pair: _Gamma2Pair, bad):
    """log_gamma2's shift count n per entry, in its float operations; bad[i] is
    set where log_gamma2 raises OverflowError or UnsupportedRegimeError for n
    above MAX_SHIFTS."""
    c = xr * pair.shift.real - xi * -pair.shift.imag
    ax = np.hypot(xr, xi)
    disc = c * c + pair.s2 * (pair.target * pair.target - ax * ax)
    bad |= ~np.isfinite(disc)
    root = (-c + np.sqrt(np.maximum(disc, 0.0))) / pair.s2
    n = np.where(disc <= 0, 0.0, np.maximum(0.0, np.ceil(root)))
    bad |= ~(n <= MAX_SHIFTS)
    return np.where(bad, 0, n).astype(np.int64)


def _gamma1_sums(xr, xi, n, pair: _Gamma2Pair, tr, ti, bad) -> None:
    """Add the log Gamma_1(x + j shift | other) factors, j = 0..n-1, to
    (tr, ti) in place, in order; bad[i] is set where a shift lands in a pole
    window.  Blocks of at most _SHIFT_BLOCK shifts by _SHIFT_BLOCK rows, over
    the rows that still need them, bound the memory."""
    head = -0.5 * LOG_2PI
    for lo in range(0, int(n.max(initial=0)), _SHIFT_BLOCK):
        live = np.flatnonzero(n > lo)
        for first in range(0, len(live), _SHIFT_BLOCK):
            rows = live[first : first + _SHIFT_BLOCK]
            stop = np.minimum(n[rows], lo + _SHIFT_BLOCK) - lo
            j = np.arange(lo, lo + int(stop.max()), dtype=float)
            jr, ji = _mul(j, 0.0, pair.shift.real, pair.shift.imag)
            vr, vi = _div(xr[rows, None] + jr, xi[rows, None] + ji, pair.other)
            _pole_windows(vr, vi, stop, rows, bad)
            v = np.empty(vr.shape, dtype=complex)
            v.real, v.imag = vr, vi
            # log Gamma of the shifts each row takes; the entries past a row's
            # stop only follow its value in the running sums below
            used = np.arange(len(j)) < stop[:, None]
            lg = np.zeros(v.shape, dtype=complex)
            lg[used] = _loggamma(v[used])
            # total += -0.5 LOG_2PI + lg + (v - 0.5) * log(other)
            mr, mi = _mul(vr - 0.5, vi, pair.log_other.real, pair.log_other.imag)
            at = np.arange(len(rows))
            for acc, lgp, start, part in ((tr, lg.real, head, mr), (ti, lg.imag, 0.0, mi)):
                terms = np.empty((len(rows), len(j) + 1))
                terms[:, 0] = acc[rows]
                np.add(start, lgp, out=terms[:, 1:])
                terms[:, 1:] += part
                acc[rows] = np.add.accumulate(terms, axis=1)[at, stop]


def _pole_windows(vr, vi, stop, rows, bad) -> None:
    """Set bad[rows[i]] where v[i, j], j < stop[i], is in
    near_nonpositive_integer's window."""
    # |v - m| <= tol max(1, |v|) needs |vi| <= tol (1 + |vr| + |vi|): only
    # entries that pass this looser test are checked exactly
    near = np.abs(vi) <= 2 * POLE_TOL * (1.0 + np.abs(vr))
    i, j = np.nonzero(near)
    if not len(i):
        return
    ur, ui = vr[i, j], vi[i, j]
    m = np.round(ur)
    hit = (m <= 0) & (np.hypot(ur - m, ui) <= POLE_TOL * np.maximum(1.0, np.hypot(ur, ui)))
    bad[rows[i[hit & (j < stop[i])]]] = True


def log_f_many(ws, etas, w1, w2) -> list:
    """log_f(w_i, eta_i, om1, om2) for every i: entry i is that value, bit for
    bit, or the ArithmeticError or ValueError (PoleSignal, DomainError) that
    log_f raises there.  Entries the kernel _log_f_batch masks go to log_f in
    order; another exception propagates from the first of them to raise it."""
    ws = np.array(ws, dtype=complex).reshape(-1)
    etas = np.array(etas, dtype=complex).reshape(-1)
    if ws.shape != etas.shape:
        raise DomainError("ws and etas must have the same length")
    values, mask = _log_f_batch(ws, etas, w1, w2)
    out = values.tolist()
    for i in np.flatnonzero(mask).tolist():
        try:
            out[i] = log_f(ws[i], etas[i], w1, w2)
        except (ArithmeticError, ValueError) as exc:  # PoleSignal, DomainError among them
            out[i] = exc.with_traceback(None)  # a value of the list: no cycle through this frame
    return out


def _log_f_batch(ws, etas, w1, w2) -> tuple[np.ndarray, np.ndarray]:
    """log F(w_i, eta_i | om1, om2) for every i, and a mask: (values, mask).

    The values are bitwise those of log_f(w_i, eta_i, om1, om2) wherever
    mask[i] is False.  mask[i] is True where a check of log_f or log_gamma2
    fires (a non-finite input, w_i on the cut, x_i in the Gamma_2 pole window
    or where it covers half a cell, an overflowing lattice coordinate or shift
    count, a shift in near_nonpositive_integer's window, more than MAX_SHIFTS
    shifts), everywhere when the parameters fail their checks, are
    collinear or overflow a quantity of their own, and where the value is not
    finite; such an entry of values is meaningless.

    Runs log_gamma2's algorithm in its float operations: the same pole check,
    shift count n, 18-term tail and recurrence order, row by row.
    """
    wr, wi, er, ei = ws.real, ws.imag, etas.real, etas.imag
    bad = np.ones(len(wr), dtype=bool)
    values = np.zeros(len(wr), dtype=complex)
    # failing, collinear or overflowing parameters go to log_f
    try:
        pair = _gamma2_pair(w1, w2)
        b22 = pair.coefficients[1]
    except (ArithmeticError, ValueError):
        return values, bad
    if pair.collinear:
        return values, bad
    w1, w2, det = pair.w1, pair.w2, pair.det
    with np.errstate(all="ignore"):
        xr, xi = wr + er, wi + ei
        # a non-finite eta leaves x non-finite
        bad = ~(np.isfinite(wr) & np.isfinite(wi) & np.isfinite(xr) & np.isfinite(xi))
        bad |= (wi == 0.0) & (wr <= 0.0)
        # _gamma2_pole_check, non-collinear branch
        tol = _pole_window(np.hypot(xr, xi) / pair.smaller)
        bad |= ~(tol < 0.5)
        xi1 = (xr * w2.imag - xi * w2.real) / det
        xi2 = (w1.real * xi - w1.imag * xr) / det
        m1, m2 = np.round(xi1), np.round(xi2)
        bad |= (m1 <= 0) & (m2 <= 0) & (np.abs(xi1 - m1) < tol) & (np.abs(xi2 - m2) < tol)
        bad |= ~(np.isfinite(xi1) & np.isfinite(xi2))
        xr = np.where(bad, 1.0 + pair.target, xr)  # harmless stand-ins for masked rows
        xi = np.where(bad, 0.0, xi)
        n = _shift_count(xr, xi, pair, bad)
        nr, ni = _mul(n.astype(float), 0.0, pair.shift.real, pair.shift.imag)
        tr, ti = _cor_a2_many(xr + nr, xi + ni, pair)
        _gamma1_sums(xr, xi, n, pair, tr, ti, bad)
        # log_f: lg2 + 0.5 * B_{2,2}(x) * Log w + g
        wr = np.where(bad, 1.0, wr)
        wi = np.where(bad, 0.0, wi)
        br, bi = _mul(0.5, 0.0, *_b22_many(xr, xi, b22))
        br, bi = _mul(br, bi, *_logs(wr, wi))
        d12, s12 = w1 * w2, w1 + w2
        gr, gi = _div(*_mul(*_mul(-3.0, 0.0, wr, wi), wr, wi), 4 * w1 * w2)
        hr, hi = _div(*_mul(er, ei, wr, wi), d12)
        ur, ui = _div(*_mul(wr, wi, s12.real, s12.imag), 2 * w1 * w2)
        values.real = (tr + br) + ((gr - hr) + ur)
        values.imag = (ti + bi) + ((gi - hi) + ui)
        bad |= ~np.isfinite(values)
    return values, bad


def quantum_dilog(q, x) -> complex:
    """Quantum dilogarithm E_q(x) = prod_{k>=0} (1 - q^k x), for |q| < 1.

    The product is truncated once the tail is below ~1e-16 relative;
    relative error < 1e-12 for |q| <= 0.95.  UnsupportedRegimeError when
    20000 factors do not reach that point (|q| close to 1), or when the
    product is not finite (it overflows, as at x = 1e200).  DomainError for a
    non-finite q or x.
    """
    q = _finite(q, "q")
    x = _finite(x, "x")
    aq = abs(q)
    if aq >= 1:
        raise DomainError("quantum_dilog requires |q| < 1")
    if x == 0:
        return 1.0 + 0j
    guard = 5e-17 * (1 - aq)
    total = 1.0 + 0j
    qk_x = x
    for _ in range(20000):
        total *= 1 - qk_x
        qk_x *= q
        if abs(qk_x) < guard:
            return _finite_dilog(total, "E_q", q, x)
    raise UnsupportedRegimeError(f"E_q does not converge within 20000 factors at |q| = {aq!r}")


def _finite_dilog(total: complex, name: str, q: complex, x: complex) -> complex:
    """total, the product or sum of a quantum dilogarithm, where it is finite."""
    if not cmath.isfinite(total):
        raise UnsupportedRegimeError(f"{name} overflows at q = {q}, x = {x}")
    return total


def quantum_dilog_inv_series(q, x) -> complex:
    """E_q(x)^{-1} = sum_{n>=0} x^n / ((1-q)...(1-q^n)), for |x| < 1.

    Independent of the product route; used as a series-identity oracle.
    Summed until a term drops below 1e-18 relative, at most 4000 terms.
    UnsupportedRegimeError when the sum is not finite (it overflows, as at
    q = 0.999999, x = 0.9999).  DomainError for a non-finite q or x.
    """
    q = _finite(q, "q")
    x = _finite(x, "x")
    if abs(q) >= 1:
        raise DomainError("requires |q| < 1")
    if abs(x) >= 1:
        raise DomainError("series route requires |x| < 1")
    total = 1.0 + 0j
    term = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, 4000):
        qn *= q
        term *= x / (1 - qn)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return _finite_dilog(total, "the E_q^-1 series", q, x)


def log_delta(w, eta) -> complex:
    """log Delta(w, eta), the tau->0 limit of tau * log F(w, eta | 1, tau).

    Delta(w,eta) = exp(-zeta'(-1)) G(w+eta+1)
                   * exp(-w^2/4 + eta^2/2 - eta/2 + 1/12)
                   / ( Gamma(w+eta)^(w+eta) * w^(-(w+eta)^2/2 + (w+eta)/2 - 1/12) ).
    """
    w = _check_off_cut(w, "w")
    eta = _finite(eta, "eta")
    u = w + eta
    return _log_delta_terms(w, eta, log_barnes_g(u + 1), log_gamma(u))


def _log_delta_terms(w: complex, eta: complex, log_g: complex, log_gamma_u: complex) -> complex:
    """log Delta(w, eta) given log G(u + 1) and log Gamma(u), u = w + eta."""
    u = w + eta
    return (
        -zeta_prime_minus_one()
        + log_g
        - w * w / 4
        + eta * eta / 2
        - eta / 2
        + 1 / 12
        - u * log_gamma_u
        + (u * u / 2 - u / 2 + 1 / 12) * cmath.log(w)
    )


def delta_fn(w, eta) -> complex:
    return cmath.exp(log_delta(w, eta))


def log_upsilon(w, theta) -> complex:
    """log Upsilon(w, theta), the tau->1 limit function.

    Upsilon(w,theta) = exp(-zeta'(-1)) G(w+theta+1) exp(3w^2/4 + theta w)
                       / ( (2pi)^((w+theta)/2) * w^((w+theta)^2/2 - 1/6) ).

    The -1/6 in the w-exponent is forced: it is the unique normalisation
    for which F(w, 1 -+ theta | 1, 1)^(-1) = w^(-1/12) Upsilon(w, -+theta)
    holds identically, as the tau->1 limit statement requires.  (Either
    exponent drops out of the theta-difference relation
    Upsilon(w,theta)/Upsilon(w,theta-1) = Lambda(w,theta|1).)
    """
    w = _check_off_cut(w, "w")
    theta = _finite(theta, "theta")
    return _log_upsilon_terms(w, theta, log_barnes_g(w + theta + 1))


def _log_upsilon_terms(w: complex, theta: complex, log_g: complex) -> complex:
    """log Upsilon(w, theta) given log G(u + 1), u = w + theta."""
    u = w + theta
    return (
        -zeta_prime_minus_one()
        + log_g
        + 3 * w * w / 4
        + theta * w
        - (u / 2) * LOG_2PI
        - (u * u / 2 - 1 / 6) * cmath.log(w)
    )


def upsilon_fn(w, theta) -> complex:
    return cmath.exp(log_upsilon(w, theta))


def log_delta_many(ws, etas) -> list:
    """log_delta(w_i, eta_i) for every i: entry i is that value, bit for bit,
    or the ArithmeticError or ValueError (PoleSignal, DomainError) that
    log_delta raises there (see `_barnes_g_many`)."""
    return _barnes_g_many(ws, etas, log_delta, _log_delta_terms, True)


def log_upsilon_many(ws, thetas) -> list:
    """log_upsilon(w_i, theta_i) for every i, as log_delta_many is for log_delta."""
    return _barnes_g_many(ws, thetas, log_upsilon, _log_upsilon_terms, False)


def _barnes_g_many(ws, etas, scalar, terms, with_gamma: bool) -> list:
    """scalar(w_i, eta_i) for every i, as a value or the exception it raises.

    The arithmetic of each point is the scalar's own (`terms`); only the
    log Gamma values are batched: the recurrence terms of log G(u_i + 1),
    u_i = w_i + eta_i, then log Gamma(u_i) if with_gamma, in one loggamma call
    per _SHIFT_BLOCK points, so each value is the scalar one bit for bit.  The
    scalar's checks are applied conservatively: a point that is not finite,
    lies on w's cut, lies near the real axis left of 1/2 (where the zero
    window of G(u_i + 1) and the pole window of Gamma(u_i) are) or needs more
    than _SHIFT_BLOCK steps goes to `scalar` itself, so its exception, and its
    memory, are the scalar ones.  Exceptions other than ArithmeticError and
    ValueError propagate.
    """
    ws, etas = [complex(w) for w in ws], [complex(e) for e in etas]
    if len(ws) != len(etas):
        raise DomainError("ws and etas must have the same length")
    out, batch = [None] * len(ws), []
    # |u.imag| <= POLE_TOL max(1, |v|) at v = u or u + 1 in either window
    window = 10 * POLE_TOL
    for i, (w, eta) in enumerate(zip(ws, etas)):
        u = w + eta
        z = u + 1
        if (
            cmath.isfinite(z)  # so are w and eta
            and (w.imag != 0.0 or w.real > 0.0)
            and (u.real >= 0.5 or abs(u.imag) > window * (2.0 + abs(u.real)))
            and (steps := _barnes_g_steps(z)) <= _SHIFT_BLOCK
        ):
            batch.append((i, w, eta, u, z, steps))
            continue
        try:
            out[i] = scalar(w, eta)
        except (ArithmeticError, ValueError) as exc:  # PoleSignal, DomainError among them
            out[i] = exc.with_traceback(None)  # a value of the list: no cycle through this frame
    for lo in range(0, len(batch), _SHIFT_BLOCK):
        points = batch[lo : lo + _SHIFT_BLOCK]
        args = []
        for _i, _w, _eta, u, z, steps in points:
            args += [z + j for j in range(steps)]
            if with_gamma:
                args.append(u)
        lgs = _loggamma(args).tolist()
        k = 0
        for i, w, eta, _u, z, steps in points:
            log_g = _log_barnes_g_sum(z, steps, [lgs[k : k + steps]])
            k += steps
            if with_gamma:
                out[i] = terms(w, eta, log_g, lgs[k])
                k += 1
            else:
                out[i] = terms(w, eta, log_g)
    return out


def _asymptotic_tail(N: int, w, delta, a, K: int) -> complex:
    """sum_{k=1}^K second_stirling_tail_coeff(N, k, delta, a) w^-k."""
    if K < 0:
        raise DomainError("K must be >= 0")
    if K:
        # the top order first: every lower one then reads its series
        multi_bernoulli_zero_series(N, a, min(N + K, MAX_ORDER))
    w = complex(w)
    total = 0j
    p = 1 / w
    for k in range(1, K + 1):
        total += second_stirling_tail_coeff(N, k, delta, a) * p
        p /= w
    return total


def asymptotic_log_lambda(w, eta, omega, K: int) -> complex:
    """Partial sum sum_{k=1}^K (-1)^(k+1) B_{1,k+1}(eta|om) / (k(k+1)) w^-k.

    The large-|w| expansion of log Lambda; non-convergent, so this never
    claims convergence -- order checks use doubling ratios.
    """
    return _asymptotic_tail(1, w, eta, (omega,), K)


def asymptotic_log_f(w, eta, w1, w2, K: int) -> complex:
    """Partial sum sum_{k=1}^K (-1)^k B_{2,k+2}(eta|om1,om2)/(k(k+1)(k+2)) w^-k."""
    return _asymptotic_tail(2, w, eta, (w1, w2), K)


def second_stirling_tail_coeff(N: int, k: int, delta, a) -> complex:
    """Coefficient of x^-k in the second-Stirling tail of log Gamma_N(x+delta|a).

    Equals (-1)^(N+k) B_{N,N+k}(delta | a) / (k (k+1) ... (k+N)).
    """
    denom = 1.0
    for i in range(N + 1):
        denom *= k + i
    return (-1) ** (N + k) * multi_bernoulli(N, N + k, delta, a) / denom


def gamma_n_second_stirling(N: int, x, delta, a, K: int) -> complex:
    """Second-Stirling approximant of log Gamma_N(x + delta | a), N in {1,2}.

    Full form: the polynomial/log part

        (-1)^(N+1)/N! * ( B_{N,N}(x+delta|a) Log x
                          - sum_{k<N} c_{N,k} B_{N,k}(0|a) (x+delta)^(N-k)
                          + P_{N-1}(x, delta | a) )

    with c_{N,k} = binom(N,k) * sum_{l=1}^{N-k} 1/l and P_{N-1} the
    non-negative-degree part of B_{N,N}(x+delta|a) * sum_n (-1)^(n+1)
    delta^n / n * x^-n, plus the x^-k tail to order K.  Valid as |x| -> inf
    with x and x+delta in the half-plane of the parameters.
    """
    if N not in (1, 2):
        raise UnsupportedRegimeError("second Stirling approximant supports N in {1, 2}")
    x = complex(x)
    delta = complex(delta)
    a = tuple(complex(ai) for ai in a)
    sign = (-1) ** (N + 1) / math.factorial(N)
    tail = _asymptotic_tail(N, x, delta, a, K)  # first: it builds the longest series

    main = multi_bernoulli(N, N, x + delta, a) * cmath.log(x)
    zeros = multi_bernoulli_zero_series(N, a, N)
    for k in range(N):
        c_nk = comb(N, k) * sum(1.0 / l for l in range(1, N - k + 1))
        main -= c_nk * zeros[k] * (x + delta) ** (N - k)

    # P_{N-1}: coefficients of B_{N,N}(y+delta|a) as a polynomial in y
    base = multi_bernoulli_coeffs(N, N, a)
    p = [0j] * (N + 1)
    for j, cj in enumerate(base):
        for d in range(j + 1):
            p[d] += comb(j, d) * cj * delta ** (j - d)
    for d in range(N):
        for n in range(1, N - d + 1):
            main += p[d + n] * (-1) ** (n + 1) * delta**n / n * x**d

    return sign * main + tail
