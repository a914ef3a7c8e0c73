"""Zeta-function machinery and cached numerical constants.

The Hurwitz zeta function is evaluated by Euler-Maclaurin summation,

    zeta_H(s,q) = sum_{n<M} (q+n)^-s + (q+M)^(1-s)/(s-1) + (q+M)^-s / 2
                  + sum_{j<=J} B_{2j}/(2j)! * (s)_{2j-1} * (q+M)^(-s-2j+1),

with (s)_m the rising factorial, or for Re q < 0 by the Lipschitz reflection
to zeta_H(s, 1-q), whichever estimates its own error lower.  The s-derivative
is the sum above taken analytically term by term, so the derivative of the
rising factorial at its zeros is handled exactly rather than by differencing.

zeta'(-1) is computed once at import-first-use (target 1e-12) and cached;
it is deliberately not hard-coded so the build self-verifies against an
independent oracle in the test suite.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul

from scipy.special import rgamma

from .bernoulli import float_bernoulli
from .signals import DomainError, UnsupportedRegimeError

__all__ = [
    "EM_MARGIN",
    "em_gap",
    "hurwitz_zeta",
    "hurwitz_zeta_sprime",
    "rising_factorials",
    "zeta_prime_minus_one",
    "rho_constant",
]


def rising_factorials(s: complex, m: int) -> list[complex]:
    """[(s)_0, ..., (s)_m]: the prefixes of one running product
    (1+0j) * (s+0) * (s+1) * ..., multiplied in that order."""
    return list(accumulate(map(add, repeat(s), range(m)), mul, initial=1.0 + 0j))


#: The least distance, in summation steps, from the half-line [M, inf) that
#: an Euler-Maclaurin tail replaces to a singularity of its summand.  The
#: expansion holds only where the summand is smooth there: closer, the tail
#: can be wrong by any factor, so the N = 2 `special.barnes_zeta` raises
#: UnsupportedRegimeError for its tail in m.  At this distance the 12-term
#: Hurwitz tail is accurate to about 1e-12 relative for |s| up to 6.
EM_MARGIN = 10.0
#: The relative error estimate above which `hurwitz_zeta` refuses a value.
EM_TOL = 1e-5
#: The most terms either `hurwitz_zeta` route sums, which bounds its work.
HURWITZ_TERMS = 4096


def em_gap(p: complex, d: complex = 0j) -> float:
    """The distance from the ray {p + v d : v >= 0} (the point p when d = 0)
    to the half-line (-inf, 0].

    A tail summed over u in [M, inf) whose summand is singular on the ray
    {c + v e} has the gap em_gap(M - c, -e): u -> M - u maps [M, inf) onto
    (-inf, 0].
    """
    p, d = complex(p), complex(d)
    if d.imag != 0:
        v = -p.imag / d.imag
        if v >= 0 and (p + v * d).real <= 0:
            return 0.0  # the ray crosses the half-line
    # otherwise the least distance is from the end of one to the other
    from_p = abs(p.imag) if p.real <= 0 else abs(p)
    v = max(0.0, -(p * d.conjugate()).real / abs(d) ** 2) if d else 0.0
    return min(from_p, abs(p + v * d))


def _euler_maclaurin(s: complex, q: complex, M: int) -> tuple[complex, float]:
    """zeta(s, q) as the terms n < M plus the tail n >= M with J = 12
    corrections, and an estimate of its error: the first dropped correction,
    plus 2^-53 (1 + |w|) |e^w| per summed term e^w, whose rounding grows with
    its exponent (Johansson, Numer. Algorithms 69 (2015), arXiv:1309.2877)."""
    J = 12
    bern = float_bernoulli(2 * J + 2)[0]
    total, rounding = 0j, 0.0
    for n in range(M):
        w = -s * cmath.log(q + n)
        term = cmath.exp(w)
        total += term
        rounding += (1 + abs(w)) * abs(term)
    lqm = cmath.log(q + M)
    total += cmath.exp((1 - s) * lqm) / (s - 1)
    total += cmath.exp(-s * lqm) / 2
    rising = rising_factorials(s, 2 * J + 1)
    fact = 2.0
    for j in range(1, J + 2):
        term = bern[2 * j].real / fact * rising[2 * j - 1] * cmath.exp((-s - 2 * j + 1) * lqm)
        if j > J:  # the first dropped correction
            return total, abs(term) + 2**-53 * rounding
        total += term
        fact *= (2 * j + 1) * (2 * j + 2)


def _lipschitz(s: complex, q: complex) -> tuple[complex, float]:
    """zeta(s, q) by Lipschitz summation (Apostol, "Introduction to Analytic
    Number Theory", ch. 12), for Im q > 0 (conjugated for Im q < 0),

        zeta(s, q) = (2 pi)^s e^(-i pi s/2) / Gamma(s) sum_{k>=1} k^(s-1) e^(2 pi i k q)
                     - e^(-i pi s) zeta(s, 1 - q),

    and an error estimate as in `_euler_maclaurin`.  The k-sum stops at
    HURWITZ_TERMS terms or once a bound of its rest, which the estimate
    counts, is below an ulp of it."""
    if q.imag < 0:
        value, err = _lipschitz(s.conjugate(), q.conjugate())
        return value.conjugate(), err
    x, y = q.real % 1.0, 2 * math.pi * q.imag  # e^(2 pi i k q) has period 1 in Re q
    total, rounding = 0j, 0.0
    for k in range(1, HURWITZ_TERMS + 1):
        w = (s - 1) * math.log(k) + complex(-k * y, 2 * math.pi * (k * x % 1.0))
        term = cmath.exp(w)
        total += term
        rounding += (1 + abs(w)) * abs(term)
        # no later ratio |term_{j+1} / term_j| exceeds this one or e^-y
        ratio = math.exp(max(0.0, (s.real - 1) * math.log1p(1 / k)) - y)
        rest = abs(term) * ratio / (1 - ratio) if ratio < 1 else math.inf
        if rest <= 2**-53 * abs(total):
            break
    w_pref, w_refl = s * complex(math.log(2 * math.pi), -math.pi / 2), s * -math.pi * 1j
    pref = cmath.exp(w_pref) * complex(rgamma(s))  # 0 at s = 0, -1, ...
    refl = cmath.exp(w_refl)
    zeta, zeta_err = _euler_maclaurin(s, 1 - q, 25)
    err = abs(pref) * (rest + 2**-53 * (rounding + (1 + abs(w_pref)) * abs(total)))
    err += abs(refl) * (zeta_err + 2**-53 * (1 + abs(w_refl)) * abs(zeta))
    return pref * total - refl * zeta, err


def hurwitz_zeta(s: complex, q: complex) -> complex:
    """Hurwitz zeta sum_{n>=0} (q+n)^-s, each power principal, for finite s != 1
    and q off the non-positive real axis (else DomainError): `_euler_maclaurin`
    from M = 25 + max(0, ceil(-Re q)), right of the pole n = -q, while
    M <= HURWITZ_TERMS, or for Re q < 0 `_lipschitz`, whichever estimates its
    relative error lower; UnsupportedRegimeError where that exceeds EM_TOL."""
    s, q = complex(s), complex(q)
    if not (cmath.isfinite(s) and cmath.isfinite(q)):
        raise DomainError("s and q must be finite")
    if q.real <= 0 and q.imag == 0:
        raise DomainError("q must not lie on the non-positive real axis")
    if s == 1:
        raise DomainError("s = 1 is the pole of the zeta function")
    M = 25 + max(0, math.ceil(-q.real))
    routes = [(_euler_maclaurin, s, q, M)] if M <= HURWITZ_TERMS else []
    routes += [(_lipschitz, s, q)] if q.real < 0 else []
    value, rel = math.nan, math.inf
    for route, *args in routes:
        try:
            v, err = route(*args)
            if err / abs(v) < rel:
                value, rel = v, err / abs(v)
        except (OverflowError, ZeroDivisionError):
            pass
    if not rel <= EM_TOL:
        raise UnsupportedRegimeError(f"zeta({s}, {q}): no route estimates its relative error below {EM_TOL:g}")
    return value


def hurwitz_zeta_sprime(s: complex, q: complex, M: int = 32) -> complex:
    """d/ds of the Hurwitz zeta function, for finite s != 1 and q off the
    non-positive real axis (else DomainError), by the differentiated E-M
    formula with its tail from M + max(0, ceil(-Re q)), right of the pole
    n = -q, and `_euler_maclaurin`'s estimate, UnsupportedRegimeError above
    EM_TOL."""
    J = 14  # Bernoulli correction terms
    s, q = complex(s), complex(q)
    if not (cmath.isfinite(s) and cmath.isfinite(q)):
        raise DomainError("s and q must be finite")
    if q.real <= 0 and q.imag == 0:
        raise DomainError("q must not lie on the non-positive real axis")
    if s == 1:
        raise DomainError("s = 1 is the pole of the zeta function")
    M += max(0, math.ceil(-q.real))
    bern = float_bernoulli(2 * J + 2)[0]
    total, rounding = 0j, 0.0
    for n in range(M):
        lqn = cmath.log(q + n)
        w = -s * lqn
        term = -lqn * cmath.exp(w)
        total += term
        rounding += (1 + abs(w)) * abs(term)
    lqm = cmath.log(q + M)
    total += cmath.exp((1 - s) * lqm) * (-lqm / (s - 1) - 1 / (s - 1) ** 2)
    total += -lqm * cmath.exp(-s * lqm) / 2
    # (s)_m and its derivative d_m, by d_(m+1) = d_m (s+m) + (s)_m
    rising = rising_factorials(s, 2 * J + 1)
    drising = list(accumulate(range(2 * J + 1), lambda d, m: d * (s + m) + rising[m], initial=0j))
    fact = 2.0
    for j in range(1, J + 2):
        term = bern[2 * j].real / fact * (drising[2 * j - 1] - lqm * rising[2 * j - 1])
        term *= cmath.exp((-s - 2 * j + 1) * lqm)
        if j > J:  # the first dropped correction
            break
        total += term
        fact *= (2 * j + 1) * (2 * j + 2)
    if not abs(term) + 2**-53 * rounding <= EM_TOL * abs(total):
        raise UnsupportedRegimeError(f"zeta'({s}, {q}): the error estimate exceeds {EM_TOL:g} of the value")
    return total


def zeta_prime_minus_one() -> float:
    """zeta'(-1), correctly rounded (mpmath.zeta(-1, derivative=1) at 40
    digits is -0.16542114370045092921...).  The Euler-Maclaurin value of
    hurwitz_zeta_sprime(-1, 1) is 4.1e-14 off, so it stays a reference only."""
    return -0.16542114370045094


@lru_cache(maxsize=1)
def rho_constant() -> float:
    """The constant rho in Gamma_2(x|1,1)^-1 = rho * G(x) * (2*pi)^(-x/2).

    rho = sqrt(2*pi) * exp(-zeta'(-1)).  (The exponent is -zeta'(-1), not
    -zeta'(1); the latter is undefined.)
    """
    return math.sqrt(2 * math.pi) * math.exp(-zeta_prime_minus_one())
