"""Zeta-function machinery and cached numerical constants.

The Hurwitz zeta function and its s-derivative are evaluated by
Euler-Maclaurin summation,

    zeta_H(s,q) = sum_{n<M} (q+n)^-s + (q+M)^(1-s)/(s-1) + (q+M)^-s / 2
                  + sum_{j<=J} B_{2j}/(2j)! * (s)_{2j-1} * (q+M)^(-s-2j+1),

with (s)_m the rising factorial.  The s-derivative is taken analytically
term by term, so the derivative of the rising factorial at its zeros is
handled exactly rather than by differencing.

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

from scipy.special import loggamma

from .bernoulli import float_bernoulli
from .signals import DomainError, UnsupportedRegimeError

__all__ = [
    "EM_MARGIN",
    "em_gap",
    "em_margin",
    "far_tail_error",
    "hurwitz_zeta",
    "hurwitz_zeta_sprime",
    "rising_factorials",
    "zeta_prime_minus_one",
    "rho_constant",
]


def _rising_with_deriv(s: complex, m: int) -> tuple[complex, complex]:
    """Rising factorial (s)_m = s(s+1)...(s+m-1) and its derivative in s."""
    if m == 0:
        return 1.0 + 0j, 0.0 + 0j
    factors = [s + i for i in range(m)]
    prefix = [1.0 + 0j] * (m + 1)
    for i in range(m):
        prefix[i + 1] = prefix[i] * factors[i]
    suffix = [1.0 + 0j] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] * factors[i]
    deriv = sum(prefix[i] * suffix[i + 1] for i in range(m))
    return prefix[m], deriv


def rising_factorials(s: complex, m: int) -> list[complex]:
    """[(s)_0, ..., (s)_m]: the prefixes of one running product
    (1+0j) * (s+0) * (s+1) * ..., multiplied in `_rising_with_deriv`'s order,
    so each is bitwise its rising factorial."""
    return list(accumulate(map(add, repeat(s), range(m)), mul, initial=1.0 + 0j))


#: The least distance, in summation steps, from the half-line [M, inf) that
#: an Euler-Maclaurin tail replaces to a singularity of its summand.  The
#: expansion holds only where the summand is smooth there: closer, the tail
#: can be wrong by any factor, so `hurwitz_zeta` and the N = 2
#: `special.barnes_zeta` raise UnsupportedRegimeError.  At this distance the
#: 12-term Hurwitz tail is accurate to about 1e-12 relative for |s| up to 6.
EM_MARGIN = 10.0
#: The Hurwitz tail's error grows with |s| through the rising factorials, so
#: `hurwitz_zeta` asks for the gap em_margin(s) = max(EM_MARGIN,
#: EM_SCALE * (|s| + |Im s| / 3) ** EM_POWER).  Fitted to a 90-digit mpmath
#: sweep over the points at gap g around the pole (q + 25 on the arc
#: |q + 25| = g right of the cut, and q + 25 = -t +- g i, t <= 80): the least
#: g from which the worst relative error stays below 1e-5 is
#: 6.8, 9.8, 11.1, 13.7, 15.5, 19.3 and 24.4 at s = 6, 10, 12, 16, 19, 26
#: and 36, and 12.2, 17.0 at s = 12+4i, 19+6i.
EM_SCALE = 1.9
EM_POWER = 0.713


def em_margin(s: complex) -> float:
    """The least gap `hurwitz_zeta` accepts at s (see EM_SCALE)."""
    s = complex(s)
    return max(EM_MARGIN, EM_SCALE * (abs(s) + abs(s.imag) / 3) ** EM_POWER)


#: The relative error the Hurwitz tail may carry: em_margin's fit and the
#: far-tail rule of `far_tail_error` both refuse beyond it.
EM_TOL = 1e-5


def far_tail_error(s: complex, q: complex) -> float:
    """The log of the predicted relative error of `hurwitz_zeta`'s tail
    n >= M = 25 when it passes the pole n = -q from afar (Re(q + M) <= 0).

    The tail's expansion misses the pole's exponentially small term, about
    (2 pi)^s e^(-2 pi gap) / Gamma(s) with gap = |Im q|, while the value
    itself is about q^(1-s) / (s - 1); so the relative error is about

        2 pi (2 pi |q|)^(Re s - 1) e^(-2 pi gap - sign(Im q) pi Im s / 2) / |Gamma(s - 1)|,

    which grows along the tail at a fixed gap.  Against 60-digit mpmath sums
    at s = 6, 12, 19, 26, 12+4i and 19+6i, Re(q + 25) from -160 to -2560,
    the measured error is 0.55-1.35 times every prediction above 1e-9 (below
    it, the tail's truncation error can dominate).  At a pole of
    Gamma(s - 1) the log is nan, which compares false: 1/Gamma vanishes.
    """
    return (
        math.log(2 * math.pi)
        + (s.real - 1) * math.log(2 * math.pi * abs(q))
        - 2 * math.pi * abs(q.imag)
        - math.copysign(math.pi / 2, q.imag) * s.imag
        - loggamma(s - 1).real
    )


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


def hurwitz_zeta(s: complex, q: complex) -> complex:
    """Hurwitz zeta sum_{n>=0} (q+n)^-s by Euler-Maclaurin from n = M = 25.

    Requires s != 1 and q off the non-positive real axis (DomainError), and
    q + n at least em_margin(s) from 0 for every real n >= M, so that the
    tail's expansion point is far from the pole at n = -q, and, when
    Re(q + M) <= 0, a far_tail_error at most EM_TOL
    (UnsupportedRegimeError); Re(q) > 0 (a gap of at least 25) passes while
    |s| + |Im s| / 3 <= 37.  Each power is principal.  Accurate to ~1e-13
    relative for moderate |s| and Re(q) > 0, any Re(s) > -2J = -24; large
    |Im s| and Re(s) < 0 lose digits to cancellation that neither rule reads.
    """
    M, J = 25, 12
    s = complex(s)
    q = complex(q)
    if q.real <= 0 and q.imag == 0:
        raise DomainError("q must not lie on the non-positive real axis")
    if s == 1:
        raise DomainError("s = 1 is the pole of the zeta function")
    margin = em_margin(s)
    if em_gap(q + M) < margin:
        raise UnsupportedRegimeError(
            f"q = {q} puts the pole of (q+n)^-s within {margin:.3g} of the "
            f"Euler-Maclaurin tail n >= {M} (s = {s})"
        )
    if q.real + M <= 0 and far_tail_error(s, q) > math.log(EM_TOL):
        raise UnsupportedRegimeError(
            f"q = {q}: the Euler-Maclaurin tail n >= {M} passes the pole of "
            f"(q+n)^-s too far down for s = {s} (relative error above {EM_TOL:g})"
        )
    bern = float_bernoulli(2 * J)[0]
    total = 0j
    for n in range(M):
        total += cmath.exp(-s * cmath.log(q + n))
    qm = q + M
    lqm = cmath.log(qm)
    total += cmath.exp((1 - s) * lqm) / (s - 1)
    total += cmath.exp(-s * lqm) / 2
    rising = rising_factorials(s, 2 * J - 1)
    fact = 2.0
    for j in range(1, J + 1):
        total += bern[2 * j].real / fact * rising[2 * j - 1] * cmath.exp((-s - 2 * j + 1) * lqm)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def hurwitz_zeta_sprime(s: complex, q: complex, M: int = 32) -> complex:
    """d/ds of the Hurwitz zeta function, by the differentiated E-M formula."""
    J = 14  # Bernoulli correction terms
    s = complex(s)
    q = complex(q)
    if q.real <= 0 and q.imag == 0:
        raise DomainError("q must not lie on the non-positive real axis")
    if s == 1:
        raise DomainError("s = 1 is the pole of the zeta function")
    bern = float_bernoulli(2 * J)[0]
    total = 0j
    for n in range(M):
        lqn = cmath.log(q + n)
        total += -lqn * cmath.exp(-s * lqn)
    qm = q + M
    lqm = cmath.log(qm)
    total += cmath.exp((1 - s) * lqm) * (-lqm / (s - 1) - 1 / (s - 1) ** 2)
    total += -lqm * cmath.exp(-s * lqm) / 2
    fact = 2.0
    for j in range(1, J + 1):
        rising, drising = _rising_with_deriv(s, 2 * j - 1)
        total += (
            bern[2 * j].real
            / fact
            * (drising - lqm * rising)
            * cmath.exp((-s - 2 * j + 1) * lqm)
        )
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


@lru_cache(maxsize=1)
def zeta_prime_minus_one() -> float:
    """zeta'(-1), computed by Euler-Maclaurin summation of zeta'(s) at s=-1."""
    # modest M keeps the alternating-size cancellation (~M^2 log M) small;
    # the Euler-Maclaurin remainder at this (M, J) is far below 1e-13
    val = hurwitz_zeta_sprime(-1.0, 1.0, M=20)
    return val.real


@lru_cache(maxsize=1)
def rho_constant() -> float:
    """The constant rho in Gamma_2(x|1,1)^-1 = rho * G(x) * (2*pi)^(-x/2).

    rho = sqrt(2*pi) * exp(-zeta'(-1)).  (The exponent is -zeta'(-1), not
    -zeta'(1); the latter is undefined.)
    """
    return math.sqrt(2 * math.pi) * math.exp(-zeta_prime_minus_one())
