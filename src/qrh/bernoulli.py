"""Multiple Bernoulli polynomials B_{N,k}(x | a_1..a_N).

The polynomials are defined by the generating expansion

    t^N e^{x t} / prod_i (e^{a_i t} - 1)  =  sum_k B_{N,k}(x | a) t^k / k!,

for a vector of non-zero complex parameters a.  They reduce to the classical
Bernoulli polynomials for N=1, a=1, and satisfy

    B_{N,k}(x + a_i | a) - B_{N,k}(x | a) = k B_{N-1,k-1}(x | a without a_i),
    B_{N,k}(lam*x | lam*a) = lam^(k-N) B_{N,k}(x | a).

Coefficients are obtained by convolving the per-factor series

    t / (e^{a t} - 1) = sum_k (B_k a^{k-1} / k!) t^k,

with B_k the classical Bernoulli numbers (B_1 = -1/2 convention), which is
exact up to floating error and avoids any symbolic dependency.  Degrees stay
small here (k <= 32 for the package's own two-parameter series, 20 for
log Gamma_2's tail), so double-precision convolution is plenty.

Each convolution step adds, for every output order m, the products s_i f_j
with i + j = m in ascending i, starting from 0j.  It skips the products whose
series entry s_i is zero, and, where every entry is finite, those whose
factor entry f_j is a structural zero (B_j = 0 for odd j >= 3); those products
are zeros, and a sum that starts from 0j is unchanged by a zero, so the values
are bitwise those of the dense double loop.  A step still costs O(order^2):
the two-parameter series of order 20 forms 99 of the dense loop's 162
products (204 of 354 at order 32).

One series is kept per parameter tuple, at the longest order built for it and
never below MIN_ORDER; every lower order reads its prefix (`_SeriesCache`).

The numbers are kept exact (`bernoulli_numbers`), and converted once per
order into one float table (`float_bernoulli`): B_0..B_order and the
factorials 0!..order! built by fact[m] = fact[m-1] * m.  Every floating-point
series reads its operands from that table: the convolutions below, and the
Euler-Maclaurin sums of `constants.hurwitz_zeta` and `special.barnes_zeta`.
A new parameter tuple then converts no Fraction and rebuilds no factorial.
"""

from __future__ import annotations

import cmath
from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb
from operator import mul

from .signals import DomainError, UnsupportedRegimeError

__all__ = [
    "bernoulli_numbers",
    "float_bernoulli",
    "multi_bernoulli",
    "multi_bernoulli_coeffs",
    "multi_bernoulli_zero_series",
    "classical_bernoulli",
]

MAX_N = 4
#: The least order of the one series kept per parameter tuple: that of
#: log Gamma_2's tail coefficients, special.MAX_TAIL_TERMS + 2.  Every order up
#: to it reads that one series; each convolution step costs O(order^2).
MIN_ORDER = 20
#: Parameter tuples whose series are kept, the least recently used dropped.
SERIES_CACHE_SIZE = 1024
#: The highest order k whose k! is a finite float; above it B_{N,k} is not.
MAX_ORDER = 170


@lru_cache(maxsize=None)
def _bernoulli_numbers_cached(n: int) -> tuple[Fraction, ...]:
    # Akiyama-Tanigawa, then flip B_1 to the -1/2 ("first") convention used
    # by the generating function t/(e^t - 1).
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return tuple(out)


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Classical Bernoulli numbers B_0..B_n (B_1 = -1/2) as exact Fractions."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return list(_bernoulli_numbers_cached(n))


@lru_cache(maxsize=None)
def float_bernoulli(order: int) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """(B_0..B_order as complex, 0!..order! as floats), built once per order.

    The numbers are complex because the convolution multiplies them by
    complex powers; complex(B_m) is float(B_m) with a zero imaginary part, so
    the real-valued sums read `.real`.
    """
    bern = tuple(complex(b) for b in _bernoulli_numbers_cached(order))
    fact = [1.0] * (order + 1)
    for m in range(1, order + 1):
        fact[m] = fact[m - 1] * m
    return bern, tuple(fact)


@lru_cache(maxsize=None)
def _live_columns(order: int) -> tuple[tuple[int, ...], ...]:
    """Per row i, the factor orders j <= order - i that are not structural
    zeros (B_j = 0 for odd j >= 3)."""
    live = [j for j in range(order + 1) if j < 3 or j % 2 == 0]
    return tuple(tuple(j for j in live if j <= order - i) for i in range(order + 1))


def _convolve(a: tuple[complex, ...], order: int) -> tuple[complex, ...]:
    """Coefficients g_m = [t^m] of t^N / prod(e^{a_i t} - 1), m = 0..order.

    B_{N,m}(0 | a) = m! * g_m.  Every factor entry is evaluated, so a power
    a_i^(m-1) that overflows raises OverflowError at any m, odd ones included.
    The products with a structural-zero factor entry are skipped only where
    every entry is finite (see the module docstring); otherwise every product
    of a non-zero series entry is kept, since 0 * inf is NaN.
    """
    bern, fact = float_bernoulli(order)
    series = [complex(1)] + [complex(0)] * order
    for ai in a:
        factor = [bern[m] * ai ** (m - 1) / fact[m] for m in range(order + 1)]
        if all(map(cmath.isfinite, series)) and all(map(cmath.isfinite, factor)):
            columns = _live_columns(order)
        else:
            columns = [range(order + 1 - i) for i in range(order + 1)]
        new = [complex(0)] * (order + 1)
        for i in compress(range(order + 1), series):  # the non-zero entries
            si = series[i]
            for j in columns[i]:
                new[i + j] += si * factor[j]
        series = new
    return tuple(series)


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _SeriesCache:
    """At least g_0..g_order of `_convolve(a, .)`: one series per parameter
    tuple a, at the longest order built for it and never below MIN_ORDER.

    The coefficients of a lower order are exactly a prefix of a higher
    order's (the convolution adds the same products in the same order), so
    every lower order reads that series bit for bit.  Where the MIN_ORDER
    series overflows (a parameter whose (MIN_ORDER - 1)-th power does), the
    order asked for is built instead.  `cache_info()` counts as functools'
    caches do, a miss being a lookup that convolves; `__wrapped__` is
    `_convolve`.
    """

    def __init__(self, convolve, maxsize: int):
        self.__wrapped__ = convolve
        self.maxsize = maxsize
        self._store: OrderedDict = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, a: tuple[complex, ...], order: int) -> tuple[complex, ...]:
        store = self._store
        series = store.get(a, ())
        if len(series) > order:
            self.hits += 1
            store.move_to_end(a)
            return series
        self.misses += 1
        try:
            series = self.__wrapped__(a, max(order, MIN_ORDER))
        except OverflowError:
            if order >= MIN_ORDER:
                raise
            series = self.__wrapped__(a, order)
        store[a] = series
        store.move_to_end(a)
        if len(store) > self.maxsize:
            store.popitem(last=False)
        return series

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._store))

    def cache_clear(self) -> None:
        self._store.clear()
        self.hits = self.misses = 0


_zero_value_series = _SeriesCache(_convolve, SERIES_CACHE_SIZE)


def _validate(N: int, k: int, a: tuple[complex, ...]) -> None:
    if N < 1:
        raise DomainError("N must be >= 1")
    if N > MAX_N:
        raise UnsupportedRegimeError(f"N > {MAX_N} is not supported")
    if k < 0:
        raise DomainError("k must be >= 0")
    if k > MAX_ORDER:
        raise UnsupportedRegimeError(f"order k > {MAX_ORDER} is not supported ({k}! overflows)")
    if len(a) != N:
        raise DomainError(f"expected {N} parameters, got {len(a)}")
    if 0 in a:
        raise DomainError("parameters a_i must be non-zero")


def multi_bernoulli_zero_series(N: int, a, order: int) -> list[complex]:
    """[B_{N,0}(0|a), ..., B_{N,order}(0|a)] in one convolution pass."""
    a = tuple(map(complex, a))
    _validate(N, order, a)
    return list(map(mul, _zero_value_series(a, order), float_bernoulli(order)[1]))


def multi_bernoulli_coeffs(N: int, k: int, a) -> list[complex]:
    """Monomial coefficients c_0..c_k with B_{N,k}(x | a) = sum_j c_j x^j.

    Appell-type structure: c_j = binom(k, j) * B_{N,k-j}(0 | a).
    """
    a = tuple(map(complex, a))
    _validate(N, k, a)
    # entry j: comb(k, j) * series[k - j] * fact[k - j]
    products = map(mul, _comb_row(k), _zero_value_series(a, k)[k::-1])
    return list(map(mul, products, float_bernoulli(k)[1][::-1]))


@lru_cache(maxsize=None)
def _comb_row(k: int) -> tuple[int, ...]:
    """comb(k, 0), ..., comb(k, k)."""
    return tuple(comb(k, j) for j in range(k + 1))


def multi_bernoulli(N: int, k: int, x, a) -> complex:
    """Evaluate B_{N,k}(x | a_1..a_N).

    Horner evaluation from the highest degree down; accuracy degrades for
    |x| beyond ~1e6 as documented.
    """
    coeffs = multi_bernoulli_coeffs(N, k, a)
    x = complex(x)
    acc = complex(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def classical_bernoulli(k: int, x) -> complex:
    """Classical Bernoulli polynomial B_k(x) = B_{1,k}(x | 1)."""
    return multi_bernoulli(1, k, x, (1.0,))
