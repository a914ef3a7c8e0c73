import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrh import bernoulli
from qrh.bernoulli import (
    MIN_ORDER,
    bernoulli_numbers,
    classical_bernoulli,
    multi_bernoulli,
    multi_bernoulli_coeffs,
    multi_bernoulli_zero_series,
)
from qrh.signals import DomainError, UnsupportedRegimeError


def test_bernoulli_numbers_first_convention():
    b = bernoulli_numbers(8)
    assert b[0] == 1
    assert b[1] == -0.5
    assert b[2] == pytest.approx(1 / 6)
    assert b[3] == 0
    assert b[4] == pytest.approx(-1 / 30)
    assert b[8] == pytest.approx(-1 / 30)


def test_b11_is_x_over_omega_minus_half():
    for x, om in [(0.7, 2.0), (1 + 2j, 0.5 - 0.3j), (-3.2, 1.0)]:
        assert multi_bernoulli(1, 1, x, (om,)) == pytest.approx(x / om - 0.5)


def test_b12_explicit_formula():
    for x, a in [(0.3, 1.0), (2 - 1j, 0.7 + 0.2j)]:
        assert multi_bernoulli(1, 2, x, (a,)) == pytest.approx(x * x / a - x + a / 6)


def test_b20_and_b21_and_b22():
    w1, w2 = 1.3 - 0.4j, 0.8 + 0.1j
    x = 0.5 + 0.25j
    assert multi_bernoulli(2, 0, x, (w1, w2)) == pytest.approx(1 / (w1 * w2))
    assert multi_bernoulli(2, 1, x, (w1, w2)) == pytest.approx(
        x / (w1 * w2) - (w1 + w2) / (2 * w1 * w2)
    )
    expected = x * x / (w1 * w2) - (1 / w1 + 1 / w2) * x + (w2 / w1 + w1 / w2) / 6 + 0.5
    assert multi_bernoulli(2, 2, x, (w1, w2)) == pytest.approx(expected)


def test_b22_at_zero_is_five_sixths():
    assert multi_bernoulli(2, 2, 0, (1, 1)) == pytest.approx(5 / 6)


def test_classical_bernoulli():
    assert classical_bernoulli(0, 17.3) == 1
    assert classical_bernoulli(1, 0) == pytest.approx(-0.5)
    # substitute into B_{1,2}(x|1) = x^2 - x + 1/6 at x = 1/2
    assert classical_bernoulli(2, 0.5) == pytest.approx(-1 / 12)


def test_coeffs_match_value():
    a = (0.9 + 0.2j, 1.4 - 0.5j)
    coeffs = multi_bernoulli_coeffs(2, 4, a)
    x = 0.3 - 0.7j
    direct = sum(c * x**j for j, c in enumerate(coeffs))
    assert direct == pytest.approx(multi_bernoulli(2, 4, x, a))


small_complex = st.builds(
    complex,
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
param_complex = st.builds(
    complex,
    st.floats(min_value=0.3, max_value=2, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    x=small_complex,
    a=st.lists(param_complex, min_size=2, max_size=3),
    k=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_difference_relation(x, a, k, data):
    n = len(a)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    a = tuple(a)
    lhs = multi_bernoulli(n, k, x + a[i], a) - multi_bernoulli(n, k, x, a)
    rhs = k * multi_bernoulli(n - 1, k - 1, x, a[:i] + a[i + 1 :])
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(
    x=small_complex,
    a=st.lists(param_complex, min_size=1, max_size=3),
    k=st.integers(min_value=0, max_value=6),
    lam=param_complex,
)
def test_homogeneity(x, a, k, lam):
    n = len(a)
    a = tuple(a)
    lhs = multi_bernoulli(n, k, lam * x, tuple(lam * ai for ai in a))
    rhs = lam ** (k - n) * multi_bernoulli(n, k, x, a)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_generating_function_truncation():
    a = (1.1 - 0.2j, 0.8 + 0.3j)
    x = 0.4 + 0.9j
    t = 0.3 * cmath.exp(0.6j)
    kmax = 12
    series = sum(
        multi_bernoulli(2, m, x, a) * t**m / math.factorial(m) for m in range(kmax + 1)
    )
    direct = t * t * cmath.exp(x * t) / ((cmath.exp(a[0] * t) - 1) * (cmath.exp(a[1] * t) - 1))
    bound = 10 * abs(multi_bernoulli(2, kmax + 1, x, a)) * abs(t) ** (kmax + 1) / math.factorial(
        kmax + 1
    )
    assert abs(series - direct) < max(bound, 1e-12)


def test_zero_parameter_rejected():
    with pytest.raises(DomainError):
        multi_bernoulli(2, 2, 0.0, (1.0, 0.0))


def test_large_n_rejected():
    with pytest.raises(UnsupportedRegimeError):
        multi_bernoulli(5, 2, 0.0, (1.0,) * 5)


def test_order_cap_is_where_the_float_factorial_overflows():
    assert math.isfinite(float(math.factorial(bernoulli.MAX_ORDER)))
    with pytest.raises(OverflowError):
        float(math.factorial(bernoulli.MAX_ORDER + 1))
    assert cmath.isfinite(multi_bernoulli(1, bernoulli.MAX_ORDER, 0.5, (1,)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: multi_bernoulli(1, 171, 0.5, (1,)),
        lambda: multi_bernoulli_zero_series(2, (1, 1j), 171),
        lambda: multi_bernoulli_zero_series(2, (1, 1j), 3000),
    ],
    ids=["poly-171", "zero-171", "series-3000"],
)
def test_orders_above_the_cap_rejected_before_exact_arithmetic(call):
    before = bernoulli._bernoulli_numbers_cached.cache_info().currsize
    with pytest.raises(UnsupportedRegimeError):
        call()
    assert bernoulli._bernoulli_numbers_cached.cache_info().currsize == before


def test_zero_value_consistent():
    a = (1.5, 0.5 + 0.5j)
    assert multi_bernoulli_zero_series(2, a, 3)[3] == pytest.approx(multi_bernoulli(2, 3, 0.0, a))


@settings(max_examples=60, deadline=None)
@given(a=st.lists(param_complex, min_size=2, max_size=2), order=st.integers(0, MIN_ORDER))
def test_two_parameter_orders_share_one_series(a, order):
    # an order up to MIN_ORDER reads a prefix of the one series of its tuple,
    # bitwise the series convolved at that order itself
    from qrh.bernoulli import _zero_value_series

    a = tuple(a)
    _zero_value_series.cache_clear()
    direct = _zero_value_series.__wrapped__(a, order)
    shared = _zero_value_series(a, order)
    assert len(shared) == MIN_ORDER + 1
    assert shared[: order + 1] == direct
    fact = [1.0]
    for m in range(1, order + 1):
        fact.append(fact[-1] * m)
    assert multi_bernoulli_coeffs(2, order, a) == [
        math.comb(order, j) * direct[order - j] * fact[order - j] for j in range(order + 1)
    ]


@settings(max_examples=20, deadline=None)
@given(
    a=st.lists(param_complex, min_size=2, max_size=2),
    order=st.integers(MIN_ORDER + 1, MIN_ORDER + 10),
)
def test_two_parameter_orders_above_the_shared_one_are_convolved_alone(a, order):
    # an order above the kept series is convolved at that order, and then
    # kept in its place: a lower order reads it without another convolution
    from qrh.bernoulli import _zero_value_series

    a = tuple(a)
    _zero_value_series.cache_clear()
    assert _zero_value_series(a, MIN_ORDER) == _zero_value_series.__wrapped__(a, MIN_ORDER)
    assert _zero_value_series(a, order) == _zero_value_series.__wrapped__(a, order)
    assert _zero_value_series(a, order - 1) == _zero_value_series.__wrapped__(a, order)
    info = _zero_value_series.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 1)


#: A parameter whose (MIN_ORDER - 1)-th power, the highest the kept series
#: takes, overflows: 1e21**19 = 1e399.
HUGE = 1e21


@pytest.fixture
def convolved_orders(monkeypatch):
    """The orders the series cache convolves at, in call order, raising or
    not, starting from an empty cache."""
    orders = []
    cache = bernoulli._zero_value_series
    convolve = cache.__wrapped__

    def spy(a, order):
        orders.append(order)
        return convolve(a, order)

    cache.cache_clear()
    monkeypatch.setattr(cache, "__wrapped__", spy)
    return orders


def test_shared_series_falls_back_when_it_overflows(convolved_orders):
    # a parameter whose power in the MIN_ORDER series overflows still gets its
    # low orders, from a series convolved at their own order
    assert multi_bernoulli(2, 2, 1.0, (HUGE, 1.0)) == pytest.approx(HUGE / 6 - 0.5)
    assert convolved_orders == [MIN_ORDER, 2]
    # past MIN_ORDER there is no lower order to fall back to
    with pytest.raises(OverflowError):
        multi_bernoulli_zero_series(2, (HUGE, 1.0), MIN_ORDER)
    assert convolved_orders == [MIN_ORDER, 2, MIN_ORDER]


def test_one_series_per_parameter_tuple(convolved_orders):
    # each of these builds exactly one series for its tuple: the
    # gamma2-consistency suite's 30-term second-Stirling sum (top order 32,
    # asked for first), the Gamma_2 record of a pair (MIN_ORDER) and ascending
    # orders up to MIN_ORDER on one tuple
    from qrh import special

    assert MIN_ORDER == special.MAX_TAIL_TERMS + 2
    special.gamma_n_second_stirling(2, 30 + 5j, 0.0, (1.2 + 0.3j, 0.8 - 0.4j), 30)
    assert convolved_orders == [32]
    special._Gamma2Pair(0.9 + 0.1j, 1.3 - 0.2j).coefficients
    assert convolved_orders == [32, MIN_ORDER]
    a = (0.7 + 0.5j, 1.1 + 0.0j)
    for k in range(MIN_ORDER + 1):
        multi_bernoulli(2, k, 0.5, a)
        multi_bernoulli_zero_series(2, a, k)
    assert convolved_orders == [32, MIN_ORDER, MIN_ORDER]


def _reference_factorials(order):
    fact = [1.0] * (order + 1)
    for m in range(1, order + 1):
        fact[m] = fact[m - 1] * m
    return fact


def _reference_zero_value_series(a, order):
    # the convolution as written before the float table: each Bernoulli
    # Fraction converted per term, the factorials rebuilt per call
    bern = bernoulli_numbers(order)
    fact = _reference_factorials(order)
    series = [complex(1)] + [complex(0)] * order
    for ai in a:
        factor = [complex(bern[m]) * ai ** (m - 1) / fact[m] for m in range(order + 1)]
        new = [complex(0)] * (order + 1)
        for i, si in enumerate(series):
            if si == 0:
                continue
            for j in range(order + 1 - i):
                new[i + j] += si * factor[j]
        series = new
    return tuple(series)


def _reference_coeffs(a, k):
    series, fact = _reference_zero_value_series(a, k), _reference_factorials(k)
    return [math.comb(k, j) * series[k - j] * fact[k - j] for j in range(k + 1)]


def _bits(values) -> bytes:
    """The IEEE bytes of complex values: -0.0 and 0.0 differ, and a NaN
    equals only a NaN with the same sign and payload."""
    return b"".join(struct.pack("<dd", z.real, z.imag) for z in values)


def test_float_table_keeps_every_value_bitwise():
    from qrh.bernoulli import _zero_value_series

    rng = np.random.default_rng(20261018)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        order = int(rng.integers(0, 43))
        a = tuple(
            complex(r * math.cos(phi), r * math.sin(phi))
            for r, phi in zip(rng.uniform(0.2, 3.0, n), rng.uniform(-1.5, 1.5, n))
        )
        series = _reference_zero_value_series(a, order)
        assert _bits(_zero_value_series.__wrapped__(a, order)) == _bits(series)
        zeros = [g * f for g, f in zip(series, _reference_factorials(order))]
        assert _bits(multi_bernoulli_zero_series(n, a, order)) == _bits(zeros)
        assert _bits(multi_bernoulli_coeffs(n, order, a)) == _bits(_reference_coeffs(a, order))


def _series_or_overflow(convolve, a, order):
    try:
        return _bits(convolve(a, order))
    except OverflowError:
        return "OverflowError"


def _has_non_finite_factor_entry(a, order):
    bern = bernoulli_numbers(order)
    fact = _reference_factorials(order)
    return any(
        not cmath.isfinite(complex(bern[m]) * ai ** (m - 1) / fact[m])
        for ai in a
        for m in range(order + 1)
    )


#: Parameter moduli from 1e-6 up to 1e10, whose powers from the 31st on
#: overflow.
MODULI = (1e-6, 1e-3, 0.3, 1.0, 2.5, 40.0, 1e4, 1e7, 1e9, 1e10)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_sparse_convolution_is_bitwise_the_dense_one(N):
    # the products with a structural-zero factor entry (B_m = 0 for odd
    # m >= 3) are skipped; against the dense loop, bit for bit, or the same
    # OverflowError, at every modulus and at orders up to MAX_ORDER
    from qrh.bernoulli import MAX_ORDER, _zero_value_series

    rng = np.random.default_rng(1900 + N)
    orders = (0, 1, 2, 3, 4, 7, 20, 32, 33, 64, MAX_ORDER)
    outcomes = set()
    for order in orders:
        for r in MODULI:
            radii = [r] + list(rng.choice(MODULI, N - 1))
            a = tuple(complex(x * math.cos(p), x * math.sin(p))
                      for x, p in zip(radii, rng.uniform(-1.5, 1.5, N)))
            got = _series_or_overflow(_zero_value_series.__wrapped__, a, order)
            assert got == _series_or_overflow(_reference_zero_value_series, a, order)
            outcomes.add(got == "OverflowError")
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "a, order",
    [
        # a_i^(m-1) finite, B_m a_i^(m-1) not: an infinite entry, and in the
        # second factor the products 0 * inf of the structural zeros
        ((1e9 + 0j,), 34),
        ((1e9 + 0j, 0.7 + 0.2j), 34),
        ((0.7 + 0.2j, 1e9 + 0j), 34),
        ((1e9 + 0j, 0.7 + 0.2j, 2 - 1j), 34),
        # a power that is NaN without overflowing: (1e155 + 1e155i)^3
        ((1e155 + 1e155j,), 4),
        ((0.5 + 0.5j, 1e155 + 1e155j), 5),
        ((1e155 + 1e155j, 0.5 + 0.5j, 1.0, 2.0), 6),
    ],
)
def test_non_finite_factor_entries_keep_the_dense_values(a, order):
    from qrh.bernoulli import _zero_value_series

    assert _has_non_finite_factor_entry(a, order)
    got = _zero_value_series.__wrapped__(a, order)
    assert not all(map(cmath.isfinite, got))
    assert _bits(got) == _bits(_reference_zero_value_series(a, order))


def test_overflowing_powers_raise_where_the_dense_loop_does():
    # (2e10)^29 is finite and (2e10)^30 is not, so order 31 overflows only at
    # m = 31, an odd order whose factor entry is a structural zero
    from qrh.bernoulli import _zero_value_series

    a = (2e10 + 0j, 1.0 + 0j)
    for convolve in (_zero_value_series.__wrapped__, _reference_zero_value_series):
        assert len(convolve(a, 30)) == 31
        with pytest.raises(OverflowError):
            convolve(a, 31)


def test_overflow_fallback_keeps_every_value_bitwise(convolved_orders):
    # the MIN_ORDER series overflows, so order 2 is convolved on its own
    acc = 0j
    for c in reversed(_reference_coeffs((HUGE + 0j, 1.0 + 0j), 2)):
        acc = acc * 1.0 + c
    assert multi_bernoulli(2, 2, 1.0, (HUGE, 1.0)) == acc
    assert convolved_orders == [MIN_ORDER, 2]
