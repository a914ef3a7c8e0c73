"""The suites' draw helper `_uniform` gives Generator.uniform's bits from the
same one draw of the stream, and a residual that is not finite fails a suite."""

import math

import numpy as np
import pytest

from qrh import suites
from qrh.suites import SUITES, _uniform, run_suite

#: Bound pairs beside those the suites pass: int bounds, +-pi, intervals
#: below zero and a wide one.
EXTRA_BOUNDS = [(-2, 2), (0, 1), (-math.pi, math.pi), (-2.5, -0.5), (-1e-3, -1e-6), (0.1, 10.0)]


@pytest.fixture(scope="module")
def suite_bounds() -> list:
    """Every (low, high) the suites pass to `_uniform` in a run of each at its
    default sample count, an int bound kept apart from the equal float."""
    seen = {}

    def record(rng, low, high):
        seen[(type(low), low, type(high), high)] = (low, high)
        return real(rng, low, high)

    real = suites._uniform
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "_uniform", record)
        for name in SUITES:
            run_suite(name, seed=3)
    return list(seen.values())


def _assert_bits_and_stream(bounds: list) -> None:
    for low, high in bounds:
        mine, numpy_s = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(500):
            a, b = _uniform(mine, low, high), numpy_s.uniform(low, high)
            assert type(a) is float and a.hex() == b.hex(), (low, high)
        # one draw per value on both sides: the streams stand at the same place
        assert mine.random() == numpy_s.random()


def test_the_recorded_bounds_cover_every_kind_of_draw(suite_bounds):
    # _cplx's arguments, _box's negated half-width and the int pair of reflection
    assert {(0.05, 0.9), (-math.pi, math.pi), (-1.5, 1.5), (0.2, 5.0)} <= set(suite_bounds)
    assert any(type(low) is int and type(high) is int for low, high in suite_bounds)
    assert len(suite_bounds) >= 30


def test_uniform_is_generator_uniform_on_the_suites_bounds(suite_bounds):
    _assert_bits_and_stream(suite_bounds)


def test_uniform_is_generator_uniform_on_more_bounds():
    _assert_bits_and_stream(EXTRA_BOUNDS)


def test_uniform_without_bounds_is_random():
    mine, numpy_s = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(1000):
        assert mine.random().hex() == numpy_s.uniform().hex()


@pytest.mark.parametrize("suite, name", [("f-difference", "f_fn"), ("reflection", "lambda_fn")])
def test_a_suite_whose_identity_is_nan_fails(monkeypatch, suite, name):
    monkeypatch.setattr(suites, name, lambda *args: math.nan)
    report = run_suite(suite, samples=5)
    assert report.samples > 0 and not report.passed
    # the maxima leave the NaN out, so the report stays strict JSON
    assert math.isfinite(report.max_abs_residual) and math.isfinite(report.max_rel_residual)
