"""Tests for the Lanczos gammaln and digamma implementations."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mi import knn
from repro.mi.special import digamma, gammaln
from repro.synthgen import cdunif

EULER_GAMMA = 0.5772156649015329


@pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 55.5, 171.0, 1000.0])
def test_gammaln_matches_math_lgamma(x):
    assert gammaln(x) == pytest.approx(math.lgamma(x), abs=1e-11, rel=1e-12)


def test_gammaln_vectorized_matches_scalar():
    xs = np.linspace(0.05, 300.0, 1000)
    got = gammaln(xs)
    expected = np.array([math.lgamma(v) for v in xs])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-11)


def test_gammaln_factorials():
    # Gamma(n+1) = n!
    for n in range(1, 15):
        assert gammaln(n + 1.0) == pytest.approx(math.log(math.factorial(n)), rel=1e-13)


def test_gammaln_rejects_nonpositive():
    with pytest.raises(ValueError):
        gammaln(0.0)
    with pytest.raises(ValueError):
        gammaln(-1.5)


@pytest.mark.parametrize(
    "x,expected",
    [
        (1.0, -EULER_GAMMA),
        (0.5, -EULER_GAMMA - 2 * math.log(2)),
        (2.0, 1.0 - EULER_GAMMA),
        (3.0, 1.5 - EULER_GAMMA),
        (6.0, 137.0 / 60.0 - EULER_GAMMA),
    ],
)
def test_digamma_known_values(x, expected):
    assert digamma(x) == pytest.approx(expected, abs=5e-13)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=500.0))
def test_digamma_recurrence(x):
    # psi(x + 1) = psi(x) + 1/x
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9, abs=1e-10)


def test_digamma_vectorized_matches_scalar():
    xs = np.linspace(0.2, 100.0, 500)
    got = digamma(xs)
    expected = np.array([digamma(float(v)) for v in xs])
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_digamma_monotone_increasing():
    xs = np.linspace(0.1, 50, 300)
    assert (np.diff(digamma(xs)) > 0).all()


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)


def test_digamma_matches_finite_difference_of_gammaln():
    xs = np.linspace(1.0, 30.0, 50)
    h = 1e-6
    fd = (gammaln(xs + h) - gammaln(xs - h)) / (2 * h)
    np.testing.assert_allclose(digamma(xs), fd, rtol=1e-6)


def _recurrence_digamma(x):
    """Oracle: psi by upward recurrence on every argument below 12, then
    the asymptotic series (the all-recurrence form of ``digamma``)."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(np.float64).copy()
    if (x <= 0).any():
        raise ValueError("digamma requires x > 0")
    result = np.zeros_like(x)
    while True:
        small = x < 12.0
        if not small.any():
            break
        result[small] -= 1.0 / x[small]
        x[small] += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    result += (
        np.log(x)
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
    )
    return float(result[0]) if scalar else result


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_digamma_equals_recurrence_on_every_count_to_2_pow_20(dtype):
    xs = np.arange(1, 2**20 + 1, dtype=dtype)
    _assert_same_bits(digamma(xs), _recurrence_digamma(xs))


@pytest.mark.parametrize(
    "x", [1, 2, 11, 12, 13, 11.0, 12.0, 13.0, 0.5, 11.5, 12.5, 1e-300, 1e300, np.float64(7),
          np.int64(3), np.array(5.0), np.array(11), np.array(0.25), True, np.nan, np.inf]
)
def test_digamma_equals_recurrence_on_scalars(x):
    _assert_same_bits(digamma(x), _recurrence_digamma(x))


@pytest.mark.parametrize("n", [1, 256, 1000, 20_000])
def test_digamma_equals_recurrence_on_mixed_arrays(n):
    rng = np.random.default_rng(n)
    x = np.concatenate([
        rng.integers(1, 40, n).astype(np.float64),  # counts, most below 12
        rng.uniform(0.0, 12.0, n) + 5e-324,  # non-integers below 12
        rng.uniform(12.0, 1e4, n),
        [11.0, 12.0, 13.0, np.nextafter(11.0, 0.0), np.nextafter(12.0, 0.0), np.nan, np.inf],
    ])
    rng.shuffle(x)
    _assert_same_bits(digamma(x), _recurrence_digamma(x))
    below_12 = x[x < 12.0]  # the path that needs no series
    _assert_same_bits(digamma(below_12), _recurrence_digamma(below_12))
    _assert_same_bits(digamma(x.reshape(-1, 1)[:, 0]), _recurrence_digamma(x))
    _assert_same_bits(digamma(np.array([], dtype=np.float64)), _recurrence_digamma(np.array([])))


@pytest.mark.parametrize("x", [0, 0.0, -0.0, -1, -2.5, -np.inf, np.array([3.0, 0.0, 1.5]),
                               np.array([5, -1])])
def test_digamma_rejects_zero_and_negative(x):
    with pytest.raises(ValueError):
        digamma(x)


@st.composite
def _pairs(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.integers(1, 40))
    spread = rng.random(n) < draw(st.floats(0, 1))
    x = rng.integers(0, ties, n) + rng.uniform(0.0, 2.0, n) * spread
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    return x, y, k


def _estimates(x, y, k):
    return [np.float64(f(a, y, k)).tobytes()
            for f, a in ((knn.mi_mixed_ksg, x), (knn.mi_dc_ksg, np.floor(x)))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_pairs())
def test_estimators_equal_with_the_recurrence_digamma(sample):
    got = _estimates(*sample)
    with mock.patch.object(knn, "digamma", _recurrence_digamma):
        assert got == _estimates(*sample)


def test_estimators_equal_with_the_recurrence_digamma_on_cdunif_20k():
    x, y, _ = cdunif.sample(100, 20_000, np.random.default_rng(7))
    got = _estimates(x.astype(np.float64), y, 3)
    with mock.patch.object(knn, "digamma", _recurrence_digamma):
        assert got == _estimates(x.astype(np.float64), y, 3)
