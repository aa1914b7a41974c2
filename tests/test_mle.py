"""Tests for the plug-in (MLE) entropy and MI estimators."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi import entropy_mle, mi_mle


def test_entropy_uniform():
    x = np.repeat(np.arange(8), 100)
    assert entropy_mle(x) == pytest.approx(math.log(8), rel=1e-12)


def test_entropy_constant_is_zero():
    assert entropy_mle(np.zeros(100)) == 0.0


def test_entropy_known_distribution():
    # p = [0.5, 0.25, 0.25] -> H = 1.5 bits = 1.5*ln2 nats
    x = np.array([0] * 50 + [1] * 25 + [2] * 25)
    assert entropy_mle(x) == pytest.approx(1.5 * math.log(2), rel=1e-12)


def test_entropy_paper_extreme_example():
    # Section IV-B: Y = [0 x5, 1..95] with N=100 -> H ~= 4.5247 nats
    y = np.concatenate([np.zeros(5), np.arange(1, 96)])
    assert entropy_mle(y) == pytest.approx(4.5247, abs=1e-3)


def test_entropy_string_values():
    x = np.array(["a", "a", "b", "b"], object)
    assert entropy_mle(x) == pytest.approx(math.log(2))


def test_mi_identical_equals_entropy():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 5, 1000)
    assert mi_mle(x, x) == pytest.approx(entropy_mle(x), rel=1e-12)


def test_mi_independent_near_zero():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 3, 50_000)
    y = rng.integers(0, 3, 50_000)
    assert mi_mle(x, y) < 0.001


def test_mi_symmetric():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 6, 500)
    y = (x + rng.integers(0, 2, 500)) % 6
    assert mi_mle(x, y) == pytest.approx(mi_mle(y, x), rel=1e-12)


def test_mi_bijection_invariant():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 6, 500)
    y = (x + rng.integers(0, 3, 500)) % 6
    assert mi_mle(x, y) == pytest.approx(mi_mle(10 * x + 7, y), rel=1e-12)


def test_mi_mixed_types():
    x = np.array(["u", "v", "u", "v"], object)
    y = np.array([0, 1, 0, 1])
    assert mi_mle(x, y) == pytest.approx(math.log(2))


def test_mi_upward_bias_small_samples():
    """Paper Eq. 6: MLE MI is biased UP by ~ (m_x + m_y - m_xy - 1) / 2N
    on independent data."""
    rng = np.random.default_rng(4)
    m, n = 20, 200
    ests = [
        mi_mle(rng.integers(0, m, n), rng.integers(0, m, n)) for _ in range(200)
    ]
    mean_est = float(np.mean(ests))
    assert mean_est > 0.3  # true MI is 0; bias ~ (m*m - m - m + ...)/2N ~ 0.9
    predicted = (m + m - m * m - 1) / (2 * n)
    # Eq. 6 gives I - E[I_hat] ~ predicted (negative -> overestimate).
    assert 0 - mean_est < predicted * 0.3  # same sign, same order


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        mi_mle(np.arange(3), np.arange(4))


def test_empty_input():
    assert mi_mle(np.array([]), np.array([])) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=10, max_value=200))
def test_mi_nonnegative_and_bounded(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    x = rng.integers(0, m, n)
    y = rng.integers(0, m, n)
    mi = mi_mle(x, y)
    assert 0.0 <= mi <= min(entropy_mle(x), entropy_mle(y)) + 1e-9


def _mi_mle_by_entropies(x, y):
    """mi_mle as H(X) + H(Y) - H(X,Y) with entropy_mle on each code array."""
    cx = pd.factorize(np.asarray(x), use_na_sentinel=False)[0].astype(np.int64)
    cy = pd.factorize(np.asarray(y), use_na_sentinel=False)[0].astype(np.int64)
    joint = cx * (cy.max() + 1) + cy
    return max(0.0, entropy_mle(cx) + entropy_mle(cy) - entropy_mle(joint))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["str", "int", "float"])
def test_mi_mle_equals_entropy_sum_bytes(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    a = rng.integers(0, int(rng.integers(1, 30)), n)
    b = (a + rng.integers(0, 4, n)) % 17
    if kind == "str":
        x, y = a.astype(str).astype(object), np.array([f"v{v}" for v in b], object)
        x[rng.random(n) < 0.1] = None
    elif kind == "int":
        x, y = a * 1_000_003 - 7, b
    else:
        x, y = a / 3.0, np.where(rng.random(n) < 0.1, np.nan, b * 0.5)
    assert np.float64(mi_mle(x, y)).tobytes() == np.float64(_mi_mle_by_entropies(x, y)).tobytes()
