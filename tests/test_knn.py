"""Tests for the k-NN MI estimators (MixedKSG, DC-KSG).

The ``test_ksg_*`` tests hold the KSG properties (closed form,
symmetry, affine invariance, small samples) for MixedKSG, the KSG-family
estimator numeric pairs are routed to.
"""
import math

import numpy as np
import pytest

from repro.mi import mi_dc_ksg, mi_mixed_ksg, mi_mle
from repro.mi.true_mi import cdunif_true_mi, mi_bivariate_normal


def _gaussian_pair(r, n, seed=0):
    rng = np.random.default_rng(seed)
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    return z1, r * z1 + math.sqrt(1 - r * r) * z2


@pytest.mark.parametrize("r", [0.0, 0.5, 0.8, 0.95])
def test_ksg_gaussian_closed_form(r):
    x, y = _gaussian_pair(r, 4000, seed=int(r * 100))
    assert mi_mixed_ksg(x, y) == pytest.approx(mi_bivariate_normal(r), abs=0.08)


def test_ksg_independent_near_zero():
    x, y = _gaussian_pair(0.0, 3000, seed=9)
    assert mi_mixed_ksg(x, y) < 0.05


def test_ksg_symmetric():
    x, y = _gaussian_pair(0.7, 800, seed=1)
    assert mi_mixed_ksg(x, y) == pytest.approx(mi_mixed_ksg(y, x), abs=1e-10)


def test_ksg_affine_invariant():
    x, y = _gaussian_pair(0.7, 1500, seed=2)
    assert mi_mixed_ksg(3.0 * x + 10.0, -2.0 * y + 5.0) == pytest.approx(
        mi_mixed_ksg(x, y), abs=0.05
    )


def test_ksg_small_sample_returns_zero():
    assert mi_mixed_ksg(np.arange(3.0), np.arange(3.0)) == 0.0


@pytest.mark.parametrize("m", [4, 8, 32])
def test_mixed_ksg_cdunif_closed_form(m):
    rng = np.random.default_rng(m)
    x = rng.integers(0, m, 4000).astype(float)
    y = x + rng.uniform(0, 2, 4000)
    assert mi_mixed_ksg(x, y) == pytest.approx(cdunif_true_mi(m), abs=0.12)


def test_mixed_ksg_recovers_plugin_on_discrete():
    """Gao et al.: on purely discrete data MixedKSG recovers the
    plug-in estimate."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 4, 3000).astype(float)
    y = ((x + rng.integers(0, 2, 3000)) % 4).astype(float)
    assert mi_mixed_ksg(x, y) == pytest.approx(mi_mle(x, y), abs=0.02)


def test_mixed_ksg_gaussian():
    x, y = _gaussian_pair(0.8, 3000, seed=3)
    assert mi_mixed_ksg(x, y) == pytest.approx(mi_bivariate_normal(0.8), abs=0.1)


def test_mixed_ksg_consistency_improves_with_n():
    errs = []
    for n in (250, 8000):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 16, n).astype(float)
        y = x + rng.uniform(0, 2, n)
        errs.append(abs(mi_mixed_ksg(x, y) - cdunif_true_mi(16)))
    assert errs[1] < errs[0]


@pytest.mark.parametrize("m", [4, 16])
def test_dc_ksg_cdunif(m):
    rng = np.random.default_rng(m + 100)
    x = rng.integers(0, m, 4000)
    y = x + rng.uniform(0, 2, 4000)
    assert mi_dc_ksg(x, y) == pytest.approx(cdunif_true_mi(m), abs=0.12)


def test_dc_ksg_independent_near_zero():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 5, 3000)
    y = rng.normal(size=3000)
    assert mi_dc_ksg(x, y) < 0.05


def test_dc_ksg_string_classes():
    rng = np.random.default_rng(7)
    labels = np.array(["low", "mid", "high"], object)
    x = rng.integers(0, 3, 2000)
    y = x * 2.0 + rng.uniform(0, 1, 2000)
    assert mi_dc_ksg(labels[x], y) == pytest.approx(mi_dc_ksg(x, y), abs=1e-9)


def test_dc_ksg_singleton_classes_excluded():
    # every class has one member -> no neighbor information -> 0
    x = np.arange(50)
    y = np.arange(50, dtype=float)
    assert mi_dc_ksg(x, y) == 0.0


def test_estimators_nonnegative():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=500), rng.normal(size=500)
    assert mi_mixed_ksg(x, y) >= 0.0
    assert mi_dc_ksg(rng.integers(0, 3, 500), y) >= 0.0


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        mi_mixed_ksg(np.arange(5.0), np.arange(6.0))
    with pytest.raises(ValueError):
        mi_dc_ksg(np.arange(5), np.arange(6.0))


@pytest.mark.parametrize("where", ["x", "y"])
def test_mixed_ksg_rejects_nan_before_the_search(where):
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=200), rng.normal(size=200)
    (x if where == "x" else y)[17] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        mi_mixed_ksg(x, y)


def test_dc_ksg_rejects_nan_in_the_continuous_variable():
    rng = np.random.default_rng(11)
    y = rng.normal(size=200)
    y[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        mi_dc_ksg(rng.integers(0, 3, 200), y)


def test_mixed_ksg_radius_below_half_an_ulp_keeps_the_point_and_its_ties():
    """rho of the first two points is 1 ulp of 0.3, below half an ulp of
    x = 2, so 2 ± rho rounds back to 2; the x-ball must still hold both
    x-ties (n_x = 2) rather than count below zero."""
    from repro.mi import digamma

    x = [2.0, 2.0, 5.0, 5.0]
    y = [0.3, 0.1 + 0.2, 0.0, 1.0]
    # n_x = 2 at every point; n_y = 1, 1, 3, 3; k = 1 everywhere.
    expected = digamma(1.0) + math.log(4) - digamma(2.0) - (digamma(1.0) + digamma(3.0)) / 2
    assert mi_mixed_ksg(x, y, k=1) == pytest.approx(expected, rel=1e-12)
