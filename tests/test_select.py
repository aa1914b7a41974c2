"""Tests for estimator routing and the dispatch wrapper."""
import numpy as np
import pytest

from repro.mi import choose_estimator_name, estimate_mi, mi_dc_ksg, mi_mle, mi_mixed_ksg, route


def test_routing_matrix():
    assert choose_estimator_name(True, True) == "mixed_ksg"
    assert choose_estimator_name(False, False) == "mle"
    assert choose_estimator_name(True, False) == "dc_ksg"
    assert choose_estimator_name(False, True) == "dc_ksg"


@pytest.mark.parametrize(
    "x, y, expected",
    [
        (np.array([1.5, 2.0]), np.array([3, 4]), ("mixed_ksg", "avg")),
        (np.array(["a", "b"], object), np.array(["u", "v"], object), ("mle", "mode")),
        (np.array([1, 2], np.uint8), np.array(["u", "v"], object), ("dc_ksg", "avg")),
        (np.array(["a", "b"], object), np.array([3.0, 4.0]), ("dc_ksg", "mode")),
    ],
)
def test_route_matrix(x, y, expected):
    """The estimator follows both types, the AGG the candidate's alone."""
    assert route(x, y) == expected


def test_dispatch_mle():
    x = np.array(["a", "b", "a", "b"], object)
    y = np.array(["u", "v", "u", "v"], object)
    assert estimate_mi(x, y, "mle") == pytest.approx(mi_mle(x, y))


def test_dispatch_mixed_ksg():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=300), rng.normal(size=300)
    assert estimate_mi(x, y, "mixed_ksg") == pytest.approx(mi_mixed_ksg(x, y))


def test_dispatch_dc_ksg_orients_discrete_first():
    rng = np.random.default_rng(1)
    labels = np.array(["a", "b", "c"], object)[rng.integers(0, 3, 500)]
    cont = rng.normal(size=500)
    # (discrete, continuous) and (continuous, discrete) must agree.
    assert estimate_mi(labels, cont, "dc_ksg") == pytest.approx(
        estimate_mi(cont, labels, "dc_ksg")
    )
    assert estimate_mi(labels, cont, "dc_ksg") == pytest.approx(mi_dc_ksg(labels, cont))


def test_dispatch_unknown_estimator():
    with pytest.raises(KeyError):
        estimate_mi(np.zeros(4), np.zeros(4), "nope")


def test_k_parameter_forwarded():
    rng = np.random.default_rng(2)
    x = rng.normal(size=400)
    y = x + rng.normal(scale=0.5, size=400)
    assert estimate_mi(x, y, "mixed_ksg", k=5) == pytest.approx(mi_mixed_ksg(x, y, k=5))
