"""Tests for the per-pair evaluation logic (core/evaluate.py)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import _jitter, evaluate_pair, full_join_pairs_pandas
from repro.mi import estimate_mi
from repro.synthgen import cdunif, decompose, trinomial


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(44)
    x, y, _ = cdunif.sample(30, 1500, rng)
    return decompose(x, y, "keydep")


def test_prepare_mle_passthrough():
    """Without jitter the sample reaches the estimator as it is."""
    y = np.array(["u", "v"], object)
    assert _jitter(y, "none", np.random.default_rng(0)) is y


def test_prepare_mixed_casts_to_float():
    """The estimators cast their own inputs: int columns give the float
    columns' estimate."""
    rng = np.random.default_rng(3)
    x, y = rng.integers(0, 20, 300), rng.integers(0, 20, 300)
    for est in ("mixed_ksg", "dc_ksg"):
        assert estimate_mi(x, y, est) == estimate_mi(x.astype(float), y.astype(float), est)


def test_prepare_jitter_breaks_ties():
    py = _jitter(np.zeros(100), "y", np.random.default_rng(0))
    assert len(np.unique(py)) == 100
    assert np.abs(py).max() < 0.01  # low-magnitude noise


def test_prepare_jitter_deterministic_per_rng():
    a = _jitter(np.zeros(10), "y", np.random.default_rng(7))
    b = _jitter(np.zeros(10), "y", np.random.default_rng(7))
    assert (a == b).all()


def test_evaluate_pair_rows_per_method_and_estimator(pair):
    res = evaluate_pair(
        5, pair.train, pair.cand, n=64,
        methods=("tupsk", "lv2sk", "csk"),
        estimators=(("mixed_ksg", "none"), ("dc_ksg", "none")),
        compute_full=True,
    )
    assert len(res) == 3 * 2 + 2  # methods x estimators + full rows
    assert (res["pair_id"] == 5).all()
    assert set(res.loc[res["method"] != "full", "method"]) == {"tupsk", "lv2sk", "csk"}


def test_evaluate_pair_full_matches_direct(pair):
    res = evaluate_pair(
        0, pair.train, pair.cand, n=32, methods=("tupsk",),
        estimators=(("mixed_ksg", "none"),), compute_full=True,
    )
    fy, fx = full_join_pairs_pandas(pair.train, pair.cand, "avg")
    expected = estimate_mi(fx.astype(float), fy.astype(float), "mixed_ksg")
    assert res[res["method"] == "full"]["mi_full"].iloc[0] == pytest.approx(expected, rel=1e-9)


def test_evaluate_pair_deterministic(pair):
    kw = dict(n=64, methods=("tupsk", "indsk"), estimators=(("mixed_ksg", "none"),), compute_full=False)
    a = evaluate_pair(1, pair.train, pair.cand, **kw)
    b = evaluate_pair(1, pair.train, pair.cand, **kw)
    pd.testing.assert_frame_equal(a, b)


def test_evaluate_pair_estimator_label_includes_jitter(pair):
    res = evaluate_pair(
        0, pair.train, pair.cand, n=32, methods=("tupsk",),
        estimators=(("dc_ksg", "y"),), compute_full=False,
    )
    assert res["estimator"].iloc[0] == "dc_ksg|y"


def test_full_join_pairs_pandas_drops_unmatched(pair):
    cand = pair.cand[pair.cand["key"] != pair.cand["key"].iloc[0]].reset_index(drop=True)
    fy, fx = full_join_pairs_pandas(pair.train, cand, "avg")
    dropped = (pair.train["key"] == pair.cand["key"].iloc[0]).sum()
    assert len(fy) == len(pair.train) - dropped


def test_sketch_estimates_close_to_full_on_easy_pair():
    """Sanity: on a strongly dependent, small-domain pair the sketch
    estimate approximates the full-join estimate (the paper's central
    claim, qualitatively)."""
    rng = np.random.default_rng(45)
    x, y, _ = cdunif.sample(10, 8000, rng)
    p = decompose(x, y, "keydep")
    res = evaluate_pair(
        0, p.train, p.cand, n=512, methods=("tupsk",),
        estimators=(("mixed_ksg", "none"),), compute_full=True,
    )
    sk = res[res["method"] == "tupsk"].iloc[0]
    assert sk["mi_sketch"] == pytest.approx(sk["mi_full"], abs=0.35)
