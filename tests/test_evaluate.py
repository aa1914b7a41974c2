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


@pytest.fixture(scope="module")
def small_workload():
    trains, cands = [], []
    for pid in range(4):
        rng = np.random.default_rng(100 + pid)
        x, y, _ = cdunif.sample(20 + pid * 10, 1200, rng)
        pair = decompose(x, y, "keydep" if pid % 2 else "keyind")
        trains.append(pair.train.assign(pair_id=pid, y=pair.train["y"].astype(float)))
        cands.append(pair.cand.assign(pair_id=pid, x=pair.cand["x"].astype(float)))
    return pd.concat(trains, ignore_index=True), pd.concat(cands, ignore_index=True)


def _eval(pair_id, train, cand):
    return evaluate_pair(
        pair_id, train, cand, n=64,
        methods=("tupsk", "lv2sk"), estimators=(("mixed_ksg", "none"),),
        agg="avg", compute_full=True,
    )


def test_evaluate_pair_emits_full_rows(small_workload):
    train_tall, cand_tall = small_workload
    t0 = train_tall[train_tall["pair_id"] == 0].reset_index(drop=True)
    c0 = cand_tall[cand_tall["pair_id"] == 0].reset_index(drop=True)
    res = _eval(0, t0, c0)
    full = res[res["method"] == "full"]
    assert len(full) == 1
    assert full["join_size"].iloc[0] == len(t0)
    assert np.isnan(full["mi_sketch"].iloc[0])


def test_evaluate_pair_small_join_is_nan():
    """Sketch joins below min_sample yield NaN estimates (filtered or
    zero-filled downstream depending on the table's protocol)."""
    rng = np.random.default_rng(0)
    train = pd.DataFrame({"rid": range(10), "key": [f"t{i}" for i in range(10)], "y": rng.normal(size=10)})
    cand = pd.DataFrame({"rid": range(10), "key": [f"c{i}" for i in range(10)], "x": rng.normal(size=10)})
    res = evaluate_pair(
        0, train, cand, n=8, methods=("tupsk",), estimators=(("mixed_ksg", "none"),),
        compute_full=True,
    )
    sk = res[res["method"] == "tupsk"]
    assert sk["join_size"].iloc[0] == 0  # disjoint key domains
    assert np.isnan(sk["mi_sketch"].iloc[0])


#: The result frame of ``evaluate_pair``: its columns in order, with dtypes.
RESULT_DTYPES = {
    "pair_id": "int64",
    "method": "object",
    "estimator": "object",
    "join_size": "int64",
    "mi_sketch": "float64",
    "mi_full": "float64",
    "full_join_size": "int64",
}


def _disjoint_pair():
    """No key is shared, so every join is empty and every estimate NaN."""
    rng = np.random.default_rng(1)
    train = pd.DataFrame({"rid": range(50), "key": [f"t{i}" for i in range(50)], "y": rng.normal(size=50)})
    cand = pd.DataFrame({"rid": range(50), "key": [f"c{i}" for i in range(50)], "x": rng.normal(size=50)})
    return train, cand


@pytest.mark.parametrize("compute_full", [True, False])
@pytest.mark.parametrize("disjoint", [False, True])
def test_evaluate_pair_result_columns_and_dtypes(pair, compute_full, disjoint):
    train, cand = _disjoint_pair() if disjoint else (pair.train, pair.cand)
    res = evaluate_pair(
        3, train, cand, n=32, methods=("tupsk", "indsk", "csk"),
        estimators=(("mixed_ksg", "none"), ("dc_ksg", "y")), compute_full=compute_full,
    )
    assert list(res.columns) == list(RESULT_DTYPES)
    assert res.dtypes.astype(str).to_dict() == RESULT_DTYPES
    assert len(res) == (4 if compute_full else 3) * 2
    if disjoint:
        assert (res["join_size"] == 0).all()
        assert np.isnan(res[["mi_sketch", "mi_full"]].to_numpy()).all()
    else:
        assert not np.isnan(res.loc[res["method"] != "full", "mi_sketch"]).any()
