"""Tests for the cogrouped pair-evaluation harness."""
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import evaluate_pair
from repro.core.sweep import run_pair_evaluations
from repro.synthgen import cdunif, decompose


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


def test_sweep_matches_direct_evaluation(spark, small_workload):
    """The distributed cogrouped run must agree exactly with calling
    evaluate_pair on each pair locally (determinism across engines)."""
    train_tall, cand_tall = small_workload
    got = run_pair_evaluations(spark, train_tall, cand_tall, _eval)
    expected = pd.concat(
        [
            _eval(
                pid,
                train_tall[train_tall["pair_id"] == pid].drop(columns="pair_id").reset_index(drop=True),
                cand_tall[cand_tall["pair_id"] == pid].drop(columns="pair_id").reset_index(drop=True),
            )
            for pid in sorted(train_tall["pair_id"].unique())
        ],
        ignore_index=True,
    )
    key = ["pair_id", "method", "estimator"]
    got = got.sort_values(key).reset_index(drop=True)
    expected = expected.sort_values(key).reset_index(drop=True)
    assert got["join_size"].tolist() == expected["join_size"].tolist()
    np.testing.assert_allclose(
        got["mi_sketch"].astype(float), expected["mi_sketch"].astype(float), rtol=1e-9
    )
    np.testing.assert_allclose(
        got["mi_full"].astype(float), expected["mi_full"].astype(float), rtol=1e-9
    )


def test_sweep_covers_all_pairs(spark, small_workload):
    train_tall, cand_tall = small_workload
    got = run_pair_evaluations(spark, train_tall, cand_tall, _eval)
    assert set(got["pair_id"]) == set(train_tall["pair_id"].unique())
    assert got["pair_id"].is_monotonic_increasing  # independent of task scheduling
    # 2 sketch methods + 1 "full" row, x 1 estimator, per pair
    assert len(got) == 4 * 3


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
