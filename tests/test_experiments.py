"""End-to-end tests of the experiment harnesses at reduced scale."""
import os

import numpy as np
import pandas as pd
import pytest

from repro.experiments import fulljoin_accuracy, table1, table2, timing

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")


@pytest.fixture(scope="module")
def tiny_workload():
    """A shrunken Table I workload: 2k rows, fewer trials."""
    return table1.build_workload(n_rows=2_000, trials_per_config=1, cdunif_draws=2, seed=7)


@pytest.fixture(scope="module")
def table1_raw(tiny_workload):
    return table1.run(tiny_workload, n=128)


@pytest.fixture(scope="module")
def table2_raw():
    return table2.run("nyc", n_pairs=6, n=512, seed=3)


def test_build_workload_metadata(tiny_workload):
    wl = tiny_workload
    n_pairs = len(table1.TRINOMIAL_MS) * 2 * 1 + 2 * 2
    assert len(wl.meta) == n_pairs
    assert set(wl.meta["dataset"]) == {"trinomial", "cdunif"}
    assert set(wl.meta["keygen"]) == {"keyind", "keydep"}
    assert (wl.meta["true_mi"] >= 0).all()
    assert len(wl.pairs) == len(wl.meta)
    assert wl.meta["pair_id"].tolist() == list(range(n_pairs))


def test_build_workload_deterministic():
    a = table1.build_workload(n_rows=300, trials_per_config=1, cdunif_draws=1, seed=5)
    b = table1.build_workload(n_rows=300, trials_per_config=1, cdunif_draws=1, seed=5)
    pd.testing.assert_frame_equal(a.meta, b.meta)
    assert len(a.pairs) == len(b.pairs)
    for pa, pb in zip(a.pairs, b.pairs):
        pd.testing.assert_frame_equal(pa.train, pb.train)
        pd.testing.assert_frame_equal(pa.cand, pb.cand)


def test_table1_run_and_summarize(table1_raw):
    raw = table1_raw
    assert set(raw["method"]) == set(table1.METHODS)
    summary = table1.summarize(raw, n=128)
    assert set(summary.columns) == {"dataset", "method", "avg_sketch_join_size", "pct_of_n", "mse"}
    assert len(summary) == 2 * len(table1.METHODS)
    assert (summary["avg_sketch_join_size"] <= 2 * 128).all()
    assert (summary["mse"] >= 0).all()
    # Coordinated sketches must recover larger joins than INDSK.
    piv = summary[summary["dataset"] == "cdunif"].set_index("method")["avg_sketch_join_size"]
    assert piv["tupsk"] > piv["indsk"]


def test_table1_mse_order():
    """Headline shape of Table I at N = 10k: TUPSK beats the two-level
    baselines, which beat the uncoordinated baseline, in mean MSE."""
    wl = table1.build_workload(n_rows=10_000, trials_per_config=1, cdunif_draws=4, seed=11)
    summary = table1.summarize(table1.run(wl))
    piv = summary.pivot(index="method", columns="dataset", values="mse")
    assert piv.loc["tupsk"].mean() <= piv.loc["lv2sk"].mean()
    assert piv.loc["lv2sk"].mean() <= piv.loc["indsk"].mean()


def test_fulljoin_accuracy_tracks_true_mi(tiny_workload):
    raw = fulljoin_accuracy.run(tiny_workload)
    summary = fulljoin_accuracy.summarize(raw)
    assert (summary["n_pairs"] > 0).all()
    # At N=2k the full-join estimates already track the true MI tightly.
    assert (summary["rmse"] < 0.5).all()
    assert (summary["pearson_r"] > 0.9).all()


def test_table2_run_and_summarize(table2_raw):
    raw = table2_raw
    assert set(raw["collection"]) == {"nyc"}
    sk = raw[raw["method"] != "full"]
    assert set(sk["method"]) == set(table2.METHODS)
    summary = table2.summarize(raw, min_join=50)
    assert set(summary.columns) == {
        "collection", "method", "n_estimates", "avg_join_size", "spearman_r", "mse"
    }
    assert (summary["mse"] >= 0).all()
    assert summary["spearman_r"].between(-1, 1).all()


def _assert_pinned(raw: pd.DataFrame, pin: str, root: str = PINS) -> None:
    """``raw`` holds the rows of ``<root>/<pin>`` (default ``tests/pins/``),
    computed as the published results were: keys and join sizes exactly,
    estimates to rel 1e-12. A change to any generator, sketch or estimator
    shows here rather than in ``results/`` alone."""
    want = pd.read_csv(os.path.join(root, pin), float_precision="round_trip")
    exact = ["pair_id", "method", "estimator", "join_size"]
    assert raw[exact].values.tolist() == want[exact].values.tolist()
    for col in ("mi_sketch", "mi_full"):
        np.testing.assert_allclose(raw[col].to_numpy(float), want[col].to_numpy(float), rtol=1e-12, atol=0)


def test_table1_tiny_rows_are_pinned(table1_raw):
    _assert_pinned(table1_raw, "table1_tiny_raw.csv")


def test_table2_tiny_rows_are_pinned(table2_raw):
    _assert_pinned(table2_raw, "table2_tiny_raw.csv")


def test_table2_tupsk_rank_aligns_with_full_join():
    """On a reduced NYC-like collection, TUPSK estimates rank-align with
    the full-join estimates."""
    summary = table2.summarize(table2.run("nyc", n_pairs=24, n=1024, seed=1))
    tupsk = summary[summary["method"] == "tupsk"].iloc[0]
    assert tupsk["spearman_r"] > 0.5


def test_timing_measure_shape():
    df = timing.measure(n_values=(500, 1000), n=64)
    assert df["N"].tolist() == [500, 1000]
    assert (df["full_join_size"] == df["N"]).all()
    for col in ("full_join_ms", "sketch_join_ms", "full_mi_ms", "sketch_mi_ms"):
        assert (df[col] > 0).all()
    # The headline claim of Section V-D: sketch ops are much cheaper
    # than the full path, and full-MI cost grows with N.
    assert (df["sketch_mi_ms"] < df["full_mi_ms"]).all()


def test_timing_dataset_is_keydep():
    pair = timing.make_dataset(1000)
    assert pair.keygen == "keydep"
    assert len(pair.train) == 1000
