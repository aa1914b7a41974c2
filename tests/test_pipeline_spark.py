"""Spark sketch builders must equal the numpy core byte-for-byte."""
import numpy as np
import pandas as pd
import pytest

from repro.core import pipeline
from repro.sketch import METHODS, build_pair
from repro.synthgen import cdunif, decompose


@pytest.fixture(scope="module")
def keydep_pair():
    rng = np.random.default_rng(21)
    x, y, _ = cdunif.sample(60, 2500, rng)
    return decompose(x, y, "keydep")


@pytest.fixture(scope="module")
def keyind_pair():
    rng = np.random.default_rng(22)
    x, y, _ = cdunif.sample(60, 1500, rng)
    return decompose(x, y, "keyind")


def _assert_same(a, b):
    assert len(a) == len(b)
    assert (a.key_hash == b.key_hash).all()
    np.testing.assert_allclose(a.values.astype(float), b.values.astype(float))


@pytest.mark.parametrize("method", list(METHODS))
def test_train_sketch_spark_equals_numpy_keydep(spark, keydep_pair, method):
    pair = keydep_pair
    expected = METHODS[method][0](pair.train["key"].to_numpy(), pair.train["y"].to_numpy(), 64)
    got = pipeline.spark_train_sketch(
        spark.createDataFrame(pair.train), n=64, method=method, val_col="y"
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
def test_train_sketch_spark_equals_numpy_keyind(spark, keyind_pair, method):
    pair = keyind_pair
    expected = METHODS[method][0](pair.train["key"].to_numpy(), pair.train["y"].to_numpy(), 100)
    got = pipeline.spark_train_sketch(
        spark.createDataFrame(pair.train), n=100, method=method, val_col="y"
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("agg", ["avg", "count", "first"])
def test_cand_sketch_spark_equals_numpy(spark, keydep_pair, method, agg):
    pair = keydep_pair
    expected = METHODS[method][1](pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(), 48, agg)
    got = pipeline.spark_cand_sketch(
        spark.createDataFrame(pair.cand), n=48, method=method, agg=agg, val_col="x"
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
def test_end_to_end_estimate_matches_numpy_path(spark, keydep_pair, method):
    from repro.sketch import join_sketches
    from repro.mi import estimate_mi

    pair = keydep_pair
    sy, sx = join_sketches(
        pipeline.spark_train_sketch(spark.createDataFrame(pair.train), n=128, method=method),
        pipeline.spark_cand_sketch(spark.createDataFrame(pair.cand), n=128, method=method),
    )
    res = {"join_size": len(sy), "mi": estimate_mi(sx, sy, "mixed_ksg") if len(sy) > 3 else 0.0}
    st, sc = build_pair(
        method,
        pair.train["key"].to_numpy(), pair.train["y"].to_numpy(),
        pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(),
        128, agg="avg",
    )
    y, x = join_sketches(st, sc)
    expected_mi = estimate_mi(x.astype(float), y.astype(float), "mixed_ksg") if len(y) > 3 else 0.0
    assert res["join_size"] == len(y)
    assert res["mi"] == pytest.approx(expected_mi, rel=1e-9)


@pytest.mark.parametrize("method", list(METHODS))
def test_float_keys_spark_equals_numpy(spark, method):
    """Integral float keys hash as int64 however Spark batches the rows:
    one non-integral key (the last row) changes no other key's hash."""
    rng = np.random.default_rng(23)
    train = pd.DataFrame({
        "rid": np.arange(4000),
        "key": np.append(rng.integers(0, 300, 3999).astype(float), 2.5),
        "y": rng.normal(size=4000),
    })
    expected = METHODS[method][0](train["key"].to_numpy(), train["y"].to_numpy(), 128)
    got = pipeline.spark_train_sketch(spark.createDataFrame(train), n=128, method=method)
    _assert_same(expected, got)


def test_csk_first_value_is_the_first_row_nan_included(spark):
    """CSK keeps each key's first-row value on both sides, NaN included."""
    rng = np.random.default_rng(24)
    keys = rng.integers(0, 40, 600)
    vals = rng.normal(size=600)
    vals[np.unique(keys, return_index=True)[1][::2]] = np.nan  # first rows of half the keys
    table = pd.DataFrame({"rid": np.arange(600), "key": keys, "y": vals, "x": vals})
    train_fn, cand_fn = METHODS["csk"]
    df = spark.createDataFrame(table)
    _assert_same(train_fn(keys, vals, 32), pipeline.spark_train_sketch(df, n=32, method="csk"))
    _assert_same(cand_fn(keys, vals, 32), pipeline.spark_cand_sketch(df, n=32, method="csk"))


def test_unknown_method_raises(spark, keydep_pair):
    with pytest.raises(ValueError):
        pipeline.spark_train_sketch(
            spark.createDataFrame(keydep_pair.train), n=8, method="bogus", val_col="y"
        )


def test_tupsk_scales_to_sf01_lineitem(spark):
    """Distributed sketching at benchmark scale: TUPSK over a ~600k-row
    TPC-H-lite lineitem (SF=0.1), shuffle path exercised (broadcast
    joins disabled by the session fixture)."""
    from repro import synth_data

    li = synth_data.lineitem(spark, sf=0.1).selectExpr(
        "monotonically_increasing_id() as rid", "l_orderkey as key", "l_extendedprice as y"
    ).cache()
    try:
        s = pipeline.spark_train_sketch(li, n=512, method="tupsk", val_col="y")
        assert len(s) == 512
        s2 = pipeline.spark_train_sketch(li, n=512, method="lv2sk", val_col="y")
        assert 512 <= len(s2) <= 1024
    finally:
        li.unpersist()
