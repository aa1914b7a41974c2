"""Spark sketch builders must equal the numpy core byte-for-byte."""
import numpy as np
import pandas as pd
import pytest

from repro import hashing
from repro.core import pipeline
from repro.sketch import AGG_FUNCTIONS, METHODS, SELECTORS, Train, build_pair, cand_agg, indsk
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
        spark.createDataFrame(pair.train), n=64, method=method
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
def test_train_sketch_spark_equals_numpy_keyind(spark, keyind_pair, method):
    pair = keyind_pair
    expected = METHODS[method][0](pair.train["key"].to_numpy(), pair.train["y"].to_numpy(), 100)
    got = pipeline.spark_train_sketch(
        spark.createDataFrame(pair.train), n=100, method=method
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("agg", ["avg", "count", "first"])
def test_cand_sketch_spark_equals_numpy(spark, keydep_pair, method, agg):
    pair = keydep_pair
    expected = METHODS[method][1](pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(), 48, agg)
    got = pipeline.spark_cand_sketch(
        spark.createDataFrame(pair.cand), n=48, method=method, agg=agg
    )
    _assert_same(expected, got)


@pytest.mark.parametrize("method", list(METHODS))
def test_cand_count_skips_nan_values_spark_equals_numpy(spark, keydep_pair, method):
    cand = keydep_pair.cand.loc[keydep_pair.cand.index.repeat(3)].reset_index(drop=True)
    x = cand["x"].to_numpy(np.float64)
    x[np.random.default_rng(23).random(len(x)) < 0.4] = np.nan
    cand["x"] = x
    keys = cand["key"].to_numpy()
    expected = METHODS[method][1](keys, x, 48, "count")
    got = pipeline.spark_cand_sketch(
        spark.createDataFrame(cand), n=48, method=method, agg="count"
    )
    _assert_same(expected, got)
    if cand_agg(method, "count") == "count":  # CSK's cand side is FIRST
        n_x = pd.Series(~np.isnan(x)).groupby(hashing.hash_keys(keys)).sum()
        np.testing.assert_array_equal(got.values, n_x.loc[got.key_hash].to_numpy())


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
    with pytest.raises(KeyError):
        pipeline.spark_train_sketch(
            spark.createDataFrame(keydep_pair.train), n=8, method="bogus"
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
        s = pipeline.spark_train_sketch(li, n=512, method="tupsk")
        assert len(s) == 512
        s2 = pipeline.spark_train_sketch(li, n=512, method="lv2sk")
        assert 512 <= len(s2) <= 1024
    finally:
        li.unpersist()


# ---------- one pass per side: exact for any partitioning ----------

def _numpy_train(table: pd.DataFrame, method: str, n: int):
    """The numpy train sketch of ``table`` taken in ``rid`` order."""
    t = table.sort_values("rid", kind="stable")
    side = Train(t["key"].to_numpy(), t["y"].to_numpy(), t["rid"].to_numpy())
    return side.sketch(SELECTORS[method][0](side, n))


def _spark_train(spark, table, method, n, parts):
    return pipeline._train_sketch(
        spark.createDataFrame(table), n=n, method=method, parts=parts
    )


def _spark_cand(spark, table, method, n, parts, agg="avg"):
    return pipeline._cand_sketch(
        spark.createDataFrame(table), n=n, method=method, agg=agg, parts=parts
    )


@pytest.fixture(scope="module")
def skewed_table():
    rng = np.random.default_rng(26)
    keys = rng.zipf(1.6, 3000) % 400
    return pd.DataFrame({
        "rid": np.arange(3000), "key": keys, "y": rng.normal(size=3000), "x": rng.normal(size=3000),
    })


@pytest.mark.parametrize("parts", [1, 3, 64])
@pytest.mark.parametrize("method", list(METHODS))
def test_sketches_do_not_depend_on_the_partition_count(spark, skewed_table, method, parts):
    train_fn, cand_fn = METHODS[method]
    keys = skewed_table["key"].to_numpy()
    _assert_same(
        train_fn(keys, skewed_table["y"].to_numpy(), 96),
        _spark_train(spark, skewed_table, method, 96, parts),
    )
    _assert_same(
        cand_fn(keys, skewed_table["x"].to_numpy(), 48, "mode"),
        _spark_cand(spark, skewed_table, method, 48, parts, agg="mode"),
    )


@pytest.mark.parametrize("method", list(METHODS))
def test_one_key_holding_more_than_a_partition_share(spark, method):
    """Key 0 holds 900 of 2000 rows, more than N / P = 500: its partition's
    N_p exceeds the others', and LV2SK/PRISK caps still come out global."""
    rng = np.random.default_rng(27)
    keys = np.where(rng.random(2000) < 0.45, 0, rng.integers(1, 300, 2000))
    table = pd.DataFrame({"rid": np.arange(2000), "key": keys, "y": rng.normal(size=2000)})
    assert (keys == 0).sum() > 2000 / 4
    _assert_same(
        METHODS[method][0](keys, table["y"].to_numpy(), 128),
        _spark_train(spark, table, method, 128, 4),
    )


@pytest.mark.parametrize("method", list(METHODS))
def test_offset_shuffled_row_ids_spark_equals_numpy(spark, method):
    """rid is neither 0..N-1 nor in row order: j follows rid, and INDSK
    hashes rid, on both engines."""
    rng = np.random.default_rng(28)
    table = pd.DataFrame({
        "rid": 10**9 + 7 * np.arange(1500), "key": rng.integers(0, 90, 1500),
        "y": rng.normal(size=1500),
    }).sample(frac=1.0, random_state=3)
    _assert_same(_numpy_train(table, method, 80), _spark_train(spark, table, method, 80, 3))


def test_evaluate_pair_samples_indsk_by_rid_as_spark_does(spark):
    """When rid is not 0..N-1, the sweep's ``evaluate_pair`` samples the
    INDSK train rows the Spark builder samples: both hash rid."""
    from repro.core.evaluate import evaluate_pair
    from repro.mi import estimate_mi
    from repro.sketch import join_sketches

    rng = np.random.default_rng(29)
    train = pd.DataFrame({
        "rid": 10**9 + 7 * np.arange(1500), "key": rng.integers(0, 90, 1500),
        "y": rng.normal(size=1500),
    })
    cand = pd.DataFrame({"rid": np.arange(90), "key": np.arange(90), "x": rng.normal(size=90)})
    res = evaluate_pair(
        0, train, cand, n=80, methods=("indsk",), estimators=(("mixed_ksg", "none"),),
        compute_full=False,
    ).iloc[0]
    y, x = join_sketches(
        pipeline.spark_train_sketch(spark.createDataFrame(train), n=80, method="indsk"),
        pipeline.spark_cand_sketch(spark.createDataFrame(cand), n=80, method="indsk"),
    )
    assert res["join_size"] == len(y)
    assert res["mi_sketch"] == estimate_mi(x, y, "mixed_ksg")


#: (key type, method); a string case is named by its method alone.
NULL_KEY_CASES = [pytest.param("string", m, id=m) for m in METHODS] + [
    pytest.param("long", m, id=f"long-{m}") for m in METHODS
]


@pytest.mark.parametrize("key_type, method", NULL_KEY_CASES)
def test_null_string_train_keys_spark_equals_numpy(spark, key_type, method):
    """NULL keys get one selector on both engines, beside string keys and
    beside long keys 2^53 + i, which no partition or union rounds to
    float64. (Whether NULL keys should be dropped before sketching is a
    separate question.)"""
    rng = np.random.default_rng(29)
    draws = [None if rng.random() < 0.2 else rng.integers(0, 12) for _ in range(120)]
    key = (lambda i: f"k{i}") if key_type == "string" else (lambda i: 2**53 + int(i))
    keys = np.array([None if i is None else key(i) for i in draws], dtype=object)
    table = pd.DataFrame({"rid": np.arange(120), "key": keys, "y": rng.normal(size=120)})
    df = spark.createDataFrame(table, f"rid long, key {key_type}, y double")
    _assert_same(
        METHODS[method][0](keys, table["y"].to_numpy(), 64),
        pipeline.spark_train_sketch(df, n=64, method=method),
    )


def _exact(sketch) -> list[tuple]:
    """A sketch's (h(k), value) pairs as Python objects, NULL and NaN as None."""
    values = [None if pd.isna(v) else v for v in sketch.values.tolist()]
    return list(zip(sketch.key_hash.tolist(), values))


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("agg", AGG_FUNCTIONS)
@pytest.mark.parametrize("method", list(METHODS))
def test_long_cand_keys_above_2_53_beside_nulls_spark_equals_numpy(spark, method, agg, parts):
    """Cand keys 2^53 + i beside NULL keys, and for FIRST and MODE long
    values 2^53 + i beside NULL values, keep their exact value through
    the partitions and the driver's union: the sketch equals numpy's on
    the collected rows."""
    rng = np.random.default_rng(32)
    big, n = 2**53, 200
    keys = [None if rng.random() < 0.1 else big + int(rng.integers(0, 24)) for _ in range(n)]
    x_type = "long" if agg in ("first", "mode") else "double"
    cast = (lambda v: big + v) if x_type == "long" else float
    x = [None if rng.random() < 0.15 else cast(int(rng.integers(0, 4))) for _ in range(n)]
    df = spark.createDataFrame(list(zip(range(n), keys, x)), f"rid long, key long, x {x_type}")
    rows = sorted(df.collect(), key=lambda r: r.rid)
    want = METHODS[method][1](
        np.array([r.key for r in rows], dtype=object), np.array([r.x for r in rows], dtype=object),
        16, agg,
    )
    got = pipeline._cand_sketch(df, n=16, method=method, agg=agg, parts=parts)
    assert _exact(got) == _exact(want)


#: Two int64 keys with one 32-bit h(k) (found among 300k random int64 keys).
COLLIDING = (2234804754311803321, 365261526549838661)


def _tie_coord(method: str, side: str, kh: np.ndarray) -> np.ndarray | None:
    """The coordinate a single-row key is selected by (None: not by key)."""
    if method == "indsk":
        return None if side == "train" else hashing.tuple_u01(kh, indsk.SALT_CAND)
    if method == "tupsk":
        return hashing.tuple_u01(kh, np.ones_like(kh))
    return hashing.u01(kh)  # KMV; PRISK's priority 1 / u orders the same way


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("side", ["train", "cand"])
@pytest.mark.parametrize("method", list(METHODS))
def test_colliding_keys_at_the_nth_slot_go_to_the_first_rid(spark, method, side, first):
    """Two keys with one h(k) tie for the n-th slot: both engines keep the
    key whose first row comes first."""
    assert hashing.hash_keys(np.array(COLLIDING))[0] == hashing.hash_keys(np.array(COLLIDING))[1]
    rng = np.random.default_rng(30)
    fillers = np.unique(rng.integers(0, 2**62, 300))
    winner, loser = COLLIDING[first], COLLIDING[1 - first]
    keys = np.insert(fillers, [40, 200], [winner, loser])  # winner's row comes first
    vals = np.arange(len(keys), dtype=float)
    coord = _tie_coord(method, side, hashing.hash_keys(keys))
    pair_coord = None if coord is None else coord[40]
    n = 64 if coord is None else int((coord < pair_coord).sum()) + 1
    table = pd.DataFrame({"rid": np.arange(len(keys)), "key": keys, "y": vals, "x": vals})
    if side == "train":
        expected = METHODS[method][0](keys, vals, n)
        got = _spark_train(spark, table, method, n, 3)
    else:
        expected = METHODS[method][1](keys, vals, n, "avg")
        got = _spark_cand(spark, table, method, n, 3)
    _assert_same(expected, got)
    if coord is not None:
        assert 40.0 in expected.values and 201.0 not in expected.values


@pytest.mark.parametrize("method", ["lv2sk", "prisk"])
def test_colliding_keys_tie_on_the_first_rid_when_first_rows_are_not_kept(spark, method):
    """Each colliding key has two rows and level 2 keeps one, its j = 2 row.
    The loser's kept row comes before the winner's, but the winner's first
    row comes first: the tie for the n-th key still goes to the winner."""
    h = hashing.hash_keys(np.array(COLLIDING[:1]))
    u = hashing.u01(h)[0]
    assert hashing.tuple_u01(h, np.array([2]))[0] < hashing.tuple_u01(h, np.array([1]))[0]
    rng = np.random.default_rng(31)
    fillers = np.unique(rng.integers(0, 2**62, 300))
    winner, loser = COLLIDING
    keys = np.insert(fillers, [40, 200, 208, 247], [winner, loser, loser, winner])
    vals = np.arange(len(keys), dtype=float)  # the winner's rows hold 40 and 250
    u_fill = hashing.u01(hashing.hash_keys(fillers))
    # Level 1 ranks keys by h_u(h(k)), or by N_k / h_u(h(k)) with N_k = 2 for the pair.
    n = int((u_fill < (u if method == "lv2sk" else u / 2)).sum()) + 1
    assert n * 2 < len(keys)  # a cap of one row per key
    table = pd.DataFrame({"rid": np.arange(len(keys)), "key": keys, "y": vals})
    expected = METHODS[method][0](keys, vals, n)
    _assert_same(expected, _spark_train(spark, table, method, n, 3))
    assert 250.0 in expected.values and 210.0 not in expected.values
