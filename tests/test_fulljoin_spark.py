"""Oracle-checked tests of the Spark join-aggregation operators.

The paper's Section III-B SQL is executed by DuckDB over the same
inputs and diffed row-by-row against the Spark DataFrame results via
``tests.oracle.assert_equivalent``.
"""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core import fulljoin
from repro.core.evaluate import full_join_pairs_pandas
from repro.mi import estimate_mi
from tests.oracle import assert_equivalent
from repro.sketch import AGG_FUNCTIONS, aggregate_cand
from repro.synthgen import cdunif, decompose

AGG_SQL = {
    "avg": "AVG(x)",
    "count": "COUNT(x)",
    "first": "MIN_BY(x, rid)",
    # mode with deterministic ties: max count, then earliest first rid
    "mode": None,
}


def _tables(seed=0, n=800, m=40):
    rng = np.random.default_rng(seed)
    x, y, _ = cdunif.sample(m, n, rng)
    pair = decompose(x, y, "keydep")
    # Give the cand table repeated keys so AGG has real work: three
    # noisy readings per key (like the hourly weather of Figure 1).
    cand = pair.cand.loc[pair.cand.index.repeat(3)].reset_index(drop=True)
    cand["rid"] = np.arange(len(cand))
    cand["x"] = cand["x"].astype(np.float64) + rng.normal(0, 0.1, len(cand))
    return pair.train, cand


@pytest.mark.parametrize("agg", ["avg", "count", "first"])
def test_featurize_matches_duckdb(spark, agg):
    train, cand = _tables()
    cdf = spark.createDataFrame(cand)
    got = fulljoin.featurize(cdf, agg=agg)
    sql = f"SELECT key, {AGG_SQL[agg]} AS x FROM cand GROUP BY key"
    assert_equivalent(got, sql, cand=cand)


def test_featurize_mode_matches_duckdb(spark):
    train, cand = _tables()
    # Integer-bucketed values so MODE has meaningful multiplicities;
    # duplicate every row so counts are even and tie-breaking matters.
    cand = cand.assign(x=np.floor(cand["x"]))
    cdf = spark.createDataFrame(cand)
    got = fulljoin.featurize(cdf, agg="mode")
    sql = """
        SELECT key, x FROM (
            SELECT key, x, ROW_NUMBER() OVER (
                PARTITION BY key ORDER BY cnt DESC, first_rid ASC
            ) AS rn
            FROM (
                SELECT key, x, COUNT(*) AS cnt, MIN(rid) AS first_rid
                FROM cand GROUP BY key, x
            )
        ) WHERE rn = 1
    """
    assert_equivalent(got, sql, cand=cand)


@pytest.mark.parametrize("agg", ["avg", "count", "first"])
def test_augment_matches_paper_sql(spark, agg):
    """The full Section III-B query: left join + NULL-drop."""
    train, cand = _tables(seed=1)
    # Remove some keys from cand so the left join actually produces
    # NULLs that must be dropped.
    dropped = cand["key"].unique()[:5]
    cand = cand[~cand["key"].isin(dropped)].reset_index(drop=True)
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    got = fulljoin.augment(tdf, cdf, agg=agg)
    sql = f"""
        SELECT t.key AS key, t.y AS y, a.x AS x
        FROM train t
        LEFT JOIN (SELECT key, {AGG_SQL[agg]} AS x FROM cand GROUP BY key) a
        ON t.key = a.key
        WHERE a.x IS NOT NULL
    """
    assert_equivalent(got, sql, train=train, cand=cand)


def test_full_join_pairs_pandas_matches_spark(spark):
    """The pandas full join, which the §V-D timing runs in-process,
    must agree with the Spark operators."""
    train, cand = _tables(seed=3)
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    spark_pairs = fulljoin.augment(tdf, cdf, agg="avg").select("y", "x").toPandas()
    py, px = full_join_pairs_pandas(train, cand, "avg")
    a = sorted(zip(np.round(px, 9), np.round(py, 9)))
    b = sorted(zip(np.round(spark_pairs["x"].to_numpy(), 9), np.round(spark_pairs["y"].to_numpy(), 9)))
    assert a == b


def test_augment_mode_skips_null_values_like_pandas(spark):
    """MODE counts no NULL value on either engine: a key with more NULLs
    than values still gets its most frequent value, and ties still go
    to the value seen first."""
    train = pd.DataFrame({"rid": range(6), "key": [1, 1, 2, 2, 3, 3], "y": np.arange(6.0)})
    cand = pd.DataFrame(
        {
            "rid": range(10),
            "key": [1, 1, 1, 1, 2, 2, 3, 3, 3, 3],
            "x": [None, None, None, 5.0, 7.0, 7.0, None, None, 2.0, 3.0],
        }
    )
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    got = fulljoin.augment(tdf, cdf, agg="mode").select("y", "x").toPandas()
    py, px = full_join_pairs_pandas(train, cand, "mode")
    assert sorted(zip(got["y"], got["x"])) == sorted(zip(py, px))
    assert len(got) == len(train)


def test_full_join_mi_returns_size(spark):
    train, cand = _tables(seed=4)
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    pairs = fulljoin.augment(tdf, cdf, agg="avg").select("y", "x").toPandas()
    mi, size = estimate_mi(pairs["x"].to_numpy(), pairs["y"].to_numpy(), "mixed_ksg"), len(pairs)
    assert size == len(train)
    assert mi > 0.5  # x ~ key-determined, y in [x, x+2] -> strong MI


def test_tpch_lite_augmentation(spark):
    """Figure-1-style augmentation on TPC-H-lite: enrich each lineitem
    with the average retail price of its part, i.e. join lineitem
    (train) with part (cand) on partkey, AGG=avg over p_retailprice,
    checked against DuckDB. This is the join spark-sf01 runs."""
    lineitem = synth_data.lineitem(spark, sf=0.005)
    part = synth_data.part(spark, sf=0.005)
    train = lineitem.selectExpr(
        "monotonically_increasing_id() as rid", "l_partkey as key", "l_extendedprice as y"
    )
    cand = part.selectExpr("p_partkey as rid", "p_partkey as key", "p_retailprice as x")
    got = fulljoin.augment(train, cand, agg="avg")
    sql = """
        SELECT t.l_partkey AS key, t.l_extendedprice AS y, a.x AS x
        FROM lineitem t
        LEFT JOIN (SELECT p_partkey AS key, AVG(p_retailprice) AS x FROM part GROUP BY p_partkey) a
        ON t.l_partkey = a.key
        WHERE a.x IS NOT NULL
    """
    assert_equivalent(got, sql, lineitem=lineitem, part=part)


def test_featurize_rejects_unknown_agg(spark):
    train, cand = _tables(seed=5)
    with pytest.raises(ValueError):
        fulljoin.featurize(spark.createDataFrame(cand), agg="median")


#: MODE with deterministic ties, as SQL: COUNT(x) counts no NULL value,
#: so a NULL wins only a key whose values are all NULL.
MODE_SQL = """
    SELECT key, x FROM (
        SELECT key, x, ROW_NUMBER() OVER (
            PARTITION BY key ORDER BY cnt DESC, first_rid ASC
        ) AS rn
        FROM (
            SELECT key, x, COUNT(x) AS cnt, MIN(rid) AS first_rid
            FROM cand GROUP BY key, x
        )
    ) WHERE rn = 1
"""


def _null_cand(seed=0, n=240):
    """Repeated keys 0..9 (a NULL key on some rows) with half-integer
    values for MODE ties, some NULL values, key 7's values all NULL, and
    row ids that are neither 0..N-1 nor in row order."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 10, n).astype(object)
    x = np.round(rng.normal(0, 2, n) * 2) / 2
    x = np.where(rng.random(n) < 0.2, None, x).astype(object)
    x[keys == 7] = None
    keys[rng.random(n) < 0.05] = None
    rid = 1000 + rng.permutation(3 * n)[:n]
    return [(int(r), k, v) for r, k, v in zip(rid, keys, x)]


def _as_dict(keys, values) -> dict:
    return {k: None if pd.isna(v) else v for k, v in zip(keys, values)}


@pytest.mark.parametrize("agg", AGG_FUNCTIONS)
@pytest.mark.parametrize("key_type", ["long", "string"])
def test_featurize_equals_numpy_aggregate_cand(spark, agg, key_type):
    """Spark featurize is the numpy AGG: the same value per key, NULL
    keys give no row, and NULL values are skipped."""
    rows = _null_cand()
    if key_type == "string":
        rows = [(r, None if k is None else f"k{k}", v) for r, k, v in rows]
    df = spark.createDataFrame(rows, f"rid long, key {key_type}, x double")
    got = fulljoin.featurize(df, agg).toPandas()
    pdf = df.toPandas().sort_values("rid", kind="stable")
    want = aggregate_cand(pdf["key"].to_numpy(), pdf["x"].to_numpy(), agg)
    assert len(got) == len(want) == 10
    assert _as_dict(got["key"], got["x"]) == _as_dict(want["key"], want["value"])


@pytest.mark.parametrize("agg, want", [("avg", 1.0), ("count", 1), ("first", 1.0), ("mode", 1.0)])
def test_featurize_skips_a_real_nan_like_numpy(spark, agg, want):
    df = spark.createDataFrame([(0, 1, 1.0), (1, 1, float("nan"))], "rid long, key long, x double")
    got = fulljoin.featurize(df, agg).collect()
    pdf = df.toPandas()
    numpy = aggregate_cand(pdf["key"].to_numpy(), pdf["x"].to_numpy(), agg)
    assert [(r.key, r.x) for r in got] == [(1, want)] == list(zip(numpy["key"], numpy["value"]))


@pytest.mark.parametrize("agg", AGG_FUNCTIONS)
def test_augment_with_null_cand_keys_and_values_matches_paper_sql(spark, agg):
    """The Section III-B query over a cand table with NULL keys, NULL
    values and a key whose values are all NULL."""
    train = pd.DataFrame({"rid": range(40), "key": np.arange(40) % 12, "y": np.arange(40.0)})
    cand = pd.DataFrame(_null_cand(seed=1), columns=["rid", "key", "x"]).astype(
        {"key": "Int64", "x": "float64"}
    )
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    got = fulljoin.augment(tdf, cdf, agg=agg)
    # FIRST is the first row's value, NULL included; DuckDB's MIN_BY
    # skips NULL values.
    sql_agg = {**AGG_SQL, "first": "FIRST(x ORDER BY rid)"}[agg]
    aug = MODE_SQL if agg == "mode" else f"SELECT key, {sql_agg} AS x FROM cand GROUP BY key"
    sql = f"""
        SELECT t.key AS key, t.y AS y, a.x AS x
        FROM train t LEFT JOIN ({aug}) a ON t.key = a.key
        WHERE a.x IS NOT NULL
    """
    assert_equivalent(got, sql, train=train, cand=cand)


@pytest.mark.parametrize("agg", ["avg", "mode", "first"])
def test_full_join_pairs_pandas_drops_null_aggregates_like_augment(spark, agg):
    """A key whose cand values are all NULL has a NULL AGG value: the
    pandas full join drops its train rows, as augment's x IS NOT NULL."""
    train = pd.DataFrame({"rid": range(4), "key": [1, 1, 4, 4], "y": [0.0, 1.0, 2.0, 3.0]})
    cand = pd.DataFrame({"rid": range(4), "key": [1, 1, 4, 4], "x": [5.0, None, None, None]})
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    got = fulljoin.augment(tdf, cdf, agg=agg).select("y", "x").toPandas()
    py, px = full_join_pairs_pandas(train, cand, agg)
    assert sorted(zip(py, px)) == sorted(zip(got["y"], got["x"])) == [(0.0, 5.0), (1.0, 5.0)]


@pytest.mark.parametrize("agg", AGG_FUNCTIONS)
def test_augment_keeps_long_keys_above_2_53_exact_beside_a_null_key(spark, agg):
    """A NULL cand key does not turn the long keys sharing its partition
    into float64: keys 2^53 + i stay apart and join their own train rows."""
    big = 2**53
    keys = [big + 1, None, big] + [big + i for i in range(2, 64)]
    rows = [(rid, k, rid + 1.0) for rid, k in enumerate(keys)]
    cand = pd.DataFrame(
        {"rid": range(len(keys)), "key": pd.array(keys, "Int64"), "x": [r[2] for r in rows]}
    )
    train = pd.DataFrame({"rid": range(64), "key": big + np.arange(64), "y": np.arange(64.0)})
    cdf = spark.createDataFrame(rows, "rid long, key long, x double")
    got = fulljoin.augment(spark.createDataFrame(train), cdf, agg=agg)
    sql_agg = {**AGG_SQL, "first": "FIRST(x ORDER BY rid)"}[agg]
    aug = MODE_SQL if agg == "mode" else f"SELECT key, {sql_agg} AS x FROM cand GROUP BY key"
    sql = f"""
        SELECT t.key AS key, t.y AS y, a.x AS x
        FROM train t LEFT JOIN ({aug}) a ON t.key = a.key
        WHERE a.x IS NOT NULL
    """
    assert got.count() == 64
    assert_equivalent(got, sql, train=train, cand=cand)


@pytest.mark.parametrize("agg", ["first", "mode"])
def test_featurize_keeps_long_values_above_2_53_exact_beside_a_null_value(spark, agg):
    """FIRST and MODE return long values as they are, also in a key
    partition that holds a NULL value."""
    big = 2**53
    values = [big + 1, None, big + 1, big, big, big + 3, None, big + 2]
    keys = [1, 1, 2, 2, 2, 3, 3, 3]
    cand = pd.DataFrame(
        {"rid": range(8), "key": keys, "x": pd.array(values, "Int64")}
    )
    df = spark.createDataFrame(list(zip(range(8), keys, values)), "rid long, key long, x long")
    got = fulljoin.featurize(df, agg)
    assert got.schema["x"].dataType.simpleString() == "bigint"
    sql_agg = {**AGG_SQL, "first": "FIRST(x ORDER BY rid)"}[agg]
    sql = MODE_SQL if agg == "mode" else f"SELECT key, {sql_agg} AS x FROM cand GROUP BY key"
    assert_equivalent(got, sql, cand=cand)
