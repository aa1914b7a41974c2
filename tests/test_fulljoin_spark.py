"""Oracle-checked tests of the Spark join-aggregation operators.

The paper's Section III-B SQL is executed by DuckDB over the same
inputs and diffed row-by-row against the Spark DataFrame results via
``repro.oracle.assert_equivalent``.
"""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core import fulljoin
from repro.core.evaluate import full_join_pairs_pandas
from repro.mi import estimate_mi
from repro.oracle import assert_equivalent
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


def test_augment_keeps_nulls_when_asked(spark):
    train, cand = _tables(seed=2)
    cand = cand[cand["key"] != cand["key"].iloc[0]]
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand.reset_index(drop=True))
    with_nulls = fulljoin.augment(tdf, cdf, agg="avg", drop_nulls=False)
    assert with_nulls.count() == len(train)


def test_full_join_pairs_pandas_matches_spark(spark):
    """The in-task pandas implementation must agree with the Spark
    operators (it runs inside cogrouped tasks where Spark is not
    nestable)."""
    train, cand = _tables(seed=3)
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    spark_pairs = fulljoin.augment(tdf, cdf, agg="avg").select("y", "x").toPandas()
    py, px = full_join_pairs_pandas(train, cand, "avg")
    a = sorted(zip(np.round(px, 9), np.round(py, 9)))
    b = sorted(zip(np.round(spark_pairs["x"].to_numpy(), 9), np.round(spark_pairs["y"].to_numpy(), 9)))
    assert a == b


def test_full_join_mi_returns_size(spark):
    train, cand = _tables(seed=4)
    tdf, cdf = spark.createDataFrame(train), spark.createDataFrame(cand)
    pairs = fulljoin.augment(tdf, cdf, agg="avg").select("y", "x").toPandas()
    mi, size = estimate_mi(pairs["x"].to_numpy(), pairs["y"].to_numpy(), "mixed_ksg"), len(pairs)
    assert size == len(train)
    assert mi > 0.5  # x ~ key-determined, y in [x, x+2] -> strong MI


def test_tpch_lite_augmentation(spark):
    """Figure-1-style augmentation on TPC-H-lite: enrich orders with the
    average account balance of each customer's market segment... i.e.,
    join orders (train) with customer (cand) on custkey, AGG=avg over
    c_acctbal, checked against DuckDB."""
    orders = synth_data.orders(spark, sf=0.005)
    customer = synth_data.customer(spark, sf=0.005)
    train = orders.selectExpr("o_orderkey as rid", "o_custkey as key", "o_totalprice as y")
    cand = customer.selectExpr("c_custkey as rid", "c_custkey as key", "c_acctbal as x")
    got = fulljoin.augment(train, cand, agg="avg")
    sql = """
        SELECT t.o_custkey AS key, t.o_totalprice AS y, a.x AS x
        FROM orders t
        LEFT JOIN (SELECT c_custkey AS key, AVG(c_acctbal) AS x FROM customer GROUP BY c_custkey) a
        ON t.o_custkey = a.key
        WHERE a.x IS NOT NULL
    """
    assert_equivalent(got, sql, orders=orders, customer=customer)


def test_featurize_rejects_unknown_agg(spark):
    train, cand = _tables(seed=5)
    with pytest.raises(ValueError):
        fulljoin.featurize(spark.createDataFrame(cand), agg="median")
