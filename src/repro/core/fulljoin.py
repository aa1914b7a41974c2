"""The paper's join-aggregation query as Spark DataFrame operations.

Section III-B defines relational data augmentation as:

.. code-block:: sql

    SELECT t.key, t.y, a.x
    FROM t_train t
    LEFT JOIN (SELECT k AS key, AGG(z) AS x FROM t_cand GROUP BY k) a
    ON t.key = a.key

with NULL rows (keys missing from T_cand) discarded before MI
estimation. :func:`featurize` builds the aggregated T_aug and
:func:`augment` performs the left join: the materialized result is the
"expensive path" that the sketches approximate. Tests oracle-check
these operators against DuckDB running the SQL above.

Aggregation determinism: Spark's ``first``/``mode`` are order-dependent
and tie-arbitrary, so we implement FIRST as the value at the minimum
row id and MODE as the most frequent value with ties broken by first
appearance — the exact semantics of the numpy core in
``repro.sketch.base.aggregate_cand``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.sketch.base import AGG_FUNCTIONS


def featurize(cand_df: DataFrame, agg: str = "avg") -> DataFrame:
    """T_cand[rid, key, x] -> T_aug[key, x]: one AGG(x) value per key."""
    if agg not in AGG_FUNCTIONS:
        raise ValueError(f"unknown AGG {agg!r}; choose from {AGG_FUNCTIONS}")
    if agg == "avg":
        out = cand_df.groupBy("key").agg(F.avg("x").alias("x"))
    elif agg == "count":
        out = cand_df.groupBy("key").agg(F.count("x").alias("x"))
    elif agg == "first":
        out = cand_df.groupBy("key").agg(F.min_by("x", F.col("rid")).alias("x"))
    else:  # mode, ties broken by earliest first appearance
        # COUNT(x): a NULL value counts 0, so it wins only an all-NULL key.
        per_value = cand_df.groupBy("key", "x").agg(
            F.count("x").alias("_cnt"), F.min("rid").alias("_first_rid")
        )
        w = Window.partitionBy("key").orderBy(F.col("_cnt").desc(), F.col("_first_rid").asc())
        out = (
            per_value.withColumn("_rank", F.row_number().over(w))
            .where(F.col("_rank") == 1)
            .select("key", "x")
        )
    return out


def augment(
    train_df: DataFrame, cand_df: DataFrame, *, agg: str = "avg", drop_nulls: bool = True
) -> DataFrame:
    """Left-join T_train[key, y] with the featurized T_aug (paper Section
    III-B).

    Returns a DataFrame [key, y, x]; with ``drop_nulls`` (the paper's
    protocol) rows whose key has no match in T_cand are removed.
    """
    joined = train_df.select("key", "y").join(featurize(cand_df, agg), on="key", how="left")
    if drop_nulls:
        joined = joined.where(F.col("x").isNotNull())
    return joined
