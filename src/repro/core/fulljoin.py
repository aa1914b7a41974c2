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

:func:`featurize` runs the numpy core's ``aggregate_cand`` on each key
partition, in the sketch builders' pass
(``repro.core.pipeline.map_key_partitions``, whose hand-off to pandas
keeps ``long`` keys and values exact), so AGG has one definition for
both engines. A NULL key gives no row; it never joined anyway. A NaN
float key gives no row either, as in numpy; Spark SQL and DuckDB would
join it to a NaN train key.

Limit: the cand rows are split by key into ``defaultParallelism``
partitions, and each partition is one pandas frame in one Python
worker, so it must fit in that worker's memory; a Spark ``groupBy``
would aggregate partially and spill to disk instead.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.pipeline import agg_field, map_key_partitions
from repro.sketch.base import AGG_FUNCTIONS, aggregate_cand


def featurize(cand_df: DataFrame, agg: str = "avg") -> DataFrame:
    """T_cand[rid, key, x] -> T_aug[key, x]: one AGG(x) value per key."""
    if agg not in AGG_FUNCTIONS:
        raise ValueError(f"unknown AGG {agg!r}; choose from {AGG_FUNCTIONS}")

    def local(pdf):
        aug = aggregate_cand(pdf["key"].to_numpy(), pdf["x"].to_numpy(), agg)
        return aug.rename(columns={"value": "x"})

    rows = cand_df.select("rid", "key", "x")
    schema = T.StructType([rows.schema["key"], agg_field(rows, agg)])
    parts = cand_df.sparkSession.sparkContext.defaultParallelism
    return map_key_partitions(rows, local, schema, parts=parts)


def augment(train_df: DataFrame, cand_df: DataFrame, *, agg: str = "avg") -> DataFrame:
    """Left-join T_train[key, y] with the featurized T_aug (paper Section
    III-B) and drop the rows whose ``x`` is NULL: keys with no match in
    T_cand, and keys whose AGG value is NULL. Returns [key, y, x]."""
    joined = train_df.select("key", "y").join(featurize(cand_df, agg), on="key", how="left")
    return joined.where(F.col("x").isNotNull())
