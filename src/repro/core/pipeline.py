"""Distributed sketch construction as Spark DataFrame aggregations.

This is the deployment path the paper describes (Section IV): sketches
are built *offline* over large tables with one distributed pass —
hashing via vectorized pandas UDFs, occurrence indices via a
``row_number`` window partitioned by the join key, per-key caps via
grouped counts — and only the resulting <= 2n-row sketch is collected.
Discovery-time work (sketch join + MI estimation) is then driver-local
and cheap.

Selection is a pure function of the hash substrate, so these builders
produce *identical* sketches to the numpy core in ``repro.sketch``;
the test suite asserts equality method-by-method.

Row identity: builders require a stable row-id column (``rid``) so
occurrence order (the j in <k, j>) is well-defined on an unordered
DataFrame. Synthetic generators and the corpus simulator all emit one.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro import hashing
from repro.mi import estimate_mi
from repro.sketch import METHODS, Sketch, indsk, join_sketches

from . import fulljoin

_TINY = float(np.finfo(np.float64).tiny)


def _make_udfs() -> dict:
    """Create the pandas UDFs lazily — ``pandas_udf`` parses its DDL
    return type against the active session, so the decorators cannot
    run at import time."""

    @pandas_udf("long")
    def hash_udf(keys: pd.Series) -> pd.Series:
        """h(k) as int64 (value range fits uint32)."""
        return pd.Series(hashing.hash_keys(keys.to_numpy()).astype(np.int64))

    @pandas_udf("double")
    def u01_udf(kh: pd.Series) -> pd.Series:
        """h_u(h(k)) from the stored integer hash."""
        return pd.Series(hashing.u01(kh.to_numpy().astype(np.uint32)))

    @pandas_udf("double")
    def tuple_u01_udf(kh: pd.Series, j: pd.Series) -> pd.Series:
        """h_u(h(<k, j>)) from the stored hash and occurrence index."""
        return pd.Series(hashing.tuple_u01(kh.to_numpy(), j.to_numpy()))

    @pandas_udf("double")
    def salted_u01_udf(x: pd.Series, salt: pd.Series) -> pd.Series:
        """Uncoordinated per-row hash stream for INDSK."""
        return pd.Series(indsk.salted_u01(x.to_numpy(), salt.to_numpy()))

    return {
        "hash": hash_udf,
        "u01": u01_udf,
        "tuple_u01": tuple_u01_udf,
        "salted_u01": salted_u01_udf,
    }


_UDF_CACHE: dict | None = None


def _udfs() -> dict:
    global _UDF_CACHE
    if _UDF_CACHE is None:
        _UDF_CACHE = _make_udfs()
    return _UDF_CACHE


def _prepped(df: DataFrame, key_col: str, val_col: str, rid_col: str) -> DataFrame:
    """Attach kh, occurrence index j, and both sampling coordinates."""
    w = Window.partitionBy(key_col).orderBy(rid_col)
    return (
        df.select(
            F.col(rid_col).alias("rid"),
            F.col(key_col).alias("key"),
            F.col(val_col).alias("val"),
        )
        .withColumn("kh", _udfs()["hash"](F.col("key")))
        .withColumn("j", F.row_number().over(w))
        .withColumn("u_row", _udfs()["tuple_u01"](F.col("kh"), F.col("j")))
        .withColumn("u_key", _udfs()["u01"](F.col("kh")))
    )


def _collect_sketch(df: DataFrame) -> Sketch:
    pdf = df.select("kh", "val").toPandas()
    return Sketch(pdf["kh"].to_numpy().astype(np.uint32), pdf["val"].to_numpy())


def _two_level_train(prepped: DataFrame, n: int, n_total: int, by_priority: bool) -> DataFrame:
    """Shared level-1 (key selection) + level-2 (per-key cap) for
    LV2SK (KMV keys) and PRISK (priority-sampled keys)."""
    keys = prepped.groupBy("key").agg(
        F.count(F.lit(1)).alias("n_k_rows"), F.first("u_key").alias("u_key")
    )
    if by_priority:
        keys = keys.withColumn(
            "_prio", F.col("n_k_rows") / F.greatest(F.col("u_key"), F.lit(_TINY))
        )
        selected = keys.orderBy(F.col("_prio").desc(), F.col("u_key").asc()).limit(n)
    else:
        selected = keys.orderBy(F.col("u_key").asc(), F.col("key").asc()).limit(n)
    cap = F.greatest(F.lit(1), F.floor(F.lit(n) * F.col("n_k_rows") / F.lit(n_total)))
    selected = selected.withColumn("n_cap", cap).select("key", "n_cap")
    ranked = prepped.join(selected, on="key").withColumn(
        "rank", F.row_number().over(Window.partitionBy("key").orderBy("u_row", "rid"))
    )
    return ranked.where(F.col("rank") <= F.col("n_cap"))


def spark_train_sketch(
    df: DataFrame,
    *,
    n: int,
    method: str,
    key_col: str = "key",
    val_col: str = "y",
    rid_col: str = "rid",
) -> Sketch:
    """Build the train-side (left table) sketch with DataFrame ops."""
    if method not in METHODS:
        raise ValueError(f"unknown sketch method {method!r}")
    prepped = _prepped(df, key_col, val_col, rid_col)
    if method == "tupsk":
        out = prepped.orderBy("u_row", "rid").limit(n)
    elif method in ("lv2sk", "prisk"):
        out = _two_level_train(prepped, n, df.count(), by_priority=(method == "prisk"))
    elif method == "indsk":
        u = _udfs()["salted_u01"](F.col("rid"), F.lit(indsk.SALT_TRAIN))
        out = prepped.withColumn("u_ind", u).orderBy("u_ind", "rid").limit(n)
    else:  # csk: the j = 1 row per key, then KMV over distinct keys
        out = prepped.where(F.col("j") == 1).orderBy("u_key", "rid").limit(n)
    return _collect_sketch(out)


def spark_cand_sketch(
    df: DataFrame,
    *,
    n: int,
    method: str,
    agg: str = "avg",
    key_col: str = "key",
    val_col: str = "x",
    rid_col: str = "rid",
) -> Sketch:
    """Build the candidate-side sketch: featurize, then select n keys."""
    if method not in METHODS:
        raise ValueError(f"unknown sketch method {method!r}")
    agg = "first" if method == "csk" else agg  # CSK ignores AGG: first value seen per key
    aug = fulljoin.featurize(df, key_col=key_col, val_col=val_col, agg=agg, rid_col=rid_col)
    prepped = aug.select(F.col(key_col).alias("key"), F.col(val_col).alias("val")).withColumn(
        "kh", _udfs()["hash"](F.col("key"))
    )
    if method == "tupsk":
        u = _udfs()["tuple_u01"](F.col("kh"), F.lit(1))
    elif method == "indsk":
        u = _udfs()["salted_u01"](F.col("kh"), F.lit(indsk.SALT_CAND))
    else:  # lv2sk / prisk / csk: KMV over h_u(h(k))
        u = _udfs()["u01"](F.col("kh"))
    return _collect_sketch(prepped.withColumn("u", u).orderBy("u", "key").limit(n))


def sketch_mi_estimate(
    train_df: DataFrame,
    cand_df: DataFrame,
    *,
    n: int,
    method: str,
    estimator: str,
    agg: str = "avg",
    key_col: str = "key",
    y_col: str = "y",
    x_col: str = "x",
    rid_col: str = "rid",
) -> dict:
    """End-to-end sketch path: build both sketches distributed, join the
    collected sketches, estimate MI. Returns estimate + join size."""
    s_train = spark_train_sketch(
        train_df, n=n, method=method, key_col=key_col, val_col=y_col, rid_col=rid_col
    )
    s_cand = spark_cand_sketch(
        cand_df, n=n, method=method, agg=agg, key_col=key_col, val_col=x_col, rid_col=rid_col
    )
    y, x = join_sketches(s_train, s_cand)
    mi = estimate_mi(x, y, estimator) if len(y) > 3 else 0.0
    return {
        "mi": mi,
        "join_size": len(y),
        "train_sketch_size": len(s_train),
        "cand_sketch_size": len(s_cand),
    }
