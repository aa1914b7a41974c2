"""Distributed sketch construction as Spark DataFrame selections.

This is the deployment path the paper describes (Section IV): sketches
are built *offline* over large tables with one distributed pass, and
only the resulting <= 2n-row sketch is collected. Discovery-time work
(sketch join + MI estimation) is then driver-local and cheap.

The builders are the Spark twin of ``repro.sketch.base.Train`` /
``Cand``. Each table side is prepared once: one window partitioned by
the key gives the occurrence index ``j`` (ordered by ``rid``) and the
key count ``n_k``, and one pandas UDF adds every sampling coordinate by
calling the numpy core's hash functions. Each method is then a short
selection over that side. Selection is a pure function of the hash
substrate, so these builders produce *identical* sketches to the numpy
core; the test suite asserts equality method-by-method.

Row identity: builders require a stable row-id column (``rid``) so
occurrence order (the j in <k, j>) is well-defined on an unordered
DataFrame. Synthetic generators and the corpus simulator all emit one.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.functions import pandas_udf

from repro import hashing
from repro.sketch import METHODS, Sketch, indsk

from . import fulljoin

_TINY = float(np.finfo(np.float64).tiny)

_COORDS = T.StructType([
    T.StructField("kh", T.LongType()),
    T.StructField("u_row", T.DoubleType()),
    T.StructField("u_key", T.DoubleType()),
    T.StructField("u_ind", T.DoubleType()),
])


@pandas_udf(_COORDS)
def _coords(key: pd.Series, j: pd.Series, rid: pd.Series) -> pd.DataFrame:
    """Every sampling coordinate of a row: h(k) (as int64), h_u(h(<k, j>)),
    h_u(h(k)) and the INDSK stream, which hashes ``rid`` on the train side
    and h(k) on the cand side (where ``rid`` is NULL)."""
    kh = hashing.hash_keys(key.to_numpy())
    train = rid.notna().to_numpy()
    ind = np.where(train, rid.fillna(0).to_numpy(np.int64), kh)
    return pd.DataFrame({
        "kh": kh.astype(np.int64),
        "u_row": hashing.tuple_u01(kh, j.to_numpy()),
        "u_key": hashing.u01(kh),
        "u_ind": indsk.salted_u01(ind, np.where(train, indsk.SALT_TRAIN, indsk.SALT_CAND)),
    })


def _with_coords(side: DataFrame, j: Column, rid: Column) -> DataFrame:
    return side.withColumn("_c", _coords(F.col("key"), j, rid)).select(*side.columns, "_c.*")


def _train_side(rows: DataFrame) -> DataFrame:
    """The train table prepared once: rid, key, val, j, n_k and the coordinates."""
    w = Window.partitionBy("key").orderBy("rid")
    side = rows.select(
        "*",
        F.row_number().over(w).alias("j"),
        F.count(F.lit(1)).over(
            w.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
        ).alias("n_k"),
    )
    return _with_coords(side, F.col("j"), F.col("rid"))


def _two_level(side: DataFrame, n: int, key_order: Column) -> DataFrame:
    """LV2SK / PRISK: the first n keys of ``key_order`` (ties to the key
    seen first) from the j = 1 rows, then per kept key the
    ``max(1, floor(n * n_k / N))`` rows with the smallest ``u_row``."""
    total = Observation()  # N, counted while level 1 is selected
    level1 = (
        side.where(F.col("j") == 1)
        .observe(total, F.sum("n_k").alias("N"))
        .orderBy(key_order, "rid")
        .limit(n)
        .select("key")
        .collect()
    )
    cap = F.greatest(F.lit(1), F.floor(F.lit(n) * F.col("n_k") / F.lit(total.get["N"])))
    rank = F.row_number().over(Window.partitionBy("key").orderBy("u_row", "rid"))
    kept = side.where(F.col("key").isin([r.key for r in level1]))
    return kept.withColumn("_rank", rank).where(F.col("_rank") <= cap)


def train_selection(
    df: DataFrame, *, n: int, method: str, key_col: str, val_col: str, rid_col: str
) -> DataFrame:
    """The rows of ``method``'s train sketch, before they are collected."""
    if method not in METHODS:
        raise ValueError(f"unknown sketch method {method!r}")
    rows = df.select(
        F.col(rid_col).alias("rid"), F.col(key_col).alias("key"), F.col(val_col).alias("val")
    )
    if method == "indsk":  # a uniform row sample: no key window needed
        return _with_coords(rows, F.lit(1), F.col("rid")).orderBy("u_ind", "rid").limit(n)
    side = _train_side(rows)
    if method == "tupsk":
        return side.orderBy("u_row", "rid").limit(n)
    if method == "lv2sk":
        return _two_level(side, n, F.col("u_key"))
    if method == "prisk":
        return _two_level(side, n, (F.col("n_k") / F.greatest("u_key", F.lit(_TINY))).desc())
    # csk: the j = 1 row per key, then KMV over distinct keys
    return side.where(F.col("j") == 1).orderBy("u_key", "rid").limit(n)


def cand_selection(
    df: DataFrame, *, n: int, method: str, agg: str, key_col: str, val_col: str, rid_col: str
) -> DataFrame:
    """The rows of ``method``'s cand sketch: featurize, then select n keys."""
    if method not in METHODS:
        raise ValueError(f"unknown sketch method {method!r}")
    agg = "first" if method == "csk" else agg  # CSK ignores AGG: first value seen per key
    aug = fulljoin.featurize(df, key_col=key_col, val_col=val_col, agg=agg, rid_col=rid_col)
    side = _with_coords(
        aug.select(F.col(key_col).alias("key"), F.col(val_col).alias("val")),
        F.lit(1),
        F.lit(None).cast("long"),
    )
    # TUPSK: h_u(h(<k, 1>)); INDSK: the cand stream; the rest: KMV over h_u(h(k)).
    u = {"tupsk": "u_row", "indsk": "u_ind"}.get(method, "u_key")
    return side.orderBy(u, "key").limit(n)


def _collect_sketch(df: DataFrame) -> Sketch:
    pdf = df.select("kh", "val").toPandas()
    return Sketch(pdf["kh"].to_numpy().astype(np.uint32), pdf["val"].to_numpy())


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
    return _collect_sketch(
        train_selection(df, n=n, method=method, key_col=key_col, val_col=val_col, rid_col=rid_col)
    )


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
    return _collect_sketch(
        cand_selection(
            df, n=n, method=method, agg=agg, key_col=key_col, val_col=val_col, rid_col=rid_col
        )
    )
