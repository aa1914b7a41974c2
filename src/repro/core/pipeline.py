"""Distributed sketch construction: one Spark pass per table side.

The paper's deployment path (Section IV): sketches are built offline
over large tables in one distributed pass, and only the <= 2n-row
sketch reaches the driver, where sketch joins and MI estimation run.

Each side is repartitioned by key into P = ``defaultParallelism``
partitions, so a key's rows, and with them its ``j`` and ``N_k``, sit
in one partition. One ``mapInArrow`` sorts each partition by ``rid``,
prepares it as the numpy core does (``Train``/``Cand``) and runs the
method's own selector; the driver runs the same selector on the small
union, sorted by ``rid``, with the ``j``, ``N_k`` and ``N = sum N_p``
the partitions counted. That is the numpy sketch of the whole table:
bottom-n samples merge, a partition's LV2SK/PRISK caps
``max(1, floor(n N_k / N_p))`` are at least the global ones, and each
kept key also sends its ``j = 1`` row, so ties between keys go to the
first ``rid`` as in numpy. INDSK samples train rows by ``rid`` alone
and skips the repartition. Limit: a partition must fit in one Python
worker. Rows need a stable row id (``rid``) to define ``j``.

:func:`map_key_partitions` is that partition step, for both builders
and for ``repro.core.fulljoin.featurize``. It and :func:`_union` are
their Spark -> pandas hand-off, and it is exact: an integer column
holding a NULL arrives as Python ints and ``None``, not float64.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import types as T
from pyspark.sql.pandas.types import to_arrow_schema

from repro.sketch import SELECTORS, Cand, Sketch, Train, cand_agg

_COUNTS = [T.StructField(c, T.LongType()) for c in ("j", "n_k", "n_p")]


def agg_field(rows: DataFrame, agg: str) -> T.StructField:
    """The column ``x`` of ``rows`` featurized with ``agg``: AVG is
    double, COUNT long, the other AGGs keep the type of ``x``."""
    val_type = {"avg": T.DoubleType(), "count": T.LongType()}.get(agg, rows.schema["x"].dataType)
    return T.StructField("x", val_type)


def _sorted_frame(table: pa.Table) -> pd.DataFrame:
    """``table`` as pandas, sorted by ``rid``, with every value exact."""
    frame = table.to_pandas(integer_object_nulls=True)
    return frame.sort_values("rid", kind="stable", ignore_index=True)


def map_key_partitions(
    rows: DataFrame, local, schema: T.StructType, *, parts: int | None
) -> DataFrame:
    """Run ``local`` on ``rows`` one key partition at a time.

    The rows are repartitioned by key into ``parts`` partitions (None:
    keep their own), so all rows of a key meet in one. ``local`` gets
    each non-empty partition as one pandas frame sorted by ``rid`` and
    returns its output rows, typed as ``schema``.
    """
    if parts is not None:
        rows = rows.repartition(parts, "key")

    out_schema = to_arrow_schema(schema)

    def run(batches):
        batches = list(batches)
        if batches:
            out = local(_sorted_frame(pa.Table.from_batches(batches)))
            yield pa.RecordBatch.from_pandas(out, schema=out_schema, preserve_index=False)

    return rows.mapInArrow(run, schema)


def _train_pass(df: DataFrame, *, n: int, method: str, parts: int) -> DataFrame:
    """The rows each key-partition's train selector keeps, with the
    first row of each of their keys, ``j``, ``n_k`` and, on a
    partition's first row (0 on the rest), its row count ``n_p``."""
    select = SELECTORS[method][0]

    def local(pdf):
        train = Train(pdf["key"].to_numpy(), pdf["y"].to_numpy(), pdf["rid"].to_numpy())
        picked = select(train, n)
        keep = np.union1d(picked, train.first[train.codes[picked]])
        n_p = np.zeros(len(keep), np.int64)
        n_p[:1] = len(pdf)
        return pdf.iloc[keep].assign(
            j=train.j[keep], n_k=train.counts[train.codes[keep]], n_p=n_p
        )

    rows = df.select("rid", "key", "y")
    # INDSK reads neither j nor N_k, so its rows need no shuffle.
    return map_key_partitions(
        rows, local, T.StructType(rows.schema.fields + _COUNTS),
        parts=None if method == "indsk" else parts,
    )


def _cand_pass(df: DataFrame, *, n: int, method: str, agg: str, parts: int) -> DataFrame:
    """The keys each key-partition's cand selector keeps, with their AGG
    value and the ``rid`` of their first row, read from one ``Cand``."""
    select = SELECTORS[method][1]
    agg = cand_agg(method, agg)

    def local(pdf):
        cand = Cand(pdf["key"].to_numpy(), pdf["x"].to_numpy())
        picked = select(cand, n)
        rid, x = pdf["rid"].to_numpy()[cand.first[picked]], cand.featurize(agg)[picked]
        return pd.DataFrame({"rid": rid, "key": cand.keys[picked], "x": x})

    rows = df.select("rid", "key", "x")
    schema = T.StructType([*rows.schema.fields[:2], agg_field(rows, agg)])
    return map_key_partitions(rows, local, schema, parts=parts)


def _union(pass_df: DataFrame) -> pd.DataFrame:
    return _sorted_frame(pass_df.toArrow())


def _train_sketch(df: DataFrame, *, n: int, method: str, parts: int) -> Sketch:
    u = _union(_train_pass(df, n=n, method=method, parts=parts))
    train = Train(
        u["key"].to_numpy(), u["y"].to_numpy(), u["rid"].to_numpy(),
        j=u["j"].to_numpy(), n_k=u["n_k"].to_numpy(), N=int(u["n_p"].sum()),
    )
    return train.sketch(SELECTORS[method][0](train, n))


def _cand_sketch(df: DataFrame, *, n: int, method: str, agg: str, parts: int) -> Sketch:
    u = _union(_cand_pass(df, n=n, method=method, agg=agg, parts=parts))
    # One row per key, already featurized: FIRST hands each value back as it is.
    cand = Cand(u["key"].to_numpy(), u["x"].to_numpy())
    return cand.sketch(SELECTORS[method][1](cand, n), "first")


def spark_train_sketch(df: DataFrame, *, n: int, method: str) -> Sketch:
    """Build the train-side (left table) sketch of ``df[rid, key, y]`` in
    one pass."""
    parts = df.sparkSession.sparkContext.defaultParallelism
    return _train_sketch(df, n=n, method=method, parts=parts)


def spark_cand_sketch(df: DataFrame, *, n: int, method: str, agg: str = "avg") -> Sketch:
    """Build the candidate-side sketch of ``df[rid, key, x]`` in one pass:
    featurize each key with ``agg``, then select."""
    parts = df.sparkSession.sparkContext.defaultParallelism
    return _cand_sketch(df, n=n, method=method, agg=agg, parts=parts)
