"""Batched evaluation harness: many table pairs in one distributed pass.

The paper's experiments evaluate hundreds of (T_train, T_cand) pairs.
Rather than running one Spark job per pair, we stack all pairs into two
tall DataFrames keyed by ``pair_id`` and use cogrouped
``applyInPandas``: each pair's train and cand partitions meet in a
single task, which runs an arbitrary per-pair evaluation function
(full-join MI, every sketch's estimate, ...) using the shared numpy
core. With ~16 cores this evaluates all pairs of Table I / Table II
concurrently.

The per-pair function receives plain pandas DataFrames sorted by
``rid`` (restoring the stable row order that defines occurrence
indices) and returns result rows of ``evaluate.RESULT_SCHEMA``.
"""
from __future__ import annotations

from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.evaluate import RESULT_SCHEMA


def run_pair_evaluations(
    spark: SparkSession,
    train_tall: pd.DataFrame | DataFrame,
    cand_tall: pd.DataFrame | DataFrame,
    eval_fn: Callable[[int, pd.DataFrame, pd.DataFrame], pd.DataFrame],
) -> pd.DataFrame:
    """Evaluate every pair_id with ``eval_fn`` via cogrouped applyInPandas.

    ``train_tall``/``cand_tall`` must contain a ``pair_id`` column plus
    whatever columns ``eval_fn`` expects (typically rid/key/value), and
    ``eval_fn`` returns rows of ``RESULT_SCHEMA``. The rows come back
    sorted by ``pair_id``, each pair's rows in ``eval_fn``'s order, so
    the output does not depend on task scheduling.
    """
    tdf = train_tall if isinstance(train_tall, DataFrame) else spark.createDataFrame(train_tall)
    cdf = cand_tall if isinstance(cand_tall, DataFrame) else spark.createDataFrame(cand_tall)

    def _fn(key: tuple, left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        left = left.sort_values("rid").reset_index(drop=True)
        right = right.sort_values("rid").reset_index(drop=True)
        return eval_fn(int(key[0]), left, right)

    out = (
        tdf.groupby("pair_id")
        .cogroup(cdf.groupby("pair_id"))
        .applyInPandas(_fn, schema=RESULT_SCHEMA)
    )
    return out.toPandas().sort_values("pair_id", kind="stable", ignore_index=True)
