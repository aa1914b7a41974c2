"""Pinned physical-plan shape of the Spark sketch builders and of
``augment``.

Each builder's final DataFrame (the pass whose rows it collects), and
``augment``'s result, is planned, and its shuffles (``Exchange``), Python round trips
(``ArrowEvalPython``, ``MapInPandas``, ``MapInArrow``), windows and
sort-merge joins are counted. A change that adds one fails here; one
that removes one updates the pin. ``MapInPandas``, whose pandas frames
hold a ``long`` column with a NULL as float64, stays pinned at 0.
"""
from collections import Counter

import numpy as np
import pytest

from repro.core import fulljoin, pipeline
from repro.synthgen import cdunif, decompose

NODES = ("Exchange", "ArrowEvalPython", "Window", "SortMergeJoin", "MapInPandas", "MapInArrow")

#: (Exchange, ArrowEvalPython, Window, SortMergeJoin, MapInPandas,
#: MapInArrow) per method and side: one shuffle by key and one Python
#: pass, and INDSK's train side, a row sample, needs no shuffle.
PINNED = {
    ("train", "tupsk"): (1, 0, 0, 0, 0, 1),
    ("train", "lv2sk"): (1, 0, 0, 0, 0, 1),
    ("train", "prisk"): (1, 0, 0, 0, 0, 1),
    ("train", "indsk"): (0, 0, 0, 0, 0, 1),
    ("train", "csk"): (1, 0, 0, 0, 0, 1),
    ("cand", "tupsk"): (1, 0, 0, 0, 0, 1),
    ("cand", "lv2sk"): (1, 0, 0, 0, 0, 1),
    ("cand", "prisk"): (1, 0, 0, 0, 0, 1),
    ("cand", "indsk"): (1, 0, 0, 0, 0, 1),
    ("cand", "csk"): (1, 0, 0, 0, 0, 1),
}

#: ``augment`` per AGG: the cand side's shuffle by key and Python pass
#: (the builders' pass, running the numpy AGG), then a sort-merge join
#: with a shuffle on each side.
AUGMENT_PINNED = {agg: (3, 0, 0, 1, 0, 1) for agg in ("avg", "count", "mode", "first")}


def plan_nodes(df) -> tuple[int, ...]:
    """Counts of ``NODES`` in the executed plan of ``df`` (AQE's initial plan)."""
    plan = df._jdf.queryExecution().executedPlan()
    if plan.nodeName() == "AdaptiveSparkPlan":
        plan = plan.executedPlan()
    counts, stack = Counter(), [plan]
    while stack:
        node = stack.pop()
        counts[node.nodeName()] += 1
        children = node.children()
        stack += [children.apply(i) for i in range(children.size())]
    return tuple(counts[name] for name in NODES)


@pytest.fixture(scope="module")
def pair_dfs(spark):
    rng = np.random.default_rng(5)
    x, y, _ = cdunif.sample(40, 1500, rng)
    pair = decompose(x, y, "keydep")
    return spark.createDataFrame(pair.train).cache(), spark.createDataFrame(pair.cand).cache()


@pytest.mark.parametrize("side, method", sorted(PINNED))
def test_builder_plan_shape_is_pinned(pair_dfs, side, method):
    train, cand = pair_dfs
    if side == "train":
        df = pipeline._train_pass(train, n=64, method=method, parts=4)
    else:
        df = pipeline._cand_pass(cand, n=64, method=method, agg="avg", parts=4)
    assert plan_nodes(df) == PINNED[(side, method)]


@pytest.mark.parametrize("agg", sorted(AUGMENT_PINNED))
def test_augment_plan_shape_is_pinned(pair_dfs, agg):
    train, cand = pair_dfs
    assert plan_nodes(fulljoin.augment(train, cand, agg=agg)) == AUGMENT_PINNED[agg]
