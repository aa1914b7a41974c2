"""CSK — Correlation Sketches baseline, extended to MI (paper §V).

Correlation Sketches (Santos et al., SIGMOD 2021) perform KMV
coordinated sampling over *distinct* join keys and keep one value per
key. They "do not prescribe how to handle repeated join keys"; per the
paper's baseline setup we keep the **first value seen** for each key on
both sides — no aggregation function is applied, so repeated-key
information on either table is simply dropped. "First" is the value
at the key's first row, NaN included (SQL's ``MIN_BY(x, rid)``): on
the train side, the j = 1 row.
"""
from __future__ import annotations

import numpy as np

from .base import Cand, Sketch, Train
from .lv2sk import select_cand as _kmv


def select_train(train: Train, n: int) -> Sketch:
    return _kmv(Cand(train.keys, train.values, "first"), n)


def select_cand(cand: Cand, n: int) -> Sketch:
    """CSK ignores AGG by design: first value seen per key."""
    return _kmv(cand if cand.agg == "first" else Cand(*cand.table, "first"), n)


def train_sketch(keys: np.ndarray, values: np.ndarray, n: int) -> Sketch:
    return _kmv(Cand(keys, values, "first"), n)


def cand_sketch(keys: np.ndarray, values: np.ndarray, n: int, agg: str = "avg") -> Sketch:
    return _kmv(Cand(keys, values, "first"), n)
