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
import pandas as pd

from .base import Train
from .lv2sk import select_cand

#: CSK ignores the AGG it is asked for: its cand side keeps the first value.
AGG = "first"


def select_train(train: Train, n: int) -> np.ndarray:
    """KMV over the first (j = 1) rows of the non-NULL keys: the first
    value of the n keys with the smallest ``h_u(h(k))``, as
    ``select_cand`` takes them from a table featurized with FIRST."""
    codes = np.flatnonzero(pd.notna(train.keys[train.first]))
    return train.first[codes[np.argsort(train.u_key[codes], kind="stable")[:n]]]
