"""TUPSK — the paper's proposed tuple-based sampling sketch (§IV-B).

Rows of the train table are sampled by hashing the occurrence tuple
``<k, j>`` (key value k, j-th occurrence), which makes every row's
inclusion probability uniform (1/N) regardless of the join-key
frequency distribution. The candidate side aggregates per key and
samples by ``h_u(h(<k, 1>))``, coordinating with the j = 1 train rows.
"""
from __future__ import annotations

import numpy as np

from repro import hashing

from .base import Cand, Train, bottom_n


def select_train(train: Train, n: int) -> np.ndarray:
    """Keep the n rows with the smallest ``h_u(h(<k, j>))``."""
    return bottom_n(train.u_row, n)


def select_cand(cand: Cand, n: int) -> np.ndarray:
    """Keep the n keys minimizing ``h_u(h(<k, 1>))``."""
    return bottom_n(hashing.tuple_u01(cand.key_hash, np.ones_like(cand.key_hash)), n)
