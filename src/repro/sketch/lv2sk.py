"""LV2SK — two-level sampling baseline sketch (paper Section IV-A).

Level 1 performs coordinated KMV sampling over *distinct* join keys
(the n keys with the smallest ``h_u(h(k))``); level 2 caps the rows
kept per selected key at ``n_k = max(1, floor(n * N_k / N))`` so the
sketch size is bounded by 2n. Selection within a key uses the per-row
hash ``h_u(h(<k, j>))`` as the (deterministic) uniform subsample.

The per-tuple inclusion probability is 1 / (m_K * max(1, floor(n N_k / N)))
— *non-uniform* in the key frequency, which is exactly the bias source
TUPSK removes (paper Section IV-B).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import hashing

from .base import Cand, Train, bottom_n


def two_level(train: Train, key_order: np.ndarray, n: int) -> np.ndarray:
    """Keep the first n key codes of ``key_order`` (level 1), then per
    kept key the n_k rows with the smallest ``u_row`` (level 2)."""
    rows = np.flatnonzero(np.isin(train.codes, key_order[:n]))
    codes = train.codes[rows]
    n_k = np.maximum(1, (n * train.counts / train.N).astype(np.int64))
    rank = pd.Series(train.u_row[rows]).groupby(codes).rank(method="first").to_numpy()
    return rows[rank <= n_k[codes]]


def select_train(train: Train, n: int) -> np.ndarray:
    """Level 1 is KMV: the keys with the smallest ``h_u(h(k))``."""
    return two_level(train, np.argsort(train.u_key, kind="stable"), n)


def select_cand(cand: Cand, n: int) -> np.ndarray:
    """KMV over the (aggregated, so unique) keys."""
    return bottom_n(hashing.u01(cand.key_hash), n)
