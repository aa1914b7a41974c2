"""PRISK — two-level sketch with priority sampling at level 1 (§V).

Identical to LV2SK except the first level selects keys by *priority
sampling* (Duffield, Lund & Thorup) with weight equal to the key
frequency N_k: keep the n keys with the largest priority
``q_k = N_k / h_u(h(k))``. On the aggregated candidate side all
weights are 1, so the selection coincides with LV2SK's KMV. The paper
reports PRISK results to be nearly identical to LV2SK.
"""
from __future__ import annotations

import numpy as np

from .base import Train
from .lv2sk import select_cand, two_level  # aggregated keys all weigh 1: LV2SK's KMV


def select_train(train: Train, n: int) -> np.ndarray:
    # Priority = weight / u; avoid division by zero on the (measure
    # zero, but reachable) u == 0 hash by flooring at the smallest
    # positive float.
    priority = train.counts / np.maximum(train.u_key, np.finfo(np.float64).tiny)
    return two_level(train, np.argsort(-priority, kind="stable"), n)
