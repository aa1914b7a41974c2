"""Per-pair evaluation: full-join MI proxy + every sketch's estimate.

This is the function the cogrouped sweep harness runs for each
(T_train, T_cand) pair. It mirrors the paper's measurement protocol:

* the *full-join* MI (Section V-C's proxy for the unknown true MI) is
  computed on the materialized aggregate-then-left-join result;
* each sketch method builds its (S_train, S_cand) pair at capacity n,
  joins the sketches, and feeds the recovered sample to the same
  estimator;
* estimates on fewer than ``min_sample`` joined rows are reported as
  NaN (the paper discards sketch joins of size <= 100 in Table II).

Estimator specs are ``(name, jitter)`` pairs; ``jitter='y'`` adds tiny
Gaussian noise to Y to break ties, the paper's trick (Section V-A) for
treating ordered-discrete data as continuous so DC-KSG applies.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.mi import estimate_mi
from repro.sketch import SELECTORS, Cand, Train, aggregate_cand, cand_agg, join_sketches

_JITTER_SIGMA = 1e-3


def _prepare(x: np.ndarray, y: np.ndarray, estimator: str, jitter: str, rng) -> tuple:
    """Cast/perturb the sample per the estimator's type contract."""
    if estimator == "mle":
        return x, y
    if estimator == "mixed_ksg":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
    else:  # dc_ksg: keep the discrete side as-is, continuous side float
        if np.asarray(y).dtype.kind in "fiu":
            y = np.asarray(y, dtype=np.float64)
        if np.asarray(x).dtype.kind in "fiu" and np.asarray(y).dtype.kind not in "fiu":
            x = np.asarray(x, dtype=np.float64)
    if jitter == "y":
        y = np.asarray(y, dtype=np.float64) + rng.normal(0.0, _JITTER_SIGMA, len(y))
    return x, y


def full_join_pairs_pandas(
    train: pd.DataFrame, cand: pd.DataFrame, agg: str
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate-then-left-join in pandas, NULL rows dropped.

    Equivalent to ``repro.core.fulljoin.augment`` (oracle-checked in
    the tests); used inside Spark tasks where nested Spark calls are
    unavailable.
    """
    aug = aggregate_cand(cand["key"].to_numpy(), cand["x"].to_numpy(), agg)
    return _join_aug(train, aug["key"].to_numpy(), aug["value"].to_numpy())


def _join_aug(
    train: pd.DataFrame, keys: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inner-join the train rows to the featurized candidate (one x per key)."""
    merged = train[["key", "y"]].merge(
        pd.DataFrame({"key": keys, "x": x}), on="key", how="inner", sort=False
    )
    return merged["y"].to_numpy(), merged["x"].to_numpy()


def evaluate_pair(
    pair_id: int,
    train: pd.DataFrame,
    cand: pd.DataFrame,
    *,
    n: int,
    methods: tuple[str, ...],
    estimators: tuple[tuple[str, str], ...],
    agg: str = "avg",
    compute_full: bool = True,
    min_sample: int = 4,
) -> pd.DataFrame:
    """Evaluate one pair; returns rows per (method, estimator) plus a
    ``method='full'`` row per estimator when ``compute_full``."""
    rng = np.random.default_rng(1_000_003 * (pair_id + 1))
    rows: list[dict] = []
    full_cache: dict[tuple[str, str], float] = {}
    full_size = 0
    # Each side is prepared once; every method selects from it, and the
    # full join reuses the candidate side's AGG.
    train_side = Train(train["key"].to_numpy(), train["y"].to_numpy())
    cand_sides = {  # CSK's own AGG (FIRST) adds a side
        a: Cand(cand["key"].to_numpy(), cand["x"].to_numpy(), a)
        for a in {agg, *(cand_agg(m, agg) for m in methods)}
    }
    if compute_full:
        fy, fx = _join_aug(train, cand_sides[agg].keys, cand_sides[agg].values)
        full_size = len(fy)
        for est, jitter in estimators:
            px, py = _prepare(fx, fy, est, jitter, rng)
            full_cache[(est, jitter)] = (
                estimate_mi(px, py, est) if full_size >= min_sample else np.nan
            )
            rows.append(
                {
                    "pair_id": pair_id,
                    "method": "full",
                    "estimator": f"{est}|{jitter}" if jitter != "none" else est,
                    "join_size": full_size,
                    "mi_sketch": np.nan,
                    "mi_full": full_cache[(est, jitter)],
                    "full_join_size": full_size,
                }
            )
    for method in methods:
        select_train, select_cand = SELECTORS[method]
        cand_side = cand_sides[cand_agg(method, agg)]
        yv, xv = join_sketches(
            train_side.sketch(select_train(train_side, n)),
            cand_side.sketch(select_cand(cand_side, n)),
        )
        for est, jitter in estimators:
            if len(yv) >= min_sample:
                px, py = _prepare(xv, yv, est, jitter, rng)
                mi_sketch = estimate_mi(px, py, est)
            else:
                mi_sketch = np.nan
            rows.append(
                {
                    "pair_id": pair_id,
                    "method": method,
                    "estimator": f"{est}|{jitter}" if jitter != "none" else est,
                    "join_size": len(yv),
                    "mi_sketch": mi_sketch,
                    "mi_full": full_cache.get((est, jitter), np.nan),
                    "full_join_size": full_size,
                }
            )
    return pd.DataFrame(rows)
