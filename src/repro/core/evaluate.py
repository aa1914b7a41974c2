"""Per-pair evaluation: full-join MI proxy + every sketch's estimate.

This is the function the cogrouped sweep harness runs for each
(T_train, T_cand) pair. It mirrors the paper's measurement protocol:

* the *full-join* MI (Section V-C's proxy for the unknown true MI) is
  computed on the materialized aggregate-then-left-join result;
* each sketch method builds its (S_train, S_cand) pair at capacity n,
  joins the sketches, and feeds the recovered sample to the same
  estimator;
* estimates on fewer than ``MIN_SAMPLE`` joined rows are reported as
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
#: Estimates on fewer joined rows are reported as NaN.
MIN_SAMPLE = 4

#: One row per (method, estimator) of :func:`evaluate_pair`.
RESULT_SCHEMA = (
    "pair_id long, method string, estimator string, "
    "join_size long, mi_sketch double, mi_full double, full_join_size long"
)


def _jitter(y: np.ndarray, jitter: str, rng) -> np.ndarray:
    """``jitter='y'`` adds tiny Gaussian noise to ``y``; the estimators
    cast their own inputs, so nothing else is done to the sample."""
    if jitter == "y":
        return np.asarray(y, dtype=np.float64) + rng.normal(0.0, _JITTER_SIGMA, len(y))
    return y


def full_join_pairs_pandas(
    train: pd.DataFrame, cand: pd.DataFrame, agg: str
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate-then-left-join in pandas, NULL rows dropped.

    Equivalent to ``repro.core.fulljoin.augment`` (oracle-checked in
    the tests); the §V-D timing, the benchmark and the tests run it.
    ``evaluate_pair`` joins its own prepared candidate side instead.
    """
    aug = aggregate_cand(cand["key"].to_numpy(), cand["x"].to_numpy(), agg)
    return _join_aug(train, aug["key"].to_numpy(), aug["value"].to_numpy())


def _join_aug(
    train: pd.DataFrame, keys: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inner-join the train rows to the featurized candidate (one x per
    key), leaving out the keys whose x is NULL or NaN, as ``augment``'s
    ``x IS NOT NULL`` does."""
    kept = ~pd.isna(x)
    merged = train[["key", "y"]].merge(
        pd.DataFrame({"key": keys[kept], "x": x[kept]}), on="key", how="inner", sort=False
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
) -> pd.DataFrame:
    """Evaluate one pair; returns rows per (method, estimator) plus a
    ``method='full'`` row per estimator when ``compute_full``."""
    rng = np.random.default_rng(1_000_003 * (pair_id + 1))
    # Each side is prepared once; every method selects from it, and the
    # full join reuses the candidate side's AGG.
    train_side = Train(train["key"].to_numpy(), train["y"].to_numpy(), train["rid"].to_numpy())
    cand_sides = {  # CSK's own AGG (FIRST) adds a side
        a: Cand(cand["key"].to_numpy(), cand["x"].to_numpy(), a)
        for a in {agg, *(cand_agg(m, agg) for m in methods)}
    }
    samples = []  # (method, y, x): the full join first, then each sketch join
    if compute_full:
        samples.append(("full", *_join_aug(train, cand_sides[agg].keys, cand_sides[agg].values)))
    for method in methods:
        select_train, select_cand = SELECTORS[method]
        cand_side = cand_sides[cand_agg(method, agg)]
        samples.append((method, *join_sketches(
            train_side.sketch(select_train(train_side, n)),
            cand_side.sketch(select_cand(cand_side, n)),
        )))
    full_size = len(samples[0][1]) if compute_full else 0
    mi_full: dict[tuple[str, str], float] = {}
    rows: list[dict] = []
    for method, yv, xv in samples:
        for est, jitter in estimators:
            mi = estimate_mi(xv, _jitter(yv, jitter, rng), est) if len(yv) >= MIN_SAMPLE else np.nan
            if method == "full":
                mi_full[(est, jitter)] = mi
            rows.append(
                {
                    "pair_id": pair_id,
                    "method": method,
                    "estimator": f"{est}|{jitter}" if jitter != "none" else est,
                    "join_size": len(yv),
                    "mi_sketch": np.nan if method == "full" else mi,
                    "mi_full": mi_full.get((est, jitter), np.nan),
                    "full_join_size": full_size,
                }
            )
    return pd.DataFrame(rows)
