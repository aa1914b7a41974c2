"""Per-pair evaluation: full-join MI proxy + every sketch's estimate.

The experiment sweeps call this once per (T_train, T_cand) pair, in
``pair_id`` order, in one process. It mirrors the paper's measurement
protocol:

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
from repro.sketch import SELECTORS, Cand, Train, cand_agg, join_sketches

_JITTER_SIGMA = 1e-3
#: Estimates on fewer joined rows are reported as NaN.
MIN_SAMPLE = 4


def _jitter(y: np.ndarray, jitter: str, rng) -> np.ndarray:
    """``jitter='y'`` adds tiny Gaussian noise to ``y``; the estimators
    cast their own inputs, so nothing else is done to the sample."""
    if jitter == "y":
        return np.asarray(y, dtype=np.float64) + rng.normal(0.0, _JITTER_SIGMA, len(y))
    return y


def full_join_pairs_pandas(
    train: pd.DataFrame, cand: pd.DataFrame, agg: str
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate-then-left-join in pandas, NULL rows dropped, in train row order.

    Equivalent to ``repro.core.fulljoin.augment`` (oracle-checked in
    the tests); the §V-D timing, the benchmark and the tests run it.
    ``evaluate_pair`` runs the same join on the ``Cand`` it sketches.
    """
    side = Cand(cand["key"].to_numpy(), cand["x"].to_numpy())
    return _join_aug(train, side.keys, side.featurize(agg))


def _join_aug(train: pd.DataFrame, keys, x) -> tuple[np.ndarray, np.ndarray]:
    """Inner-join the train rows to the featurized candidate by a key index lookup, leaving
    out NULL and NaN x (``x IS NOT NULL``); an object index matches ``True`` with ``1``."""
    kept = ~pd.isna(x)
    pos = pd.Index(keys[kept]).get_indexer(train["key"].to_numpy())
    hit = pos >= 0
    return train["y"].to_numpy()[hit], x[kept][pos[hit]]


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
    ``method='full'`` row per estimator when ``compute_full``.

    ``train`` ([rid, key, y]) and ``cand`` ([rid, key, x]) must come in
    ``rid`` order: a row's occurrence index j counts the earlier rows of
    its key, so the sketches' samples depend on the row order.
    The columns of the result are pair_id, method, estimator, join_size,
    mi_sketch, mi_full, full_join_size."""
    rng = np.random.default_rng(1_000_003 * (pair_id + 1))
    # Each side is prepared once: every method selects from it, the full join too.
    train_side = Train(train["key"].to_numpy(), train["y"].to_numpy(), train["rid"].to_numpy())
    cand_side = Cand(cand["key"].to_numpy(), cand["x"].to_numpy())
    samples = []  # (method, y, x): the full join first, then each sketch join
    if compute_full:
        samples.append(("full", *_join_aug(train, cand_side.keys, cand_side.featurize(agg))))
    for method in methods:
        select_train, select_cand = SELECTORS[method]
        samples.append((method, *join_sketches(
            train_side.sketch(select_train(train_side, n)),
            cand_side.sketch(select_cand(cand_side, n), cand_agg(method, agg)),
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
