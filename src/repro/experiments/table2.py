"""Table II — sketch estimates vs full-join estimates on open-data-like
corpora (paper Section V-C).

For each simulated collection (NYC-like, WBF-like) we evaluate every
table pair with sketches of size n = 1024, route the MI estimator by
the inferred column types (MLE / MixedKSG / DC-KSG), and compare the
sketch estimate against the estimate computed on the fully
materialized join — the paper's proxy for the unknown true MI. As in
the paper, estimates whose sketch join recovered <= 100 samples are
discarded before aggregating. Reported per sketch: average sketch-join
size, Spearman rank correlation with the full-join estimates, and MSE.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.evaluate import evaluate_pair
from repro.core.sweep import run_pair_evaluations
from repro.mi import route
from repro.opendata import generate_collection, tall_frames
from repro.opendata.typeinfer import cast_column
from repro.sketch import SELECTORS

SKETCH_N = 1024
MIN_JOIN = 100  # paper: discard sketch joins of size <= 100
#: Paper's Table II reports the two-level sketches and TUPSK; we run
#: the full method set and report the extra baselines alongside.
METHODS = tuple(sorted(SELECTORS))
N_PAIRS = 120


def run(
    spark: SparkSession,
    collection: str,
    *,
    n_pairs: int = N_PAIRS,
    n: int = SKETCH_N,
    seed: int = 0,
) -> pd.DataFrame:
    """Distributed sweep over one collection; returns raw result rows."""
    pairs = generate_collection(collection, n_pairs, seed=seed)
    train_tall, cand_tall = tall_frames(pairs)

    def _eval(pair_id: int, train: pd.DataFrame, cand: pd.DataFrame) -> pd.DataFrame:
        # Type inference (Tablesaw stand-in) feeds the estimator and AGG route.
        train = train.assign(y=cast_column(train["y"]))
        cand = cand.assign(x=cast_column(cand["x"]))
        est, agg = route(cand["x"].to_numpy(), train["y"].to_numpy())
        return evaluate_pair(
            pair_id, train, cand, n=n, methods=METHODS,
            estimators=((est, "none"),), agg=agg, compute_full=True,
        )

    raw = run_pair_evaluations(spark, train_tall, cand_tall, _eval)
    raw["collection"] = collection
    return raw


def summarize(raw: pd.DataFrame, *, min_join: int = MIN_JOIN) -> pd.DataFrame:
    """Aggregate to the published Table II layout."""
    df = raw[raw["method"] != "full"].copy()
    df = df[(df["join_size"] > min_join) & df["mi_sketch"].notna() & df["mi_full"].notna()]
    out = []
    for (coll, method), g in df.groupby(["collection", "method"]):
        # Spearman = Pearson correlation of average ranks (scipy-free).
        spearman = g["mi_sketch"].rank().corr(g["mi_full"].rank())
        out.append(
            {
                "collection": coll,
                "method": method,
                "n_estimates": len(g),
                "avg_join_size": round(g["join_size"].mean(), 1),
                "spearman_r": round(float(spearman), 2),
                "mse": round(float(((g["mi_sketch"] - g["mi_full"]) ** 2).mean()), 2),
            }
        )
    return pd.DataFrame(out).sort_values(["collection", "method"]).reset_index(drop=True)
