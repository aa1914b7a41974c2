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

from repro.core.evaluate import evaluate_pair
from repro.mi import route
from repro.opendata import PairTables, generate_collection
from repro.opendata.typeinfer import cast_column
from repro.sketch import SELECTORS

SKETCH_N = 1024
MIN_JOIN = 100  # paper: discard sketch joins of size <= 100
#: Paper's Table II reports the two-level sketches and TUPSK; we run
#: the full method set and report the extra baselines alongside.
METHODS = tuple(sorted(SELECTORS))
N_PAIRS = 120


def _eval(pair: PairTables, n: int) -> pd.DataFrame:
    # Type inference (Tablesaw stand-in) feeds the estimator and AGG route.
    train = pair.train.assign(y=cast_column(pair.train["y"]))
    cand = pair.cand.assign(x=cast_column(pair.cand["x"]))
    est, agg = route(cand["x"].to_numpy(), train["y"].to_numpy())
    return evaluate_pair(
        pair.pair_id, train, cand, n=n, methods=METHODS,
        estimators=((est, "none"),), agg=agg, compute_full=True,
    )


def run(
    collection: str,
    *,
    n_pairs: int = N_PAIRS,
    n: int = SKETCH_N,
    seed: int = 0,
) -> pd.DataFrame:
    """Sweep over one collection in pair_id order; returns raw result rows."""
    pairs = generate_collection(collection, n_pairs, seed=seed)
    raw = pd.concat([_eval(p, n) for p in pairs], ignore_index=True)
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
