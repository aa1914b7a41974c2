"""Section V-B1 — true vs estimated MI on fully materialized joins.

The paper's preliminary experiment: on N = 10k-row synthetic table
pairs, estimates computed from the *full* join should track the
analytic true MI closely (they report RMSE < 0.07 and Pearson r > 0.99
for both distributions). This establishes that the full-join estimate
is a sound proxy for the true MI — the assumption behind using it as
ground truth for the real-data evaluation of Table II.
"""
from __future__ import annotations

import pandas as pd

from repro.core.evaluate import evaluate_pair
from repro.experiments import table1


def run(workload: table1.Workload | None = None) -> pd.DataFrame:
    """Compute full-join estimates for every Table I pair, in pair_id order."""
    wl = workload or table1.build_workload()
    raw = pd.concat(
        [
            evaluate_pair(
                pair_id, pair.train, pair.cand, n=4, methods=(),
                estimators=table1.ESTIMATORS[dataset], agg="avg", compute_full=True,
            )
            for pair_id, (pair, dataset) in enumerate(zip(wl.pairs, wl.meta["dataset"]))
        ],
        ignore_index=True,
    )
    return raw.merge(wl.meta, on="pair_id")


def summarize(raw: pd.DataFrame) -> pd.DataFrame:
    """RMSE and Pearson r of full-join estimates vs analytic true MI,
    per (dataset, estimator) — the paper's Section V-B1 numbers."""
    df = raw[raw["method"] == "full"].dropna(subset=["mi_full"]).copy()
    out = []
    for (dataset, est), g in df.groupby(["dataset", "estimator"]):
        err = g["mi_full"] - g["true_mi"]
        out.append(
            {
                "dataset": dataset,
                "estimator": est,
                "n_pairs": len(g),
                "rmse": round(float((err**2).mean() ** 0.5), 4),
                "pearson_r": round(float(g["mi_full"].corr(g["true_mi"])), 4),
            }
        )
    return pd.DataFrame(out).sort_values(["dataset", "estimator"]).reset_index(drop=True)
