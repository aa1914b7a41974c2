"""Table I — sketch estimates vs analytic true MI on synthetic data.

Protocol (paper Sections V-A, V-B5): for each of the two synthetic
distributions, generate table pairs of N = 10k post-join rows under
both key regimes (KeyInd, KeyDep), build every sketch at n = 256,
estimate MI from the sketch join with each type-appropriate estimator,
and report per (dataset, sketch): average sketch-join size, its
percentage of n, and the MSE against the analytic true MI.

Deviation from the paper's stated parameters (documented in
EXPERIMENTS.md): the paper draws CDUnif's m "uniformly in [2, 1000]",
but its reported join sizes (TUPSK = 100% of n) and MSE magnitudes are
only attainable when the key domain rarely exceeds the sketch size, so
we draw m *log*-uniformly over the same range, which concentrates mass
at m <= n while still exercising the breakdown regime.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.core.evaluate import evaluate_pair
from repro.sketch import SELECTORS
from repro.synthgen import TablePair, cdunif, decompose, trinomial

N_ROWS = 10_000
SKETCH_N = 256
METHODS = tuple(sorted(SELECTORS))
TRINOMIAL_MS = (16, 64, 256, 512, 1024)
#: (estimator, jitter) specs per dataset — paper Section V-A
#: "Distribution Parameters": Trinomial is evaluated as discrete (MLE),
#: mixture (MixedKSG), and discrete-continuous with one perturbed
#: marginal (DC-KSG); CDUnif natively supports MixedKSG and DC-KSG.
ESTIMATORS = {
    "trinomial": (("mle", "none"), ("mixed_ksg", "none"), ("dc_ksg", "y")),
    "cdunif": (("mixed_ksg", "none"), ("dc_ksg", "none")),
}


@dataclass
class Workload:
    """All table pairs of the Table I sweep; ``pairs[i]`` is pair_id i."""

    pairs: list[TablePair]
    meta: pd.DataFrame  # pair_id, dataset, keygen, m, true_mi


def build_workload(
    *,
    n_rows: int = N_ROWS,
    trials_per_config: int = 3,
    cdunif_draws: int = 15,
    seed: int = 42,
) -> Workload:
    """Generate every synthetic table pair (deterministic in ``seed``)."""
    rng = np.random.default_rng(seed)
    pairs, meta = [], []

    def _add(dataset: str, keygen: str, m: int, true_mi: float, x, y) -> None:
        pair = decompose(x, y, keygen)
        pairs.append(replace(
            pair,
            train=pair.train.assign(y=pair.train["y"].astype(np.float64)),
            cand=pair.cand.assign(x=pair.cand["x"].astype(np.float64)),
        ))
        meta.append(
            {"pair_id": len(meta), "dataset": dataset, "keygen": keygen, "m": m, "true_mi": true_mi}
        )

    for m in TRINOMIAL_MS:
        for keygen in ("keyind", "keydep"):
            for _ in range(trials_per_config):
                params = trinomial.choose_params(m, rng)
                x, y = trinomial.sample(params, n_rows, rng)
                _add("trinomial", keygen, m, params.true_mi, x, y)
    for keygen in ("keyind", "keydep"):
        for _ in range(cdunif_draws):
            m = int(np.exp(rng.uniform(np.log(2.0), np.log(1000.0))))
            x, y, true = cdunif.sample(m, n_rows, rng)
            _add("cdunif", keygen, m, true, x, y)

    return Workload(pairs=pairs, meta=pd.DataFrame(meta))


def run(workload: Workload | None = None, *, n: int = SKETCH_N) -> pd.DataFrame:
    """Sweep over all pairs in pair_id order; returns raw per-estimate
    rows joined with the pair metadata."""
    wl = workload or build_workload()
    raw = pd.concat(
        [
            evaluate_pair(
                pair_id, pair.train, pair.cand, n=n, methods=METHODS,
                estimators=ESTIMATORS[dataset], agg="avg", compute_full=False,
            )
            for pair_id, (pair, dataset) in enumerate(zip(wl.pairs, wl.meta["dataset"]))
        ],
        ignore_index=True,
    )
    return raw.merge(wl.meta, on="pair_id")


def summarize(raw: pd.DataFrame, *, n: int = SKETCH_N) -> pd.DataFrame:
    """Aggregate to the published Table I layout.

    Sketch joins too small to estimate on contribute an estimate of 0
    (an empty sample carries no information), mirroring how a discovery
    system would score them.
    """
    df = raw[raw["method"] != "full"].copy()
    df["mi_sketch"] = df["mi_sketch"].fillna(0.0)
    df["sq_err"] = (df["mi_sketch"] - df["true_mi"]) ** 2
    per_pair_join = (
        df.groupby(["dataset", "method", "pair_id"])["join_size"].first().reset_index()
    )
    join = per_pair_join.groupby(["dataset", "method"])["join_size"].mean()
    mse = df.groupby(["dataset", "method"])["sq_err"].mean()
    out = pd.DataFrame(
        {
            "avg_sketch_join_size": join.round(1),
            "pct_of_n": (100.0 * join / n).round(2),
            "mse": mse.round(2),
        }
    ).reset_index()
    return out.sort_values(["dataset", "method"]).reset_index(drop=True)
