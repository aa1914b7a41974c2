"""``corpus-index``: offline sketch indexing plus discovery-time scoring.

The pool interleaves NYC-like and WBF-like pairs from
``opendata.generate_collection``, typed with ``typeinfer.cast_column``
at set-up and routed as in ``experiments.table2``: AVG when the
candidate column is numeric, else MODE; MLE, MixedKSG or DC-KSG by the
two inferred types. An **op** is one ``sketch.build_pair`` for one
(pair, method); the **query** after it joins that sketch pair and
estimates MI.
"""
from __future__ import annotations

import itertools
import time

import numpy as np

import repro.mi as mi
import repro.sketch as sketch
from repro.opendata import SPECS, generate_pair
from repro.opendata.typeinfer import cast_column

from ..harness import Run
from . import fullpath_cdunif

PROVENANCE = {
    "why": (
        "Offline indexing plus discovery-time scoring over open-data-like pairs: hashing, "
        "occurrence_index, aggregate_cand (MODE) and selection do the work; builds and "
        "queries share the sketch layer, so a gain for one at the other's cost shows."
    ),
    "sizes": {
        "full": (
            "32 pairs per round, the first 4 of each (collection, cand numeric, train "
            "numeric) stratum; NYC-like cut to 3000 train / 750 cand rows, WBF-like to "
            "9000 / 3000; n = 1024; 5 methods -> 160 ops and 160 queries per round"
        ),
        "tiny": "8 pairs, one per stratum, cut to 1000 train / 300 cand rows",
    },
    "has": [
        "string keys",
        "Zipf-repeated train keys; repeated cand keys that AGG must reduce",
        "AVG and MODE featurization in a fixed 1:1 mix",
        "MLE, MixedKSG and DC-KSG routes in a fixed 1:1:2 mix",
    ],
    "lacks": [
        "int keys",
        "analytic MI (mi_abs_err is scored on the seeded CDUnif probe of fullpath-cdunif)",
        "Spark",
    ],
}

SKETCH_N = 1024
METHODS = tuple(sketch.METHODS)
#: Train-sketch size bound per method (two-level sketches hold <= 2n).
TRAIN_BOUND = {"tupsk": 1, "lv2sk": 2, "prisk": 2, "indsk": 1, "csk": 1}
#: Every table is cut to a fixed length (half the minimum train length
#: of its collection) so that seeds differ in content, not in size.
SIZES = {
    "full": {"nyc": (3_000, 750), "wbf": (9_000, 3_000)},
    "tiny": {"nyc": (1_000, 300), "wbf": (1_000, 300)},
}
#: Strata are (collection, cand column numeric, train column numeric): AVG
#: and MODE, and the MLE, MixedKSG and DC-KSG routes, in a fixed mix.
STRATA = [(coll, x_num, y_num) for coll in ("nyc", "wbf")
          for x_num in (True, False) for y_num in (True, False)]
PER_STRATUM = {"full": 4, "tiny": 1}


def collection_pairs(coll: str, seed: int):
    """The pairs of ``generate_collection(coll, n, seed=seed)``, one at a
    time, so set-up holds only the pairs it keeps."""
    spec = SPECS[coll]
    offset = sum(ord(c) for c in coll) * 104_729  # as generate_collection
    for i in itertools.count():
        yield generate_pair(i, spec, seed=seed * 1_000_000 + 7919 * i + offset)


def _typed(pair, train_rows: int, cand_rows: int):
    train = pair.train.iloc[:train_rows]
    cand = pair.cand.iloc[:cand_rows]
    return train.assign(y=cast_column(train["y"])), cand.assign(x=cast_column(cand["x"]))


def build_pool(seed: int, size: str) -> list[dict]:
    """The first ``PER_STRATUM`` pairs of each stratum in generation
    order, interleaved, so every seed has the same mix."""
    k = PER_STRATUM[size]
    pool: dict[tuple, list[dict]] = {s: [] for s in STRATA}
    for coll in ("nyc", "wbf"):
        train_rows, cand_rows = SIZES[size][coll]
        for p in collection_pairs(coll, seed):
            if all(len(pool[s]) == k for s in STRATA if s[0] == coll):
                break
            train, cand = _typed(p, train_rows, cand_rows)
            x_num = cand["x"].to_numpy().dtype.kind in "fiu"
            y_num = train["y"].to_numpy().dtype.kind in "fiu"
            stratum = pool[(coll, x_num, y_num)]
            if len(stratum) < k:
                stratum.append({
                    "label": f"{coll}{p.pair_id}",
                    "est": mi.choose_estimator_name(x_num, y_num),
                    "agg": "avg" if x_num else "mode",  # as in Table II
                    "tk": train["key"].to_numpy(), "tv": train["y"].to_numpy(),
                    "ck": cand["key"].to_numpy(), "cv": cand["x"].to_numpy(),
                })
    return [pool[s][i] for i in range(k) for s in STRATA]


def check_build(method: str, result) -> str | None:
    s_train, s_cand = result
    bound = TRAIN_BOUND[method] * SKETCH_N
    if len(s_train) > bound:
        return f"{method} train sketch has {len(s_train)} rows > {bound}"
    if len(s_cand) > SKETCH_N:
        return f"{method} cand sketch has {len(s_cand)} rows > {SKETCH_N}"
    return None


def check_query(s_train, s_cand, result) -> str | None:
    join_size, est = result
    # Many-to-one after de-duplication: each train row matches at most
    # one cand hash, so the join is exactly the train rows whose hash
    # occurs on the cand side.
    expected = int(np.isin(s_train.key_hash, s_cand.key_hash).sum())
    if join_size != expected:
        return f"join has {join_size} rows, expected {expected} (duplicate cand hashes kept?)"
    if join_size > len(s_train):
        return f"join has {join_size} rows > train sketch {len(s_train)}"
    return fullpath_cdunif.check_estimate(est)


class Workload:
    def __init__(self, seed: int, size: str) -> None:
        self.seed, self.size = seed, size

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        self.pool = build_pool(self.seed, self.size)
        return {"opendata.ms": (time.perf_counter() - t0) * 1e3}

    def round(self, run: Run) -> None:
        for p in self.pool:
            tables = {f"{p['label']}.train": len(p["tk"]), f"{p['label']}.cand": len(p["ck"])}
            for method in METHODS:
                label = f"{method}.{p['agg']}"
                pair = run.op(
                    label,
                    lambda m=method: sketch.build_pair(
                        m, p["tk"], p["tv"], p["ck"], p["cv"], SKETCH_N, agg=p["agg"]
                    ),
                    rows=len(p["tk"]) + len(p["ck"]),
                    tables=tables,
                    check=lambda r, m=method: check_build(m, r),
                )
                if pair is None:
                    continue
                s_train, s_cand = pair

                def _query(est=p["est"]):
                    y, x = sketch.join_sketches(s_train, s_cand)
                    return len(y), mi.estimate_mi(x, y, est)

                run.query(label, _query, check=lambda r: check_query(s_train, s_cand, r))

    def mi_abs_err(self) -> float:
        return fullpath_cdunif.ProbePool(self.seed, self.size).mean_abs_error()

    def final_checks(self) -> list[str]:
        return []

    def extra_pids(self) -> tuple:
        return ()

    def close(self) -> None:
        pass
