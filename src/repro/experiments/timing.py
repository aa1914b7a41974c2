"""Section V-D — runtime of the sketch path vs the full-join path.

The paper reports exemplar single-node timings at sketch size n = 256
as the table size N grows from 5k to 20k: full-join time and full-data
MI-estimation time grow with N, while sketch-join time and sketch MI
time stay small / approximately constant. We measure the same four
operations (plus sketch construction, which the paper amortizes into
offline preprocessing) on the CDUnif workload with the numpy core —
the same single-node setting as the paper's numbers. Absolute values
differ from the paper's (different implementation stack); the shape is
what matters.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.evaluate import full_join_pairs_pandas
from repro.mi import estimate_mi
from repro.sketch import build_pair, join_sketches
from repro.synthgen import cdunif, decompose

N_VALUES = (5_000, 10_000, 20_000)
SKETCH_N = 256
_CALLS = 51  # timed calls per operation, after one warm-up call


def make_dataset(n_rows: int):
    """One KeyDep CDUnif pair with m = 100 (repeated keys -> non-trivial
    sketches), seed 0."""
    rng = np.random.default_rng(0)
    x, y, _ = cdunif.sample(100, n_rows, rng)
    return decompose(x, y, "keydep")


def _timed(fn) -> tuple[float, object]:
    """Median wall time in milliseconds of ``_CALLS`` calls after one
    warm-up call, plus the result."""
    result = fn()
    ms = []
    for _ in range(_CALLS):
        t0 = time.perf_counter()
        result = fn()
        ms.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(ms)), result


def measure(*, n_values=N_VALUES, n: int = SKETCH_N) -> pd.DataFrame:
    """Time the four paper operations per table size N, sketching with
    TUPSK as the paper's timings do."""
    rows = []
    for n_rows in n_values:
        pair = make_dataset(n_rows)
        tk, tv = pair.train["key"].to_numpy(), pair.train["y"].to_numpy()
        ck, cv = pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy()

        build_ms, (s_train, s_cand) = _timed(
            lambda: build_pair("tupsk", tk, tv, ck, cv, n, agg="avg")
        )
        sketch_join_ms, (sy, sx) = _timed(lambda: join_sketches(s_train, s_cand))
        full_join_ms, (fy, fx) = _timed(
            lambda: full_join_pairs_pandas(pair.train, pair.cand, "avg")
        )
        full_mi_ms, _ = _timed(
            lambda: estimate_mi(fx.astype(float), fy.astype(float), "mixed_ksg")
        )
        sketch_mi_ms, _ = _timed(
            lambda: estimate_mi(sx.astype(float), sy.astype(float), "mixed_ksg")
        )
        rows.append(
            {
                "N": n_rows,
                "full_join_ms": round(full_join_ms, 3),
                "sketch_join_ms": round(sketch_join_ms, 3),
                "full_mi_ms": round(full_mi_ms, 3),
                "sketch_mi_ms": round(sketch_mi_ms, 3),
                "sketch_build_ms": round(build_ms, 3),
                "full_join_size": len(fy),
                "sketch_join_size": len(sy),
            }
        )
    return pd.DataFrame(rows)
