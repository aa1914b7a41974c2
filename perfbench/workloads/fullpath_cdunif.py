"""``fullpath-cdunif``: the §V-D ground-truth path against the sketch path.

An **op** indexes one CDUnif KeyDep pair with TUPSK (n = 256) and then
runs the full path on it: ``full_join_pairs_pandas`` plus full-data
MixedKSG and DC-KSG. A **query** is the TUPSK sketch join plus MixedKSG,
on the op's pair and then on every pair of a probe pool indexed at set-up.
"""
from __future__ import annotations

import time

import numpy as np

import repro.core.evaluate as evaluate
import repro.mi as mi
import repro.sketch as sketch
from repro.synthgen import cdunif, decompose

from ..harness import Run

PROVENANCE = {
    "why": (
        "Ground-truth path of paper §V-D: brute-force k-NN MI on the full join grows "
        "with N while the sketch join plus MI stays constant; mirror image of corpus-index."
    ),
    "sizes": {
        "full": "op pairs N in {5k, 10k, 20k}, m = 100 classes; probe 20 pairs per N, queried after the op of that N; n = 256",
        "tiny": "op pairs N in {1k, 2k, 4k}, m = 10; probe 2 pairs per N; n = 256",
    },
    "has": [
        "string keys (decimal renderings of X)",
        "repeated train keys (KeyDep: key = X)",
        "analytic true MI (log m - (m - 1) log 2 / m)",
        "AVG over unique cand keys",
    ],
    "lacks": ["MODE featurization", "int keys", "MLE route", "Spark"],
}

SKETCH_N = 256
MI_TOLERANCE = 0.07  # §V-B1: full-data estimates within 0.07 of the true MI
SIZES = {
    "full": {"n_rows": (5_000, 10_000, 20_000), "m": 100, "probe_per_n": 20},
    "tiny": {"n_rows": (1_000, 2_000, 4_000), "m": 10, "probe_per_n": 2},
}


def cdunif_pair(n_rows: int, m: int, seed: int):
    """One seeded CDUnif KeyDep pair and its analytic MI."""
    x, y, true_mi = cdunif.sample(m, n_rows, np.random.default_rng(seed))
    return decompose(x, y, "keydep"), true_mi


def tupsk_index(pair):
    return sketch.build_pair(
        "tupsk",
        pair.train["key"].to_numpy(), pair.train["y"].to_numpy(),
        pair.cand["key"].to_numpy(), pair.cand["x"].to_numpy(),
        SKETCH_N, agg="avg",
    )


def sketch_query(s_train, s_cand) -> float:
    y, x = sketch.join_sketches(s_train, s_cand)
    return mi.estimate_mi(x.astype(np.float64), y.astype(np.float64), "mixed_ksg")


def check_estimate(est) -> str | None:
    if not (np.isfinite(est) and est >= 0):
        return f"estimate {est!r} is not finite and >= 0"
    return None


class ProbePool:
    """TUPSK-indexed CDUnif pairs whose sketch estimates are scored
    against the analytic MI. Here they are the query pool; the other
    workloads, whose inputs have no usable analytic MI, score the same
    probe after their timed phase for ``mi_abs_err``."""

    def __init__(self, seed: int, size: str) -> None:
        cfg = SIZES[size]
        self.items = []  # (N, s_train, s_cand, true_mi)
        for i, n_rows in enumerate(cfg["n_rows"]):
            for r in range(cfg["probe_per_n"]):
                pair, true_mi = cdunif_pair(n_rows, cfg["m"], seed * 1_000 + 100 * i + r + 1)
                self.items.append((n_rows, *tupsk_index(pair), true_mi))

    def mean_abs_error(self) -> float:
        return float(np.mean([abs(sketch_query(st, sc) - t) for _, st, sc, t in self.items]))


class Workload:
    def __init__(self, seed: int, size: str) -> None:
        self.seed, self.size = seed, size

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        cfg = SIZES[self.size]
        self.pairs = []
        for i, n_rows in enumerate(cfg["n_rows"]):
            pair, true_mi = cdunif_pair(n_rows, cfg["m"], self.seed * 1_000 + 100 * i)
            self.pairs.append((n_rows, pair, true_mi))
        self.probe = ProbePool(self.seed, self.size)
        return {"synthgen.ms": (time.perf_counter() - t0) * 1e3}

    def _op(self, pair):
        s_train, s_cand = tupsk_index(pair)
        fy, fx = evaluate.full_join_pairs_pandas(pair.train, pair.cand, "avg")
        fy = fy.astype(np.float64)
        mixed = mi.estimate_mi(fx.astype(np.float64), fy, "mixed_ksg")
        dc = mi.estimate_mi(fx, fy, "dc_ksg")  # X is the discrete side
        return s_train, s_cand, len(fy), mixed, dc

    def round(self, run: Run) -> None:
        # Each op is followed by the probe queries of its N, so the
        # queries are spread over the round rather than one short burst.
        for n_rows, pair, true_mi in self.pairs:
            label = f"N{n_rows}"
            out = run.op(
                label, lambda: self._op(pair),
                rows=len(pair.train) + len(pair.cand),
                tables={f"{label}.train": len(pair.train), f"{label}.cand": len(pair.cand)},
                check=lambda r, n=n_rows, t=true_mi: self._check_op(r, n, t),
            )
            if out is not None:
                s_train, s_cand = out[0], out[1]
                run.query(label, lambda: sketch_query(s_train, s_cand), check=check_estimate)
            for probe_n, s_train, s_cand, _ in self.probe.items:
                if probe_n == n_rows:
                    run.query(label, lambda: sketch_query(s_train, s_cand), check=check_estimate)

    @staticmethod
    def _check_op(result, n_rows: int, true_mi: float) -> str | None:
        _, _, join_size, mixed, dc = result
        if join_size != n_rows:
            return f"full join has {join_size} rows, expected N = {n_rows}"
        if not abs(mixed - true_mi) <= MI_TOLERANCE:
            return f"full MixedKSG {mixed:.4f} is not within {MI_TOLERANCE} of {true_mi:.4f}"
        return check_estimate(dc)

    def mi_abs_err(self) -> float:
        return self.probe.mean_abs_error()

    def final_checks(self) -> list[str]:
        return []

    def extra_pids(self) -> tuple:
        return ()

    def close(self) -> None:
        pass
