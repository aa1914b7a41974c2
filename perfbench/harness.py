"""Closed-loop, single-client driver shared by every workload.

A workload sets itself up, then the timed phase runs whole *rounds* —
one pass over the workload's pool of ops and queries — until the time
budget is spent. Each op and query is timed on its own, then checked
outside its timed window; one that raises or fails its check counts as
failed. The end-to-end metrics summarise those samples.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .trace import Tracer



@dataclass
class Sample:
    kind: str  # "op" | "query"
    label: str
    ms: float
    error: str | None


@dataclass
class Run:
    """Samples and counters of one timed phase."""

    tracer: Tracer | None = None
    samples: list[Sample] = field(default_factory=list)
    rows: int = 0
    tables: dict[str, int] = field(default_factory=dict)
    #: Digest of the first round's outputs (traced runs must match untraced).
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    first_round: bool = True
    _seq: int = 0

    def op(self, label: str, fn: Callable, *, rows: int, tables: dict[str, int],
           check: Callable | None = None):
        """Time one op; ``rows`` input-table rows it reads, from ``tables``."""
        self.rows += rows
        self.tables.update(tables)
        return self._call("op", label, fn, check)

    def query(self, label: str, fn: Callable, *, check: Callable | None = None):
        return self._call("query", label, fn, check)

    def _call(self, kind: str, label: str, fn: Callable, check: Callable | None):
        self._seq += 1
        tr = self.tracer
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            if tr is None:
                result = fn()
            else:
                tr.op_id, tr.kind = self._seq, ("full" if kind == "op" else "sketch")
                with tr.span(f"{kind}.{label}"):
                    result = fn()
        except Exception as exc:  # an op that raises is a failed sample
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        if error is None and check is not None:
            error = check(result)
        if self.first_round:
            self.digest.update(fingerprint(result))
        self.samples.append(Sample(kind, label, ms, error))
        return result if error is None else None

    def latencies(self, kind: str) -> list[float]:
        return [s.ms for s in self.samples if s.kind == kind]

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.samples)


def run_rounds(round_fn: Callable[[Run], None], run: Run, seconds: float) -> tuple[int, float]:
    """Run whole rounds until ``seconds`` have passed; (rounds, wall s)."""
    rounds = 0
    t0 = time.perf_counter()
    while True:
        round_fn(run)
        rounds += 1
        run.first_round = False
        wall = time.perf_counter() - t0
        if wall >= seconds:
            return rounds, wall


def tail_percentile(per_round: int) -> float:
    """Highest whole percentile with at least 10 samples beyond it among
    one round's samples, so it is the same in every run of a workload
    however many rounds the run fits. Below 20 samples per round, where
    that percentile would fall under the median, the maximum is used."""
    if per_round < 20:
        return 100.0
    return float(math.floor(100.0 * (1.0 - 10.0 / per_round)))


def latency_summary(values: list[float], per_round: int) -> dict:
    """Median and tail; zeros when every sample was skipped (a run whose
    ops all failed still prints its result, with ``correct`` false)."""
    q = tail_percentile(per_round)
    return {
        "p50": float(np.percentile(values, 50)) if values else 0.0,
        "tail": float(np.percentile(values, q)) if values else 0.0,
        "tail_percentile": q,
        "samples": len(values),
    }


def median_by_label(samples: list[Sample]) -> dict[str, float]:
    by: dict[str, list[float]] = {}
    for s in samples:
        by.setdefault(f"{s.kind}.{s.label}", []).append(s.ms)
    return {k: statistics.median(v) for k, v in by.items()}


def fingerprint(result) -> bytes:
    """Stable bytes of an op or query output."""
    if result is None:
        return b"-"
    if isinstance(result, (tuple, list)):
        return b"(" + b",".join(fingerprint(r) for r in result) + b")"
    if hasattr(result, "key_hash"):  # a Sketch
        return result.key_hash.tobytes() + repr(result.values.tolist()).encode()
    return repr(result).encode()


def repeated_setup(
    setup_fn: Callable[[], dict[str, float]], reps: int, once: tuple[str, ...]
) -> tuple[float, dict[str, float]]:
    """Run ``setup_fn`` ``reps`` times. Parts named in ``once`` (ms) are
    paid by the first call only; set-up seconds are those plus the
    median of the repeated remainder. Returns it with each part's ms
    (first call for ``once`` parts, median otherwise)."""
    reps_out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        parts = setup_fn()
        reps_out.append((time.perf_counter() - t0, parts))
    once_ms = {k: v for k, v in reps_out[0][1].items() if k in once}
    repeated = statistics.median(
        total - sum(v for k, v in parts.items() if k in once) / 1e3 for total, parts in reps_out
    )
    names = {k for _, parts in reps_out for k in parts} - set(once)
    medians = {k: statistics.median(p.get(k, 0.0) for _, p in reps_out) for k in names}
    return sum(once_ms.values()) / 1e3 + repeated, once_ms | medians


def peak_rss_mb(extra_pids: tuple[int, ...] = ()) -> float:
    """Peak resident set (VmHWM) of this process plus ``extra_pids``."""
    total_kb = 0
    for pid in ("self", *extra_pids):
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def machine_info() -> dict:
    import pandas as pd

    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    info = {
        "cores": os.cpu_count(),
        "mem_gb": round(mem_kb / 1024 / 1024, 1),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "pandas": pd.__version__,
    }
    if "pyspark" in sys.modules:
        info["pyspark"] = sys.modules["pyspark"].__version__
    return info


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
