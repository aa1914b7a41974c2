"""Per-layer metrics derived from one traced timed phase.

Every count and time is reported *per round* (one pass over the
workload's pool), so counts repeat exactly however many rounds a run
fits into its time budget. ``ms`` is self time: span duration minus the
child spans. A metric of a layer the workload does not reach reads 0.
"""
from __future__ import annotations

from repro.sketch import METHODS as SKETCH_METHODS

from .trace import Tracer

METHODS = tuple(SKETCH_METHODS)
ESTIMATORS = ("mle", "mixed_ksg", "dc_ksg")
AGGS = ("avg", "mode")
SETUP_PARTS = ("synthgen.ms", "opendata.ms", "spark.session_ms", "spark.warmup_ms")


def catalogue() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    out["hashing.hash_keys.calls"] = "count"
    out["hashing.hash_keys.keys"] = "count"
    out["hashing.hash_keys.ms"] = "ms"
    out["hashing.hash_keys.string_share"] = "ratio"
    for fn in ("u01", "tuple_u01"):
        out[f"hashing.{fn}.keys"] = "count"
        out[f"hashing.{fn}.ms"] = "ms"
    out["hashing.rehash_ratio"] = "ratio"
    out["sketch.occurrence_index.rows"] = "count"
    out["sketch.occurrence_index.ms"] = "ms"
    for agg in ("avg", "mode", "first"):
        out[f"sketch.aggregate_cand.{agg}.rows"] = "count"
        out[f"sketch.aggregate_cand.{agg}.ms"] = "ms"
    out["sketch.aggregate_cand.reagg_ratio"] = "ratio"
    for m in METHODS:
        out[f"sketch.build.{m}.self_ms"] = "ms"
        out[f"sketch.build.{m}.train_size"] = "count"
        out[f"sketch.build.{m}.cand_size"] = "count"
    for k in ("calls", "ms", "rows_out", "dup_hash_drops"):
        out[f"sketch.join_sketches.{k}"] = "ms" if k == "ms" else "count"
    for est in ESTIMATORS:
        for kind in ("full", "sketch"):
            out[f"mi.{est}.{kind}.calls"] = "count"
            out[f"mi.{est}.{kind}.samples"] = "count"
            out[f"mi.{est}.{kind}.ms"] = "ms"
    out["mi.mixed_ksg.full.ns_per_pair2"] = "ns"
    out["mi.digamma.calls"] = "count"
    out["mi.digamma.ms"] = "ms"
    out["core.evaluate.full_join_pairs_pandas.ms"] = "ms"
    out["core.evaluate.full_join_pairs_pandas.rows_out"] = "count"
    for fn in ("spark_train_sketch", "spark_cand_sketch"):
        for m in METHODS:
            for k in ("ms", "jobs", "stages", "tasks"):
                out[f"core.pipeline.{fn}.{m}.{k}"] = "ms" if k == "ms" else "count"
    out["core.pipeline.failed_tasks"] = "count"
    for agg in AGGS:
        for k in ("ms", "jobs", "stages", "tasks"):
            out[f"core.fulljoin.augment.{agg}.{k}"] = "ms" if k == "ms" else "count"
    for part in SETUP_PARTS:
        out[part] = "ms"
    out["failed_frac"] = "ratio"
    out["trace.wall_s"] = "s"
    out["trace.op_coverage"] = "ratio"
    return out


def derive(
    tracer: Tracer,
    *,
    rounds: int,
    table_rows: int,
    setup_parts: dict[str, float],
    failed_frac: float,
    wall_s: float,
) -> dict[str, float]:
    """Per-round per-layer values for every name in :func:`catalogue`.

    ``table_rows`` is the number of distinct input-table rows the ops of
    one round read; the rehash ratio divides by it. The re-aggregation
    ratio divides by the rows of the distinct tables aggregated.
    Spark job/stage/task counts arrive in ``tracer.counts`` under the
    op's layer span name.
    """
    self_ms, calls = tracer.self_ms()
    c = tracer.counts
    v: dict[str, float] = {}

    def per_round(x: float) -> float:
        return x / rounds

    hk = "hashing.hash_keys"
    v[f"{hk}.calls"] = per_round(calls.get(hk, 0))
    v[f"{hk}.keys"] = per_round(c[f"{hk}.keys"])
    v[f"{hk}.ms"] = per_round(self_ms.get(hk, 0.0))
    v[f"{hk}.string_share"] = c[f"{hk}.string_keys"] / c[f"{hk}.keys"] if c[f"{hk}.keys"] else 0.0
    for fn in ("u01", "tuple_u01"):
        v[f"hashing.{fn}.keys"] = per_round(c[f"hashing.{fn}.keys"])
        v[f"hashing.{fn}.ms"] = per_round(self_ms.get(f"hashing.{fn}", 0.0))
    v["hashing.rehash_ratio"] = v[f"{hk}.keys"] / table_rows if table_rows else 0.0

    oi = "sketch.occurrence_index"
    v[f"{oi}.rows"] = per_round(c[f"{oi}.rows"])
    v[f"{oi}.ms"] = per_round(self_ms.get(oi, 0.0))
    agg_rows = 0.0
    for agg in ("avg", "mode", "first", "count"):
        name = f"sketch.aggregate_cand.{agg}"
        agg_rows += per_round(c[f"{name}.rows"])
        if agg != "count":
            v[f"{name}.rows"] = per_round(c[f"{name}.rows"])
            v[f"{name}.ms"] = per_round(self_ms.get(name, 0.0))
    distinct = c["sketch.aggregate_cand.distinct_rows"]  # each table once per run
    v["sketch.aggregate_cand.reagg_ratio"] = agg_rows / distinct if distinct else 0.0
    for m in METHODS:
        name = f"sketch.build.{m}"
        v[f"{name}.self_ms"] = per_round(self_ms.get(name, 0.0))
        v[f"{name}.train_size"] = per_round(c[f"{name}.train_size"])
        v[f"{name}.cand_size"] = per_round(c[f"{name}.cand_size"])
    js = "sketch.join_sketches"
    v[f"{js}.calls"] = per_round(calls.get(js, 0))
    v[f"{js}.ms"] = per_round(self_ms.get(js, 0.0))
    v[f"{js}.rows_out"] = per_round(c[f"{js}.rows_out"])
    v[f"{js}.dup_hash_drops"] = per_round(c[f"{js}.dup_hash_drops"])

    for est in ESTIMATORS:
        for kind in ("full", "sketch"):
            name = f"mi.{est}.{kind}"
            v[f"{name}.calls"] = per_round(calls.get(name, 0))
            v[f"{name}.samples"] = per_round(c[f"{name}.samples"])
            v[f"{name}.ms"] = per_round(self_ms.get(name, 0.0))
    pair2 = c["mi.mixed_ksg.full.pair2"]
    v["mi.mixed_ksg.full.ns_per_pair2"] = (
        self_ms.get("mi.mixed_ksg.full", 0.0) * 1e6 / pair2 if pair2 else 0.0
    )
    v["mi.digamma.calls"] = per_round(calls.get("mi.digamma", 0))
    v["mi.digamma.ms"] = per_round(self_ms.get("mi.digamma", 0.0))

    fj = "core.evaluate.full_join_pairs_pandas"
    v[f"{fj}.ms"] = per_round(self_ms.get(fj, 0.0))
    v[f"{fj}.rows_out"] = per_round(c[f"{fj}.rows_out"])

    spark_layers = [
        f"core.pipeline.{fn}.{m}"
        for fn in ("spark_train_sketch", "spark_cand_sketch")
        for m in METHODS
    ] + [f"core.fulljoin.augment.{agg}" for agg in AGGS]
    for name in spark_layers:
        v[f"{name}.ms"] = per_round(self_ms.get(name, 0.0))
        for k in ("jobs", "stages", "tasks"):
            v[f"{name}.{k}"] = per_round(c[f"{name}.{k}"])
    v["core.pipeline.failed_tasks"] = per_round(c["spark.failed_tasks"])

    for part in SETUP_PARTS:
        v[part] = setup_parts.get(part, 0.0)
    v["failed_frac"] = failed_frac
    v["trace.wall_s"] = wall_s
    v["trace.op_coverage"] = tracer.op_coverage()
    return v
