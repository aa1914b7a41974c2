"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload corpus-index --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
layer and prints the per-layer metrics instead (see ``BENCHMARK.json``).
Run it from the repository root; it imports ``repro`` from ``src/``.
The full record — machine info, workload provenance, latency percentiles
and sample counts, failures and, when traced, every span — is written to
``perfbench/out/``. The exit code is 0 only when every output check
passed; without ``src/repro`` it exits 2 before printing a result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 3
#: Set-up parts paid once per process; the rest is repeated and median'd.
ONCE = ("spark.session_ms", "spark.warmup_ms")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus-index", "fullpath-cdunif", "spark-sf01"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the smoke-test scale")
    p.add_argument("--out", default=os.path.join(HERE, "out"))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: {ROOT}/src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import harness, layers
    from perfbench.trace import Tracer, install_layer_hooks
    from perfbench.workloads import load

    os.makedirs(args.out, exist_ok=True)
    mod = load(args.workload)
    spark = args.workload == "spark-sf01"
    wl = (mod.Workload(args.seed, args.size, os.path.join(args.out, "scratch")) if spark
          else mod.Workload(args.seed, args.size))
    phase_s = {}
    t0 = time.perf_counter()
    try:
        setup_s, setup_parts = harness.repeated_setup(wl.setup, SETUP_REPS, ONCE)
        phase_s["setup_all_reps"] = time.perf_counter() - t0

        tracer = Tracer() if args.trace else None
        if tracer:
            install_layer_hooks(tracer, spark=spark)
        run = harness.Run(tracer=tracer)
        try:
            rounds, wall = harness.run_rounds(wl.round, run, args.seconds)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer and spark:
            wl.job_counts(tracer.counts)
        t1 = time.perf_counter()
        check_errors = wl.final_checks()
        t2 = time.perf_counter()
        mi_abs_err = wl.mi_abs_err()
        phase_s["final_checks"], phase_s["mi_probe"] = t2 - t1, time.perf_counter() - t2
        rss = harness.peak_rss_mb(wl.extra_pids())
    finally:
        wl.close()
    phase_s["total"] = time.perf_counter() - t0

    ops, queries = run.latencies("op"), run.latencies("query")
    op_stats = harness.latency_summary(ops, len(ops) // rounds)
    query_stats = harness.latency_summary(queries, len(queries) // rounds)
    attempted = len(run.samples)
    failed = run.failed
    correct = failed == 0 and not check_errors

    if args.trace:
        values = layers.derive(
            tracer, rounds=rounds, table_rows=sum(run.tables.values()),
            setup_parts=setup_parts, failed_frac=failed / attempted, wall_s=wall / rounds,
        )
        units = layers.catalogue()
        metrics = {k: harness.metric(values[k], u) for k, u in units.items()}
    else:
        metrics = {
            "setup_s": harness.metric(setup_s, "s"),
            "wall_s": harness.metric(wall / rounds, "s"),
            "rows_per_s": harness.metric(run.rows / wall, "1/s"),
            "op_p50_ms": harness.metric(op_stats["p50"], "ms"),
            "op_tail_ms": harness.metric(op_stats["tail"], "ms"),
            "query_p50_ms": harness.metric(query_stats["p50"], "ms"),
            "query_tail_ms": harness.metric(query_stats["tail"], "ms"),
            "ok_frac": harness.metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": harness.metric(rss, "MB"),
            "mi_abs_err": harness.metric(mi_abs_err, "nats"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": harness.machine_info(), "provenance": mod.PROVENANCE,
        "rounds": rounds, "timed_wall_s": wall, "setup_s": setup_s, "setup_parts": setup_parts,
        "phase_s": phase_s,
        "op_latency": op_stats, "query_latency": query_stats,
        "median_ms_by_label": harness.median_by_label(run.samples),
        "output_digest": run.digest.hexdigest(),
        "failures": [f"{s.kind} {s.label}: {s.error}" for s in run.samples if s.error][:50]
        + check_errors,
        "metrics": metrics,
    }
    if tracer:
        record["spans"] = tracer.dump()
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({k: record[k] for k in ("machine", "rounds", "output_digest")}
                     | {"record": os.path.relpath(path, ROOT), "failures": record["failures"][:5]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
