"""``spark-sf01``: the distributed sketch builders at TPC-H SF = 0.1.

Train is TPC-H-lite lineitem (key ``l_partkey``, value
``l_extendedprice``, row id = row position); cand is part (key and row
id ``p_partkey``, value ``p_retailprice``). An **op** is one
``spark_train_sketch`` or ``spark_cand_sketch`` call per method, or one
``fulljoin.augment(...).count()`` for AVG and for MODE; each op runs in
its own Spark job group so its jobs, stages and tasks are read from the
status tracker. A **query** joins the collected sketches of one method
and estimates MI; each method's queries follow its two builds.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from ..harness import Run
from .corpus_index import METHODS, TRAIN_BOUND
from .fullpath_cdunif import ProbePool, check_estimate

PROVENANCE = {
    "why": (
        "The distributed builders: the Spark plan (pandas UDFs, windows, exchanges) does "
        "all the work and the numpy mi/sketch layers almost none; JVM-side hashing must "
        "show here."
    ),
    "sizes": {
        "full": "lineitem SF 0.1 (600k rows) x part (20k rows); n = 1024; 12 ops and "
                "40 queries (8 passes x 5 methods) per round",
        "tiny": "lineitem SF 0.002 (12k rows) x part (400 rows)",
    },
    "has": [
        "int keys",
        "repeated train keys (about 30 rows per part key), unique cand keys",
        "AVG and MODE featurization in the augment ops",
    ],
    "lacks": [
        "string keys", "repeated cand keys (MODE reduces singletons)", "MLE route",
        "usable analytic MI (mi_abs_err is scored on the CDUnif probe of fullpath-cdunif; "
        "the Spark sketches equal the numpy ones byte for byte)",
    ],
}

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
SKETCH_N = 1024
AGGS = ("avg", "mode")
QUERY_PASSES = 8
SIZES = {"full": 0.1, "tiny": 0.002}
WARMUP_SF = 0.001
SHUFFLE_PARTITIONS = 64  # the repository's session default (conftest, jobs)
#: The driver heap is fixed and pre-touched, so the JVM's peak RSS does not
#: depend on when the collector grew the heap; what moves it is off-heap
#: memory (Arrow buffers, metaspace, threads).
DRIVER_MEMORY = "3g"


class _PandasOnly:
    """Stands in for a session so ``synth_data`` generators hand back
    their pandas frame (row ids must be row positions for INDSK)."""

    @staticmethod
    def createDataFrame(pdf):
        return pdf


def _frames(sf: float, seed: int):
    from repro import synth_data

    li = synth_data.lineitem(_PandasOnly(), sf=sf, seed=seed)
    pa = synth_data.part(_PandasOnly(), sf=sf, seed=seed)
    train = li[["l_partkey", "l_extendedprice"]].rename(
        columns={"l_partkey": "key", "l_extendedprice": "y"}
    )
    train.insert(0, "rid", np.arange(len(train), dtype=np.int64))
    cand = pa[["p_partkey", "p_retailprice"]].rename(
        columns={"p_partkey": "key", "p_retailprice": "x"}
    )
    cand.insert(0, "rid", cand["key"].to_numpy())
    return train, cand


def start_session(scratch: str):
    """A ``local[4]`` session whose files stay under ``scratch``."""
    tmp = os.path.join(scratch, "tmp")
    local = os.path.join(scratch, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    # The Python workers import ``repro`` too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp  # py4j's connection-info directory
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # spark-submit's launcher JVM would otherwise write /tmp/hsperfdata_*.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[4] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData "
        f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", local)
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class Workload:
    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed, self.size, self.scratch = seed, size, scratch
        self.spark = None
        self.li = self.pa = None
        self.groups: list[tuple[str, str]] = []  # (job group, layer span name)
        self.sketches: dict[tuple[str, str], object] = {}
        self._gid = 0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> dict[str, float]:
        parts: dict[str, float] = {}
        if self.spark is None:
            t0 = time.perf_counter()
            self.spark = start_session(self.scratch)
            parts["spark.session_ms"] = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        train, cand = _frames(SIZES[self.size], self.seed)
        parts["synthgen.ms"] = (time.perf_counter() - t0) * 1e3
        for df in (self.li, self.pa):
            if df is not None:
                df.unpersist(blocking=True)
        self.li = self.spark.createDataFrame(train).cache()
        self.pa = self.spark.createDataFrame(cand).cache()
        self.n_train, self.n_cand = self.li.count(), self.pa.count()
        self.expected_count = int(np.isin(train["key"], cand["key"]).sum())
        if "spark.session_ms" in parts:
            t0 = time.perf_counter()
            self._warmup()
            parts["spark.warmup_ms"] = (time.perf_counter() - t0) * 1e3
        return parts

    def _warmup(self) -> None:
        """One untimed round on SF 0.001 tables: starts the Python
        workers, creates the UDFs and compiles every plan shape."""
        from repro.core import fulljoin, pipeline

        train, cand = _frames(WARMUP_SF, self.seed)
        li, pa = self.spark.createDataFrame(train), self.spark.createDataFrame(cand)
        for m in METHODS:
            pipeline.spark_train_sketch(li, n=SKETCH_N, method=m)
            pipeline.spark_cand_sketch(pa, n=SKETCH_N, method=m, agg="avg")
        for agg in AGGS:
            fulljoin.augment(li, pa, agg=agg).count()

    # -- timed phase -----------------------------------------------------

    def _in_group(self, layer: str, fn):
        self._gid += 1
        gid = f"perfbench-{self._gid}"
        self.groups.append((gid, layer))
        sc = self.spark.sparkContext
        sc.setJobGroup(gid, layer)
        try:
            return fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)

    def round(self, run: Run) -> None:
        import repro.core.pipeline as pipeline

        for m in METHODS:
            layer = f"core.pipeline.spark_train_sketch.{m}"
            self.sketches[("train", m)] = run.op(
                f"train.{m}",
                lambda m=m, layer=layer: self._in_group(
                    layer, lambda: pipeline.spark_train_sketch(self.li, n=SKETCH_N, method=m)
                ),
                rows=self.n_train, tables={"lineitem": self.n_train},
                check=lambda s, m=m: _check_size(s, TRAIN_BOUND[m] * SKETCH_N),
            )
            layer = f"core.pipeline.spark_cand_sketch.{m}"
            self.sketches[("cand", m)] = run.op(
                f"cand.{m}",
                lambda m=m, layer=layer: self._in_group(
                    layer,
                    lambda: pipeline.spark_cand_sketch(self.pa, n=SKETCH_N, method=m, agg="avg"),
                ),
                rows=self.n_cand, tables={"part": self.n_cand},
                check=lambda s: _check_size(s, SKETCH_N),
            )
            self._queries(run, m)
        for agg in AGGS:
            layer = f"core.fulljoin.augment.{agg}"
            run.op(
                f"augment.{agg}",
                lambda agg=agg, layer=layer: self._in_group(
                    layer, lambda: self._augment(agg, run.tracer)
                ),
                rows=self.n_train + self.n_cand,
                tables={"lineitem": self.n_train, "part": self.n_cand},
                check=self._check_count,
            )

    def _queries(self, run: Run, m: str) -> None:
        """Query one method's fresh sketches; issued right after they are
        built, so the round's queries are spread over the round."""
        import repro.mi as mi
        import repro.sketch as sketch

        s_train, s_cand = self.sketches[("train", m)], self.sketches[("cand", m)]
        if s_train is None or s_cand is None:
            return

        def _query():
            y, x = sketch.join_sketches(s_train, s_cand)
            return mi.estimate_mi(x, y, "mixed_ksg")

        for _ in range(QUERY_PASSES):
            run.query(m, _query, check=check_estimate)

    def _augment(self, agg: str, tracer) -> int:
        """``augment`` only plans; the span covers the count that runs it."""
        import repro.core.fulljoin as fulljoin

        with tracer.span(f"core.fulljoin.augment.{agg}") if tracer else nullcontext():
            return fulljoin.augment(self.li, self.pa, agg=agg).count()

    def _check_count(self, count) -> str | None:
        if count != self.expected_count:
            return f"augment count {count} != pandas recount {self.expected_count}"
        return None

    # -- after the timed phase -------------------------------------------

    def job_counts(self, counts) -> None:
        """Add jobs, stages, tasks and failed tasks per layer span name,
        once every job of every recorded group has finished."""
        tracker = self.spark.sparkContext.statusTracker()
        for gid, layer in self.groups:
            jobs = tracker.getJobIdsForGroup(gid)
            deadline = time.time() + 30
            while time.time() < deadline and any(
                (info := tracker.getJobInfo(j)) is None or info.status == "RUNNING" for j in jobs
            ):
                time.sleep(0.05)
            infos = [tracker.getJobInfo(j) for j in jobs]
            stage_ids = {s for info in infos if info is not None for s in info.stageIds}
            stages = [tracker.getStageInfo(s) for s in stage_ids]
            ran = [s for s in stages if s is not None and s.numCompletedTasks + s.numFailedTasks > 0]
            counts[f"{layer}.jobs"] += len(jobs)
            counts[f"{layer}.stages"] += len(ran)
            counts[f"{layer}.tasks"] += sum(s.numCompletedTasks for s in ran)
            counts["spark.failed_tasks"] += sum(s.numFailedTasks for s in ran)
        self.groups.clear()

    def mi_abs_err(self) -> float:
        return ProbePool(self.seed, self.size).mean_abs_error()

    def final_checks(self) -> list[str]:
        """Each Spark sketch equals, byte for byte, the numpy sketch of
        the same collected input."""
        from repro.sketch import METHODS as NUMPY_METHODS

        train = self.li.toPandas().sort_values("rid", kind="stable")
        cand = self.pa.toPandas().sort_values("rid", kind="stable")
        errors = []
        for m in METHODS:
            train_fn, cand_fn = NUMPY_METHODS[m]
            expected = {
                "train": train_fn(train["key"].to_numpy(), train["y"].to_numpy(), SKETCH_N),
                "cand": cand_fn(cand["key"].to_numpy(), cand["x"].to_numpy(), SKETCH_N, "avg"),
            }
            for side, want in expected.items():
                got = self.sketches.get((side, m))
                if got is None or _canonical_bytes(got) != _canonical_bytes(want):
                    errors.append(f"spark {side} sketch for {m} differs from the numpy sketch")
        return errors

    def extra_pids(self) -> tuple:
        return (self.spark.sparkContext._gateway.proc.pid,) if self.spark is not None else ()

    def close(self) -> None:
        if self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        proc = gateway.proc
        workers = _descendants(proc.pid)  # the JVM's Python workers
        self.spark.stop()
        gateway.shutdown()
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits on EOF from its parent
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        deadline = time.time() + 30
        while any(os.path.exists(f"/proc/{pid}") for pid in workers) and time.time() < deadline:
            time.sleep(0.1)
        self.spark = None


def _descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, from the parent ids in /proc."""
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    parent[int(entry)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    out, frontier = [], [pid]
    while frontier:
        kids = [p for p, pp in parent.items() if pp in frontier]
        out += kids
        frontier = kids
    return out


def _check_size(s, bound: int) -> str | None:
    if len(s) > bound:
        return f"sketch has {len(s)} rows > {bound}"
    return None


def _canonical_bytes(s) -> bytes:
    """The sketch's <h(k), value> tuples sorted by (hash, value)."""
    order = np.lexsort((np.asarray(s.values, dtype=np.float64), s.key_hash))
    return (
        np.asarray(s.key_hash, dtype=np.uint32)[order].tobytes()
        + np.asarray(s.values, dtype=np.float64)[order].tobytes()
    )
