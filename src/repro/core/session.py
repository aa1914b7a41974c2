"""The one local SparkSession bootstrap; the tests start theirs here.

Arrow is on and broadcast joins are off, so joins at SF ~= 0.1 take the
shuffle path. ``spark.driver.memory`` is read only when the JVM starts,
so :func:`session` sets ``PYSPARK_SUBMIT_ARGS``, unless already set,
before it starts one.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def driver_memory() -> tuple[str, str]:
    """The driver heap and its source: ``SPARK_DRIVER_MEM``; else 75% of
    a bounded cgroup limit; else half of ``MemTotal``, clamped to 2-8 GiB."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem, "env"
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(path) as fh:
                gib = int(fh.read()) / (1 << 30)  # cgroup v2 "max" raises
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:  # cgroup v1 "unlimited" reads ~8.6e9 GiB
            return f"{max(1, int(gib * 0.75))}g", path
    try:
        with open("/proc/meminfo") as fh:
            kib = int(fh.readline().split()[1])  # the first line is MemTotal
    except (OSError, IndexError, ValueError):
        return "2g", "fallback"
    return f"{min(8, max(2, kib >> 21))}g", "/proc/meminfo"


def session(app_name: str) -> SparkSession:
    """Start, or reuse, the local session (master ``SPARK_MASTER``, default ``local[*]``)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()[0]} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
