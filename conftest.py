import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, built by
    ``repro.core.session``."""
    # Imported here: suites that need no Spark run without ``repro`` on
    # the import path.
    from repro.core.session import driver_memory, session

    s = session("repro")
    # One line in the test output that tells whether the driver memory
    # came from the environment, the cgroup limit or /proc/meminfo.
    mem, src = driver_memory()
    print(
        f"[conftest] driver memory {mem} (src={src}) "
        f"PYSPARK_SUBMIT_ARGS={os.environ['PYSPARK_SUBMIT_ARGS']!r} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
