"""The benchmark's workloads, by command-line name.

Every workload module defines ``PROVENANCE`` (why it was chosen, its
input sizes, the input properties it has and lacks) and a ``Workload``
class with this shape:

* ``Workload(seed, size)`` — ``size`` is ``"full"`` or ``"tiny"`` (the
  smoke-test scale);
* ``setup() -> dict`` — (re)generate the inputs; returns set-up parts
  in ms, keyed by the per-layer names in ``perfbench.layers``;
* ``round(run)`` — one pass over the pool through ``run.op`` and
  ``run.query``;
* ``mi_abs_err() -> float``, ``final_checks() -> list[str]``,
  ``extra_pids() -> tuple``, ``close()``.
"""
from __future__ import annotations

import importlib

MODULES = {
    "corpus-index": "corpus_index",
    "fullpath-cdunif": "fullpath_cdunif",
    "spark-sf01": "spark_sf01",
}


def load(name: str):
    return importlib.import_module(f"{__name__}.{MODULES[name]}")
