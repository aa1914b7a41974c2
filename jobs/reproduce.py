"""Reproduce one of the paper's published results.

Usage: ``python jobs/reproduce.py <result>`` (or ``spark-submit
jobs/reproduce.py <result>``), where ``<result>`` is one of:

- ``table1``: Table I, sketch estimates vs analytic true MI on
  synthetic data;
- ``table2``: Table II, sketch vs full-join estimates on the NYC-like
  and WBF-like collections (DESIGN.md substitution 1);
- ``fulljoin_accuracy``: Section V-B1, full-join estimates vs analytic
  true MI;
- ``timing``: Section V-D, wall times of the sketch path vs the
  full-join path. It runs on the numpy core alone, the paper's
  single-node setting, and starts no Spark session.

A sweep writes ``results/<result>_raw.csv`` and
``results/<result>_summary.csv``; ``timing`` writes
``results/timing.csv``. The summary (or the timings) is printed.
"""
from __future__ import annotations

import argparse
import pathlib

import pandas as pd

from repro.core.session import session
from repro.experiments import fulljoin_accuracy, table1, table2, timing

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Each published result and the experiment module that produces it.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fulljoin_accuracy": fulljoin_accuracy,
    "timing": timing,
}


def _sweep(name: str) -> pd.DataFrame:
    """The raw result rows of one Spark sweep."""
    spark = session(f"reproduce-{name}")
    try:
        if name == "table2":  # one sweep per collection
            return pd.concat([table2.run(spark, c) for c in ("nyc", "wbf")], ignore_index=True)
        return EXPERIMENTS[name].run(spark)
    finally:
        spark.stop()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Reproduce one of the paper's published results.")
    parser.add_argument("result", choices=EXPERIMENTS)
    name = parser.parse_args(argv).result
    RESULTS.mkdir(exist_ok=True)
    if name == "timing":
        summary = timing.measure()
        summary.to_csv(RESULTS / "timing.csv", index=False)
    else:
        raw = _sweep(name)
        summary = EXPERIMENTS[name].summarize(raw)
        raw.to_csv(RESULTS / f"{name}_raw.csv", index=False)
        summary.to_csv(RESULTS / f"{name}_summary.csv", index=False)
    print(f"\n=== {name} (reproduction) ===")
    print(summary.to_string(index=False))


if __name__ == "__main__":
    main()
