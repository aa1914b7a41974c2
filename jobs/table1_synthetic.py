"""Reproduce Table I: sketch estimates vs true MI on synthetic data.

Usage: ``spark-submit jobs/table1_synthetic.py`` (or plain ``python``).
Prints the per-(dataset, sketch) average join size, % of n, and MSE —
the rows of the paper's Table I — and writes the raw estimates to
``results/table1_raw.csv``.
"""
from __future__ import annotations

import pathlib

from repro.core.session import session
from repro.experiments import table1


def main() -> None:
    spark = session("table1-synthetic")
    raw = table1.run(spark)
    summary = table1.summarize(raw)
    out = pathlib.Path(__file__).resolve().parent.parent / "results"
    out.mkdir(exist_ok=True)
    raw.to_csv(out / "table1_raw.csv", index=False)
    summary.to_csv(out / "table1_summary.csv", index=False)
    print("\n=== Table I (reproduction) ===")
    print(summary.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
