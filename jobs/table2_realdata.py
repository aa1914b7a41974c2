"""Reproduce Table II: sketches vs full-join MI on open-data-like corpora.

Usage: ``spark-submit jobs/table2_realdata.py`` (or plain ``python``).
Evaluates the NYC-like and WBF-like synthetic collections (see
DESIGN.md substitution 1), prints avg join size / Spearman's R / MSE
per sketch, and writes raw rows to ``results/table2_raw.csv``.
"""
from __future__ import annotations

import pathlib

import pandas as pd

from repro.core.session import session
from repro.experiments import table2


def main() -> None:
    spark = session("table2-realdata")
    raws = [table2.run(spark, coll) for coll in ("nyc", "wbf")]
    raw = pd.concat(raws, ignore_index=True)
    summary = table2.summarize(raw)
    out = pathlib.Path(__file__).resolve().parent.parent / "results"
    out.mkdir(exist_ok=True)
    raw.to_csv(out / "table2_raw.csv", index=False)
    summary.to_csv(out / "table2_summary.csv", index=False)
    print("\n=== Table II (reproduction) ===")
    print(summary.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
