"""DuckDB correctness oracle.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames. Spark frames, inputs and
result, and the DuckDB result all reach pandas through Arrow with
``to_pandas(integer_object_nulls=True)``, the hand-off of
``repro.core.pipeline``: an integer column that holds a NULL stays
Python ints and ``None``, so ``long`` values above 2^53 compare exactly.
Float columns are rounded and compared within a tolerance, the others
exactly. Alias every output column identically on both sides (Spark
names ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``) and
project to scalar columns — array/map/struct columns are not orderable
so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _exact(table) -> pd.DataFrame:
    return table.to_pandas(integer_object_nulls=True)


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include="floating").columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toArrow() if isinstance(t, DataFrame) else t)
        expected = _exact(con.execute(sql).arrow())
    finally:
        con.close()
    got = _exact(spark_df.toArrow())
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    got, expected = _canon(got), _canon(expected)
    # Floats within a tolerance, every other column exactly: pandas
    # compares object columns (exact ints beside None) with rtol 1e-5.
    floats = [c for c in got.columns if "f" in got[c].dtype.kind + expected[c].dtype.kind]
    rest = [c for c in got.columns if c not in floats]
    pd.testing.assert_frame_equal(got[floats], expected[floats], check_dtype=False)
    pd.testing.assert_frame_equal(got[rest], expected[rest], check_dtype=False, check_exact=True)
