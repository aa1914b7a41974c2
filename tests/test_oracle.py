"""The DuckDB oracle compares integer columns exactly.

A ``long`` column that holds a NULL becomes float64 in a lossy
Spark → pandas or DuckDB → pandas conversion, where 2^53 and 2^53 + 1
are one value. ``tests.oracle.assert_equivalent`` must tell them apart,
whether the differing side is a pandas input, a Spark input or the
Spark result.
"""
import pandas as pd
import pytest

from tests.oracle import assert_equivalent

BIG = 2**53


def _rows(v):
    return pd.DataFrame({"id": [1, 2], "v": pd.Series([v, None], dtype=object)})


def test_equal_long_values_beside_a_null_pass(spark):
    got = spark.createDataFrame([(1, BIG), (2, None)], "id long, v long")
    assert_equivalent(got, "SELECT id, v FROM t", t=_rows(BIG))
    assert_equivalent(got, "SELECT id, v FROM t", t=got)


def test_pandas_input_off_by_one_above_2_53_fails(spark):
    got = spark.createDataFrame([(1, BIG), (2, None)], "id long, v long")
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT id, v FROM t", t=_rows(BIG + 1))


def test_spark_input_off_by_one_above_2_53_fails(spark):
    got = spark.createDataFrame([(1, BIG), (2, None)], "id long, v long")
    other = spark.createDataFrame([(1, BIG + 1), (2, None)], "id long, v long")
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT id, v FROM t", t=other)
