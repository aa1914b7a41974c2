"""Column type inference over string-typed raw columns.

Stands in for the Tablesaw type-inference library the paper uses
(Section V-C, footnote 2): open-data portals serve CSVs, so every
column arrives as strings. The cast columns then pick the MI estimator
and the AGG through ``repro.mi.route``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def is_numeric_column(values: np.ndarray | pd.Series) -> bool:
    """True iff every non-empty value parses as a float."""
    s = pd.Series(np.asarray(values, dtype=object)).astype(str)
    parsed = pd.to_numeric(s, errors="coerce")
    return bool(parsed.notna().all()) and len(s) > 0


def cast_column(values: np.ndarray | pd.Series) -> np.ndarray:
    """Return float64 values when the column is numeric, else the raw
    strings (object dtype)."""
    arr = np.asarray(values, dtype=object)
    if is_numeric_column(arr):
        return pd.to_numeric(pd.Series(arr).astype(str)).to_numpy(np.float64)
    return arr
