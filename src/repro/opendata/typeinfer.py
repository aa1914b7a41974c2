"""Column type inference over string-typed raw columns.

Stands in for the Tablesaw type-inference library the paper uses
(Section V-C, footnote 2): open-data portals serve CSVs, so every
column arrives as strings. The cast columns then pick the MI estimator
and the AGG through ``repro.mi.route``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def cast_column(values: np.ndarray | pd.Series) -> np.ndarray:
    """Return float64 values when the column is numeric, else the raw
    strings (object dtype). Each value is parsed once."""
    arr = np.asarray(values, dtype=object)
    parsed = pd.to_numeric(pd.Series(arr).astype(str), errors="coerce")
    return parsed.to_numpy(np.float64) if len(arr) > 0 and parsed.notna().all() else arr
