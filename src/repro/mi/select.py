"""Estimator and AGG routing by data type (paper Sections III-B and V).

The paper picks the estimator from the inferred types of the two
columns: string x string -> MLE; numeric x numeric -> MixedKSG (robust
to the discrete-continuous *mixtures* that left joins on repeated keys
create); string x numeric (either order) -> Ross's DC-KSG. The
candidate column's type also picks its featurization: AVG for ordered
(numeric) data, MODE for unordered data. :func:`route` is that rule.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .knn import mi_dc_ksg, mi_mixed_ksg
from .mle import mi_mle

ESTIMATORS: dict[str, Callable] = {
    "mle": mi_mle,
    "mixed_ksg": mi_mixed_ksg,
    "dc_ksg": mi_dc_ksg,
}


def is_numeric(values) -> bool:
    """A column is numeric iff its dtype is float or (unsigned) int."""
    return np.asarray(values).dtype.kind in "fiu"


def choose_estimator_name(x_is_numeric: bool, y_is_numeric: bool) -> str:
    """Paper's estimator rule, on inferred column types."""
    if x_is_numeric and y_is_numeric:
        return "mixed_ksg"
    if not x_is_numeric and not y_is_numeric:
        return "mle"
    return "dc_ksg"


def route(x, y) -> tuple[str, str]:
    """``(estimator, agg)`` for candidate values ``x`` and target values
    ``y``, each already cast to its inferred type."""
    x_num = is_numeric(x)
    return choose_estimator_name(x_num, is_numeric(y)), "avg" if x_num else "mode"


def estimate_mi(x: np.ndarray, y: np.ndarray, estimator: str, k: int = 3) -> float:
    """Dispatch to a named estimator, which casts its own inputs; DC-KSG
    takes the discrete variable first and the continuous one second."""
    fn = ESTIMATORS[estimator]
    if estimator == "mle":
        return fn(x, y)
    if estimator == "dc_ksg" and is_numeric(x) and not is_numeric(y):
        x, y = y, x
    return fn(x, y, k=k)
