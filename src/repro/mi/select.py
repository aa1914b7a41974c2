"""Estimator routing by data type (paper Section V, "MI Estimators").

The paper picks the estimator from the inferred types of the two
columns: string x string -> MLE; numeric x numeric -> MixedKSG (robust
to the discrete-continuous *mixtures* that left joins on repeated keys
create); string x numeric (either order) -> Ross's DC-KSG.
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


def choose_estimator_name(x_is_numeric: bool, y_is_numeric: bool) -> str:
    """Paper's routing rule, on inferred column types."""
    if x_is_numeric and y_is_numeric:
        return "mixed_ksg"
    if not x_is_numeric and not y_is_numeric:
        return "mle"
    return "dc_ksg"


def estimate_mi(x: np.ndarray, y: np.ndarray, estimator: str, k: int = 3) -> float:
    """Dispatch to a named estimator; DC-KSG expects the discrete
    variable first and the continuous one second."""
    if estimator == "dc_ksg":
        x_num = np.asarray(x).dtype.kind in "fiu"
        y_num = np.asarray(y).dtype.kind in "fiu"
        if x_num and not y_num:
            return mi_dc_ksg(y, x, k=k)
        return mi_dc_ksg(x, y, k=k)
    fn = ESTIMATORS[estimator]
    if estimator == "mle":
        return fn(x, y)
    return fn(x, y, k=k)
