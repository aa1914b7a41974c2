"""Sampling-based MI sketches (paper Section IV and the §V baselines).

``SELECTORS`` maps a sketch name to its selectors over the prepared
table sides, ``(select_train(Train, n), select_cand(Cand, n))``; each
returns the positions of the rows it keeps, and ``train.sketch(rows)``
or ``cand.sketch(rows, agg)`` makes them a :class:`Sketch`. ``METHODS``
maps a name to the builder pair that prepares a side and selects from
it, ``(train_sketch(keys, values, n), cand_sketch(keys, values, n, agg))``.
"""
from functools import partial

from . import csk, indsk, lv2sk, prisk, tupsk
from .base import (
    AGG_FUNCTIONS, Cand, Sketch, Train, aggregate_cand, join_sketches, occurrence_index,
)

_MODULES = {"tupsk": tupsk, "lv2sk": lv2sk, "prisk": prisk, "indsk": indsk, "csk": csk}
SELECTORS = {name: (m.select_train, m.select_cand) for name, m in _MODULES.items()}

__all__ = [
    "AGG_FUNCTIONS", "Cand", "Sketch", "Train", "aggregate_cand", "cand_agg", "join_sketches",
    "occurrence_index", "METHODS", "SELECTORS", "csk", "indsk", "lv2sk", "prisk", "tupsk",
]


def cand_agg(method: str, agg: str) -> str:
    """The AGG ``method``'s cand side is featurized with when ``agg`` is
    asked for: CSK always takes the first value."""
    return getattr(_MODULES[method], "AGG", agg)


def _train_sketch(method: str, keys, values, n: int) -> Sketch:
    train = Train(keys, values)
    return train.sketch(SELECTORS[method][0](train, n))


def _cand_sketch(method: str, keys, values, n: int, agg: str = "avg") -> Sketch:
    cand = Cand(keys, values)
    return cand.sketch(SELECTORS[method][1](cand, n), cand_agg(method, agg))


METHODS = {m: (partial(_train_sketch, m), partial(_cand_sketch, m)) for m in SELECTORS}


def build_pair(
    method: str, train_keys, train_values, cand_keys, cand_values, n: int, agg: str = "avg"
) -> tuple[Sketch, Sketch]:
    """Build the (S_train, S_cand) sketch pair for one table pair."""
    train_fn, cand_fn = METHODS[method]
    return train_fn(train_keys, train_values, n), cand_fn(cand_keys, cand_values, n, agg)
