"""INDSK — independent (uncoordinated) sampling baseline (paper §V).

Each table is sampled *independently*: the train side keeps a uniform
n-subset of its rows, the candidate side (after aggregation) a uniform
n-subset of its keys, using hash streams salted differently per side
so the selections share nothing. The expected sketch-join size is
quadratically small (Section IV's naive-Bernoulli argument), which is
why coordinated sketches dominate it in Table I.

We realize "Bernoulli sampling with expected size n" as a bottom-n
uniform sample without replacement (deterministic given the salt),
which bounds the sketch at exactly n rows — the same size contract as
the other sketches — without changing the uncoordinated behaviour that
the experiment measures.
"""
from __future__ import annotations

import numpy as np

from repro import hashing

from .base import Cand, Train, bottom_n

#: Salts of the two sides' hash streams, shared with the Spark builders.
SALT_TRAIN = 0xA5A5A5A5
SALT_CAND = 0x5A5A5A5A


def select_train(train: Train, n: int) -> np.ndarray:
    """Uniform n-subset of the rows by ``rid``, independent of keys and of the cand side."""
    return bottom_n(hashing.tuple_u01(train.rid, SALT_TRAIN), n)


def select_cand(cand: Cand, n: int) -> np.ndarray:
    """Uniform n-subset of the aggregated keys (own salt)."""
    return bottom_n(hashing.tuple_u01(cand.key_hash, SALT_CAND), n)
