"""Shared sketch machinery (paper Section IV, "Approach Overview").

A sketch is a bounded set of tuples ``<h(k), value>``. All five
sketching methods (TUPSK, LV2SK, PRISK, INDSK, CSK) differ only in how
they *select* rows; selection is a deterministic function of the hash
substrate, so the numpy core here and the Spark DataFrame layer in
``repro.core.pipeline`` produce byte-identical sketches — the tests
assert this.

The candidate (right) side of an augmentation join must be reduced to
one value per key by a featurization function AGG (paper Section
III-B); :func:`aggregate_cand` implements AVG / COUNT / MODE / FIRST
with first-appearance tie-breaking so results are order-stable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from repro import hashing

#: Featurization functions supported for the candidate table.
AGG_FUNCTIONS = ("avg", "count", "mode", "first")


@dataclass
class Sketch:
    """A bounded sample of ``<h(k), value>`` tuples for one column pair."""

    key_hash: np.ndarray  # uint32 h(k)
    values: np.ndarray  # the sampled X or Y values

    def __post_init__(self) -> None:
        if len(self.key_hash) != len(self.values):
            raise ValueError("key_hash and values must align")
        # Canonical order: by (key_hash, value-position) for stable
        # cross-engine comparison.
        order = np.argsort(self.key_hash, kind="stable")
        self.key_hash = np.asarray(self.key_hash, dtype=np.uint32)[order]
        self.values = np.asarray(self.values)[order]

    def __len__(self) -> int:
        return len(self.key_hash)


def occurrence_index(keys: np.ndarray) -> np.ndarray:
    """1-based occurrence index j of each key value, in row order.

    Row i gets j = (number of earlier rows with the same key) + 1;
    the pair <k, j> uniquely identifies a row (paper Section IV-B).
    """
    codes, _ = pd.factorize(np.asarray(keys), use_na_sentinel=False)
    return (pd.Series(codes).groupby(codes).cumcount() + 1).to_numpy(np.int64)


def _mode(keys: np.ndarray, values: np.ndarray) -> pd.DataFrame:
    """Most frequent value per key; ties go to the value seen first.

    Matches ``groupby(sort=False)`` with ``value_counts`` per group (and
    the Spark implementation in ``repro.core.fulljoin.featurize``): NULL
    keys are dropped, NaN values are not counted, and a key whose values
    are all NaN gets NaN.
    """
    key_codes, uniques = pd.factorize(keys)  # NULL keys -> -1
    val_codes, _ = pd.factorize(values)  # NaN values -> -1
    rows = np.flatnonzero(key_codes >= 0)
    kc, vc = key_codes[rows], val_codes[rows]
    _, inverse, counts = np.unique(
        kc.astype(np.int64) * (vc.max(initial=-1) + 2) + vc + 1,
        return_inverse=True,
        return_counts=True,
    )
    count = np.where(vc >= 0, counts[inverse], 0)
    # Per key: highest count first, then the earliest row.
    order = np.lexsort((rows, -count, kc))
    best = order[np.searchsorted(kc[order], np.arange(len(uniques)))]
    out = values[rows[best]]
    if out.dtype == object or (count[best] == 0).any():
        # pandas infers the dtype of per-group Python results, and a key
        # with no counted value yields None: floats read it as NaN.
        out = pd.Series(np.where(count[best] > 0, out, None)).infer_objects().to_numpy()
    return pd.DataFrame({"key": uniques, "value": out})


def aggregate_cand(keys: np.ndarray, values: np.ndarray, agg: str) -> pd.DataFrame:
    """Apply the featurization AGG per key: T_cand[K_Z, Z] -> T_aug[K_X, X].

    Returns a DataFrame [key, value] with one row per distinct non-NULL
    key, in first-appearance order of the key, for every AGG.
    """
    if agg not in AGG_FUNCTIONS:
        raise ValueError(f"unknown AGG {agg!r}; choose from {AGG_FUNCTIONS}")
    keys, values = np.asarray(keys), np.asarray(values)
    if agg == "mode":
        return _mode(keys, values)
    if agg == "first":  # the value at the key's first row, NaN included: MIN_BY(x, rid)
        codes, uniques = pd.factorize(keys)  # NULL keys -> -1
        rows = np.flatnonzero(codes >= 0)
        return pd.DataFrame(
            {"key": uniques, "value": values[rows[np.unique(codes[rows], return_index=True)[1]]]}
        )
    g = pd.DataFrame({"key": keys, "value": values}).groupby("key", sort=False)["value"]
    out = g.mean() if agg == "avg" else g.count()  # SQL COUNT(x): NULL/NaN values skipped
    return pd.DataFrame({"key": out.index.to_numpy(), "value": out.to_numpy()})


class Train:
    """The train (left) table, prepared once, its rows in ``rid`` order
    (default: row positions). Per row: ``key_hash`` h(k), ``values``, key
    ``codes`` (first-appearance order), ``j`` and ``u_row`` = h_u(h(<k, j>)).
    Per key code: its ``first`` row, ``counts`` N_k and ``u_key`` =
    h_u(h(k)); ``N`` rows in all. A part of a table passes the ``j``,
    ``n_k`` (per row) and ``N`` counted over the whole table."""

    def __init__(self, keys, values, rid=None, *, j=None, n_k=None, N=None) -> None:
        self.keys, self.values = np.asarray(keys), np.asarray(values)
        self.rid = np.arange(len(self.keys)) if rid is None else np.asarray(rid)
        self.codes, _ = pd.factorize(self.keys, use_na_sentinel=False)
        self.first = np.unique(self.codes, return_index=True)[1]
        if j is None:
            self.counts, self.N = np.bincount(self.codes), len(self.codes)
        else:
            self.j, self.counts, self.N = np.asarray(j), np.asarray(n_k)[self.first], N
        hashes = hashing.hash_keys(self.keys[self.first])
        self.key_hash = hashes[self.codes]
        self.u_key = hashing.u01(hashes)

    # Per-row coordinates, computed on first use: INDSK and CSK read neither.
    @cached_property
    def j(self) -> np.ndarray:
        return occurrence_index(self.codes)

    @cached_property
    def u_row(self) -> np.ndarray:
        return hashing.tuple_u01(self.key_hash, self.j)

    def sketch(self, rows: np.ndarray) -> Sketch:
        return Sketch(self.key_hash[rows], self.values[rows])


class Cand:
    """The candidate table, prepared once: ``keys``, ``key_hash`` and AGG
    ``values`` per distinct non-NULL key, in first-appearance order."""

    def __init__(self, keys: np.ndarray, values: np.ndarray, agg: str) -> None:
        aug = aggregate_cand(keys, values, agg)
        self.keys = aug["key"].to_numpy()
        self.key_hash = hashing.hash_keys(self.keys)
        self.values = aug["value"].to_numpy()

    def sketch(self, rows: np.ndarray) -> Sketch:
        return Sketch(self.key_hash[rows], self.values[rows])


def bottom_n(coord: np.ndarray, n: int) -> np.ndarray:
    """The positions of the n smallest ``coord``; ties keep the earlier one."""
    return np.argsort(coord, kind="stable")[:n]


def join_sketches(train: Sketch, cand: Sketch) -> tuple[np.ndarray, np.ndarray]:
    """Join two sketches on their hashed keys (paper's S_join).

    The candidate sketch has unique hashed keys (aggregation or
    first-value selection guarantees it), so this is a many-to-one
    lookup: a binary search, as both sketches are sorted by ``key_hash``.
    A 32-bit hash collision can, very rarely, leave a duplicate hash on
    the cand side; the first is kept. Returns the paired sample
    (y_values, x_values), in train-sketch order, for the MI estimator.
    """
    pos = np.searchsorted(cand.key_hash, train.key_hash)
    hit = pos < len(cand)
    hit[hit] = cand.key_hash[pos[hit]] == train.key_hash[hit]
    return train.values[hit], cand.values[pos[hit]]
