"""Shared sketch machinery (paper Section IV, "Approach Overview").

A sketch is a bounded set of tuples ``<h(k), value>``. All five
sketching methods (TUPSK, LV2SK, PRISK, INDSK, CSK) differ only in how
they *select* rows; selection is a deterministic function of the hash
substrate, so the numpy core here and the Spark DataFrame layer in
``repro.core.pipeline`` produce byte-identical sketches — the tests
assert this.

The candidate (right) side of an augmentation join must be reduced to
one value per key by a featurization function AGG (paper Section
III-B); ``Cand.featurize`` implements AVG / COUNT / MODE / FIRST
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


def _check_aligned(keys: np.ndarray, **columns) -> None:
    for name, col in columns.items():
        if col is not None and len(col) != len(keys):
            raise ValueError(f"{name} has {len(col)} rows, keys {len(keys)}: they must align")


@dataclass
class Sketch:
    """A bounded sample of ``<h(k), value>`` tuples for one column pair."""

    key_hash: np.ndarray  # uint32 h(k)
    values: np.ndarray  # the sampled X or Y values

    def __post_init__(self) -> None:
        _check_aligned(self.key_hash, values=self.values)
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
    return code_occurrences(null_coded(np.asarray(keys)))


def null_coded(keys: np.ndarray) -> np.ndarray:
    """``pd.factorize(keys, use_na_sentinel=False)[0]``: key codes in
    first-appearance order, the NULLs (None, NaN, NA, NaT) sharing the
    code of the first NULL's place. Factorized with pandas' NULL sentinel
    -1, which skips an ``isna`` pass over object keys; the NULL code is
    then inserted and every later code moves up by one."""
    codes = pd.factorize(keys)[0]
    if codes.min(initial=0) < 0:
        null = codes < 0
        at = codes[: null.argmax()].max(initial=-1) + 1
        codes[codes >= at] += 1
        codes[null] = at
    return codes


def code_occurrences(codes: np.ndarray) -> np.ndarray:
    """``occurrence_index`` of codes ``>= 0``, from one stable sort of the codes in the
    narrowest unsigned type that holds them (a radix sort up to 16 bits)."""
    counts = np.bincount(codes)
    order = np.argsort(codes.astype(np.min_scalar_type(len(counts))), kind="stable")
    j = np.empty(len(codes), np.int64)
    j[order] = np.arange(1, len(codes) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    return j


def first_rows(codes: np.ndarray) -> np.ndarray:
    """Each key's first row, for codes numbered in first-appearance order
    as ``pd.factorize`` numbers them: the rows where the running maximum
    of the codes rises (a NULL's -1 never does)."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))


def stable_argsort(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")`` for ``x`` without NaN, from two unstable sorts:
    equal values share a rank, and the distinct ``rank * len(x) + row`` orders ties by row."""
    order = np.argsort(x)
    s = x[order]
    return np.sort(np.r_[0, np.cumsum(s[1:] != s[:-1])] * len(x) + order) % len(x)


def _mode(codes: np.ndarray, n_keys: int, values: np.ndarray) -> np.ndarray:
    """Most frequent value per key code; ties go to the value seen first.

    Matches ``groupby(sort=False)`` with ``value_counts`` per group: NULL
    keys (code -1) are dropped, NaN values are not counted, and a key whose
    values are all NaN gets NaN.
    """
    val_codes, _ = pd.factorize(values)  # NaN values -> -1
    rows = np.flatnonzero(codes >= 0)
    kc, vc = codes[rows], val_codes[rows]
    pairs = kc.astype(np.int64) * (vc.max(initial=-1) + 2) + vc + 1
    _, inverse, counts = np.unique(pairs, return_inverse=True, return_counts=True)
    count = np.where(vc >= 0, counts[inverse], 0)
    # Per key: highest count first, then the earliest row.
    order = np.lexsort((rows, -count, kc))
    best = order[np.searchsorted(kc[order], np.arange(n_keys))]
    out = values[rows[best]]
    if out.dtype == object or (count[best] == 0).any():
        # pandas infers the dtype of per-group Python results, and a key
        # with no counted value yields None: floats read it as NaN.
        out = pd.Series(np.where(count[best] > 0, out, None)).infer_objects().to_numpy()
    return out


def aggregate_cand(keys: np.ndarray, values: np.ndarray, agg: str) -> pd.DataFrame:
    """Apply the featurization AGG per key: T_cand[K_Z, Z] -> T_aug[K_X, X].
    Returns [key, value]: ``Cand(keys, values)``'s keys and ``featurize(agg)``."""
    cand = Cand(keys, values)
    return pd.DataFrame({"key": cand.keys, "value": cand.featurize(agg)})


class Train:
    """The train (left) table, prepared once, its rows in ``rid`` order
    (default: row positions). Per row: ``key_hash`` h(k), ``values``, key
    ``codes`` (first-appearance order), ``j`` and ``u_row`` = h_u(h(<k, j>)).
    Per key code: its ``first`` row, ``counts`` N_k and ``u_key`` =
    h_u(h(k)); ``N`` rows in all. A part of a table passes the ``j``,
    ``n_k`` (per row) and ``N`` counted over the whole table."""

    def __init__(self, keys, values, rid=None, *, j=None, n_k=None, N=None) -> None:
        self.keys, self.values = np.asarray(keys), np.asarray(values)
        _check_aligned(self.keys, values=self.values, rid=rid, j=j, n_k=n_k)
        self.rid = np.arange(len(self.keys)) if rid is None else np.asarray(rid)
        self.codes = null_coded(self.keys)
        self.first = first_rows(self.codes)
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
        return code_occurrences(self.codes)

    @cached_property
    def u_row(self) -> np.ndarray:
        return hashing.tuple_u01(self.key_hash, self.j)

    def sketch(self, rows: np.ndarray) -> Sketch:
        return Sketch(self.key_hash[rows], self.values[rows])


class Cand:
    """The candidate table, prepared once for every AGG: per row its key
    ``codes`` (NULL: -1); per distinct non-NULL key, in first-appearance
    order, its ``keys``, ``first`` row and ``key_hash`` h(k)."""

    def __init__(self, keys, values) -> None:
        keys, self.values = np.asarray(keys), np.asarray(values)
        _check_aligned(keys, values=self.values)
        self.codes, self.keys = pd.factorize(keys)
        self.first = first_rows(self.codes)
        self._features: dict[str, np.ndarray] = {}

    @cached_property
    def key_hash(self) -> np.ndarray:
        return hashing.hash_keys(self.keys)

    def featurize(self, agg: str) -> np.ndarray:
        """AGG(value) per key (paper Section III-B), once per AGG."""
        if agg not in AGG_FUNCTIONS:
            raise ValueError(f"unknown AGG {agg!r}; choose from {AGG_FUNCTIONS}")
        if agg not in self._features:
            if agg == "mode":
                out = _mode(self.codes, len(self.keys), self.values)
            elif agg == "first":  # the value at the key's first row, NaN included: MIN_BY(x, rid)
                out = self.values[self.first]
            else:  # SQL COUNT(x) skips NULL/NaN values
                rows = self.codes >= 0
                g = pd.Series(self.values[rows]).groupby(self.codes[rows], sort=False)
                out = (g.mean() if agg == "avg" else g.count()).to_numpy()
            self._features[agg] = out
        return self._features[agg]

    def sketch(self, rows: np.ndarray, agg: str) -> Sketch:
        return Sketch(self.key_hash[rows], self.featurize(agg)[rows])


def bottom_n(coord: np.ndarray, n: int) -> np.ndarray:
    """The positions of the n smallest ``coord``; ties keep the earlier one.
    Only the rows at or below the n-th smallest value are sorted."""
    rows = np.arange(len(coord))
    if 0 < n < len(coord):
        rows = np.flatnonzero(coord <= np.partition(coord, n - 1)[n - 1])
    return rows[stable_argsort(coord[rows])[:n]]


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
