"""Canonical byte encoding of join-key values for hashing.

Join keys may arrive as integers, floats that happen to be integral
(a common artifact of pandas NULL-handling), or strings. Both sides of
a join must hash identical logical values to identical bytes, so each
value is canonicalised on its own, whatever else is in its array:

* integers and integral floats in the int64 range ``-2^63 <= v < 2^63``
  -> 8-byte little-endian int64
* everything else -> UTF-8 bytes of ``str(value)``

Booleans count as "everything else" (``b"True"``). Integer and float
arrays take vectorized paths. The rows are zero-padded to a common
width, a multiple of 4 bytes, so that ``hash_keys`` can hand them to
:func:`repro.hashing.murmur3.murmur3_32_words` as uint32 words.
"""
from __future__ import annotations

import math

import numpy as np

_INT64_END = 2**63


def _as_int64(v) -> int | None:
    """The int64 a scalar key encodes as, or None if it encodes as a string."""
    if isinstance(v, (bool, np.bool_)):
        return None
    if isinstance(v, (float, np.floating)):
        if not (math.isfinite(v) and v == math.floor(v)):
            return None
    elif not isinstance(v, (int, np.integer)):
        return None
    i = int(v)
    return i if -_INT64_END <= i < _INT64_END else None


def _int_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, ints)``: which values encode as int64, and those int64s."""
    if values.dtype.kind in "iu":
        mask = values < _INT64_END  # only a uint64 can reach it
        return mask, (values if mask.all() else values[mask]).astype(np.int64)
    if values.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            mask = (np.floor(values) == values) & (-_INT64_END <= values) & (values < _INT64_END)
        return mask, values[mask].astype(np.int64)
    if values.dtype.kind == "O":
        ints = [None if type(v) is str else _as_int64(v) for v in values.tolist()]
        mask = np.fromiter((i is not None for i in ints), bool, len(ints))
        return mask, np.array([i for i in ints if i is not None], dtype=np.int64)
    return np.zeros(len(values), bool), np.empty(0, np.int64)


def encode_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(padded_uint8_matrix, lengths)`` for an array of key values;
    the matrix is at least 8 bytes wide and its width a multiple of 4."""
    values = np.asarray(values)
    mask, ints = _int_rows(values)
    if mask.all():
        return ints.view(np.uint8).reshape(-1, 8), np.full(len(values), 8)
    strs = [str(v).encode("utf-8") for v in values[~mask].tolist()]
    str_lengths = np.fromiter(map(len, strs), dtype=np.int64, count=len(strs))
    lengths = np.full(len(values), 8, dtype=np.int64)
    lengths[~mask] = str_lengths
    width = max(8, -(-int(str_lengths.max()) // 4) * 4)
    padded = np.zeros((len(values), width), dtype=np.uint8)
    padded[mask, :8] = ints.view(np.uint8).reshape(-1, 8)
    # Scatter the concatenated string bytes to (row, column) in one go.
    rows = np.repeat(np.flatnonzero(~mask), str_lengths)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(str_lengths) - str_lengths, str_lengths)
    padded[rows, cols] = np.frombuffer(b"".join(strs), dtype=np.uint8)
    return padded, lengths
