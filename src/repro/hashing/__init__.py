"""Hashing substrate for the MI sketches (paper Section IV).

Public API:

* :func:`hash_keys` — ``h``: canonical-encode values and MurmurHash3
  them to ``uint32`` integer keys.
* :func:`u01` — ``h_u``: Fibonacci-hash integers to uniform [0, 1).
* :func:`tuple_u01` — ``h_u(h(<k, j>))`` for occurrence tuples, the
  TUPSK sampling coordinate.
"""
from __future__ import annotations

import numpy as np

from .encode import encode_values
from .murmur3 import murmur3_32, murmur3_32_batch, murmur3_32_u32pair
from .uniform import fibonacci_u01

__all__ = [
    "encode_values",
    "murmur3_32",
    "murmur3_32_batch",
    "murmur3_32_u32pair",
    "fibonacci_u01",
    "hash_keys",
    "u01",
    "tuple_u01",
]


def hash_keys(values: np.ndarray) -> np.ndarray:
    """``h(k)``: uint32 MurmurHash3 of each canonical-encoded value."""
    values = np.asarray(values)
    if len(values) == 0:
        return np.empty(0, dtype=np.uint32)
    padded, lengths = encode_values(values)
    return murmur3_32_batch(padded, lengths)


def u01(hashes: np.ndarray) -> np.ndarray:
    """``h_u``: map integer hashes to uniform [0, 1)."""
    return fibonacci_u01(np.asarray(hashes, dtype=np.uint64))


def tuple_u01(key_hashes: np.ndarray, occurrence: np.ndarray) -> np.ndarray:
    """``h_u(h(<k, j>))`` — the TUPSK per-row sampling coordinate.

    ``key_hashes`` are uint32 ``h(k)`` values; ``occurrence`` is the
    1-based occurrence index ``j`` of the key within its table.
    """
    kh = np.asarray(key_hashes, dtype=np.uint32)
    j = np.asarray(occurrence, dtype=np.uint32)
    return u01(murmur3_32_u32pair(kh, j))
