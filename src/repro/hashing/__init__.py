"""Hashing substrate for the MI sketches (paper Section IV).

Public API:

* :func:`hash_keys` — ``h``: canonical-encode values and MurmurHash3
  them to ``uint32`` integer keys.
* :func:`u01` — ``h_u``: Fibonacci-hash integers to uniform [0, 1).
* :func:`tuple_u01` — ``h_u(h(<a, b>))``, the pair hash: TUPSK's
  occurrence tuple ``<h(k), j>`` and INDSK's salted ``<rid, salt>``.
"""
from __future__ import annotations

import numpy as np

from .encode import encode_values
from .murmur3 import murmur3_32, murmur3_32_words

__all__ = ["encode_values", "murmur3_32", "murmur3_32_words", "hash_keys", "u01", "tuple_u01"]

_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)


def hash_keys(values: np.ndarray) -> np.ndarray:
    """``h(k)``: uint32 MurmurHash3 of each canonical-encoded value."""
    padded, lengths = encode_values(values)
    return murmur3_32_words(np.ascontiguousarray(padded.view("<u4").T), lengths)


def u01(hashes: np.ndarray) -> np.ndarray:
    """``h_u``: Fibonacci (Knuth multiplicative) hashing to [0, 1): the
    wrapped product with the 64-bit golden ratio, read as a 64-bit fraction."""
    with np.errstate(over="ignore"):
        mixed = np.asarray(hashes, dtype=np.uint64) * _GOLDEN64
    return mixed.astype(np.float64) * 2.0**-64


def tuple_u01(a: np.ndarray, b) -> np.ndarray:
    """``h_u(h(<a, b>))``: MurmurHash3 of the 8 bytes ``LE32(a) || LE32(b)``.

    ``a`` is ``h(k)`` and ``b`` the 1-based occurrence ``j`` for TUPSK,
    or ``a`` a row id or key hash and ``b`` a scalar salt for INDSK.
    Each side wraps to its low 32 bits.
    """
    # 1-d, so a scalar salt wraps in array math (numpy scalar math warns).
    words = [np.atleast_1d(np.asarray(w).astype(np.uint32)) for w in (a, b)]
    return u01(murmur3_32_words(words, 8))
