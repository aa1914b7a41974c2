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


def _high_word(w: np.ndarray) -> np.ndarray | None:
    """Bits 32..63 of integral ``w`` as uint32, or None where all are 0."""
    if w.dtype.itemsize <= 4:
        return None
    hi = (w.astype(np.int64, copy=False) >> 32).astype(np.uint32)
    return hi if hi.any() else None


def tuple_u01(a: np.ndarray, b) -> np.ndarray:
    """``h_u(h(<a, b>))``: MurmurHash3 of the 8 bytes ``LE32(a) || LE32(b)``
    of each side's low 32 bits.

    ``a`` is ``h(k)`` and ``b`` the 1-based occurrence ``j`` for TUPSK,
    or ``a`` a row id or key hash and ``b`` a scalar salt for INDSK.
    Where a side's high word (bits 32..63, of its 64-bit two's
    complement) is not 0, it is folded in: ``LE32(a >> 32)`` follows where
    either high word is set, and ``LE32(b >> 32)`` after it where b's is,
    12 or 16 bytes in all. So the hash is one-to-one on 64-bit pairs, and
    on [0, 2^32) it is the 8-byte hash.
    """
    # 1-d, so a scalar salt wraps in array math (numpy scalar math warns).
    a, b = np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    words = [a.astype(np.uint32), b.astype(np.uint32)]
    hi_a, hi_b = _high_word(a), _high_word(b)
    if hi_a is None and hi_b is None:
        return u01(murmur3_32_words(words, 8))
    hi_a, hi_b = (np.uint32(0) if w is None else w for w in (hi_a, hi_b))
    nbytes = np.where(hi_b != 0, 16, np.where(hi_a != 0, 12, 8))
    return u01(murmur3_32_words(words + [hi_a, hi_b], nbytes))
