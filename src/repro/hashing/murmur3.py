"""32-bit MurmurHash3 (x86_32 variant), seed 0 on the hot path.

The paper (Section IV, "Approach Overview") uses MurmurHash3 as the
collision-free-in-practice hash ``h`` that maps join-key values to
integers before they are fed to the uniform hash ``h_u``. No murmur
library ships with the project's dependencies, so the reference
algorithm is implemented twice:

* :func:`murmur3_32` — scalar pure-Python reference with a seed, the
  test oracle;
* :func:`murmur3_32_words` — the one vectorized kernel, over rows given
  as little-endian uint32 words. ``hash_keys`` feeds it the encoded
  key bytes and ``tuple_u01`` the two words of a pair ``<a, b>``.

Both return values identical to the canonical MurmurHash3_x86_32.
"""
from __future__ import annotations

import numpy as np

_C1 = np.uint32(0xCC9E2D51)
_C2 = np.uint32(0x1B873593)
_M5 = np.uint32(5)
_N = np.uint32(0xE6546B64)
_F1 = np.uint32(0x85EBCA6B)
_F2 = np.uint32(0xC2B2AE35)

_MASK32 = 0xFFFFFFFF


def _rotl32_scalar(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _mix_k_scalar(k: int) -> int:
    k = (k * 0xCC9E2D51) & _MASK32
    return (_rotl32_scalar(k, 15) * 0x1B873593) & _MASK32


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Scalar reference MurmurHash3_x86_32 of ``data`` with ``seed``."""
    h = seed & _MASK32
    n_blocks = len(data) // 4
    for i in range(n_blocks):
        h ^= _mix_k_scalar(int.from_bytes(data[4 * i : 4 * i + 4], "little"))
        h = (_rotl32_scalar(h, 13) * 5 + 0xE6546B64) & _MASK32
    tail = data[4 * n_blocks :]
    if tail:
        h ^= _mix_k_scalar(int.from_bytes(tail, "little"))
    h ^= len(data)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def _rotl32(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint32(r)) | (x >> np.uint32(32 - r))


def _mix_k(k: np.ndarray) -> np.ndarray:
    return _rotl32(k * _C1, 15) * _C2


def murmur3_32_words(words, nbytes) -> np.ndarray:
    """Vectorized MurmurHash3_x86_32 (seed 0) of rows given as words.

    ``words[i]`` is the i-th little-endian uint32 word of every row, a
    contiguous column, and zero past each row's byte length ``nbytes``
    (one per row, or a scalar for all rows). The full words get a body
    round and the word at ``nbytes // 4`` the tail round; past that the
    words are zero, and ``mix_k(0) == 0`` leaves ``h`` as it is.
    """
    nbytes = np.asarray(nbytes).astype(np.uint32)
    n_full = nbytes >> np.uint32(2)
    h = np.uint32(0)
    for i, k in enumerate(words):
        h = h ^ _mix_k(k)
        full = i < n_full
        body = _rotl32(h, 13) * _M5 + _N
        h = body if full.all() else np.where(full, body, h)
    h = h ^ nbytes
    h = h ^ (h >> np.uint32(16))
    h = h * _F1
    h = h ^ (h >> np.uint32(13))
    h = h * _F2
    return h ^ (h >> np.uint32(16))
