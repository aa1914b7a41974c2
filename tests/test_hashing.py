"""Tests for the hashing substrate (murmur3, encoding, uniform hash)."""
import numpy as np
import pytest

from repro.hashing import (
    encode_values,
    hash_keys,
    murmur3_32,
    murmur3_32_batch,
    murmur3_32_u32pair,
    tuple_u01,
    u01,
)

# Canonical MurmurHash3_x86_32 test vectors (reference implementation).
VECTORS = [
    (b"", 0, 0x00000000),
    (b"", 1, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"\xff\xff\xff\xff", 0, 0x76293B50),
    (b"\x21\x43\x65\x87", 0, 0xF55B516B),
    (b"\x21\x43\x65\x87", 0x5082EDEE, 0x2362F9DE),
    (b"\x21\x43\x65", 0, 0x7E4A8634),
    (b"\x21\x43", 0, 0xA0F7B07A),
    (b"\x21", 0, 0x72661CF4),
    (b"\x00\x00\x00\x00", 0, 0x2362F9DE),
    (b"\x00\x00\x00", 0, 0x85F0B427),
    (b"\x00\x00", 0, 0x30F4C306),
    (b"\x00", 0, 0x514E28B7),
]


@pytest.mark.parametrize("data,seed,expected", VECTORS)
def test_murmur3_reference_vectors(data, seed, expected):
    assert murmur3_32(data, seed) == expected


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF])
@pytest.mark.parametrize("max_len", [4, 7, 16, 33])
def test_batch_matches_scalar(seed, max_len):
    rng = np.random.default_rng(seed + max_len)
    blobs = [bytes(rng.integers(0, 256, int(l))) for l in rng.integers(0, max_len + 1, 300)]
    lengths = np.array([len(b) for b in blobs])
    width = max(4, int(lengths.max()))
    padded = np.zeros((len(blobs), width), np.uint8)
    for i, b in enumerate(blobs):
        padded[i, : len(b)] = np.frombuffer(b, np.uint8)
    got = murmur3_32_batch(padded, lengths, seed=seed)
    expected = np.array([murmur3_32(b, seed) for b in blobs], np.uint32)
    assert (got == expected).all()


@pytest.mark.parametrize("seed", [0, 7])
def test_u32pair_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
    b = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
    got = murmur3_32_u32pair(a, b, seed)
    expected = np.array(
        [
            murmur3_32(int(x).to_bytes(4, "little") + int(y).to_bytes(4, "little"), seed)
            for x, y in zip(a, b)
        ],
        np.uint32,
    )
    assert (got == expected).all()


def test_encode_int_and_integral_float_agree():
    assert (hash_keys(np.array([1, 2, 3])) == hash_keys(np.array([1.0, 2.0, 3.0]))).all()


def test_encode_strings_roundtrip():
    padded, lengths = encode_values(np.array(["abc", "", "hello world"], object))
    assert lengths.tolist() == [3, 0, 11]
    assert bytes(padded[0, :3]) == b"abc"
    assert bytes(padded[2, :11]) == b"hello world"


def test_encode_is_per_value():
    """A value's bytes do not depend on the other values in its array:
    integral floats encode as int64 next to non-integral ones too."""
    padded, lengths = encode_values(np.array([1.5, 2.0]))
    assert bytes(padded[0, : lengths[0]]) == b"1.5"
    assert bytes(padded[1, : lengths[1]]) == (2).to_bytes(8, "little")
    mixed = np.array([3.0, 2.5, np.nan, 7, "7", True, None], object)
    alone = [hash_keys(np.array([v], object))[0] for v in mixed]
    assert hash_keys(mixed).tolist() == alone
    assert hash_keys(np.array([3.0, 2.5]))[0] == hash_keys(np.array([3]))[0]
    assert hash_keys(np.array(["7"], object))[0] != hash_keys(np.array([7]))[0]


def test_hash_keys_distinct_inputs_mostly_distinct():
    h = hash_keys(np.arange(10_000))
    assert len(np.unique(h)) > 9_990  # 32-bit collisions are rare


def test_hash_keys_deterministic():
    a = hash_keys(np.array(["x", "y", "z"], object))
    b = hash_keys(np.array(["x", "y", "z"], object))
    assert (a == b).all()


def test_u01_range_and_uniformity():
    u = u01(hash_keys(np.arange(50_000)))
    assert ((u >= 0) & (u < 1)).all()
    # Coarse uniformity: each decile within 20% of expected mass.
    hist, _ = np.histogram(u, bins=10, range=(0, 1))
    assert (np.abs(hist - 5000) < 1000).all()


def test_tuple_u01_differs_per_occurrence():
    kh = hash_keys(np.array(["k", "k", "k"], object))
    u = tuple_u01(kh, np.array([1, 2, 3]))
    assert len(np.unique(u)) == 3


def test_tuple_u01_j1_matches_across_calls():
    kh = hash_keys(np.array(["a", "b"], object))
    u1 = tuple_u01(kh, np.ones(2))
    u2 = tuple_u01(kh, np.ones(2))
    assert (u1 == u2).all()


def test_empty_input():
    assert len(hash_keys(np.array([], dtype=np.int64))) == 0
