"""Tests for the hashing substrate (murmur3, encoding, uniform hash)."""
import numpy as np
import pytest

from repro.hashing import (
    encode_values,
    hash_keys,
    murmur3_32,
    murmur3_32_words,
    tuple_u01,
    u01,
)
from repro.sketch import indsk

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


@pytest.mark.parametrize("max_len", [4, 7, 16, 33])
def test_batch_matches_scalar(max_len):
    """The kernel over zero-padded words hashes every length 0..max_len
    as the reference hashes the true-length bytes."""
    rng = np.random.default_rng(max_len)
    sizes = list(range(max_len + 1)) + rng.integers(0, max_len + 1, 300).tolist()
    blobs = [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in sizes]
    width = -(-max_len // 4) * 4
    padded = np.zeros((len(blobs), width), np.uint8)
    for i, b in enumerate(blobs):
        padded[i, : len(b)] = np.frombuffer(b, np.uint8)
    words = np.ascontiguousarray(padded.view("<u4").T)
    got = murmur3_32_words(words, np.array(sizes))
    assert got.tolist() == [murmur3_32(b) for b in blobs]


def _le32(x: int) -> bytes:
    return (int(x) & 0xFFFFFFFF).to_bytes(4, "little")


_RNG = np.random.default_rng(7)
_A32 = _RNG.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)


@pytest.mark.parametrize(
    "a,b",
    [
        (_A32, _RNG.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)),
        (_A32, 0xA5A5A5A5),  # a scalar salt broadcasts
        (np.array([2**32 + 5, 2**40, 2**63 - 1, -1, 7], np.int64), 0xA5A5A5A5),  # high words folded in
        (_A32[:4], np.array([2**33, 1, -1, 2**32], np.int64)),
        (np.array([2**32, 5, -(2**63)], np.int64), np.array([-1, 2**40, 3], np.int64)),
    ],
)
def test_tuple_u01_matches_scalar(a, b):
    """``tuple_u01(a, b)`` is ``u01`` of the reference hash of
    ``LE32(a) || LE32(b)``, followed by ``LE32(a >> 32)`` where either
    high word is set and by ``LE32(b >> 32)`` where b's is."""

    def pair_bytes(x, y):
        hx, hy = int(x) >> 32 & 0xFFFFFFFF, int(y) >> 32 & 0xFFFFFFFF
        return _le32(x) + _le32(y) + (_le32(hx) if hx or hy else b"") + (_le32(hy) if hy else b"")

    bs = np.broadcast_to(b, np.shape(a))
    expected = u01(np.array([murmur3_32(pair_bytes(x, y)) for x, y in zip(a, bs)]))
    assert (tuple_u01(a, b) == expected).all()


def test_tuple_u01_keeps_row_ids_past_32_bits_apart():
    # monotonically_increasing_id() starts partition p at p * 2**33.
    rid = (np.arange(4)[:, None] * 2**33 + np.arange(1000)).ravel()
    assert len(np.unique(tuple_u01(rid, indsk.SALT_TRAIN))) == 4000


# ``hash_keys`` and ``tuple_u01`` pinned to constants: a change to the
# encoding, its padding or the word order fails here even where the
# kernel still matches the reference on its own output.
GOLDEN_KEYS = [
    (np.array([0, 1, -1, 42, 2**31, 2**32 + 7, 2**53 + 1, -(2**63), 2**63 - 1], np.int64),
     [1669671676, 1392991556, 1651860712, 1871679806, 386683422, 3926268470, 2321329414,
      1366273829, 2188461247]),
    (np.array([0, 5, 2**63 - 1], np.uint64), [1669671676, 1740791543, 2188461247]),
    (np.array([0.0, -0.0, 1.0, -2.0, 1.5, np.nan, np.inf, -np.inf, 1e300, 2.0**62, 2.0**63, 0.1]),
     [1669671676, 1669671676, 1392991556, 2856891269, 4025916689, 605416826, 1234765051,
      3600711109, 773934260, 3145138138, 1916494174, 4292301820]),
    (np.array(["", "a", "ab", "abc", "abcd", "abcde", "hello world", "ünïcödé", "日本語", "x" * 33], object),
     [0, 1009084850, 2613040991, 3017643002, 1139631978, 3902511862, 1586663183, 2069557956,
      2779017879, 4243188946]),
    (np.array([None, True, False], object), [3069107721, 954397288, 1116623846]),
    (np.array([3.0, 2.5, np.nan, 7, "7", True, None, np.int32(5), np.float32(2.0), 2**63 - 1,
               -(2**63), "key_0001"], object),
     [2738575283, 10363030, 605416826, 4157363267, 602572328, 954397288, 3069107721, 1740791543,
      3323962100, 2188461247, 1366273829, 1009420859]),
]


@pytest.mark.parametrize("values,expected", GOLDEN_KEYS)
def test_hash_keys_golden(values, expected):
    assert hash_keys(values).tolist() == expected


def test_tuple_u01_golden():
    kh = hash_keys(np.array(["k", "k", "k", 1, 2.0], object))
    assert kh.tolist() == [3485312465, 3485312465, 3485312465, 1392991556, 3323962100]
    assert tuple_u01(kh, np.array([1, 2, 3, 1, 1])).tolist() == [
        0.9613356346883378, 0.7308955806405926, 0.840627235199767, 0.9938168780920573,
        0.38010285463929494,
    ]
    rid = np.array([0, 1, 2, 1000, 2**32 + 5, 2**40, -1], np.int64)
    assert tuple_u01(rid, indsk.SALT_TRAIN).tolist() == [
        0.3735375483516623, 0.7332000519902989, 0.2954178022875766, 0.10946286115276076,
        0.49851976232060163, 0.29453844420224295, 0.24607002153426435,
    ]
    assert tuple_u01(kh, indsk.SALT_CAND).tolist() == [
        0.09066267011164807, 0.09066267011164807, 0.09066267011164807, 0.45972414195535677,
        0.33062723224548973,
    ]


@pytest.mark.parametrize(
    "typed",
    [
        np.array([2**63, 2**64 - 1, 2**63 - 1], np.uint64),
        np.array([2**63 - 1, -(2**63)], np.int64),
        np.array([-(2.0**63), 2.0**63]),
    ],
)
def test_int64_bounds_encode_alike(typed):
    """One int64 range, ``-2^63 <= v < 2^63``, for typed arrays and for
    scalars in object arrays: outside it a value hashes as its string."""
    alone = [hash_keys(np.array([v], object))[0] for v in typed]
    assert hash_keys(typed).tolist() == alone
    assert hash_keys(typed.astype(object)).tolist() == alone


def test_int64_bounds_values():
    as_str = lambda v: hash_keys(np.array([str(v)], object))[0]  # noqa: E731
    as_int = lambda v: hash_keys(np.array([v], np.int64))[0]  # noqa: E731
    assert hash_keys(np.array([2**63], np.uint64))[0] == as_str(2**63)
    assert hash_keys(np.array([-(2.0**63)]))[0] == as_int(-(2**63))
    assert hash_keys(np.array([2.0**63]))[0] == as_str(2.0**63)


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
