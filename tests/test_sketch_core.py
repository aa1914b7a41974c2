"""Tests for the numpy sketch builders (TUPSK, LV2SK, PRISK, INDSK, CSK)."""
import numpy as np
import pandas as pd
import pytest

from repro import hashing
from repro.sketch import METHODS, build_pair, join_sketches, occurrence_index
from repro.sketch.base import Sketch


def _skewed_table(n=5000, n_keys=200, seed=0):
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_keys + 1)
    w = 1.0 / ranks**1.2
    w /= w.sum()
    keys = np.array([f"k{v}" for v in rng.choice(ranks, n, p=w)], object)
    values = rng.normal(size=n)
    return keys, values


# ---------- occurrence index ----------

def test_occurrence_index_basic():
    j = occurrence_index(np.array(list("aabab"), object))
    assert j.tolist() == [1, 2, 1, 3, 2]


def test_occurrence_index_unique_keys_all_one():
    assert (occurrence_index(np.arange(100)) == 1).all()


# ---------- size bounds ----------

@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("n", [16, 64, 256])
def test_train_sketch_size_bounds(method, n):
    keys, values = _skewed_table()
    s = METHODS[method][0](keys, values, n)
    if method == "lv2sk" or method == "prisk":
        assert len(s) <= 2 * n  # paper Section IV-A upper bound
    else:
        assert len(s) <= n


@pytest.mark.parametrize("method", list(METHODS))
def test_tupsk_exact_n_when_enough_rows(method):
    keys, values = _skewed_table()
    s = METHODS[method][0](keys, values, 128)
    if method in ("tupsk", "indsk"):
        assert len(s) == 128  # row-level sampling always fills the budget


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("agg", ["avg", "count", "mode", "first"])
def test_cand_sketch_unique_hashes(method, agg):
    keys, values = _skewed_table(seed=3)
    s = METHODS[method][1](keys, values, 64, agg)
    assert len(s) <= 64
    assert len(np.unique(s.key_hash)) == len(s)


def test_lv2sk_size_at_least_n_when_many_keys():
    """Paper: sum n_k >= n whenever the number of distinct keys >= n."""
    keys, values = _skewed_table(n=10_000, n_keys=2_000, seed=1)
    s = METHODS["lv2sk"][0](keys, values, 256)
    assert len(s) >= 256


def test_lv2sk_frequency_proportional_caps():
    """For selected keys, sketch frequency tracks max(1, floor(n N_k/N))."""
    keys, values = _skewed_table(n=4000, n_keys=50, seed=2)
    n = 64
    s = METHODS["lv2sk"][0](keys, values, n)
    kh = hashing.hash_keys(keys)
    freq_table = pd.Series(kh).value_counts()
    freq_sketch = pd.Series(s.key_hash).value_counts()
    for h, cnt in freq_sketch.items():
        expected = max(1, int(n * freq_table[h] / len(keys)))
        assert cnt == expected


def test_determinism_all_methods():
    keys, values = _skewed_table(seed=4)
    for method in METHODS:
        a = METHODS[method][0](keys, values, 100)
        b = METHODS[method][0](keys, values, 100)
        assert (a.key_hash == b.key_hash).all()
        assert (a.values == b.values).all()


# ---------- sampling distribution properties ----------

def test_tupsk_uniform_row_inclusion():
    """TUPSK row inclusion is uniform (1/N) regardless of key frequency
    (paper Section IV-B analysis). We check that the heavy key's rows
    are included in proportion to its frequency."""
    n_rows, n = 20_000, 2_000
    rng = np.random.default_rng(5)
    # one key holds half the table
    keys = np.where(rng.random(n_rows) < 0.5, "HEAVY", rng.integers(0, 5_000, n_rows).astype(str))
    keys = keys.astype(object)
    values = rng.normal(size=n_rows)
    s = METHODS["tupsk"][0](keys, values, n)
    heavy_hash = hashing.hash_keys(np.array(["HEAVY"], object))[0]
    frac = (s.key_hash == heavy_hash).mean()
    true_frac = (keys == "HEAVY").mean()
    assert frac == pytest.approx(true_frac, abs=0.05)


def test_lv2sk_underrepresents_heavy_key_under_small_m():
    """The paper's Section IV-B extreme example: with few distinct keys
    LV2SK's per-key cap distorts the value distribution."""
    # K = [a b c d e f f f ... f], Y = [0 0 0 0 0 1 2 ... 95]
    keys = np.array(list("abcde") + ["f"] * 95, object)
    values = np.concatenate([np.zeros(5), np.arange(1.0, 96.0)])
    s = METHODS["lv2sk"][0](keys, values, 5)
    # level 1 picks 5 of the 6 keys; the heavy key f receives at most
    # floor(5*95/100) = 4 samples even if selected, so the sketch can
    # never represent f's 95% mass.
    heavy_hash = hashing.hash_keys(np.array(["f"], object))[0]
    assert (s.key_hash == heavy_hash).sum() <= 4
    # TUPSK at the same budget samples rows uniformly: virtually all
    # picks land on f.
    s2 = METHODS["tupsk"][0](keys, values, 5)
    assert (s2.key_hash == heavy_hash).sum() >= 3


def test_tupsk_j1_coordination_guarantee():
    """Any selected train row with occurrence j = 1 must find its key in
    the TUPSK cand sketch built at the same n (KMV threshold argument,
    paper Section IV-B)."""
    keys, values = _skewed_table(n=3000, n_keys=800, seed=6)
    n = 128
    s_train = METHODS["tupsk"][0](keys, values, n)
    cand_keys = np.unique(keys)  # candidate table sharing the key domain
    s_cand = METHODS["tupsk"][1](cand_keys, np.arange(len(cand_keys), dtype=float), n, "avg")
    kh = hashing.hash_keys(keys)
    j = occurrence_index(keys)
    u = hashing.tuple_u01(kh, j)
    selected = np.argsort(u, kind="stable")[:n]
    j1_hashes = set(kh[selected[j[selected] == 1]].tolist())
    assert j1_hashes.issubset(set(s_cand.key_hash.tolist()))


def test_coordinated_methods_share_keys_on_unique_tables():
    """With unique keys on both sides and a shared domain, TUPSK, LV2SK,
    PRISK and CSK all recover a full-size sketch join."""
    n_rows, n = 5_000, 256
    rng = np.random.default_rng(7)
    keys = np.arange(n_rows).astype(str).astype(object)
    yv = rng.normal(size=n_rows)
    xv = rng.normal(size=n_rows)
    for method in ("tupsk", "lv2sk", "prisk", "csk"):
        st, sc = build_pair(method, keys, yv, keys, xv, n)
        y, x = join_sketches(st, sc)
        assert len(y) == n, method


def test_indsk_join_quadratically_small_on_unique_keys():
    """Paper Section IV: independent sampling joins ~ n^2/N rows."""
    n_rows, n = 10_000, 256
    rng = np.random.default_rng(8)
    keys = np.arange(n_rows).astype(str).astype(object)
    st, sc = build_pair("indsk", keys, rng.normal(size=n_rows), keys, rng.normal(size=n_rows), n)
    y, _ = join_sketches(st, sc)
    assert len(y) < 40  # expectation ~ 6.5


def test_prisk_equals_lv2sk_on_unique_keys():
    keys = np.arange(2000).astype(str).astype(object)
    vals = np.random.default_rng(9).normal(size=2000)
    a = METHODS["lv2sk"][0](keys, vals, 64)
    b = METHODS["prisk"][0](keys, vals, 64)
    assert (a.key_hash == b.key_hash).all()


def test_csk_first_value_semantics():
    keys = np.array(["k", "k", "k"], object)
    vals = np.array([10.0, 20.0, 30.0])
    s = METHODS["csk"][0](keys, vals, 8)
    assert len(s) == 1 and s.values[0] == 10.0


# ---------- sketch join ----------

def test_join_sketches_matches_bruteforce():
    rng = np.random.default_rng(10)
    keys = rng.integers(0, 50, 500).astype(str).astype(object)
    yv = rng.normal(size=500)
    st, sc = build_pair("tupsk", keys, yv, np.unique(keys).astype(object), np.arange(50, dtype=float), 64, "avg")
    y, x = join_sketches(st, sc)
    cand_map = dict(zip(sc.key_hash.tolist(), sc.values.tolist()))
    expected = [(yy, cand_map[h]) for h, yy in zip(st.key_hash.tolist(), st.values.tolist()) if h in cand_map]
    assert sorted(map(tuple, zip(y, x))) == sorted(expected)


def _merge_join(train, cand):
    """Reference: a pandas merge on h(k) that keeps the first cand entry per hash."""
    t = pd.DataFrame({"kh": train.key_hash.astype(np.int64), "y": train.values})
    c = pd.DataFrame({"kh": cand.key_hash.astype(np.int64), "x": cand.values})
    c = c.drop_duplicates("kh", keep="first")
    j = t.merge(c, on="kh", how="inner", sort=True)
    return j["y"].to_numpy(), j["x"].to_numpy()


@pytest.mark.parametrize("seed", range(6))
def test_join_sketches_equals_pandas_merge(seed):
    """Same (y, x) arrays, in the same order, as the merge on random sketches."""
    rng = np.random.default_rng(seed)
    hashes = rng.integers(0, 2**32, 400, dtype=np.uint64).astype(np.uint32)
    t_kh = rng.choice(hashes, int(rng.integers(0, 300)))
    c_kh = rng.choice(hashes, int(rng.integers(0, 300)), replace=bool(seed % 2))
    train = Sketch(t_kh, rng.normal(size=len(t_kh)))
    cand = Sketch(c_kh, rng.integers(0, 9, len(c_kh)))
    for got, want in zip(join_sketches(train, cand), _merge_join(train, cand)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_join_sketches_keeps_first_cand_entry_on_a_hash_collision():
    train = Sketch(np.array([5, 7, 7, 9, 2**32 - 1], np.uint32), np.arange(1.0, 6.0))
    cand = Sketch(np.array([7, 9, 7, 2**32 - 1, 9], np.uint32), np.array(list("abcde"), object))
    y, x = join_sketches(train, cand)
    want_y, want_x = _merge_join(train, cand)
    np.testing.assert_array_equal(y, want_y)
    np.testing.assert_array_equal(x, want_x)
    assert x.tolist() == ["a", "a", "b", "d"]


def test_sketch_validates_alignment():
    with pytest.raises(ValueError):
        Sketch(np.arange(3, dtype=np.uint32), np.arange(2))


def test_build_pair_unknown_method():
    with pytest.raises(KeyError):
        build_pair("nope", np.array(["a"], object), np.zeros(1), np.array(["a"], object), np.zeros(1), 4)


@pytest.mark.parametrize("method", list(METHODS))
def test_integral_float_keys_join_next_to_non_integral_ones(method):
    """h(3.0) is h(3) whatever else the column holds: a cand key 2.5 must
    not change how the cand side hashes 1.0, 2.0 and 3.0."""
    train_keys = np.array([1.0, 2.0, 3.0] * 2)
    cand_keys = np.array([1.0, 2.0, 3.0, 2.5])
    st, sc = build_pair(method, train_keys, np.arange(6.0), cand_keys, np.arange(4.0), 16)
    y, _ = join_sketches(st, sc)
    assert len(st) > 0 and len(y) == len(st)
