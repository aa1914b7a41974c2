"""Tests for the featurization function AGG (paper Section III-B)."""
import numpy as np
import pandas as pd
import pytest

from repro.sketch.base import AGG_FUNCTIONS, Train, aggregate_cand

# Paper Example 2: K_Z = [a,b,b,b,c,c,c], Z = [1,2,2,5,0,3,3]
KZ = np.array(list("abbbccc"), dtype=object)
Z = np.array([1, 2, 2, 5, 0, 3, 3], dtype=np.float64)


def _as_map(df: pd.DataFrame) -> dict:
    return dict(zip(df["key"], df["value"]))


def test_example2_avg():
    assert _as_map(aggregate_cand(KZ, Z, "avg")) == {"a": 1.0, "b": 3.0, "c": 2.0}


def test_example2_mode():
    assert _as_map(aggregate_cand(KZ, Z, "mode")) == {"a": 1.0, "b": 2.0, "c": 3.0}


def test_example2_count():
    assert _as_map(aggregate_cand(KZ, Z, "count")) == {"a": 1, "b": 3, "c": 3}


def test_count_skips_nan_values():
    got = aggregate_cand(np.array([1, 1, 2]), np.array([1.0, np.nan, np.nan]), "count")
    assert _as_map(got) == {1: 1, 2: 0}


@pytest.mark.parametrize("kind", ["float", "string"])
def test_count_matches_duckdb_count(kind):
    """``count`` is SQL ``COUNT(x)``: NULL and NaN values are not counted."""
    import duckdb

    rng = np.random.default_rng(12)
    keys = rng.integers(0, 40, 600)
    missing = rng.random(600) < 0.3
    if kind == "float":
        values = np.where(missing, np.nan, rng.normal(size=600))
    else:
        values = np.array([None if m else f"v{i % 7}" for i, m in enumerate(missing)], object)
    cand = pd.DataFrame({"key": keys, "x": values})
    con = duckdb.connect()
    try:
        want = con.execute("SELECT key, COUNT(x) AS n FROM cand GROUP BY key").fetchdf()
    finally:
        con.close()
    assert _as_map(aggregate_cand(keys, values, "count")) == dict(zip(want["key"], want["n"]))


def test_example2_first():
    assert _as_map(aggregate_cand(KZ, Z, "first")) == {"a": 1.0, "b": 2.0, "c": 0.0}


def test_example2_join_recovery():
    """Joining K_Y = [a,a,b,c] against the AVG featurization must yield
    X = [1,1,3,2] (paper Example 2)."""
    ky = pd.DataFrame({"key": list("aabc")})
    aug = aggregate_cand(KZ, Z, "avg")
    joined = ky.merge(aug, on="key", how="left")
    assert joined["value"].tolist() == [1.0, 1.0, 3.0, 2.0]


def test_mode_tie_broken_by_first_appearance():
    keys = np.array(["k"] * 4, object)
    vals = np.array([7.0, 9.0, 9.0, 7.0])
    assert _as_map(aggregate_cand(keys, vals, "mode")) == {"k": 7.0}


def test_keys_in_first_appearance_order():
    out = aggregate_cand(np.array(list("bab"), object), np.arange(3.0), "first")
    assert out["key"].tolist() == ["b", "a"]


def test_unique_keys_identity_for_value_preserving_aggs():
    keys = np.array([f"k{i}" for i in range(50)], object)
    vals = np.random.default_rng(0).normal(size=50)
    for agg in ("avg", "mode", "first"):
        out = aggregate_cand(keys, vals, agg)
        assert np.allclose(out["value"].to_numpy().astype(float), vals)


def test_string_values_mode_and_first():
    keys = np.array(["x", "x", "x", "y"], object)
    vals = np.array(["red", "blue", "red", "green"], object)
    assert _as_map(aggregate_cand(keys, vals, "mode")) == {"x": "red", "y": "green"}
    assert _as_map(aggregate_cand(keys, vals, "first")) == {"x": "red", "y": "green"}


def test_unknown_agg_raises():
    with pytest.raises(ValueError):
        aggregate_cand(KZ, Z, "median")


def test_all_aggs_listed():
    assert set(AGG_FUNCTIONS) == {"avg", "count", "mode", "first"}


# ---------- vectorized MODE: the edges of pandas' value_counts semantics ----------

def _mode_reference(keys, values) -> pd.DataFrame:
    """MODE as a per-group ``value_counts`` with first-seen tie-breaking."""

    def first_seen_mode(s: pd.Series):
        counts = s.value_counts()
        top = set(counts[counts == counts.max()].index)
        return next((v for v in s if v in top), None)

    out = pd.DataFrame({"key": keys, "value": values}).groupby("key", sort=False)["value"]
    out = out.agg(first_seen_mode)
    return pd.DataFrame({"key": out.index.to_numpy(), "value": out.to_numpy()})


def test_mode_ignores_nan_values():
    keys = np.array(["k"] * 5 + ["m"] * 2, object)
    vals = np.array([np.nan, np.nan, np.nan, 4.0, 4.0, np.nan, 1.0])
    assert _as_map(aggregate_cand(keys, vals, "mode")) == {"k": 4.0, "m": 1.0}


def test_mode_all_nan_key_gets_nan():
    keys = np.array(["k", "k", "m"], object)
    out = aggregate_cand(keys, np.array([np.nan, np.nan, 2.0]), "mode")
    assert out["key"].tolist() == ["k", "m"]
    assert np.isnan(out["value"][0]) and out["value"][1] == 2.0


def test_mode_drops_null_cand_keys():
    keys = np.array([None, "a", np.nan, "b", None], object)
    out = aggregate_cand(keys, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), "mode")
    assert out["key"].tolist() == ["a", "b"]
    assert out["value"].tolist() == [2.0, 4.0]


def test_mode_string_tie_goes_to_first_seen():
    keys = np.array(["k"] * 6, object)
    vals = np.array(["blue", "red", None, "red", "blue", None], object)
    assert _as_map(aggregate_cand(keys, vals, "mode")) == {"k": "blue"}


def test_mode_matches_per_group_value_counts():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 60, 2_000).astype(float)
    keys[rng.random(2_000) < 0.05] = np.nan
    for vals in (
        np.where(rng.random(2_000) < 0.3, np.nan, rng.integers(0, 4, 2_000).astype(float)),
        np.array([None, "x", "y", "z"], object)[rng.integers(0, 4, 2_000)],
        rng.integers(0, 3, 2_000),
    ):
        got, want = aggregate_cand(keys, vals, "mode"), _mode_reference(keys, vals)
        assert got["key"].to_numpy().tobytes() == want["key"].to_numpy().tobytes()
        assert got["value"].dtype == want["value"].dtype
        assert got["value"].equals(want["value"])


def test_distinct_key_hashes_broadcast_equal_row_hashes():
    """Train preparation hashes each distinct key once; for a float key
    column mixing integral values, non-integral values and NaN this must
    equal hashing every row."""
    from repro.hashing import hash_keys

    keys = np.array([3.0, 2.5, np.nan, 3.0, 7.0, np.nan, 2.5, -1.0])
    codes, uniques = pd.factorize(keys, use_na_sentinel=False)
    assert (hash_keys(uniques)[codes] == hash_keys(keys)).all()
    integral = np.array([3.0, np.nan, 3.0, 7.0])
    codes, uniques = pd.factorize(integral, use_na_sentinel=False)
    assert (hash_keys(uniques)[codes] == hash_keys(integral)).all()
    assert (Train(keys, np.arange(8.0)).key_hash == hash_keys(keys)).all()


def test_first_is_the_first_row_nan_included():
    """FIRST is SQL's MIN_BY(x, rid): the value at the key's first row,
    even when it is NaN; NULL keys are dropped."""
    keys = np.array(["a", "b", "a", None, "b"], object)
    vals = np.array([np.nan, 2.0, 1.0, 5.0, np.nan])
    out = aggregate_cand(keys, vals, "first")
    assert out["key"].tolist() == ["a", "b"]
    assert np.isnan(out["value"].iloc[0]) and out["value"].iloc[1] == 2.0
