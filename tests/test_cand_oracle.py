"""``Cand`` and the full-join key lookup against the definitions they replaced.

``Cand(keys, values)`` factorizes the keys once for every AGG, and
``featurize(agg)`` reduces the values over its key codes. The oracle is
the former ``aggregate_cand``, frozen below: it factorized (or grouped
by) the keys once per AGG. Keys, AGG values and each key's first row
must match it bit for bit and dtype for dtype. One difference is kept on
purpose: ``Cand.keys`` are ``pd.factorize``'s uniques for every AGG,
where the former AVG and COUNT let the groupby index narrow object keys
(all ints to int64, all bools to bool); the cells are the same.

The full join looks each train key up in an index of the featurized cand
keys. The oracle is the pandas inner merge it replaced: the same ``y``
and ``x``, dtypes and row order.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.evaluate import _join_aug, full_join_pairs_pandas
from repro.sketch import AGG_FUNCTIONS, Cand, aggregate_cand

# ---------- oracles: the definitions Cand and the lookup replaced ----------


def _oracle_mode(keys, values):
    key_codes, uniques = pd.factorize(keys)
    val_codes, _ = pd.factorize(values)
    rows = np.flatnonzero(key_codes >= 0)
    kc, vc = key_codes[rows], val_codes[rows]
    _, inverse, counts = np.unique(
        kc.astype(np.int64) * (vc.max(initial=-1) + 2) + vc + 1,
        return_inverse=True,
        return_counts=True,
    )
    count = np.where(vc >= 0, counts[inverse], 0)
    order = np.lexsort((rows, -count, kc))
    best = order[np.searchsorted(kc[order], np.arange(len(uniques)))]
    out = values[rows[best]]
    if out.dtype == object or (count[best] == 0).any():
        out = pd.Series(np.where(count[best] > 0, out, None)).infer_objects().to_numpy()
    return pd.DataFrame({"key": uniques, "value": out})


def _oracle_aggregate_cand(keys, values, agg):
    if agg not in AGG_FUNCTIONS:
        raise ValueError(f"unknown AGG {agg!r}")
    keys, values = np.asarray(keys), np.asarray(values)
    if agg == "mode":
        return _oracle_mode(keys, values)
    if agg == "first":
        codes, uniques = pd.factorize(keys)
        first = np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))
        return pd.DataFrame({"key": uniques, "value": values[first]})
    g = pd.DataFrame({"key": keys, "value": values}).groupby("key", sort=False)["value"]
    out = g.mean() if agg == "avg" else g.count()
    return pd.DataFrame({"key": out.index.to_numpy(), "value": out.to_numpy()})


def _oracle_merge(train, keys, x):
    kept = ~pd.isna(x)
    merged = train[["key", "y"]].merge(
        pd.DataFrame({"key": keys[kept], "x": x[kept]}), on="key", how="inner", sort=False
    )
    return merged["y"].to_numpy(), merged["x"].to_numpy()


def _assert_identical(got, want):
    """Same dtype and the same bits; object cells by type and repr, so
    -0.0 differs from 0.0 and True from 1."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.shape == want.shape
    if got.dtype == object:
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]
    else:
        assert got.tobytes() == want.tobytes()


# ---------- strategies ----------

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

#: Cells that pandas merges into one key (True, 1, 1.0; -0.0, 0.0), that
#: it keeps apart ("1"), NULLs and duplicates.
_MIXED = [True, 1, 1.0, "1", -0.0, 0.0, None, float("nan"), 2, "a", "b"]
_KEY_KINDS = {
    "int": (st.integers(-3, 6), np.int64),
    "float": (st.sampled_from([-0.0, 0.0, 0.5, 2.0, float("nan")]), np.float64),
    "str": (st.sampled_from(["a", "b", "1", "", None]), object),
    "int_null": (st.one_of(st.integers(0, 4), st.none()), object),
    "mixed": (st.sampled_from(_MIXED), object),
}
_VALUE_KINDS = {
    "float": (st.sampled_from([0.25, 1.0, 3.0, -0.0, 0.0, float("nan")]), np.float64),
    "int": (st.integers(-2, 3), np.int64),
    "str": (st.sampled_from(["red", "blue", None]), object),
    "int_null": (st.one_of(st.integers(0, 3), st.none()), object),
}


@st.composite
def _table(draw, kind=None, max_size=60):
    """Parallel (keys, values) columns of one key and one value kind."""
    kind = kind or draw(st.sampled_from(sorted(_KEY_KINDS)))
    key_st, key_dtype = _KEY_KINDS[kind]
    val_st, val_dtype = _VALUE_KINDS[draw(st.sampled_from(sorted(_VALUE_KINDS)))]
    rows = draw(st.lists(st.tuples(key_st, val_st), max_size=max_size))
    keys = np.array([k for k, _ in rows], dtype=key_dtype)
    values = np.array([v for _, v in rows], dtype=val_dtype)
    return keys, values


def _numeric(values):
    return values.dtype != object or all(v is None or isinstance(v, int) for v in values)


_EMPTY = (np.array([], np.int64), np.array([], np.float64))
_ALL_NULL = (np.array([None, float("nan"), None], object), np.array([1.0, np.nan, 2.0]))
_ALL_NAN = (np.array([np.nan, np.nan]), np.array(["x", None], object))


# ---------- Cand against the former aggregate_cand ----------


@_SETTINGS
@given(_table())
@example(_EMPTY)
@example(_ALL_NULL)
@example(_ALL_NAN)
@example((np.array([True, 1, 1.0, "1", -0.0, 0.0, None], object), np.arange(7.0)))
def test_cand_equals_the_former_aggregate_cand(table):
    keys, values = table
    rid = np.arange(100, 100 + len(keys)) * 7
    cand = Cand(keys, values)
    first = _oracle_aggregate_cand(keys, rid, "first")
    _assert_identical(cand.keys, first["key"].to_numpy())
    _assert_identical(rid[cand.first], first["value"].to_numpy())
    for agg in AGG_FUNCTIONS:
        if agg == "avg" and not _numeric(values):
            continue  # AVG of strings: pandas raises, as before
        want = _oracle_aggregate_cand(keys, values, agg)
        want_keys = want["key"].to_numpy()
        if agg in ("avg", "count") and keys.dtype == object:
            want_keys = want_keys.astype(object)
        _assert_identical(cand.keys, want_keys)
        _assert_identical(cand.featurize(agg), want["value"].to_numpy())
        got = aggregate_cand(keys, values, agg)
        _assert_identical(got["key"].to_numpy(), want_keys)
        _assert_identical(got["value"].to_numpy(), want["value"].to_numpy())


def test_featurize_runs_once_per_agg():
    cand = Cand(np.array([1, 2, 1]), np.array([1.0, 2.0, 4.0]))
    assert cand.featurize("avg") is cand.featurize("avg")
    np.testing.assert_array_equal(cand.featurize("avg"), [2.5, 2.0])
    np.testing.assert_array_equal(cand.featurize("first"), [1.0, 2.0])


def test_unknown_agg_raises():
    cand = Cand(np.array([1, 2]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="unknown AGG"):
        cand.featurize("median")
    with pytest.raises(ValueError, match="unknown AGG"):
        aggregate_cand(np.array([1, 2]), np.array([1.0, 2.0]), "median")


# ---------- the full-join lookup against the pandas merge ----------


@st.composite
def _pair(draw):
    """A train table and a cand table of one key kind, or int train keys
    with NULLs (object) against int cand keys."""
    kind = draw(st.sampled_from(sorted(_KEY_KINDS)))
    cand_kind = "int" if kind == "int_null" and draw(st.booleans()) else kind
    train_keys, _ = draw(_table(kind))
    cand_keys, values = draw(_table(cand_kind))
    train = pd.DataFrame({"key": train_keys, "y": np.arange(len(train_keys), dtype=np.float64)})
    return train, pd.DataFrame({"key": cand_keys, "x": values})


@_SETTINGS
@given(_pair(), st.sampled_from(AGG_FUNCTIONS))
def test_lookup_equals_the_merge(pair, agg):
    train, cand = pair
    if agg == "avg" and not _numeric(cand["x"].to_numpy()):
        agg = "mode"
    side = Cand(cand["key"].to_numpy(), cand["x"].to_numpy())
    try:
        want = _oracle_merge(train, side.keys, side.featurize(agg))
    except ValueError:  # the merge refuses all-NULL object keys against int64 ones
        assert train["key"].isna().all()
        want = train["y"].to_numpy()[:0], side.featurize(agg)[:0]  # the lookup matches none
    for got in (_join_aug(train, side.keys, side.featurize(agg)),
                full_join_pairs_pandas(train, cand, agg)):
        _assert_identical(got[0], want[0])
        _assert_identical(got[1], want[1])


def test_object_keys_match_true_with_1_as_the_merge_does():
    train = pd.DataFrame({"key": np.array([1, True, "1", 1.0, None], object), "y": np.arange(5.0)})
    keys, x = np.array([True, "1"], object), np.array([10.0, 20.0])
    py, px = _join_aug(train, keys, x)
    np.testing.assert_array_equal(py, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(px, [10.0, 10.0, 20.0, 10.0])
    for got, want in zip((py, px), _oracle_merge(train, keys, x)):
        _assert_identical(got, want)
