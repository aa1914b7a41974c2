"""The sketch selection kernels against their pandas and full-sort oracles.

``occurrence_index``, the first-row rule, ``bottom_n`` and LV2SK's
``two_level`` rank with numpy sort kernels. Each must keep the rows and
the tie rule of the definition it replaced: a tie goes to the earlier row
or key. The oracles below are those definitions. The golden digests pin
every selected bit of all five methods on open-data-like pairs and on an
int-key table with NULL keys.
"""
import hashlib

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.opendata import SPECS, generate_pair
from repro.opendata.typeinfer import cast_column
from repro.sketch import SELECTORS, Train, aggregate_cand, build_pair, lv2sk, occurrence_index
from repro.sketch.base import bottom_n

# ---------- oracles: the definitions the kernels replaced ----------


def _oracle_occurrence_index(keys):
    codes, _ = pd.factorize(np.asarray(keys), use_na_sentinel=False)
    return (pd.Series(codes).groupby(codes).cumcount() + 1).to_numpy(np.int64)


def _oracle_first(codes):
    return np.unique(codes, return_index=True)[1]


def _oracle_bottom_n(coord, n):
    return np.argsort(coord, kind="stable")[:n]


def _oracle_two_level(train, key_order, n):
    rows = np.flatnonzero(np.isin(train.codes, key_order[:n]))
    codes = train.codes[rows]
    n_k = np.maximum(1, (n * train.counts / train.N).astype(np.int64))
    rank = pd.Series(train.u_row[rows]).groupby(codes).rank(method="first").to_numpy()
    return rows[rank <= n_k[codes]]


def _oracle_select_train(method, train, n):
    if method == "lv2sk":
        return _oracle_two_level(train, np.argsort(train.u_key, kind="stable"), n)
    if method == "prisk":
        priority = train.counts / np.maximum(train.u_key, np.finfo(np.float64).tiny)
        return _oracle_two_level(train, np.argsort(-priority, kind="stable"), n)
    codes = np.flatnonzero(pd.notna(train.keys[train.first]))  # csk
    return train.first[codes[np.argsort(train.u_key[codes], kind="stable")[:n]]]


def _oracle_agg_first(keys, values):
    codes, uniques = pd.factorize(keys)
    rows = np.flatnonzero(codes >= 0)
    return uniques, values[rows[np.unique(codes[rows], return_index=True)[1]]]


# ---------- strategies ----------

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

#: Keys from a small domain (heavy repetition, often a single key), with
#: NULLs and NaNs, as ints, floats or strings.
_key = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b", "c"]), st.none(),
                 st.just(float("nan")), st.sampled_from([0.5, 2.0]))
_keys = st.lists(_key, min_size=0, max_size=60).map(lambda ks: np.array(ks, dtype=object))
#: Coordinates drawn from 2-3 distinct floats, so most values tie.
_tied = st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=0, max_size=80).map(np.array)
_coord = st.one_of(
    _tied,
    st.lists(st.floats(0, 1, exclude_max=True), max_size=80).map(np.array),
    st.lists(st.sampled_from([-np.inf, -1.0, 0.0]), max_size=40).map(np.array),
)


def _train(keys):
    return Train(keys, np.arange(len(keys), dtype=np.float64))


# ---------- the kernels against the oracles ----------


@_SETTINGS
@given(_keys)
def test_occurrence_index_matches_cumcount(keys):
    got = occurrence_index(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _oracle_occurrence_index(keys))


def test_occurrence_index_past_16_bit_codes():
    keys = np.r_[np.arange(70_000), np.arange(0, 70_000, 7), np.arange(5)]
    np.testing.assert_array_equal(occurrence_index(keys), _oracle_occurrence_index(keys))


@_SETTINGS
@given(_keys)
def test_first_rows_match_unique(keys):
    train = _train(keys)
    np.testing.assert_array_equal(train.first, _oracle_first(train.codes))


@_SETTINGS
@given(_keys)
def test_aggregate_first_matches_unique_with_null_keys(keys):
    values = np.arange(len(keys), dtype=np.float64)
    got = aggregate_cand(keys, values, "first")
    uniques, first = _oracle_agg_first(keys, values)
    assert len(got) == len(uniques)
    np.testing.assert_array_equal(got["value"].to_numpy(), first)


@_SETTINGS
@given(_coord, st.integers(0, 90))
def test_bottom_n_matches_stable_argsort(coord, n):
    got = bottom_n(coord, n)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, _oracle_bottom_n(coord, n))


@pytest.mark.parametrize("n", [0, 1, 5, 7, 100])
def test_bottom_n_edges(n):
    for coord in (np.array([]), np.array([0.5]), np.full(7, 0.5)):
        np.testing.assert_array_equal(bottom_n(coord, n), _oracle_bottom_n(coord, n))


_ONE_KEY = np.array(["a"] * 9, dtype=object)
_EMPTY = np.array([], dtype=object)


@_SETTINGS
@given(_keys, _tied, st.integers(0, 12))
@example(_ONE_KEY, np.array([0.5, 0.25, 0.5]), 3)
@example(_EMPTY, np.array([0.5]), 2)
def test_two_level_matches_pandas_rank_under_forced_u_row_ties(keys, u, n):
    train = _train(keys)
    # u_row is a cached_property: assigning it forces ties on <h(k), j>.
    train.u_row = np.resize(u, len(keys)) if len(u) else np.full(len(keys), 0.5)
    for key_order in (np.argsort(train.u_key, kind="stable"), np.arange(len(train.counts))[::-1]):
        got = lv2sk.two_level(train, key_order, n)
        np.testing.assert_array_equal(got, _oracle_two_level(train, key_order, n))


@_SETTINGS
@given(_keys, st.integers(0, 12))
@example(_ONE_KEY, 0)
@example(_ONE_KEY, 12)
@example(_EMPTY, 3)
@pytest.mark.parametrize("method", ["lv2sk", "prisk", "csk"])
def test_key_order_selectors_match_full_sorts(method, keys, n):
    train = _train(keys)
    got = SELECTORS[method][0](train, n)
    np.testing.assert_array_equal(got, _oracle_select_train(method, train, n))


@_SETTINGS
@given(_keys, st.integers(0, 12), st.data())
@pytest.mark.parametrize("method", ["lv2sk", "prisk", "csk", "tupsk"])
def test_selectors_match_oracles_on_the_spark_driver_path(method, keys, n, data):
    """A part of a table, as Spark's driver prepares it: ``j``, ``n_k``
    and ``N`` come from the whole table."""
    whole = _train(keys)
    kept = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    part = np.flatnonzero(np.array(kept, bool))
    train = Train(keys[part], whole.values[part], part, j=whole.j[part],
                  n_k=whole.counts[whole.codes[part]], N=whole.N)
    np.testing.assert_array_equal(train.first, _oracle_first(train.codes))
    got = SELECTORS[method][0](train, n)
    want = (_oracle_bottom_n(train.u_row, n) if method == "tupsk"
            else _oracle_select_train(method, train, n))
    np.testing.assert_array_equal(got, want)


# ---------- golden digests: every selected bit of all five methods ----------

#: (collection, generate_pair seed, AGG): string keys with Zipf
#: multiplicity; n = 1024 caps LV2SK/PRISK keys at more than one row.
_PAIRS = [("nyc", 0, "mode"), ("nyc", 7, "avg"), ("wbf", 0, "mode"), ("wbf", 1, "avg")]
_N = 1024


def _digest(s) -> str:
    h = hashlib.sha256(np.asarray(s.key_hash, np.uint32).tobytes())
    h.update(str(s.values.dtype).encode())
    h.update(repr(s.values.tolist()).encode())
    return h.hexdigest()[:16]


def _open_data_pair(coll, seed):
    p = generate_pair(0, SPECS[coll], seed=seed)
    return (p.train["key"].to_numpy(), cast_column(p.train["y"]),
            p.cand["key"].to_numpy(), cast_column(p.cand["x"]))


def _int_key_pair():
    rng = np.random.default_rng(16)
    tk = rng.zipf(1.3, 4000) % 300
    ck = np.r_[np.arange(250), rng.integers(0, 400, 300)]
    tk, ck = tk.astype(object), ck.astype(object)
    tk[rng.random(len(tk)) < 0.1] = None
    ck[rng.random(len(ck)) < 0.1] = None
    return tk, rng.normal(size=len(tk)), ck, rng.normal(size=len(ck))


#: Digests of (key_hash, values) per method and case: (train, cand), computed with
#: the full-sort and pandas selection definitions above.
GOLDEN = {
    "tupsk": {
        "nyc0-mode": ("4a7f3c6cee52db66", "8d66c4e84ae13272"),
        "nyc7-avg": ("cd5ef9b5e42f9dfa", "38435b58f6cf2b5b"),
        "wbf0-mode": ("bed6fe588faeb906", "349e18e89512ce1a"),
        "wbf1-avg": ("d60aa2aea0f5fe0d", "843bb667d0abe257"),
        "int-null-avg": ("2493917e36677fbd", "b71083dbe83624db"),
    },
    "lv2sk": {
        "nyc0-mode": ("f024d95638de7dc8", "1d654feab033e232"),
        "nyc7-avg": ("81854de2b3991c8f", "51d490d7d06b0ffc"),
        "wbf0-mode": ("31f301c29a676c35", "7488453bb66d5c7b"),
        "wbf1-avg": ("cc62ae7a64aecb2d", "4a11e09002856c2d"),
        "int-null-avg": ("88a5a8d0402a6137", "482f7b1d8826ddfc"),
    },
    "prisk": {
        "nyc0-mode": ("577ae2be2a53074a", "1d654feab033e232"),
        "nyc7-avg": ("81854de2b3991c8f", "51d490d7d06b0ffc"),
        "wbf0-mode": ("6155231a2e82fc33", "7488453bb66d5c7b"),
        "wbf1-avg": ("4426dc7f5a3979e3", "4a11e09002856c2d"),
        "int-null-avg": ("aa5e65c1976609db", "482f7b1d8826ddfc"),
    },
    "indsk": {
        "nyc0-mode": ("dad153687aad11b6", "98c907aa3b29949d"),
        "nyc7-avg": ("7a35551bb83eba4a", "f7255b693be52c51"),
        "wbf0-mode": ("3eed8592575a522e", "a4400d81430d05c4"),
        "wbf1-avg": ("c35231d3abfade23", "e4f2d7c0a95d9dda"),
        "int-null-avg": ("d830ce346dd4cd0b", "0b8bad59993a2470"),
    },
    "csk": {
        "nyc0-mode": ("9f651536f3671d94", "641f197646064db4"),
        "nyc7-avg": ("66f94229cc0d153d", "93a4d0a723e4b2c8"),
        "wbf0-mode": ("98a5f6722a05325b", "9df8255be6c2290e"),
        "wbf1-avg": ("be46cad4ca239cdc", "75caa3ee2a5afd0f"),
        "int-null-avg": ("a7b1e8d189f53ec9", "57b0c8309bd3cdba"),
    },
}


def _cases():
    for coll, seed, agg in _PAIRS:
        yield f"{coll}{seed}-{agg}", _open_data_pair(coll, seed), agg, _N
    yield "int-null-avg", _int_key_pair(), "avg", 64


@pytest.mark.parametrize("method", list(SELECTORS))
def test_golden_sketch_digests(method):
    for name, (tk, tv, ck, cv), agg, n in _cases():
        s_train, s_cand = build_pair(method, tk, tv, ck, cv, n, agg)
        assert (_digest(s_train), _digest(s_cand)) == GOLDEN[method][name], (method, name)
