"""Tests for the open-data corpus simulator and type inference."""
import numpy as np
import pandas as pd
import pytest

from repro.opendata import (
    SPECS,
    generate_collection,
    generate_pair,
)
from repro.opendata.typeinfer import cast_column


@pytest.mark.parametrize("name", ["nyc", "wbf"])
def test_pair_shapes_match_spec(name):
    spec = SPECS[name]
    p = generate_pair(0, spec, seed=123)
    assert spec.left_rows[0] <= len(p.train) <= spec.left_rows[1]
    n_right_keys = p.cand["key"].nunique()
    assert spec.right_domain[0] <= n_right_keys <= spec.right_domain[1]
    assert p.train["key"].nunique() <= spec.left_domain[1]


def test_pair_deterministic():
    a = generate_pair(3, SPECS["nyc"], seed=9)
    b = generate_pair(3, SPECS["nyc"], seed=9)
    pd.testing.assert_frame_equal(a.train, b.train)
    pd.testing.assert_frame_equal(a.cand, b.cand)


def test_pairs_differ_across_ids():
    coll = generate_collection("nyc", 3, seed=1)
    assert len({len(p.train) for p in coll} | {p.train["key"].iloc[0] for p in coll}) > 1


def test_values_are_strings():
    p = generate_pair(0, SPECS["wbf"], seed=5)
    assert p.train["y"].map(lambda v: isinstance(v, str)).all()
    assert p.cand["x"].map(lambda v: isinstance(v, str)).all()


def test_collections_have_overlapping_keys():
    """Sketch joins need key overlap; containment must be non-trivial."""
    for name in ("nyc", "wbf"):
        p = generate_pair(1, SPECS[name], seed=11)
        shared = set(p.train["key"]) & set(p.cand["key"])
        matched_rows = p.train["key"].isin(shared).sum()
        assert matched_rows > 100, name


def test_wbf_joins_bigger_than_nyc():
    """The WBF-like collection has larger joins (heavier key repetition),
    mirroring the published statistics (34k vs 8.5k)."""
    def avg_join(name):
        sizes = []
        for p in generate_collection(name, 5, seed=77):
            shared = set(p.train["key"]) & set(p.cand["key"])
            sizes.append(p.train["key"].isin(shared).sum())
        return np.mean(sizes)

    assert avg_join("wbf") > avg_join("nyc")


@pytest.mark.parametrize("name", ["nyc", "wbf"])
def test_pair_rows_in_rid_order(name):
    """Both tables come in strictly increasing ``rid``: the Table II
    sweep hands them to ``evaluate_pair`` as they are, and occurrence
    indices follow row order."""
    p = generate_pair(2, SPECS[name], seed=13)
    for table in (p.train, p.cand):
        assert (np.diff(table["rid"].to_numpy()) > 0).all()


def test_unknown_collection_raises():
    with pytest.raises(KeyError):
        generate_collection("chicago", 1)


# ---------- type inference ----------

def test_is_numeric_on_decimal_strings():
    assert cast_column(np.array(["1.5", "-2.25", "3e4"], object)).dtype == np.float64


def test_is_numeric_rejects_labels():
    assert cast_column(np.array(["cat_001", "cat_002"], object)).dtype != np.float64
    assert cast_column(np.array(["1.5", "two"], object)).dtype != np.float64


def test_is_numeric_empty_false():
    assert cast_column(np.array([], object)).dtype != np.float64


def test_cast_column_numeric():
    out = cast_column(np.array(["1.5", "2.0"], object))
    assert out.dtype == np.float64
    assert out.tolist() == [1.5, 2.0]


def test_cast_column_categorical_passthrough():
    vals = np.array(["cat_001", "cat_002"], object)
    out = cast_column(vals)
    assert out.dtype == object
    assert (out == vals).all()


def test_rendered_columns_route_both_ways():
    """Across many pairs both numeric and categorical columns occur, so
    all three estimator routes are exercised in Table II."""
    kinds = set()
    for p in generate_collection("nyc", 8, seed=31):
        kinds.add(cast_column(p.train["y"]).dtype == np.float64)
        kinds.add(cast_column(p.cand["x"]).dtype == np.float64)
    assert kinds == {True, False}
