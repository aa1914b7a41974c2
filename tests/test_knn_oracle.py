"""The k-NN searches of MixedKSG and DC-KSG against all-pairs oracles.

``_joint_knn`` and ``_class_knn`` must return the same bits as an
all-pairs search: the same rho and duplicate counts, in input order, so
the estimates built on them are bit-identical too. The oracles below
compute every pairwise distance in float64 blocks.
"""
from unittest import mock

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mi import knn

_CHUNK = 256


def _brute_joint_knn(x, y, k):
    n = len(x)
    rho = np.empty(n)
    zeros = np.empty(n, dtype=np.int64)
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        d = np.abs(x[s:e, None] - x[None, :])
        np.maximum(d, np.abs(y[s:e, None] - y[None, :]), out=d)
        rows = np.arange(s, e)
        d[rows - s, rows] = np.inf  # exclude self
        zeros[s:e] = (d == 0.0).sum(axis=1)
        rho[s:e] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return rho, zeros


def _brute_class_knn(codes, y, k):
    radius = np.zeros(len(y))
    for c in np.nonzero(np.bincount(codes) > 1)[0]:
        members = np.nonzero(codes == c)[0]
        yc = y[members]
        kc = int(min(k, len(yc) - 1))
        for s in range(0, len(yc), _CHUNK):
            e = min(s + _CHUNK, len(yc))
            d = np.abs(yc[s:e, None] - yc[None, :])
            d[np.arange(e - s), np.arange(s, e)] = np.inf
            radius[members[s:e]] = np.partition(d, kc - 1, axis=1)[:, kc - 1]
    return radius


def _outcome(estimator, *args):
    """The estimate's bytes, or the error it raised: a radius below half
    an ulp of its value can make a marginal count 0, and digamma reject
    it, whichever search found the radius."""
    try:
        return np.float64(estimator(*args)).tobytes()
    except ValueError as err:
        return str(err)


def _assert_joint_matches(x, y, k):
    rho, zeros = knn._joint_knn(x, y, k)
    want_rho, want_zeros = _brute_joint_knn(x, y, k)
    assert rho.tobytes() == want_rho.tobytes()
    assert zeros.tobytes() == want_zeros.tobytes()
    got = _outcome(knn.mi_mixed_ksg, x, y, k)
    with mock.patch.object(knn, "_joint_knn", _brute_joint_knn):
        assert got == _outcome(knn.mi_mixed_ksg, x, y, k)


def _assert_class_matches(codes, y, k):
    assert knn._class_knn(codes, y, k).tobytes() == _brute_class_knn(codes, y, k).tobytes()
    got = _outcome(knn.mi_dc_ksg, codes, y, k)
    with mock.patch.object(knn, "_class_knn", _brute_class_knn):
        assert got == _outcome(knn.mi_dc_ksg, codes, y, k)


# Values whose differences tie, or miss a tie by one ulp, under rounding.
_EDGE = [0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, np.nextafter(0.3, 0.0), np.nextafter(0.3, 1.0), 0.7, 1.0,
         np.nextafter(1.0, 2.0)]
_SIGNED_ZERO = [-0.0, 0.0, 5e-324, -5e-324, 1.0]


def _column(draw, kind, n, rng):
    if kind == "continuous":
        return draw(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    if kind == "grid":
        return rng.integers(-3, 4, n).astype(np.float64)
    if kind == "cdunif":
        return rng.integers(0, 5, n) + rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
    if kind == "equal":
        return np.full(n, 2.5)
    if kind == "ulp_edge":
        return rng.choice(_EDGE, n)
    if kind == "huge":  # spacing 0.125 near 1e15
        return 1e15 + rng.integers(-40, 40, n) * 0.125 + rng.choice([0.0, 1e3, -2e15], n)
    return rng.choice(_SIGNED_ZERO, n)


_KINDS = ["continuous", "grid", "cdunif", "equal", "ulp_edge", "huge", "signed_zero"]


@st.composite
def _samples(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(k + 1, k + 3), st.integers(k + 1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _column(draw, draw(st.sampled_from(_KINDS)), n, rng)
    y = _column(draw, draw(st.sampled_from(_KINDS)), n, rng)
    return x, y, k


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_samples())
def test_joint_knn_equals_all_pairs(sample):
    _assert_joint_matches(*sample)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_samples())
def test_joint_knn_equals_all_pairs_in_small_chunks(sample):
    # A cap of 7 distances: a chunk holds one point or a few, and a
    # point with more candidates than the cap is a chunk of its own.
    with mock.patch.object(knn, "_CHUNK_WORK", 7):
        _assert_joint_matches(*sample)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_samples(), st.integers(1, 12))
def test_class_knn_equals_all_pairs(sample, n_classes):
    x, y, k = sample
    codes = pd.factorize(np.floor(np.abs(x)) % n_classes)[0]
    _assert_class_matches(codes, y, k)


def _cdunif(n, m, rng):
    x = rng.integers(0, m, n).astype(np.float64)
    return x, x + rng.uniform(0.0, 2.0, n)


def _fixed(kind, n=5000):
    rng = np.random.default_rng(2024)
    if kind == "gaussian":
        return rng.normal(size=n), rng.normal(size=n)
    if kind == "correlated_gaussian":
        z = rng.normal(size=n)
        return z, 0.9 * z + np.sqrt(1 - 0.81) * rng.normal(size=n)
    if kind == "tied_grid":
        return rng.integers(0, 5, n).astype(np.float64), rng.integers(0, 7, n).astype(np.float64)
    if kind == "cdunif_m100":
        return _cdunif(n, 100, rng)
    x = rng.integers(0, 16, n).astype(np.float64)  # CDUnif, m = 16
    return x, x + rng.uniform(0.0, 2.0, n)


@pytest.mark.parametrize(
    "kind", ["gaussian", "correlated_gaussian", "tied_grid", "cdunif", "cdunif_m100"]
)
def test_fixed_5k_inputs_equal_all_pairs(kind):
    x, y = _fixed(kind)
    _assert_joint_matches(x, y, 3)
    _assert_class_matches(pd.factorize(np.floor(x * 4))[0], y, 3)


@pytest.mark.parametrize("swap", [False, True])
def test_neighbour_rounded_onto_the_bound_is_a_candidate(swap):
    # fl(2**-60 - (-1.0)) == 1.0 == ub of the first point, set by the
    # duplicated neighbour, yet fl(-1.0 + 1.0) == 0.0 < 2**-60: only a box
    # widened by one step past ub keeps that neighbour.
    a = np.zeros(3)
    b = np.array([-1.0, 2.0**-60, 2.0**-60])
    x, y = (b, a) if swap else (a, b)
    assert knn._joint_knn(x, y, 1)[0][0] == 1.0
    _assert_joint_matches(x, y, 1)


def _sort_order_bound(x, y, k):
    """Per point, its k-th distance to the k points on either side of it
    in the (x, y) sort."""
    order = np.lexsort((y, x))
    near = np.full((len(x), 2 * k), np.inf)
    for t in range(1, k + 1):
        d = np.maximum(np.abs(x[order[t:]] - x[order[:-t]]), np.abs(y[order[t:]] - y[order[:-t]]))
        near[order[:-t], 2 * t - 2] = d
        near[order[t:], 2 * t - 1] = d
    return np.partition(near, k - 1, axis=1)[:, k - 1]


def test_the_sort_order_bound_binds_on_cdunif_m100():
    # 50 points per x value, and an x-column of >= sqrt(5000 * 3) points
    # holds about 3 of them, whose y ranges [x, x + 2] overlap: a point's
    # y-order neighbours in its column are mostly one x-gap away, while
    # its (x, y) sort neighbours share its x and bound rho tightly, so
    # test_fixed_5k_inputs_equal_all_pairs[cdunif_m100] checks the
    # search where that bound sets the boxes.
    x, y = _fixed("cdunif_m100")
    rho = _brute_joint_knn(x, y, 3)[0]
    assert np.mean(_sort_order_bound(x, y, 3) == rho) > 0.9


def test_joint_knn_computes_at_most_8_distances_per_point_on_cdunif_20k():
    # The k-th smallest step sees every candidate distance the search
    # computes: at most 8 per point here (65 with the column bound alone).
    x, y = _cdunif(20000, 100, np.random.default_rng(0))
    seen = []

    def spy(d, counts, k):
        seen.append(len(d))
        return kth_smallest(d, counts, k)

    kth_smallest = knn._kth_smallest
    with mock.patch.object(knn, "_kth_smallest", spy):
        knn._joint_knn(x, y, 3)
    assert 0 < sum(seen) <= 8 * len(x)


# A TPC-H lineitem x part join puts a narrow x (p_retailprice, which
# spans ~100) beside a wide y (l_extendedprice, ~90,000): there the
# y-sort bound and the columns sized from the bounds set the boxes.
def _tpch_x(n, rng):
    """p_retailprice = 900 + (key % 1000) / 10 of n rows' part keys."""
    return (900 + rng.integers(1, 20001, n) % 1000 / 10.0).round(2)


@st.composite
def _scaled_samples(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(k + 1, k + 3), st.integers(k + 1, 1500), st.integers(1000, 1500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = 10.0 ** draw(st.integers(3, 7))
    kind = draw(st.sampled_from(["rays", "x_narrow", "y_narrow", "constant_x"]))
    if kind == "rays":  # l_extendedprice = l_quantity * p_retailprice
        x = _tpch_x(n, rng)
        y = rng.integers(1, 51, n) * x
    elif kind == "constant_x":
        x, y = np.full(n, 950.0), rng.uniform(-wide, wide, n)
    else:
        x, y = _tpch_x(n, rng), (rng.random(n) * wide + 900).round(2)
        if kind == "y_narrow":
            x, y = y, x
    return x, y, k


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_scaled_samples())
def test_joint_knn_equals_all_pairs_on_very_different_scales(sample):
    _assert_joint_matches(*sample)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(1, 200), elements=st.integers(-20, 20).map(float)),
    st.integers(1, 30),
    st.floats(0.0, 50.0),
)
def test_columns_cut_by_width_are_never_more(xo, m, width):
    xo.sort()
    starts = np.flatnonzero(np.concatenate(([True], xo[1:] != xo[:-1])))
    by_count = knn._column_cuts(xo, starts, m, 0.0)
    cuts = knn._column_cuts(xo, starts, m, width)
    assert len(cuts) <= len(by_count)
    assert cuts[0] == 0 and cuts[-1] == len(xo) and np.isin(cuts[1:-1], starts).all()
    assert (np.diff(cuts) >= min(m, len(xo))).all()
    assert (xo[cuts[1:-1]] - xo[cuts[:-2]] >= width).all()


def _search_work(x, y, k):
    """The box search's candidates (each point itself included) and
    (point, column) pairs, and the number of points it searches."""
    _, _, _, _, rows, pair_start, pair_end, _, size = knn._candidate_slices(x, y, k)
    return size.sum(), (pair_end - pair_start).sum(), len(rows)


@pytest.mark.parametrize("kind", ["rays", "independent"])
def test_box_search_work_on_a_tpch_like_join(kind):
    # With the column and (x, y)-sort bounds alone, a point here had ~55
    # candidates and reached all ~18 columns.
    rng = np.random.default_rng(1)
    x = _tpch_x(1024, rng)
    y = rng.integers(1, 51, 1024) * x if kind == "rays" else (rng.random(1024) * 90000 + 900).round(2)
    cands, pairs, points = _search_work(x, y, 3)
    assert points == 1024
    assert cands <= 2 * (3 + 1) * points
    assert pairs <= 2 * points


def test_box_search_work_where_y_is_100_times_wider():
    # Columns of sqrt(n k) points are far narrower than a box here: the
    # column and (x, y)-sort bounds alone gave ~117 candidates in ~37
    # columns per point, and columns recut without the y-sort bound ~28
    # candidates per point.
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0.0, 1.0, 5000), rng.uniform(0.0, 100.0, 5000)
    cands, pairs, points = _search_work(x, y, 3)
    assert points == 5000
    assert cands <= 3 * (3 + 1) * points
    assert pairs <= 2 * points


def test_box_search_work_on_cdunif_20k():
    # x has 100 values, so the (x, y)-sort bound is tight and the boxes
    # stay far narrower than a column: no more work than the column and
    # (x, y)-sort bounds alone give, 110,414 candidates in one column per
    # point.
    x, y = _cdunif(20000, 100, np.random.default_rng(0))
    cands, pairs, points = _search_work(x, y, 3)
    assert points == 20000
    assert cands <= 110414
    assert pairs <= points
