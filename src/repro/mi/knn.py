"""k-NN mutual information estimators (paper Section II).

Implemented from the primary sources, in numpy (no scipy offline):

* :func:`mi_mixed_ksg` — Gao, Kannan, Oh & Viswanath (NeurIPS 2017),
  for discrete-continuous *mixtures* in either variable; recovers the
  plug-in estimator on purely discrete regions.
* :func:`mi_dc_ksg` — Ross (PLoS ONE 2014), for a discrete X paired
  with a continuous Y.

All estimators use the Chebyshev (max) metric in the joint space and
natural logs, default ``k = 3``, and clip estimates at 0. Joint k-NN
distances come from an exact box search over x-columns (the
box-assisted search of Kraskov, Stögbauer & Grassberger 2004), one box
per point, sized by the point's k-th distance to its neighbours in its
column and in the (x, y) sort, and in the y sort too where the boxes
would outgrow the columns (y far wider than x): every distance it keeps
is computed as
``max(|x_i - x_j|, |y_i - y_j|)``, the same float operations as an
all-pairs search, so it returns the same bits. DC-KSG's within-class
1-D distances use the k sorted positions on either side. Marginal
neighborhood counts use sort + searchsorted, O(n log n).
"""
from __future__ import annotations

import numpy as np

from .special import digamma

# The most candidate distances the joint search holds at once; a point
# with more than this many candidates is searched alone.
_CHUNK_WORK = 1 << 14


def _as_float_col(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).reshape(-1)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("k-NN estimators need finite values; found NaN or inf")


def _nearest(a: np.ndarray, b: np.ndarray, k: int, run: np.ndarray | None = None) -> np.ndarray:
    """Per sorted position p, the distances max(|a_q - a_p|, |b_q - b_p|)
    to the positions q = p ± 1..k (of the same ``run``, if given); inf
    elsewhere."""
    near = np.full((len(a), 2 * k), np.inf)
    for t in range(1, k + 1):
        d = np.maximum(np.abs(a[t:] - a[:-t]), np.abs(b[t:] - b[:-t]))
        if run is not None:
            d[run[t:] != run[:-t]] = np.inf
        near[:-t, 2 * t - 2] = d
        near[t:, 2 * t - 1] = d
    return near


def _kth_nearest(a: np.ndarray, b: np.ndarray, k: int, run: np.ndarray | None = None) -> np.ndarray:
    """The k-th smallest of :func:`_nearest` per position."""
    near = _nearest(a, b, k, run)
    near.partition(k - 1, axis=1)
    return near[:, k - 1].copy()


def _column_cuts(xo: np.ndarray, starts: np.ndarray, m: int, width: float) -> np.ndarray:
    """Start positions (and the end) of x-columns over sorted ``xo``, whose
    x-runs start at ``starts``: a cut falls only where x changes, each
    column holds >= m points, the next one starts >= ``width`` past its
    first x, and the last one is the tail. Each cut is greedy, so a width
    never adds a column to the cuts of ``m`` alone."""
    n, xr = len(xo), xo[starts]
    # Per x-run, the first run that may start the next column.
    nxt = np.maximum(np.searchsorted(starts, starts + m), np.searchsorted(xr, xr + width))
    cuts, i = [0], 0
    while True:
        i = int(nxt[i])
        if i == len(starts) or starts[i] > n - m:
            return np.array(cuts + [n])
        cuts.append(int(starts[i]))


def _kth_smallest(d: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Per consecutive segment of ``d`` (lengths ``counts``, each >= k),
    its k-th smallest value. Segments are padded with inf to the next
    power of two of their length, and each width is one partition."""
    out = np.empty(len(counts))
    starts = np.cumsum(counts) - counts
    width = np.left_shift(1, np.frexp(counts - 1)[1])  # >= counts, exact for ints
    for w in np.unique(width):
        sel = np.flatnonzero(width == w)
        c = counts[sel]
        row = np.repeat(np.arange(len(sel)), c)
        pos = np.arange(len(row)) - np.repeat(np.cumsum(c) - c, c)
        pad = np.full((len(sel), w), np.inf)
        pad[row, pos] = d[starts[sel][row] + pos]
        out[sel] = np.partition(pad, k - 1, axis=1)[:, k - 1]
    return out


def _box(ub: np.ndarray) -> float:
    """Twice the median bound: the width of a median point's box."""
    return 2 * float(np.partition(ub, len(ub) // 2)[len(ub) // 2])


def _columns(x, y, order, xo, yo, cuts, k, ub):
    """The points of ``order`` (the (x, y) sort) in x-columns cut at
    ``cuts``, sorted within a column by (y, x): per column-sorted position
    its column ``col``, input index ``perm``, x and y. Lowers ``ub`` (in
    input order) to each point's k-th distance to its k neighbours on
    either side in its column."""
    col = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    perm = order[np.lexsort((xo, yo, col))]
    xs, ys = x[perm], y[perm]
    ub[perm] = np.minimum(ub[perm], _kth_nearest(xs, ys, k, col))
    return col, perm, xs, ys


def _candidate_slices(x: np.ndarray, y: np.ndarray, k: int):
    """The box search of :func:`_joint_knn`, in a function of its own so
    that the sorts, bounds and searches it needs are freed before the
    distances are computed.

    The columns are first cut by count. Where a median box is wider than
    two average columns, the y-sort bound is added and the columns are
    recut about one box wide; they are never more than the count gives.

    Returns each point's duplicate count ``zeros`` in input order,
    ``perm`` (column-sorted position -> input index), the column-sorted
    ``xs`` and ``ys``, the positions ``rows`` to search, and per searched
    point its (point, column) pairs ``pair_start:pair_end`` into the
    y-slices ``lo, lo + size`` of the column-sorted arrays.
    """
    n = len(x)
    order = np.lexsort((y, x))
    xo, yo = x[order], y[order]
    new_x = np.concatenate(([True], xo[1:] != xo[:-1]))
    group = np.cumsum(new_x | np.concatenate(([True], yo[1:] != yo[:-1])))
    zeros = np.empty(n, dtype=np.int64)
    zeros[order] = np.bincount(group)[group] - 1
    # ub_i >= rho_i, as is i's k-th distance to any k others. fl|y_j -
    # y_i| <= ub_i implies |y_j - y_i| < nextafter(ub_i) exactly, and
    # float addition is monotone, so a box with edges y_i ±
    # nextafter(ub_i) (and the same in x) holds every j with d_ij <=
    # ub_i; an edge y_i ± ub_i could miss one by rounding.
    ub = np.empty(n)
    ub[order] = _kth_nearest(xo, yo, k)
    starts = np.flatnonzero(new_x)
    m = max(k + 1, int(np.sqrt(n * k)))
    cuts = _column_cuts(xo, starts, m, 0.0)
    col, perm, xs, ys = _columns(x, y, order, xo, yo, cuts, k, ub)
    if _box(ub) * (len(cuts) - 1) > 2 * (xo[-1] - xo[0]):
        # A median box spans more than two average columns: y spreads
        # far wider than x, so neighbours in x are far in y. Bound by the
        # y sort too, and recut the columns about one box wide.
        oy = np.argsort(y)
        y_sorted = y[oy]
        ub[oy] = np.minimum(ub[oy], _kth_nearest(x[oy], y_sorted, k))
        cuts = _column_cuts(xo, starts, m, _box(ub))
        col, perm, xs, ys = _columns(x, y, order, xo, yo, cuts, k, ub)
    else:
        y_sorted = np.sort(y)
    col_xmin, col_xmax = xo[cuts[:-1]], xo[cuts[1:] - 1]
    # (column, rank of y) as one sorted int64 key, so that one
    # searchsorted finds a y-slice in every column at once.
    key = col * (n + 1) + np.searchsorted(y_sorted, ys, side="left")
    ub = ub[perm]

    rows = np.flatnonzero(zeros[perm] < k)  # in column, y order
    r = np.nextafter(ub[rows], np.inf)
    xr, yr = xs[rows], ys[rows]
    c0 = np.searchsorted(col_xmax, xr - r, side="left")
    c1 = np.searchsorted(col_xmin, xr + r, side="right")
    # One (point, column) pair per column within a point's x-reach, its
    # own column always among them, and one y-slice [lo, hi) per pair.
    reach = c1 - c0
    pair_end = np.cumsum(reach)
    pair_start = pair_end - reach
    point = np.repeat(np.arange(len(rows)), reach)
    base = (np.arange(len(point)) - pair_start[point] + c0[point]) * (n + 1)
    lo = np.searchsorted(key, base + np.searchsorted(y_sorted, yr - r, side="left")[point])
    hi = np.searchsorted(key, base + np.searchsorted(y_sorted, yr + r, side="right")[point])
    return zeros, perm, xs, ys, rows, pair_start, pair_end, lo, hi - lo


def _joint_knn(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point, in input order: the k-th NN Chebyshev distance in
    (x, y), and the count of exact duplicates (d_ij == 0, j != i).

    Needs finite values and n > k. Distinct finite floats never subtract
    to 0, so d_ij == 0 exactly when the points are equal: the duplicate
    counts come from grouping, and a point with >= k duplicates has
    rho = 0. Every other point is searched in its own box. The points
    are sorted into x-columns of >= sqrt(n k) points, equal x never
    split, and within a column by (y, x). A point's k-th distance to its
    k neighbours on either side in its column, and to its k neighbours
    on either side in the (x, y) sort, each bound its rho from above.
    When twice the median bound spans more than two average columns, as
    with a narrow x beside a wide y, the k neighbours on either side in
    the y sort bound it too, and the columns are recut fewer and about
    one box wide. The smallest bound sets the box. Its candidates are
    the y-slices of every column within the box's x-reach, found for all
    points at once, and rho is the k-th smallest candidate distance.
    """
    zeros, perm, xs, ys, rows, pair_start, pair_end, lo, size = _candidate_slices(x, y, k)
    tot = np.add.reduceat(size, pair_start)  # candidates per point, itself included
    cand_end = np.cumsum(tot)
    rho = np.zeros(len(x))

    s = 0
    while s < len(rows):  # chunks of points with <= _CHUNK_WORK candidates, or one point
        e = max(s + 1, int(np.searchsorted(cand_end, cand_end[s] - tot[s] + _CHUNK_WORK, "right")))
        p = slice(pair_start[s], pair_end[e - 1])
        sz = size[p]
        cand = np.repeat(lo[p] - np.cumsum(sz) + sz, sz) + np.arange(sz.sum())
        me = np.repeat(rows[s:e], tot[s:e])
        d = np.abs(xs[me] - xs[cand])
        np.maximum(d, np.abs(ys[me] - ys[cand]), out=d)
        d[cand == me] = np.inf  # exclude self
        rho[perm[rows[s:e]]] = _kth_smallest(d, tot[s:e], k)
        s = e
    return rho, zeros


def _class_knn(codes: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Per point, the k_c-th NN distance |y_i - y_j| within its class,
    k_c = min(k, class size - 1); 0 in a class of one. Within a class
    sorted by y the k_c nearest lie among the k positions on either
    side, because float subtraction is monotone."""
    order = np.lexsort((y, codes))
    cs, ys = codes[order], y[order]
    near = _nearest(ys, ys, k, cs)
    k_c = np.minimum(k, np.bincount(codes)[cs] - 1)
    radius = np.zeros(len(y))
    has = np.flatnonzero(k_c > 0)
    radius[order[has]] = np.sort(near[has], axis=1)[np.arange(len(has)), k_c[has] - 1]
    return radius


def _marginal_count(a: np.ndarray, radius: np.ndarray, *, inclusive: bool) -> np.ndarray:
    """#{j : |a_j - a_i| < radius_i} (or <= when inclusive), i itself
    and its ties always counted: with radius 0 the strict ball is i's tie
    set, and a radius below half an ulp of a_i, which rounds a_i ± radius
    back to a_i, cannot drop them."""
    order = np.argsort(a)  # searchsorted is fastest on sorted queries
    s, r = a[order], radius[order]
    if inclusive:  # a_i - radius <= a_i <= a_i + radius: the ties are in
        hi = np.searchsorted(s, s + r, side="right")
        lo = np.searchsorted(s, s - r, side="left")
    else:  # widened to a_i's tie bounds
        hi = np.maximum(np.searchsorted(s, s + r, side="left"), np.searchsorted(s, s, "right"))
        lo = np.minimum(np.searchsorted(s, s - r, side="right"), np.searchsorted(s, s, "left"))
    count = np.empty(len(a), dtype=hi.dtype)
    count[order] = hi - lo
    return count


def mi_mixed_ksg(x: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """Gao et al. mixed-KSG estimate of I(X;Y), nats.

    Handles repeated values (discrete components) by switching to the
    plug-in count k~_i at points whose k-th neighbor distance is 0.
    """
    x, y = _as_float_col(x), _as_float_col(y)
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must be the same length")
    _require_finite(x)
    _require_finite(y)
    if n <= k:
        return 0.0
    rho, zeros = _joint_knn(x, y, k)
    # Counting conventions follow Gao et al.'s reference implementation
    # (wgao9/mixed_KSG): counts include the point itself; at tied points
    # (rho == 0) the ball is the tie set, elsewhere it is the open ball
    # of radius rho; psi() replaces the paper's log(n+1).
    k_tilde = np.where(rho == 0.0, zeros + 1.0, float(k))
    nx = _marginal_count(x, rho, inclusive=False)
    ny = _marginal_count(y, rho, inclusive=False)
    est = np.mean(digamma(k_tilde) + np.log(n) - digamma(nx) - digamma(ny))
    return max(0.0, float(est))


def mi_dc_ksg(x_discrete: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """Ross's discrete-continuous estimate of I(X;Y), nats.

    ``x_discrete`` may hold any hashable values (strings, ints); ``y``
    must be numeric. Points whose discrete class has a single member
    carry no neighbor information and are excluded, as in Ross's
    reference implementation.
    """
    import pandas as pd

    y = _as_float_col(y)
    x_codes, _ = pd.factorize(np.asarray(x_discrete), use_na_sentinel=False)
    n = len(y)
    if n != len(x_codes):
        raise ValueError("x and y must be the same length")
    _require_finite(y)
    if n <= k:
        return 0.0
    class_counts = np.bincount(x_codes)
    n_xi = class_counts[x_codes]
    usable = n_xi > 1
    if usable.sum() == 0:
        return 0.0
    k_eff = np.minimum(k, n_xi - 1).astype(np.float64)
    radius = _class_knn(x_codes, y, k)
    m = _marginal_count(y, radius, inclusive=True) - 1
    u = usable
    est = (
        digamma(n)
        - np.mean(digamma(n_xi[u].astype(np.float64)))
        + np.mean(digamma(np.maximum(k_eff[u], 1.0)))
        - np.mean(digamma(np.maximum(m[u].astype(np.float64), 1.0)))
    )
    return max(0.0, float(est))
