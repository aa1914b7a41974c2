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
box-assisted search of Kraskov, Stögbauer & Grassberger 2004): every
distance it keeps is computed as ``max(|x_i - x_j|, |y_i - y_j|)``, the
same float operations as an all-pairs search, so it returns the same
bits. DC-KSG's within-class 1-D distances use the k sorted positions on
either side. Marginal neighborhood counts use sort + searchsorted,
O(n log n).
"""
from __future__ import annotations

import numpy as np

from .special import digamma

# A box search block of r rows and c candidates is split while r * c
# exceeds this many distances.
_BLOCK_WORK = 1 << 14


def _as_float_col(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).reshape(-1)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("k-NN estimators need finite values; found NaN or inf")


def _nearest_in_runs(a: np.ndarray, b: np.ndarray, run: np.ndarray, k: int) -> np.ndarray:
    """Per sorted position p, the distances max(|a_q - a_p|, |b_q - b_p|)
    to the positions q = p ± 1..k of the same ``run``; inf elsewhere."""
    near = np.full((len(a), 2 * k), np.inf)
    for t in range(1, k + 1):
        d = np.maximum(np.abs(a[t:] - a[:-t]), np.abs(b[t:] - b[:-t]))
        d[run[t:] != run[:-t]] = np.inf
        near[:-t, 2 * t - 2] = d
        near[t:, 2 * t - 1] = d
    return near


def _column_cuts(xo: np.ndarray, m: int) -> np.ndarray:
    """Start positions (and the end) of x-columns over sorted ``xo``: each
    holds >= m points, the last one the tail, and a cut falls only where x
    changes."""
    n = len(xo)
    starts = np.flatnonzero(np.r_[True, xo[1:] != xo[:-1]])
    cuts = [0]
    while True:
        i = np.searchsorted(starts, cuts[-1] + m)
        if i == len(starts) or starts[i] > n - m:
            return np.array(cuts + [n])
        cuts.append(int(starts[i]))


def _joint_knn(x: np.ndarray, y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point, in input order: the k-th NN Chebyshev distance in
    (x, y), and the count of exact duplicates (d_ij == 0, j != i).

    Needs finite values and n > k. Distinct finite floats never subtract
    to 0, so d_ij == 0 exactly when the points are equal: the duplicate
    counts come from grouping, and a point with >= k duplicates has
    rho = 0. The other points are searched in boxes. The points are
    sorted into x-columns of >= sqrt(n k) points, equal x never split,
    and within a column by (y, x). A point's k-th distance to its k
    column neighbours on either side bounds its rho from above; the
    candidates of a block of column rows are the y-slices of every
    column within the block's x-reach. Blocks are split until small.
    """
    n = len(x)
    order = np.lexsort((y, x))
    xo, yo = x[order], y[order]
    group = np.cumsum(np.r_[True, (xo[1:] != xo[:-1]) | (yo[1:] != yo[:-1])])
    dups = np.bincount(group)[group] - 1
    zeros = np.empty(n, dtype=np.int64)
    zeros[order] = dups
    rho = np.zeros(n)

    cuts = _column_cuts(xo, max(k + 1, int(np.sqrt(n * k))))
    col = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    within = np.lexsort((xo, yo, col))
    perm = order[within]  # sorted position -> input index
    xs, ys, dups = x[perm], y[perm], dups[within]
    col_xmin, col_xmax = xo[cuts[:-1]], xo[cuts[1:] - 1]
    # (column, rank of y) as one sorted int64 key, so that one
    # searchsorted finds a y-slice in every column at once.
    y_sorted = np.sort(y)
    key = col * (n + 1) + np.searchsorted(y_sorted, ys, side="left")
    # ub_i >= rho_i. fl|y_j - y_i| <= ub_i implies |y_j - y_i| <
    # nextafter(ub_i) exactly, and float addition is monotone, so a box
    # with edges y_i ± nextafter(ub_i) (and the same in x) holds every j
    # with d_ij <= ub_i; an edge y_i ± ub_i could miss one by rounding.
    ub = np.partition(_nearest_in_runs(xs, ys, col, k), k - 1, axis=1)[:, k - 1]
    ub = np.nextafter(ub, np.inf)

    todo = np.flatnonzero(dups < k)
    bounds = np.searchsorted(todo, cuts)
    blocks = [(s, e) for s, e in zip(bounds[:-1], bounds[1:]) if e > s]
    while blocks:
        s, e = blocks.pop()
        rows = todo[s:e]  # one column, in y order
        r = ub[rows].max()
        xr = xs[rows]
        c0 = np.searchsorted(col_xmax, xr.min() - r, side="left")
        c1 = np.searchsorted(col_xmin, xr.max() + r, side="right")
        base = np.arange(c0, c1) * (n + 1)
        lo = np.searchsorted(key, base + np.searchsorted(y_sorted, ys[rows[0]] - r, side="left"))
        hi = np.searchsorted(key, base + np.searchsorted(y_sorted, ys[rows[-1]] + r, side="right"))
        size = hi - lo
        total = int(size.sum())
        if e - s > 1 and (e - s) * total > _BLOCK_WORK:
            mid = (s + e) // 2
            blocks += [(s, mid), (mid, e)]
            continue
        cand = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(total)
        d = np.abs(xr[:, None] - xs[None, cand])
        np.maximum(d, np.abs(ys[rows, None] - ys[None, cand]), out=d)
        d[np.arange(len(rows)), np.searchsorted(cand, rows)] = np.inf  # exclude self
        rho[perm[rows]] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return rho, zeros


def _class_knn(codes: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Per point, the k_c-th NN distance |y_i - y_j| within its class,
    k_c = min(k, class size - 1); 0 in a class of one. Within a class
    sorted by y the k_c nearest lie among the k positions on either
    side, because float subtraction is monotone."""
    order = np.lexsort((y, codes))
    cs, ys = codes[order], y[order]
    near = _nearest_in_runs(ys, ys, cs, k)
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
    s = np.sort(a)
    if inclusive:  # a_i - radius <= a_i <= a_i + radius: the ties are in
        hi = np.searchsorted(s, a + radius, side="right")
        lo = np.searchsorted(s, a - radius, side="left")
    else:  # widened to a_i's tie bounds
        hi = np.maximum(np.searchsorted(s, a + radius, side="left"), np.searchsorted(s, a, "right"))
        lo = np.minimum(np.searchsorted(s, a - radius, side="right"), np.searchsorted(s, a, "left"))
    return hi - lo


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
