"""Vectorized special functions (scipy is not available offline).

* :func:`gammaln` — log-gamma via the Lanczos approximation (g=7, n=9
  coefficients), accurate to ~1e-13 for positive arguments. Used by the
  exact trinomial entropy sums (paper Section V-A).
* :func:`digamma` — psi function via the standard asymptotic series at
  x >= 12; below 12, upward recurrence psi(x) = psi(x+1) - 1/x to
  x >= 12 first. The k-NN estimators call it on integer counts, so the
  integers 1..11 are read from a table that the recurrence itself fills
  at import, and only non-integers below 12 run the recurrence: every
  input gets the bits the recurrence gives. Used by every KSG-family
  estimator (paper Section II).
"""
from __future__ import annotations

import numpy as np

_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def gammaln(x: np.ndarray | float) -> np.ndarray | float:
    """log |Gamma(x)| for x > 0, vectorized (Lanczos, g=7)."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    if (x <= 0).any():
        raise ValueError("gammaln requires x > 0")
    z = x - 1.0
    series = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(series)
    return float(out[0]) if scalar else out


def _series(x: np.ndarray) -> np.ndarray:
    """Asymptotic expansion ln x - 1/(2x) - sum B_2n / (2n x^{2n}), for x >= 12."""
    inv = 1.0 / x
    inv2 = inv * inv
    return (
        np.log(x)
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
    )


def _recurrence(x: np.ndarray) -> np.ndarray:
    """psi(x) for 0 < x < 12: psi(x) = psi(x+1) - 1/x until x >= 12, then
    the series."""
    x = x.copy()
    result = np.zeros_like(x)
    while True:
        small = x < 12.0
        if not small.any():
            break
        result[small] -= 1.0 / x[small]
        x[small] += 1.0
    result += _series(x)
    return result


# psi(1..11), by the recurrence itself; index 0 is never read.
_PSI_INT = np.r_[np.nan, _recurrence(np.arange(1.0, 12.0))]


def _below_12(x: np.ndarray) -> np.ndarray:
    """psi(x) for 0 < x < 12: integers from the table, the rest by the
    recurrence."""
    n = x.astype(np.int64)
    result = _PSI_INT[n]
    frac = n != x
    if frac.any():
        result[frac] = _recurrence(x[frac])
    return result


def digamma(x: np.ndarray | float) -> np.ndarray | float:
    """psi(x) = d/dx log Gamma(x) for x > 0, vectorized."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if (x <= 0).any():
        raise ValueError("digamma requires x > 0")
    small = np.flatnonzero(x < 12.0)
    if len(small) == len(x):
        result = _below_12(x)
    else:
        # x >= 12 takes the series directly; the clamp keeps the entries
        # replaced below from overflowing.
        result = _series(np.maximum(x, 12.0))
        if len(small):
            result[small] = _below_12(x[small])
    return float(result[0]) if scalar else result
