"""Maximum-likelihood (plug-in) entropy and MI estimators (paper §II).

The MLE estimator plugs empirical frequencies into the entropy formula.
It is the estimator the paper uses for the discrete-discrete (string ×
string) case, and is known to be biased: entropy is biased *down*, so
MI = H(X)+H(Y)-H(X,Y) is biased *up* by roughly
``(m_X + m_Y - m_XY - 1) / 2N`` (paper Eq. 6) — our Table I
reproduction exhibits exactly this overestimation at small sketch
sizes.

All logs are natural (nats), matching the analytic true-MI formulas in
Section V-A.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _codes(x: np.ndarray) -> np.ndarray:
    """Factorize arbitrary values to dense integer codes."""
    codes, _ = pd.factorize(np.asarray(x), use_na_sentinel=False)
    return codes


def _entropy_of_counts(counts: np.ndarray) -> float:
    """Plug-in entropy (nats) from the positive counts of each value."""
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def entropy_mle(x: np.ndarray) -> float:
    """Plug-in empirical entropy (nats) of a discrete sample."""
    x = np.asarray(x)
    if len(x) == 0:
        return 0.0
    return _entropy_of_counts(np.bincount(_codes(x)))


def mi_mle(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in MI estimate I(X;Y) = H(X) + H(Y) - H(X,Y), in nats.

    Clipped at 0 since true MI is non-negative; the plug-in difference
    can dip fractionally below zero through rounding.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) != len(y):
        raise ValueError("x and y must be the same length")
    if len(x) == 0:
        return 0.0
    # Codes are dense, so bincount counts each side without a second
    # factorize; the joint codes are not.
    cx = _codes(x).astype(np.int64)
    cy = _codes(y).astype(np.int64)
    joint = cx * (cy.max() + 1) + cy
    hx = _entropy_of_counts(np.bincount(cx))
    hy = _entropy_of_counts(np.bincount(cy))
    hxy = _entropy_of_counts(np.bincount(_codes(joint)))
    return max(0.0, hx + hy - hxy)
