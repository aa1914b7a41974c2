"""Trinomial synthetic benchmark (paper Section V-A).

Generates (X, Y) as the first two counts of Multinomial(m, <p1, p2>)
with parameters selected to hit a desired true MI, using the paper's
algorithm: the bivariate-normal closed form picks (p1, p2), the exact
multinomial entropy formula provides the reported true MI.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mi.true_mi import corr_for_mi, trinomial_true_mi

#: Section V-A: I_true ~ U(MI_RANGE), and p1, p2 must lie in P_RANGE.
MI_RANGE = (0.0, 3.5)
P_RANGE = (0.15, 0.85)
MAX_TRIES = 10_000


@dataclass(frozen=True)
class TrinomialParams:
    """Resolved parameters of one Trinomial benchmark dataset."""

    m: int
    p1: float
    p2: float
    target_mi: float  # the MI requested via the normal approximation
    true_mi: float  # the exact MI of the trinomial (what we report)


def choose_params(
    m: int, rng: np.random.Generator, *, i_true: float | None = None
) -> TrinomialParams:
    """Paper's parameter-selection algorithm (Section V-A).

    1. I_true ~ U(MI_RANGE) unless given; r = sqrt(1 - exp(-2 I_true)).
    2. p1 ~ U(P_RANGE).
    3. p2 = r^2 (1 - p1) / (p1 + r^2 (1 - p1)), from the trinomial
       correlation identity r^2 = p1 p2 / ((1-p1)(1-p2)). Repeat until
       p2 lands in P_RANGE (and p3 = 1 - p1 - p2 stays positive).
    """
    for _ in range(MAX_TRIES):
        target = float(rng.uniform(*MI_RANGE)) if i_true is None else float(i_true)
        r2 = corr_for_mi(target) ** 2
        p1 = float(rng.uniform(*P_RANGE))
        p2 = r2 * (1.0 - p1) / (p1 + r2 * (1.0 - p1))
        if P_RANGE[0] <= p2 <= P_RANGE[1] and p1 + p2 < 0.999:
            return TrinomialParams(
                m=m, p1=p1, p2=p2, target_mi=target,
                true_mi=trinomial_true_mi(m, p1, p2),
            )
    raise RuntimeError(
        f"no valid (p1, p2) found for m={m}, i_true={i_true} "
        f"within {MAX_TRIES} tries"
    )


def sample(
    params: TrinomialParams, n_rows: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_rows joint observations (X, Y) of the trinomial."""
    p3 = 1.0 - params.p1 - params.p2
    counts = rng.multinomial(params.m, [params.p1, params.p2, p3], size=n_rows)
    return counts[:, 0].astype(np.int64), counts[:, 1].astype(np.int64)
