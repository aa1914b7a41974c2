"""Synthetic open-data corpora standing in for NYC OpenData / WBF.

The paper's real-data evaluation (Section V-C) samples pairs of
two-column tables [K, A] from September-2019 snapshots of two Socrata
portals. Those snapshots are unavailable offline, so we synthesize
collections that match the *published statistics that drive sketch
behaviour* (see DESIGN.md, Substitution 1):

=====================  ==========  ==========
statistic              NYC          WBF
=====================  ==========  ==========
left key domain        ~11.2k       ~3.1k
right key domain       ~1k          ~3.5k
avg full join size     ~8.5k        ~34k (we scale to ~24k)
=====================  ==========  ==========

Generation model per pair:

* a shared key universe of strings with a latent value z_k per key;
* the left (train) table draws keys Zipf-skewed over its domain, with
  y = lam * z_k + (1 - lam) * noise — values depend on the key, the
  regime where LV2SK's frequency-dependent sampling biases estimates;
* the right (cand) table covers a subset of the universe biased toward
  frequent left keys (popular entities appear in both portals' tables),
  with repeated key rows that the featurization must aggregate, and
  x = mu * z_k + (1 - mu) * noise;
* each value column is independently rendered numeric (decimal strings)
  or categorical (binned labels), so all three estimator routes occur.

``lam``/``mu`` vary per pair, spreading the post-join MI over a wide
range — necessary for Table II's Spearman rank correlation to be
meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class CollectionSpec:
    """Knobs of one simulated portal; ranges are per-pair draws."""

    name: str
    left_rows: tuple[int, int]
    left_domain: tuple[int, int]
    right_domain: tuple[int, int]
    right_multiplicity: tuple[int, int]
    zipf_alpha: tuple[float, float]
    containment: tuple[float, float]  # fraction of right keys drawn from left's domain


NYC = CollectionSpec(
    name="nyc",
    left_rows=(6_000, 12_000),
    left_domain=(6_000, 15_000),
    right_domain=(400, 2_000),
    right_multiplicity=(1, 4),
    zipf_alpha=(1.05, 1.6),
    containment=(0.6, 1.0),
)

WBF = CollectionSpec(
    name="wbf",
    left_rows=(18_000, 30_000),
    left_domain=(2_000, 4_000),
    right_domain=(2_500, 4_500),
    right_multiplicity=(1, 6),
    zipf_alpha=(1.1, 1.8),
    containment=(0.7, 1.0),
)

SPECS = {"nyc": NYC, "wbf": WBF}


@dataclass
class PairTables:
    """One sampled (T_train, T_cand) pair in raw (string-valued) form."""

    pair_id: int
    collection: str
    train: pd.DataFrame  # [rid, key, y]  (y: str)
    cand: pd.DataFrame  # [rid, key, x]  (x: str)


def _zipf_weights(domain: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, domain + 1) ** alpha
    return w / w.sum()


def _render_column(raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Render latent numeric values as a numeric or categorical string
    column (coin flip), mimicking open-data CSV columns."""
    if rng.random() < 0.5:
        return np.char.mod("%.4f", raw.astype(np.float64))
    n_bins = int(rng.integers(4, 40))
    qs = np.quantile(raw, np.linspace(0, 1, n_bins + 1)[1:-1])
    bins = np.searchsorted(qs, raw)
    return np.array([f"cat_{b:03d}" for b in bins], dtype=object)


def generate_pair(pair_id: int, spec: CollectionSpec, seed: int) -> PairTables:
    """Deterministically synthesize one table pair of the collection."""
    rng = np.random.default_rng(seed)
    n_left = int(rng.integers(*spec.left_rows))
    d_left = int(rng.integers(*spec.left_domain))
    d_right = int(rng.integers(*spec.right_domain))
    alpha = float(rng.uniform(*spec.zipf_alpha))
    contain = float(rng.uniform(*spec.containment))

    # Key universe: left domain plus disjoint right-only keys.
    universe = d_left + d_right
    z = rng.normal(size=universe)  # latent per-key signal

    # Left table: Zipf-skewed draws over its own domain.
    weights = _zipf_weights(d_left, alpha)
    left_keys = rng.choice(d_left, size=n_left, p=weights)
    lam = float(rng.uniform(0.15, 1.0))
    y_raw = lam * z[left_keys] + (1.0 - lam) * rng.normal(size=n_left)

    # Right table keys: `contain` of them from the left domain (biased
    # toward frequent left keys so joins are non-trivial), the rest
    # from the right-only region of the universe.
    n_from_left = int(round(contain * d_right))
    bias = weights**0.5
    bias = bias / bias.sum()
    from_left = rng.choice(d_left, size=min(n_from_left, d_left), replace=False, p=bias)
    n_only = d_right - len(from_left)
    right_only = d_left + rng.choice(d_right, size=n_only, replace=False)
    right_key_ids = np.concatenate([from_left, right_only])
    mult = rng.integers(spec.right_multiplicity[0], spec.right_multiplicity[1] + 1, d_right)
    right_keys = np.repeat(right_key_ids, mult)
    mu = float(rng.uniform(0.15, 1.0))
    x_raw = mu * z[right_keys] + (1.0 - mu) * rng.normal(size=len(right_keys))

    key_names = np.array([f"K{k:07d}" for k in range(universe)])
    train = pd.DataFrame(
        {
            "rid": np.arange(n_left, dtype=np.int64),
            "key": key_names[left_keys],
            "y": _render_column(y_raw, rng),
        }
    )
    cand = pd.DataFrame(
        {
            "rid": np.arange(len(right_keys), dtype=np.int64),
            "key": key_names[right_keys],
            "x": _render_column(x_raw, rng),
        }
    )
    return PairTables(pair_id=pair_id, collection=spec.name, train=train, cand=cand)


def generate_collection(
    name: str, n_pairs: int, *, seed: int = 0
) -> list[PairTables]:
    """Synthesize ``n_pairs`` table pairs of the named collection."""
    spec = SPECS[name]
    # Stable per-collection offset (python's hash() is salted per run).
    offset = sum(ord(c) for c in name) * 104_729
    return [
        generate_pair(i, spec, seed=seed * 1_000_000 + 7919 * i + offset)
        for i in range(n_pairs)
    ]
