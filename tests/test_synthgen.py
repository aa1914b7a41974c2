"""Tests for the synthetic data generators and table decomposition."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.experiments import timing
from repro.synthgen import cdunif, decompose, trinomial
from repro.core.evaluate import full_join_pairs_pandas


def _trinomial_xy(m=64, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    params = trinomial.choose_params(m, rng, i_true=1.5)
    return trinomial.sample(params, n, rng)


def test_cdunif_sample_properties():
    rng = np.random.default_rng(1)
    x, y, true = cdunif.sample(10, 5000, rng)
    assert ((x >= 0) & (x < 10)).all()
    assert ((y >= x) & (y <= x + 2)).all()
    assert true == pytest.approx(np.log(10) - 9 * np.log(2) / 10)


def test_cdunif_rejects_bad_m():
    with pytest.raises(ValueError):
        cdunif.sample(0, 10, np.random.default_rng(0))


def test_generators_deterministic_in_seed():
    a = cdunif.sample(7, 100, np.random.default_rng(5))
    b = cdunif.sample(7, 100, np.random.default_rng(5))
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


@pytest.mark.parametrize("keygen", ["keyind", "keydep"])
def test_decompose_recovers_xy_exactly(keygen):
    """Both regimes must recover (X, Y) exactly on re-join (paper §V-A)."""
    x, y = _trinomial_xy()
    pair = decompose(x, y, keygen)
    jy, jx = full_join_pairs_pandas(pair.train, pair.cand.rename(columns={"x": "x"}).assign(x=pair.cand["x"]), "avg")
    # Re-joined multiset of (x, y) pairs equals the generated one.
    got = sorted(zip(np.asarray(jx, float), np.asarray(jy, float)))
    expected = sorted(zip(x.astype(float), y.astype(float)))
    assert got == expected


@pytest.mark.parametrize("keygen", ["keyind", "keydep"])
def test_decompose_rows_in_rid_order(keygen):
    """Both tables come in strictly increasing ``rid``: the sweeps hand
    them to ``evaluate_pair`` as they are, and occurrence indices follow
    row order."""
    x, y = _trinomial_xy()
    pair = decompose(x, y, keygen)
    for table in (pair.train, pair.cand):
        assert (np.diff(table["rid"].to_numpy()) > 0).all()


def test_keyind_unique_keys_both_sides():
    x, y = _trinomial_xy()
    pair = decompose(x, y, "keyind")
    assert pair.train["key"].is_unique
    assert pair.cand["key"].is_unique
    assert len(pair.train) == len(pair.cand) == len(x)


def test_keydep_key_equals_x():
    x, y = _trinomial_xy()
    pair = decompose(x, y, "keydep")
    assert (pair.train["key"].to_numpy() == x.astype(str)).all()
    assert pair.cand["key"].is_unique
    assert len(pair.cand) == len(np.unique(x))
    assert (pair.cand["key"].astype(np.int64).to_numpy() == pair.cand["x"].to_numpy()).all()


def test_keydep_rejects_continuous_x():
    with pytest.raises(ValueError):
        decompose(np.array([0.5, 1.7]), np.array([1.0, 2.0]), "keydep")


def test_decompose_unknown_regime():
    with pytest.raises(ValueError):
        decompose(np.arange(3), np.arange(3), "random")


def test_decompose_has_stable_rids():
    x, y = _trinomial_xy(n=100)
    pair = decompose(x, y, "keydep")
    assert pair.train["rid"].tolist() == list(range(100))


def test_keydep_key_frequencies_match_x_marginal():
    x, y = _trinomial_xy(n=5000)
    pair = decompose(x, y, "keydep")
    key_counts = pair.train["key"].value_counts()
    x_counts = pd.Series(x.astype(str)).value_counts()
    assert key_counts.equals(x_counts)


# ---------- golden pins: every value a caller reads keeps its bits ----------

#: (m, seed) -> (p1, p2, true_mi) of ``choose_params(m, default_rng(seed))``.
CHOOSE_PARAMS_PINS = {
    (16, 0): (0.3388506996347092, 0.6585356815419217, 1.881468568288498),
    (64, 1): (0.8153245874281547, 0.1804680901493847, 1.9020908182363212),
    (256, 2): (0.35894380038988627, 0.5999725565768512, 0.9229682177408556),
    (512, 3): (0.3157673546172698, 0.4942170467822197, 0.30023447438960904),
    (1024, 4): (0.41354060906409074, 0.5829760180169281, 2.154870390607214),
    (100, 42): (0.4572149078264366, 0.5416812126349752, 2.667550326469409),
}


@pytest.mark.parametrize("m, seed", list(CHOOSE_PARAMS_PINS))
def test_choose_params_pinned(m, seed):
    p1, p2, true_mi = CHOOSE_PARAMS_PINS[(m, seed)]
    params = trinomial.choose_params(m, np.random.default_rng(seed))
    assert params.p1 == p1  # a plain uniform draw
    assert params.p2 == pytest.approx(p2, rel=1e-12)
    assert params.true_mi == pytest.approx(true_mi, rel=1e-12)


class _PandasOnly:
    """Stands in for a session so ``synth_data`` hands back its pandas frame."""

    @staticmethod
    def createDataFrame(pdf):
        return pdf


def _digest(frame: pd.DataFrame, columns) -> str:
    """SHA-256 over each column's name, dtype and values (text for object
    columns, raw bytes otherwise)."""
    h = hashlib.sha256()
    for c in columns:
        v = frame[c].to_numpy()
        h.update(f"{c}:{v.dtype.str}:".encode())
        h.update("\x1f".join(map(str, v)).encode() if v.dtype == object else v.tobytes())
    return h.hexdigest()


def test_tpch_lite_columns_pinned():
    """The columns tests and spark-sf01 read from ``lineitem`` and ``part``."""
    li = synth_data.lineitem(_PandasOnly(), sf=0.001, seed=1)
    pa = synth_data.part(_PandasOnly(), sf=0.001, seed=1)
    assert (len(li), len(pa)) == (6000, 200)
    assert _digest(li, ["l_orderkey", "l_partkey", "l_extendedprice"]) == (
        "51e97bbc2c6393b0cb9ddb4c0fb14cade234e80daefc2651f7500532e501d1a3"
    )
    assert _digest(pa, ["p_partkey", "p_retailprice"]) == (
        "8928652cc9a62b9fccbe61927ede41e287b661e28041de4f87d054028eca9afb"
    )


def test_timing_dataset_pinned():
    pair = timing.make_dataset(1000)
    assert _digest(pair.train, ["rid", "key", "y"]) == (
        "59d6b42f80495e4c50d61e78cfc22b25b85ae29419b93a19116662914c7d1e21"
    )
    assert _digest(pair.cand, ["rid", "key", "x"]) == (
        "8e344410d67be39aaf15058d507660749726c64802b91157aba3a09d3f5af6f0"
    )
