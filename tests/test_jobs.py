"""Smoke tests for the one job script, ``jobs/reproduce.py``."""
import importlib.util
import pathlib

import pytest

from tests.test_experiments import _assert_pinned

JOB = pathlib.Path(__file__).resolve().parent.parent / "jobs" / "reproduce.py"
RESULTS = ("table1", "table2", "fulljoin_accuracy", "timing")


def _load():
    spec = importlib.util.spec_from_file_location("reproduce", JOB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", RESULTS)
def test_job_importable_and_has_main(name):
    """The job imports, and ``name`` maps to the experiment producing it."""
    mod = _load()
    assert callable(mod.main)
    experiment = mod.EXPERIMENTS[name]
    assert experiment.__name__ == f"repro.experiments.{name}"
    if name == "timing":
        assert callable(experiment.measure)
    else:
        assert callable(experiment.run) and callable(experiment.summarize)


def test_job_knows_only_the_published_results():
    assert set(_load().EXPERIMENTS) == set(RESULTS)
    with pytest.raises(SystemExit):
        _load().main(["table3"])


@pytest.mark.parametrize("name", ["table1", "fulljoin_accuracy", "table2"])
def test_published_raw_results_are_reproduced(name):
    """The job's sweep, rerun at its published size (``table2``: NYC and
    WBF), gives the rows of ``results/<name>_raw.csv`` under the pin rule:
    keys and join sizes exactly, estimates to rel 1e-12. It writes nothing."""
    raw = _load()._sweep(name)
    _assert_pinned(raw, f"{name}_raw.csv", root=str(JOB.parent.parent / "results"))


def test_common_session_config():
    from repro.core import session

    assert callable(session.session)
    assert session.driver_memory()[0]
