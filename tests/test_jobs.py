"""Smoke tests for the spark-submit job wrappers (import + helpers)."""
import importlib.util
import pathlib
import sys

import pytest

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


def _load(name):
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.pop(0)


@pytest.mark.parametrize(
    "name", ["table1_synthetic", "table2_realdata", "fulljoin_accuracy", "timing"]
)
def test_job_importable_and_has_main(name):
    mod = _load(name)
    assert callable(mod.main)


def test_common_session_config():
    from repro.core import session

    assert callable(session.session)
    assert session.driver_memory()[0]
