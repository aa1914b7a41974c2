"""Smoke tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

For every workload: the untraced run emits every end-to-end metric of
``BENCHMARK.json`` with its unit and passes all output checks; two
traced runs emit every per-layer metric, repeat every count exactly and
produce the same outputs as the untraced run. The command also has to
fail, without a result, where the repository's sources are missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, *, cwd: str = ROOT, out: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--out", out],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _record(lines: list[str]) -> dict:
    with open(os.path.join(ROOT, json.loads(lines[-2])["record"])) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_repeats_counts(workload, tmp_path):
    out = str(tmp_path)
    code, lines = _run(workload, 0, out=out)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    untraced_digest = _record(lines)["output_digest"]

    traced = []
    for _ in range(2):
        code, lines = _run(workload, 1, out=out)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert result["correct"]
        assert _record(lines)["output_digest"] == untraced_digest
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        traced.append(result["metrics"])
    for m in SPEC["per_layer"]:
        for metrics in traced:
            assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        if m["unit"] == "count":
            assert traced[0][m["name"]]["value"] == traced[1][m["name"]]["value"], m["name"]


def test_corpus_pairs_follow_generate_collection():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import itertools

    from perfbench.workloads.corpus_index import collection_pairs
    from repro.opendata import generate_collection

    for coll in ("nyc", "wbf"):
        want = generate_collection(coll, 3, seed=7)
        for got, ref in zip(itertools.islice(collection_pairs(coll, 7), 3), want):
            assert got.train.equals(ref.train) and got.cand.equals(ref.cand)


def test_fails_without_repository_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _run("fullpath-cdunif", 0, cwd=str(tmp_path), out=str(tmp_path / "out"))
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
