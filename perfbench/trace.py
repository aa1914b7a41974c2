"""In-memory span tracing around the public functions of each ``repro`` layer.

A :class:`Tracer` replaces a layer function at *every* module attribute
that holds it (``occurrence_index`` and ``aggregate_cand``, for example,
are imported by name into each ``repro.sketch.*`` module), records one
span per call — name, start, end, parent span, op id — and restores the
originals on :meth:`Tracer.uninstall`. Nothing under ``src/`` changes.

Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np


class Tracer:
    """Spans and counters for one traced timed phase."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index, op_id].
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        #: "full" inside ops, "sketch" inside queries: labels MI spans.
        self.kind = "full"
        #: (data address, length) of layer inputs already counted once.
        self.seen: set[tuple] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, target: str, namer: Callable, counter: Callable | None = None) -> None:
        """Trace ``module:attr`` wherever a ``repro`` module binds it.

        ``namer(args, kwargs)`` gives the span name; ``counter(tracer,
        name, args, kwargs, result)`` adds counts after the call.
        """
        mod_name, attr = target.split(":")
        orig = getattr(importlib.import_module(mod_name), attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            with self.span(name):
                out = orig(*args, **kwargs)
            if counter is not None:
                counter(self, name, args, kwargs, out)
            return out

        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == "repro" or mname.startswith("repro.")):
                continue
            for key, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, key, traced)
                    self._patched.append((module, key, orig))

    def uninstall(self) -> None:
        for module, key, orig in reversed(self._patched):
            setattr(module, key, orig)
        self._patched.clear()

    def _child_ns(self) -> np.ndarray:
        """Summed duration of each span's direct children."""
        child = np.zeros(len(self.spans))
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_ms(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time (ms) and call count per span name."""
        child = self._child_ns()
        total: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start - child[i]) / 1e6
            calls[name] += 1
        return dict(total), dict(calls)

    def op_coverage(self) -> float:
        """Share of op/query span time spent inside layer spans."""
        child = self._child_ns()
        roots = [i for i, s in enumerate(self.spans) if s[3] < 0]
        dur = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        return float(sum(child[i] for i in roots) / dur) if dur else 0.0

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


# ---------------------------------------------------------------------------
# Layer hooks: which functions are traced, how spans are named, what is counted.


def _n(a) -> int:
    return len(a) if a is not None else 0


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_hash(tracer, name, args, kwargs, out):
    values = np.asarray(_arg(args, kwargs, 0, "values"))
    tracer.counts[f"{name}.keys"] += len(values)
    if values.dtype.kind in "OUS":
        tracer.counts[f"{name}.string_keys"] += len(values)


def _count_keys(tracer, name, args, kwargs, out):
    tracer.counts[f"{name}.keys"] += _n(out)


def _count_rows(tracer, name, args, kwargs, out):
    tracer.counts[f"{name}.rows"] += _n(_arg(args, kwargs, 0, "keys"))


def _count_agg(tracer, name, args, kwargs, out):
    """Rows aggregated, and rows of distinct input tables (by buffer)."""
    keys = np.asarray(_arg(args, kwargs, 0, "keys"))
    tracer.counts[f"{name}.rows"] += len(keys)
    ident = ("sketch.aggregate_cand", keys.__array_interface__["data"][0], len(keys))
    if ident not in tracer.seen:
        tracer.seen.add(ident)
        tracer.counts["sketch.aggregate_cand.distinct_rows"] += len(keys)


def _count_build(tracer, name, args, kwargs, out):
    s_train, s_cand = out
    tracer.counts[f"{name}.train_size"] += len(s_train)
    tracer.counts[f"{name}.cand_size"] += len(s_cand)


def _count_join(tracer, name, args, kwargs, out):
    cand = _arg(args, kwargs, 1, "cand")
    tracer.counts[f"{name}.rows_out"] += len(out[0])
    tracer.counts[f"{name}.dup_hash_drops"] += len(cand) - len(np.unique(cand.key_hash))


def _count_mi(tracer, name, args, kwargs, out):
    n = _n(_arg(args, kwargs, 0, "x"))
    tracer.counts[f"{name}.samples"] += n
    tracer.counts[f"{name}.pair2"] += float(n) * n


def _count_full_join(tracer, name, args, kwargs, out):
    tracer.counts[f"{name}.rows_out"] += len(out[0])


def install_layer_hooks(tracer: Tracer, *, spark: bool = False) -> None:
    """Wrap the public function of every layer the benchmark measures."""
    const = lambda name: (lambda args, kwargs: name)  # noqa: E731
    tracer.wrap("repro.hashing:hash_keys", const("hashing.hash_keys"), _count_hash)
    tracer.wrap("repro.hashing:u01", const("hashing.u01"), _count_keys)
    tracer.wrap("repro.hashing:tuple_u01", const("hashing.tuple_u01"), _count_keys)
    tracer.wrap(
        "repro.sketch.base:occurrence_index", const("sketch.occurrence_index"), _count_rows
    )
    tracer.wrap(
        "repro.sketch.base:aggregate_cand",
        lambda a, k: f"sketch.aggregate_cand.{_arg(a, k, 2, 'agg')}",
        _count_agg,
    )
    tracer.wrap("repro.sketch.base:join_sketches", const("sketch.join_sketches"), _count_join)
    tracer.wrap(
        "repro.sketch:build_pair",
        lambda a, k: f"sketch.build.{_arg(a, k, 0, 'method')}",
        _count_build,
    )
    tracer.wrap(
        "repro.mi.select:estimate_mi",
        lambda a, k: f"mi.{_arg(a, k, 2, 'estimator')}.{tracer.kind}",
        _count_mi,
    )
    tracer.wrap("repro.mi.special:digamma", const("mi.digamma"))
    tracer.wrap(
        "repro.core.evaluate:full_join_pairs_pandas",
        const("core.evaluate.full_join_pairs_pandas"),
        _count_full_join,
    )
    if spark:
        for fn in ("spark_train_sketch", "spark_cand_sketch"):
            tracer.wrap(
                f"repro.core.pipeline:{fn}",
                (lambda fn: lambda a, k: f"core.pipeline.{fn}.{k['method']}")(fn),
            )
