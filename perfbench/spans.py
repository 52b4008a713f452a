"""Spans recorded around calls into the repro layers, from outside them.

The benchmark never edits ``src/``.  Instead :func:`instrument` swaps the
names that ``repro.core.cube``, ``repro.core.pipesort``,
``repro.core.merge``, ``repro.core.sample_sort`` and
``repro.storage.external_sort`` call through for recording wrappers, and
wraps the ``Comm`` collectives, ``KeyCodec`` packing and
``RankCheckpoint.save`` on their classes.  Each span keeps its name,
start, end, parent span and thread; a layer's self time is its span's
duration minus the part its child spans cover.  Spans stay in memory and
are written out as Chrome trace-event JSON (Perfetto opens it) when the
run ends.

The wrappers live in this process only, so they see thread-backend
builds; a process-backend rank runs in a forked child and its spans
would be lost with it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    epoch: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; ``epoch`` tags spans with the build number."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.epoch = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)``
        may return per-call counters kept on the span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(
                sid, name, start, end, parent,
                threading.get_ident(), self.epoch,
            )
            if count is not None:
                span.counts = count(args, result)
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


# -- the wrap table ----------------------------------------------------------


def _rows_in(args, result):
    return {"rows": int(np.asarray(args[0]).shape[0])}


def _aggregate_rows(args, result):
    return {
        "rows_in": int(np.asarray(args[0]).shape[0]),
        "rows_out": int(np.asarray(result[0]).shape[0]),
    }


#: (module, attribute, span name, counter) wrapped at module level.
MODULE_SITES = [
    ("repro.core.cube", "_rank_program", "core.cube.rank", None),
    ("repro.core.cube", "adaptive_sample_sort", "core.sample_sort", None),
    ("repro.core.cube", "_build_tree", "core.estimate", None),
    ("repro.core.cube", "execute_schedule", "core.pipesort", None),
    ("repro.core.cube", "merge_partitions", "core.merge", None),
    ("repro.core.cube", "external_sort", "storage.external_sort", None),
    ("repro.core.cube", "aggregate_sorted_keys", "storage.scan.aggregate",
     _aggregate_rows),
    ("repro.core.pipesort", "external_sort", "storage.external_sort", None),
    ("repro.core.pipesort", "aggregate_sorted_keys",
     "storage.scan.aggregate", _aggregate_rows),
    ("repro.core.merge", "batched_sample_sort", "core.sample_sort", None),
    ("repro.core.merge", "aggregate_sorted_keys", "storage.scan.aggregate",
     _aggregate_rows),
    ("repro.core.merge", "merge_sorted", "storage.scan.merge", None),
    ("repro.core.sample_sort", "external_sort", "storage.external_sort",
     None),
    ("repro.core.sample_sort", "aggregate_sorted_keys",
     "storage.scan.aggregate", _aggregate_rows),
    ("repro.core.sample_sort", "merge_sorted", "storage.scan.merge", None),
    ("repro.core.sample_sort", "sort_pairs", "storage.sortkernels",
     _rows_in),
    ("repro.storage.external_sort", "sort_pairs", "storage.sortkernels",
     _rows_in),
    ("repro.storage.external_sort", "merge_sorted", "storage.scan.merge",
     None),
]

COLLECTIVES = (
    "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
    "allreduce",
)


def _class_sites():
    from repro.core.checkpoint import RankCheckpoint
    from repro.mpi.comm import Comm
    from repro.storage.codec import KeyCodec

    sites = [(Comm, name, "mpi.comm", None) for name in COLLECTIVES]
    sites += [
        (KeyCodec, "remap", "storage.codec.remap", None),
        (KeyCodec, "pack", "storage.codec.pack", None),
        (KeyCodec, "unpack", "storage.codec.unpack", None),
        (RankCheckpoint, "save", "core.checkpoint.save", None),
    ]
    return sites


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    import importlib

    undo = []
    try:
        for mod_name, attr, name, count in MODULE_SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            setattr(mod, attr, tracer.wrap(name, orig, count))
            undo.append((mod, attr, orig))
        for cls, attr, name, count in _class_sites():
            orig = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, orig, count))
            undo.append((cls, attr, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the time its children cover.  Spans
    of one thread nest strictly, so children never overlap."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {s.sid: s.duration - covered.get(s.sid, 0.0) for s in spans}


def by_epoch(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        out[span.epoch].append(span)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self seconds, call count and counters."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(
            span.name, {"self_s": 0.0, "calls": 0, "counts": defaultdict(int)}
        )
        row["self_s"] += selfs[span.sid]
        row["calls"] += 1
        for key, val in span.counts.items():
            row["counts"][key] += val
    return out


def rank_coverage(spans: list[Span]) -> list[float]:
    """For every rank-program span: the share of its wall time that the
    layer spans beneath it account for."""
    selfs = self_times(spans)
    return [
        1.0 - selfs[s.sid] / s.duration
        for s in spans
        if s.name == "core.cube.rank" and s.duration > 0
    ]


def write_chrome_trace(spans: list[Span], path: str) -> None:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    if not spans:
        t0 = 0.0
    else:
        t0 = min(s.start for s in spans)
    tids: dict[int, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round((span.start - t0) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": {
                "id": span.sid,
                "parent": span.parent,
                "build": span.epoch,
                **span.counts,
            },
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def table(totals: dict[str, dict], builds: int) -> str:
    """A text table of per-layer self time and counts, per build."""
    builds = max(builds, 1)
    lines = [f"{'span':<26} {'self s/build':>12} {'calls/build':>12}"]
    for name, row in sorted(
        totals.items(), key=lambda kv: -kv[1]["self_s"]
    ):
        lines.append(
            f"{name:<26} {row['self_s'] / builds:>12.4f} "
            f"{row['calls'] / builds:>12.1f}"
        )
    return "\n".join(lines)
