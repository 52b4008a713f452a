"""Helpers and the per-run record shared by the build and serve phases."""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from perfbench import spans
from perfbench.inputs import Table

if TYPE_CHECKING:
    from perfbench.workloads import Workload

#: The 8-view partial cube served by every workload: the 4-dim base (or,
#: for d=8 builds, the leading 4-dim view), the 4 single dimensions and
#: the 3 adjacent pairs.  Rollups on the other 3 pairs scan the largest.
SERVE_VIEWS = [
    (0, 1, 2, 3), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3),
]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def pct(values, q: float) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def dir_bytes(path: str, only_unlinked: bool = False) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            st = os.stat(os.path.join(root, name))
            if only_unlinked and st.st_nlink != 1:
                continue
            total += st.st_size
    return total


def to_query(q):
    from repro.olap.query import Query

    kind, group, filters, having = q
    return Query(
        group_by=group,
        filters={dim: (lo, hi) for dim, lo, hi in filters},
        having=having,
    )


def to_relation(table: Table):
    from repro.storage.table import Relation

    return Relation(table.dims, table.measure)


@dataclass
class Run:
    """Everything one run measured, checked and counted."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    workdir: str
    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    tracer: spans.Tracer | None = None
    trace_table: str = ""
    last_mark: float | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def mark(self, phase: str) -> None:
        """Note the wall time since the previous mark (run-length audit)."""
        now = time.perf_counter()
        if self.last_mark is not None:
            self.notes.append(f"phase {phase}: {now - self.last_mark:.2f}s")
        self.last_mark = now

    def agree(self, name: str, values) -> None:
        """Record an exact counter; every repeat must give the same."""
        values = list(values)
        if len(set(map(repr, values))) > 1:
            self.fail(f"exact counter {name} differs between repeats: "
                      f"{values}")
        if values:
            self.exact[name] = values[0]
