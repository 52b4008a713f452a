"""Procedure 3: Merge-Partitions.

After phase 2, every rank holds its local piece of every view of the
current ``Di``-partition, all in the same (global-schedule-tree) sort
order.  This module agglomerates the ``p`` pieces of each view so that
every group-by key ends up fully aggregated on exactly one rank, with each
view spread evenly across ranks:

* **Case 1 — prefix views.**  The view's order is a prefix of the global
  sort order, so the pieces are already globally sorted and only keys
  straddling rank boundaries need agglomeration.  The paper exchanges each
  boundary row with the left neighbour; we generalise slightly — a single
  key can span more than two ranks (a rank whose whole piece is one key),
  so first/last boundary rows are gathered at P0 (O(p) data per view), P0
  resolves the straddle chains, and per-rank fix-up instructions are
  scattered back.

* **Case 2 — non-prefix views, balanced.**  Pieces overlap in the view's
  key order.  Each rank broadcasts its last key; key ownership is
  ``owner(K) = min{ j : K <= last_j }`` (ties to the lowest rank, final
  bucket unbounded), which both covers every key exactly once and keeps
  rank slices in ascending key order.  Expected post-routing sizes are
  estimated from the 100·p decimation samples (Section 2.4) — only the
  estimated *counts* travel, never the samples; if the relative imbalance
  is within γ, one h-relation routes the overlap and each rank merges
  locally.

* **Case 3 — non-prefix views, imbalanced.**  Routing by last-key
  boundaries would leave the distribution lopsided, so the view is
  globally re-sorted with Adaptive-Sample-Sort (γ = 3%) and aggregated;
  a boundary fix-up handles keys split by the sorter's global shift.

Batching: collectives are shared across all views of the partition — one
boundary gather/scatter covers every case-1 view, one metadata allgather
pair classifies every non-prefix view, one h-relation routes every case-2
view and one batched Adaptive-Sample-Sort re-sorts every case-3 view.
Per-view latency would otherwise dominate the BSP clock at 2^d views; the
per-view semantics (own pivots, own imbalance test, own γ contract) are
unchanged.  The case decision is made identically on every rank from the
same allgathered metadata, keeping ranks in lockstep without an extra
broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import CubeConfig
from repro.core.aggregate import combine_scalar
from repro.core.pipesort import ScheduleTree
from repro.core.sample_sort import batched_sample_sort, relative_imbalance
from repro.mpi.speed import RankSpeedModel
from repro.core.sampling import decimation_sample, estimate_range_count
from repro.core.viewdata import ViewData
from repro.core.views import View, is_prefix
from repro.mpi.comm import Comm
from repro.storage.scan import aggregate_sorted_keys, merge_runs
# Unused here, but bound by name: perfbench/spans.py patches it.
from repro.storage.scan import merge_sorted  # noqa: F401

__all__ = ["MergeReport", "merge_partitions"]


@dataclass
class MergeReport:
    """What happened to each view during one Merge-Partitions call."""

    #: view -> "case1" | "case2" | "case3"
    cases: dict[View, str] = field(default_factory=dict)
    #: view -> estimated post-overlap imbalance (non-prefix views only)
    imbalance: dict[View, float] = field(default_factory=dict)

    def count(self, case: str) -> int:
        return sum(1 for c in self.cases.values() if c == case)


def merge_partitions(
    comm: Comm,
    local_views: dict[View, ViewData],
    tree: ScheduleTree,
    config: CubeConfig,
    memory_budget: int,
    force_nonprefix: bool = False,
    speed: "RankSpeedModel | None" = None,
) -> tuple[dict[View, ViewData], MergeReport]:
    """Merge every view's ``p`` local pieces (Procedure 3).

    ``local_views`` holds this rank's pieces keyed by canonical view id;
    all ranks must pass the same key set (same global schedule tree).
    Returns the merged pieces plus a per-view case report.

    ``force_nonprefix`` routes *every* view through the ownership-based
    case-2/case-3 machinery, which is correct for arbitrary cross-rank
    layouts; the case-1 fast path assumes pieces are globally sorted
    across ranks, which holds after phase 2 but not for e.g. the
    incremental-refresh combine.

    ``speed`` — an active :class:`~repro.mpi.speed.RankSpeedModel` —
    makes the case-2/case-3 verdict accept *either* a uniform or a
    speed-proportional layout as balanced (a deliberately skewed
    heterogeneity-aware layout is not misread as imbalance, and a
    uniform layout left by a case-1/case-2 merge is not forced through
    a re-sort just to match the speed targets), and steers the case-3
    re-sort pivots to the clamped speed-proportional shares.
    """
    root_order = tree.nodes[tree.root].order
    merged: dict[View, ViewData] = {}
    report = MergeReport()
    # Identical iteration order on every rank keeps collectives aligned.
    ordered = sorted(local_views, key=lambda v: (-len(v), v))
    prefix = [
        v for v in ordered
        if not force_nonprefix
        and is_prefix(local_views[v].order, root_order)
    ]
    nonprefix = [v for v in ordered if v not in set(prefix)]

    # ---- Case 1 batch ---------------------------------------------------
    fixed = _batch_boundary_merge(
        comm, [local_views[v] for v in prefix], config.agg
    )
    for view, data in zip(prefix, fixed):
        merged[view] = data
        report.cases[view] = "case1"
    if not nonprefix:
        return merged, report

    # ---- Non-prefix metadata: last keys + size estimates ----------------
    p = comm.size
    nv = len(nonprefix)
    capacity = config.sample_factor * p
    my_last = np.array(
        [
            int(local_views[v].keys[-1]) if local_views[v].nrows else -1
            for v in nonprefix
        ],
        dtype=np.int64,
    )
    all_last = np.vstack(comm.allgather(my_last))  # (p, nv)
    # Effective ownership boundaries: prefix maxima of the last keys.
    boundaries = np.maximum.accumulate(all_last, axis=0)[:-1]  # (p-1, nv)

    my_counts = np.zeros((nv, p))
    for idx, view in enumerate(nonprefix):
        data = local_views[view]
        if data.nrows:
            sample = decimation_sample(data.keys, capacity)
            my_counts[idx] = estimate_range_count(
                sample, data.nrows, boundaries[:, idx]
            )
    est = np.sum(comm.allgather(my_counts), axis=0)  # (nv, p)

    case2_idx, case3_idx = [], []
    shares = None if speed is None else np.asarray(speed.shares)
    for idx, view in enumerate(nonprefix):
        imbalance = relative_imbalance(est[idx])
        if shares is not None:
            imbalance = min(
                imbalance,
                relative_imbalance(est[idx], shares * est[idx].sum()),
            )
        report.imbalance[view] = imbalance
        if config.merge_policy == "always_resort":
            resort = True
        elif config.merge_policy == "never_resort":
            resort = False
        else:
            resort = imbalance > config.gamma_merge
        if resort:
            case3_idx.append(idx)
            report.cases[view] = "case3"
        else:
            case2_idx.append(idx)
            report.cases[view] = "case2"

    # ---- Case 2 batch: one routing h-relation ----------------------------
    routed = _batch_route(
        comm,
        [local_views[nonprefix[i]] for i in case2_idx],
        [boundaries[:, i] for i in case2_idx],
        config.agg,
    )
    for idx, data in zip(case2_idx, routed):
        merged[nonprefix[idx]] = data

    # ---- Case 3 batch: one joint Adaptive-Sample-Sort --------------------
    if case3_idx:
        items = [
            (local_views[nonprefix[i]].keys, local_views[nonprefix[i]].measure)
            for i in case3_idx
        ]
        # pivot_offset=0: the pieces are nearly globally sorted already,
        # so alignment-preserving pivots avoid the half-bucket shift of the
        # generic PSRS offset.  agg=...: collapse before the balance test,
        # so γ bounds the *stored* rows of each view and the positional
        # shift can never split a group (see sample_sort module docs).
        # kernel="presorted": each item is a sorted view piece, so the
        # local-sort step degenerates to one early-exit sortedness scan.
        outcomes = batched_sample_sort(
            comm, items, config.gamma_merge, pivot_offset=0,
            agg=config.agg, kernel="presorted", speed=speed,
        )
        for idx, outcome in zip(case3_idx, outcomes):
            view = nonprefix[idx]
            merged[view] = ViewData(
                local_views[view].order, outcome.keys, outcome.measure
            )
    return merged, report


# ---------------------------------------------------------------------------
# Case 1: prefix views — batched boundary agglomeration
# ---------------------------------------------------------------------------


def _batch_boundary_merge(
    comm: Comm, datas: list[ViewData], agg: str
) -> list[ViewData]:
    """Agglomerate boundary-straddling keys of globally sorted views.

    One gather + one scatter covers all ``datas``; P0 resolves the straddle
    chains of every view independently.
    """
    if not datas:
        # Every rank must still participate in the two collectives only if
        # any rank has data; the view list is identical across ranks, so an
        # empty list means nobody calls the collectives — stay aligned.
        return []
    summaries = []
    for data in datas:
        n = data.nrows
        if n:
            summaries.append(
                (
                    n,
                    int(data.keys[0]),
                    float(data.measure[0]),
                    int(data.keys[-1]),
                    float(data.measure[-1]),
                )
            )
        else:
            summaries.append((0, 0, 0.0, 0, 0.0))
    gathered = comm.gather(summaries, root=0)

    per_rank_instr = None
    if comm.rank == 0:
        p = comm.size
        per_rank_instr = [[] for _ in range(p)]
        for item in range(len(datas)):
            chain = _resolve_boundary_chains(
                [gathered[j][item] for j in range(p)], agg
            )
            for j in range(p):
                per_rank_instr[j].append(chain[j])
    my_instr = comm.scatter(per_rank_instr, root=0)

    out = []
    for data, (drop_first, drop_all, set_last) in zip(datas, my_instr):
        keys, measure = data.keys, data.measure
        if drop_all:
            keys, measure = keys[:0], measure[:0]
        else:
            if set_last is not None:
                measure = measure.copy()
                measure[-1] = set_last
            if drop_first:
                keys, measure = keys[1:], measure[1:]
        out.append(ViewData(data.order, keys, measure))
    return out


def _merge_prefix_view(comm: Comm, data: ViewData, agg: str) -> ViewData:
    """Single-view convenience wrapper over the batched boundary merge."""
    return _batch_boundary_merge(comm, [data], agg)[0]


def _resolve_boundary_chains(
    summaries: list[tuple[int, int, float, int, float]], agg: str
) -> list[tuple[bool, bool, float | None]]:
    """P0-side chain resolution for one prefix view.

    Each rank reported ``(count, first_key, first_val, last_key,
    last_val)``.  Local pieces have unique keys, so a key can only straddle
    ranks as: last row of some rank, then the *only* row of zero or more
    following ranks, then optionally the first row of one final rank.  The
    lowest rank keeps the fully combined row; the others drop theirs.

    Returns per-rank ``(drop_first, drop_all, set_last)`` instructions.
    """
    p = len(summaries)
    drop_first = [False] * p
    drop_all = [False] * p
    set_last: list[float | None] = [None] * p
    nonempty = [j for j in range(p) if summaries[j][0] > 0]

    idx = 0
    while idx < len(nonempty) - 1:
        j = nonempty[idx]
        _, _, _, last_key, last_val = summaries[j]
        key = last_key
        total = last_val
        group_end = idx  # index (into nonempty) of last rank in the chain
        consumed_end = True  # did the chain fully consume its last rank?
        t = idx + 1
        while t < len(nonempty):
            r = nonempty[t]
            count_r, first_key, first_val, _, _ = summaries[r]
            if first_key != key:
                break
            total = combine_scalar(total, first_val, agg)
            group_end = t
            if count_r == 1:
                drop_all[r] = True
                consumed_end = True
                t += 1
            else:
                drop_first[r] = True
                consumed_end = False
                break
        if group_end == idx:
            idx += 1  # no chain started at this boundary
            continue
        set_last[j] = total
        # A partially consumed chain-end rank can start the next chain with
        # its own last row; a fully consumed one cannot.
        idx = group_end if not consumed_end else group_end + 1
    return list(zip(drop_first, drop_all, set_last))


# ---------------------------------------------------------------------------
# Case 2: batched overlap routing
# ---------------------------------------------------------------------------


def _batch_route(
    comm: Comm,
    datas: list[ViewData],
    boundaries: list[np.ndarray],
    agg: str,
) -> list[ViewData]:
    """Route every case-2 view to its owners in one h-relation.

    Each lane carries one concatenated key array, one concatenated measure
    array and the per-view row counts, so the payload stays a handful of
    large buffers regardless of how many views are in flight.
    """
    if not datas:
        return []
    p = comm.size
    n_items = len(datas)
    # per destination rank: slices of every view
    lane_keys: list[list[np.ndarray]] = [[] for _ in range(p)]
    lane_meas: list[list[np.ndarray]] = [[] for _ in range(p)]
    lane_counts = np.zeros((p, n_items), dtype=np.int64)
    for item, (data, bounds_v) in enumerate(zip(datas, boundaries)):
        cuts = np.searchsorted(data.keys, bounds_v, side="right")
        bounds = np.concatenate(([0], cuts, [data.nrows]))
        for k in range(p):
            lane_keys[k].append(data.keys[bounds[k] : bounds[k + 1]])
            lane_meas[k].append(data.measure[bounds[k] : bounds[k + 1]])
            lane_counts[k, item] = bounds[k + 1] - bounds[k]
    lanes = [
        (
            np.concatenate(lane_keys[k]) if lane_keys[k] else np.empty(0, np.int64),
            np.concatenate(lane_meas[k]) if lane_meas[k] else np.empty(0, np.float64),
            lane_counts[k],
        )
        for k in range(p)
    ]
    received = comm.alltoall(lanes)

    out = []
    # reassemble: for each item, merge the p received slices
    comm.disk.work.charge_scan(sum(rk.shape[0] for rk, _, _ in received))
    offsets = [np.concatenate(([0], np.cumsum(counts))) for _, _, counts in received]
    for item in range(n_items):
        pieces = []
        for j in range(p):
            rkeys, rmeas, _ = received[j]
            lo, hi = offsets[j][item], offsets[j][item + 1]
            pieces.append((rkeys[lo:hi], rmeas[lo:hi]))
        keys, measure = aggregate_sorted_keys(*merge_runs(pieces), agg)
        out.append(ViewData(datas[item].order, keys, measure))
    return out
