"""Procedure 2: Adaptive-Sample-Sort.

Parallel sort by regular sampling (Li et al. [14]) with the paper's
adaptive twist: after the single h-relation that redistributes data by
global pivots, the per-rank sizes are inspected and a second "global
shift" h-relation is performed **only** when the relative imbalance

    I(y0..yp-1) = max((ymax - yavg)/yavg, (yavg - ymin)/yavg)

exceeds the threshold ``γ`` (1% during data partitioning, 3% inside the
merge's case-3 re-sorts).

Rows here are ``(key, measure)`` pairs with packed int64 keys; keys are
**not** required to be unique.  Bucketing uses ``searchsorted(...,
side="right")``, so every rank maps a given key value to the same bucket —
equal keys never straddle ranks after the first h-relation (the property
that lets the caller fully aggregate locally).  The global shift, when
triggered, splits by *position* instead and may re-split ties; callers that
aggregate afterwards handle boundary duplicates in the merge phase, exactly
as the paper's pipeline does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.comm import Comm
from repro.mpi.speed import HeteroState, RankSpeedModel
from repro.storage.disk import LocalDisk
from repro.storage.external_sort import external_sort
from repro.storage.scan import aggregate_sorted_keys, merge_runs
# Unused here, but bound by name: perfbench/spans.py patches it.
from repro.storage.scan import merge_sorted  # noqa: F401
from repro.storage.sortkernels import sort_pairs

__all__ = ["SortOutcome", "adaptive_sample_sort", "relative_imbalance"]


def relative_imbalance(
    sizes: np.ndarray, targets: np.ndarray | None = None
) -> float:
    """The paper's ``I(y0..yp-1)``; 0 for an empty or single-rank vector.

    With ``targets`` (non-uniform speed-proportional row goals) the
    measure generalises to ``max_j |y_j - t_j| / yavg`` — identical to the
    paper's formula when every target equals the mean, so the γ contract
    is unchanged for homogeneous runs.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size <= 1:
        return 0.0
    avg = sizes.mean()
    if avg == 0:
        return 0.0
    if targets is None:
        return float(
            max((sizes.max() - avg) / avg, (avg - sizes.min()) / avg)
        )
    t = np.asarray(targets, dtype=np.float64)
    return float(np.abs(sizes - t).max() / avg)


def _select_pivots(
    pool: np.ndarray,
    p: int,
    rho: int,
    shares: np.ndarray | None = None,
) -> np.ndarray:
    """p-1 global pivots at pool ranks ``j·p + rho`` (clamped).

    With ``shares`` (speed-proportional bucket fractions summing to 1)
    the pivots move to the pool's cumulative-share quantiles
    ``⌊cum_j·|pool|⌋ + rho`` instead — which reduces exactly to the
    uniform ``j·p + rho`` when the shares are equal and the pool holds
    the full p² sample.

    An empty pool (every rank empty) degenerates to zero-valued pivots so
    the bucketing step still produces ``p`` (empty) lanes.
    """
    if pool.size == 0:
        return np.zeros(p - 1, dtype=np.int64)
    if shares is None:
        idx = np.arange(1, p, dtype=np.int64) * p + rho
    else:
        cum = np.cumsum(np.asarray(shares, dtype=np.float64))[:-1]
        idx = np.floor(cum * pool.size).astype(np.int64) + rho
    idx = np.clip(idx, 0, pool.size - 1)
    return pool[idx]


@dataclass
class SortOutcome:
    """Result of one Adaptive-Sample-Sort call on one rank."""

    keys: np.ndarray
    measure: np.ndarray
    #: Relative imbalance after the first h-relation.
    imbalance: float
    #: Whether the global shift (second h-relation) ran.
    shifted: bool
    #: The speed model the call used/updated (``None`` when hetero off).
    speed: RankSpeedModel | None = None


def adaptive_sample_sort(
    comm: Comm,
    keys: np.ndarray,
    measure: np.ndarray,
    gamma: float,
    disk: LocalDisk | None = None,
    memory_budget: int | None = None,
    pivot_offset: int | None = None,
    kernel: str | None = None,
    key_bound: int | None = None,
    hetero: HeteroState | None = None,
) -> SortOutcome:
    """Globally sort ``(keys, measure)`` rows across all ranks.

    Every rank passes its local rows and receives its slice of the global
    key order; slices are contiguous and ascending with rank.  When
    ``disk``/``memory_budget`` are given, the initial local sort runs
    through the external-memory sorter (charging block I/O); otherwise it
    sorts in memory.

    Follows Procedure 2 step by step; see the module docstring for the
    duplicate-key bucketing contract.

    ``pivot_offset`` is the ρ of the global-pivot ranks ``j·p + ρ`` in the
    sorted p² sample pool.  ``None`` uses the paper's ``⌊p/2⌋`` (the PSRS
    worst-case-centering choice, right for arbitrary input such as the
    data-partitioning phase).  Pass ``0`` when the input is already nearly
    globally sorted — the merge phase's case-3 re-sorts — because the
    ``⌊p/2⌋`` offset then lands every pivot mid-bucket and needlessly moves
    ~half of all rows between ranks.

    ``kernel``/``key_bound`` are forwarded to the local-sort kernel
    (:func:`repro.storage.sortkernels.sort_pairs`); they change host
    wall-clock only — output and metering are kernel-invariant.

    ``hetero`` enables heterogeneity-aware partitioning: the local-sort
    phase doubles as a throughput probe (rows processed over the rank's
    busy seconds since its last collective), the per-rank samples are
    allgathered so every rank derives the identical updated
    :class:`~repro.mpi.speed.RankSpeedModel`, and the global pivots /
    balance targets shift to that model's clamped speed-proportional
    shares instead of uniform ``n/p``.
    """
    p = comm.size
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    measure = np.ascontiguousarray(measure, dtype=np.float64)
    if keys.shape != measure.shape:
        raise ValueError("keys and measure must be parallel arrays")
    n_input = keys.shape[0]
    busy0 = comm.clock.rank_busy[comm.rank] if hetero is not None else 0.0

    # Step 1: local sort + p local pivots at ranks 0, n/p, ..., (p-1)n/p.
    if disk is not None and memory_budget is not None:
        keys, measure = external_sort(
            keys, measure, disk, memory_budget,
            kernel=kernel, key_bound=key_bound,
        )
    else:
        comm.disk.work.charge_sort(keys.shape[0])
        keys, measure = sort_pairs(keys, measure, kernel, key_bound=key_bound)
    n_local = keys.shape[0]
    if n_local:
        pivot_idx = (np.arange(p, dtype=np.int64) * n_local) // p
        local_pivots = keys[pivot_idx]
    else:
        local_pivots = keys[:0]
    gathered = comm.gather(local_pivots, root=0)

    # Throughput probe: the pivot gather's superstep commit has folded
    # the local-sort segment into rank_busy, so the delta since call
    # entry is this rank's busy time for ~n_input rows of local work.
    # One extra cheap allgather publishes every rank's sample; all ranks
    # fold them into the same model, so the pivot targets below agree
    # everywhere without further coordination.
    speed: RankSpeedModel | None = None
    if hetero is not None:
        busy = comm.clock.rank_busy[comm.rank] - busy0
        samples = comm.allgather((int(n_input), float(busy)))
        speed = hetero.observe(samples)
    shares = None if speed is None else np.asarray(speed.shares)

    # Step 2: P0 sorts the <= p^2 pivots and picks p-1 regularly spaced
    # global pivots (ranks p + p/2, 2p + p/2, ...), or the clamped
    # speed-share quantiles when a speed model is active.
    rho = p // 2 if pivot_offset is None else int(pivot_offset)
    if comm.rank == 0:
        pool = np.sort(np.concatenate(gathered)) if gathered else keys[:0]
        global_pivots = _select_pivots(pool, p, rho, shares)
    else:
        global_pivots = None
    global_pivots = comm.bcast(global_pivots, root=0)

    # Step 3: bucket local rows by the global pivots.  side="right" sends a
    # key equal to pivot k into bucket k, identically on every rank.
    cuts = np.searchsorted(keys, global_pivots, side="right")
    bounds = np.concatenate(([0], cuts, [n_local]))

    # Step 4: one h-relation.
    lanes = [
        (keys[bounds[k] : bounds[k + 1]], measure[bounds[k] : bounds[k + 1]])
        for k in range(p)
    ]
    received = comm.alltoall(lanes)

    # Step 5: local p-way merge of the received sorted pieces.
    comm.disk.work.charge_scan(sum(rk.shape[0] for rk, _ in received))
    keys, measure = merge_runs(received)

    # Step 6: imbalance check (against uniform or speed-proportional
    # targets) and optional global shift.
    sizes = np.asarray(comm.allgather(keys.shape[0]), dtype=np.int64)
    targets = None if speed is None else speed.counts(int(sizes.sum()))
    imbalance = relative_imbalance(sizes, targets)
    shifted = False
    if imbalance > gamma:
        keys, measure = _global_shift(comm, keys, measure, sizes, targets)
        shifted = True
    return SortOutcome(keys, measure, imbalance, shifted, speed)


def batched_sample_sort(
    comm: Comm,
    items: list[tuple[np.ndarray, np.ndarray]],
    gamma: float,
    pivot_offset: int | None = None,
    agg: str | None = None,
    kernel: str | None = None,
    speed: RankSpeedModel | None = None,
) -> list[SortOutcome]:
    """Adaptive-Sample-Sort of many independent arrays in one superstep set.

    Runs Procedure 2 for every ``(keys, measure)`` item *simultaneously*:
    each item keeps its own pivots, its own imbalance test and its own
    (optional) global shift, but all items share the same five collectives
    — one pivot gather, one pivot broadcast, one data h-relation, one size
    allgather and (when any item needs it) one shift h-relation.  With
    hundreds of case-3 views per merge phase this removes the per-view
    latency that would otherwise dominate the BSP clock, without changing
    what any single view experiences.

    When ``agg`` is given, every item is collapse-aggregated right after
    the local merge, *before* the balance test — the γ contract then
    applies to the stored (post-aggregation) rows, which is what the
    paper's "each view evenly distributed" output condition is about.
    Value-bucketing guarantees each key lives on one rank at that point,
    so the positional shift can never split a group.

    ``kernel`` forces the local-sort kernel for every item — the merge's
    case-3 caller passes ``"presorted"`` because its pieces are sorted
    view slices, turning step 1 into a single early-exit scan per item.

    ``speed`` applies an already-published
    :class:`~repro.mpi.speed.RankSpeedModel` to every item's pivots and
    balance targets (no probing here: the batched call rides inside the
    merge phase, whose model was measured during partitioning).
    """
    p = comm.size
    n_items = len(items)
    if n_items == 0:
        return []
    shares = None if speed is None else np.asarray(speed.shares)

    # Step 1: local sorts + per-item local pivots.
    sorted_items: list[tuple[np.ndarray, np.ndarray]] = []
    pivot_lists: list[np.ndarray] = []
    for keys, measure in items:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        measure = np.ascontiguousarray(measure, dtype=np.float64)
        comm.disk.work.charge_sort(keys.shape[0])
        keys, measure = sort_pairs(keys, measure, kernel)
        sorted_items.append((keys, measure))
        n_local = keys.shape[0]
        if n_local:
            idx = (np.arange(p, dtype=np.int64) * n_local) // p
            pivot_lists.append(keys[idx])
        else:
            pivot_lists.append(keys[:0])
    gathered = comm.gather(pivot_lists, root=0)

    # Step 2: per-item global pivots at P0, one broadcast.
    rho = p // 2 if pivot_offset is None else int(pivot_offset)
    if comm.rank == 0:
        all_pivots = []
        for item in range(n_items):
            pool = np.sort(
                np.concatenate([ranks[item] for ranks in gathered])
            )
            all_pivots.append(_select_pivots(pool, p, rho, shares))
    else:
        all_pivots = None
    all_pivots = comm.bcast(all_pivots, root=0)

    # Steps 3+4: bucket every item, ship all buckets in one h-relation.
    lanes: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(p)]
    for (keys, measure), pivots in zip(sorted_items, all_pivots):
        cuts = np.searchsorted(keys, pivots, side="right")
        bounds = np.concatenate(([0], cuts, [keys.shape[0]]))
        for k in range(p):
            lanes[k].append(
                (keys[bounds[k] : bounds[k + 1]],
                 measure[bounds[k] : bounds[k + 1]])
            )
    received = comm.alltoall(lanes)

    # Step 5: per-item local merge; one allgather of all sizes.
    merged: list[tuple[np.ndarray, np.ndarray]] = []
    for item in range(n_items):
        pieces = [received[j][item] for j in range(p)]
        comm.disk.work.charge_scan(sum(k.shape[0] for k, _ in pieces))
        keys, measure = merge_runs(pieces)
        if agg is not None:
            keys, measure = aggregate_sorted_keys(keys, measure, agg)
        merged.append((keys, measure))
    my_sizes = np.array([k.shape[0] for k, _ in merged], dtype=np.int64)
    all_sizes = np.vstack(comm.allgather(my_sizes))  # (p, n_items)

    # Step 6: joint global shift for every item over its threshold.
    item_targets: list[np.ndarray | None]
    if speed is None:
        item_targets = [None] * n_items
    else:
        item_targets = [
            speed.counts(int(all_sizes[:, item].sum()))
            for item in range(n_items)
        ]
    imbalances = [
        relative_imbalance(all_sizes[:, item], item_targets[item])
        for item in range(n_items)
    ]
    need_shift = [item for item in range(n_items) if imbalances[item] > gamma]
    outcomes: list[SortOutcome | None] = [None] * n_items
    if need_shift:
        shift_lanes: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(p)
        ]
        plans = []
        for item in need_shift:
            keys, measure = merged[item]
            sizes = all_sizes[:, item]
            total = int(sizes.sum())
            if item_targets[item] is None:
                base, rem = divmod(total, p)
                target_counts = np.full(p, base, dtype=np.int64)
                target_counts[:rem] += 1
            else:
                target_counts = item_targets[item]
            target_ends = np.cumsum(target_counts)
            target_starts = target_ends - target_counts
            my_start = int(sizes[: comm.rank].sum())
            global_pos = my_start + np.arange(keys.shape[0], dtype=np.int64)
            plans.append((item, target_starts, target_ends, global_pos))
            for k in range(p):
                lo = np.searchsorted(global_pos, target_starts[k], "left")
                hi = np.searchsorted(global_pos, target_ends[k], "left")
                shift_lanes[k].append((keys[lo:hi], measure[lo:hi]))
        shifted_in = comm.alltoall(shift_lanes)
        for slot, (item, _, _, _) in enumerate(plans):
            keys = np.concatenate(
                [shifted_in[j][slot][0] for j in range(p)]
            )
            measure = np.concatenate(
                [shifted_in[j][slot][1] for j in range(p)]
            )
            merged[item] = (keys, measure)
    for item in range(n_items):
        keys, measure = merged[item]
        outcomes[item] = SortOutcome(
            keys, measure, imbalances[item], item in set(need_shift)
        )
    return outcomes  # type: ignore[return-value]


def _global_shift(
    comm: Comm,
    keys: np.ndarray,
    measure: np.ndarray,
    sizes: np.ndarray,
    target_counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rebalance a globally sorted distribution to the target counts.

    Rows occupy global positions ``offset_j .. offset_j + y_j`` on rank
    ``j``; the default target layout gives each rank ``total/p`` rows
    (remainder on the lowest ranks), while a speed model passes its
    clamped proportional ``target_counts`` instead.  One h-relation routes
    every row to the rank owning its global position; received pieces
    concatenate in source-rank order, which *is* global order.
    """
    p = comm.size
    total = int(sizes.sum())
    if target_counts is None:
        base, rem = divmod(total, p)
        target_counts = np.full(p, base, dtype=np.int64)
        target_counts[:rem] += 1
    target_ends = np.cumsum(target_counts)
    target_starts = target_ends - target_counts

    my_start = int(sizes[: comm.rank].sum())
    n_local = keys.shape[0]
    global_pos = my_start + np.arange(n_local, dtype=np.int64)
    lanes = []
    for k in range(p):
        lo = np.searchsorted(global_pos, target_starts[k], side="left")
        hi = np.searchsorted(global_pos, target_ends[k], side="left")
        lanes.append((keys[lo:hi], measure[lo:hi]))
    received = comm.alltoall(lanes)
    out_k = np.concatenate([rk for rk, _ in received])
    out_m = np.concatenate([rm for _, rm in received])
    return out_k, out_m
