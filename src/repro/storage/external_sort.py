"""Memory-budgeted external-memory sort over a per-rank local disk.

Implements the second local-disk primitive of the paper (after the linear
scan): an external sort with the Vitter two-level I/O cost
``O((n/B) · log_{m/B}(n/B))`` block transfers.

Structure
---------
* If the input fits the memory budget ``m``, sort in place (no disk traffic).
* Otherwise: *run formation* — slice the input into ``m``-row chunks, sort
  each, spill to disk; then *merge passes* — repeatedly merge groups of up
  to ``k = max(2, m/B - 1)`` runs into longer runs until one remains.  Each
  pass reads and writes every row once, so the pass count is
  ``ceil(log_k(#runs))``, exactly the textbook envelope.

Runs are merged in one vectorised k-way pass
(:func:`repro.storage.scan.merge_runs`) rather than a per-row heap; on a
real machine the merge would stream block-by-block, and the disk accounting
here charges precisely that traffic (one read per run row, one write per
output row, in units of ``B``), while the in-memory compute stays NumPy-fast.
"""

from __future__ import annotations

import numpy as np

from repro.storage.disk import LocalDisk
from repro.storage.scan import merge_runs
# Unused here, but bound by name: perfbench/spans.py patches it.
from repro.storage.scan import merge_sorted  # noqa: F401
from repro.storage.sortkernels import sort_pairs
from repro.storage.table import Relation

__all__ = ["external_sort", "merge_fanin", "sort_cost_blocks"]


def merge_fanin(memory_budget: int, block_size: int) -> int:
    """Merge fan-in ``k``: one block buffer per input run plus one output."""
    return max(2, memory_budget // block_size - 1)


def sort_cost_blocks(n: int, memory_budget: int, block_size: int) -> int:
    """Analytic block-transfer envelope for sorting ``n`` rows.

    Returns the exact traffic the run-formation + merge-pass schedule below
    generates; tests assert the implementation matches it.
    """
    if n <= memory_budget:
        return 0
    blocks = -(-n // block_size)
    runs = -(-n // memory_budget)
    k = merge_fanin(memory_budget, block_size)
    passes = 0
    while runs > 1:
        runs = -(-runs // k)
        passes += 1
    # Run formation writes everything once; each pass reads and writes
    # everything once; the caller reads the final run back.  Per-run block
    # rounding makes the true count slightly higher when run sizes do not
    # align with B; tests treat this value as the aligned-size exact count
    # and a lower bound otherwise.
    return blocks + 2 * blocks * passes + blocks


def external_sort(
    keys: np.ndarray,
    measure: np.ndarray,
    disk: LocalDisk,
    memory_budget: int,
    streaming: bool = False,
    kernel: str | None = None,
    key_bound: int | None = None,
    seg_divisor: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(keys, measure)`` rows by key, stable, charging disk traffic.

    Parameters
    ----------
    keys, measure:
        Parallel 1-D arrays; the payload follows its key.
    disk:
        The owning rank's local disk (accounting + spill space).
    memory_budget:
        Maximum rows the modelled machine can hold in memory.
    streaming:
        Use the block-streaming k-way merge (:mod:`repro.storage.runs`)
        instead of whole-run loads during merge passes.  Identical output
        and near-identical block accounting; memory held during a merge
        stays at one block per input run.
    kernel, key_bound, seg_divisor:
        Sort-kernel hint and key-structure hints forwarded to
        :func:`repro.storage.sortkernels.sort_pairs`.  Kernels only
        change host wall-clock: the output, the ``charge_sort`` metering
        and the block accounting are identical for every kernel (run
        formation spills the same runs either way; a ``seg_divisor``
        clustering promise holds on every contiguous slice of the
        input, so run-formation chunks inherit it).

    Returns
    -------
    ``(sorted_keys, permuted_measure)`` as new arrays.
    """
    keys = np.asarray(keys)
    measure = np.asarray(measure)
    if keys.shape != measure.shape or keys.ndim != 1:
        raise ValueError(
            f"keys/measure must be parallel 1-D arrays, got {keys.shape} "
            f"and {measure.shape}"
        )
    n = keys.shape[0]
    disk.work.charge_sort(n)
    if n <= memory_budget:
        return sort_pairs(
            keys, measure, kernel,
            key_bound=key_bound, seg_divisor=seg_divisor,
        )

    # Run formation: m-row sorted runs spilled to local disk.
    tokens: list[str] = []
    rows: list[int] = []
    for start in range(0, n, memory_budget):
        stop = min(start + memory_budget, n)
        run_keys, run_measure = sort_pairs(
            keys[start:stop], measure[start:stop], kernel,
            key_bound=key_bound, seg_divisor=seg_divisor,
        )
        run = Relation(run_keys[:, None], run_measure)
        tokens.append(disk.spill(run, hint="sortrun"))
        rows.append(stop - start)

    # Merge passes with fan-in k.
    k = merge_fanin(memory_budget, disk.block_size)
    while len(tokens) > 1:
        next_tokens: list[str] = []
        next_rows: list[int] = []
        for g in range(0, len(tokens), k):
            group = tokens[g : g + k]
            group_rows = rows[g : g + k]
            if len(group) == 1:
                next_tokens.append(group[0])
                next_rows.append(group_rows[0])
                continue
            if streaming:
                from repro.storage.runs import streaming_merge

                merged_k, merged_v = streaming_merge(disk, group, group_rows)
            else:
                loaded = [disk.load(tok) for tok in group]
                merged_k, merged_v = merge_runs(
                    [(run.dims[:, 0], run.measure) for run in loaded]
                )
            for tok in group:
                disk.delete(tok)
            next_tokens.append(
                disk.spill(Relation(merged_k[:, None], merged_v), hint="sortrun")
            )
            next_rows.append(merged_k.shape[0])
        tokens = next_tokens
        rows = next_rows

    final = disk.load(tokens[0])
    disk.delete(tokens[0])
    return final.dims[:, 0], final.measure
