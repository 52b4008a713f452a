"""Hybrid dense/sparse block layout for stored views (format 3).

A sorted view's packed key space ``0..capacity-1`` is cut into a
uniform grid of blocks of ``block_cells`` keys.  Each block is stored
one of two ways:

* **dense** — a MOLAP-style value array with one float64 cell per key
  in the block (grown from the ``baselines/molap.py`` sketch), plus a
  packed occupancy bitmask (1 bit/cell) so empty cells are
  distinguishable from occupied cells whose measure happens to be 0.0.
  Blocks with every cell occupied omit the mask entirely.
* **sparse** — the block's rows stay in the familiar sorted
  ``(int64 key, float64 measure)`` ROLAP columns.  All sparse rows of a
  view live in ONE global sorted residue, so the existing fence-index +
  ``searchsorted`` machinery applies unchanged.

The dense/sparse choice is a calibrated byte-cost comparison: storing
a block dense costs ``8 + 1/8`` bytes per *cell* (value + mask bit),
storing it sparse costs ``16`` bytes per *row* (key + measure), so
dense wins exactly when

    rows / cells  >=  (8 + 1/8) / 16  =  0.5078125

That constant is derived, not tuned — it is the break-even density at
which the two encodings occupy the same bytes — and can be overridden
per save (``--density-threshold``) to trade space for more dense-path
query coverage.

The layout is queryable without expansion: a dense block supports
direct offset arithmetic (``cell = key - block_id * block_cells``; the
logical row index comes from a mask popcount), which is what the
serving tier's dense access path uses instead of ``searchsorted``
(:mod:`repro.olap.hybrid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_CELLS",
    "DENSE_VALUE_BYTES",
    "MASK_BITS_PER_CELL",
    "SPARSE_ROW_BYTES",
    "density_threshold",
    "HybridLayout",
    "build_hybrid",
    "expand_hybrid",
    "scatter_dense_block",
]

#: Keys spanned by one block of the uniform grid.  1 KiB of cells keeps
#: per-block metadata negligible while letting mid-lattice views mix
#: dense and sparse blocks.
DEFAULT_BLOCK_CELLS = 1024

#: Byte costs of the two encodings (the cost-model constants).
DENSE_VALUE_BYTES = 8          # one float64 cell
MASK_BITS_PER_CELL = 1         # packed occupancy bit
SPARSE_ROW_BYTES = 16          # int64 key + float64 measure


def density_threshold() -> float:
    """Break-even occupancy at which dense and sparse bytes tie.

    ``(8 + 1/8) / 16 = 0.5078125`` — calibrated from the encodings'
    byte costs, in the same derive-don't-tune style as the sort-kernel
    cost model.
    """
    return (DENSE_VALUE_BYTES + MASK_BITS_PER_CELL / 8) / SPARSE_ROW_BYTES


@dataclass
class HybridLayout:
    """One view's rows split into dense blocks + a sparse residue.

    Logical row order (ascending packed key) is preserved across the
    split: row ``i`` of the original sorted columns is either sparse
    row ``i - dense_rows_before(i)`` or an occupied cell of the dense
    block covering its key.  ``sparse_before`` caches, per dense block,
    how many sparse rows precede the block's first key, which makes
    logical-row arithmetic O(1) given a block index.
    """

    block_cells: int
    capacity: int
    nrows: int
    # Per dense block (ascending block id):
    dense_blocks: np.ndarray    # int64 block ids
    dense_rows: np.ndarray      # occupied cells per block
    dense_full: np.ndarray      # bool: every cell occupied (mask omitted)
    sparse_before: np.ndarray   # sparse rows with key < block start
    # Concatenated payloads:
    dense_values: np.ndarray    # float64, cells of all dense blocks
    dense_mask: np.ndarray      # uint8 packbits, non-full blocks only
    sparse_keys: np.ndarray     # int64, globally sorted residue
    sparse_measure: np.ndarray  # float64

    def cells_of(self, block_id: int) -> int:
        """Cells in a block (the tail block may be short)."""
        return int(
            min(self.block_cells, self.capacity - block_id * self.block_cells)
        )

    @property
    def n_dense_rows(self) -> int:
        return int(self.dense_rows.sum()) if self.dense_rows.size else 0

    @property
    def n_sparse_rows(self) -> int:
        return int(self.sparse_keys.shape[0])

    def stored_bytes(self) -> int:
        """Payload bytes of the layout (excluding npy headers/manifest)."""
        return (
            self.dense_values.nbytes
            + self.dense_mask.nbytes
            + self.sparse_keys.nbytes
            + self.sparse_measure.nbytes
        )


def scatter_dense_block(
    keys: np.ndarray,
    measure: np.ndarray,
    block_id: int,
    block_cells: int,
    cells: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Scatter one block's sorted rows into a dense cell array.

    Returns ``(values, packed_mask)``; the mask is ``None`` when every
    cell is occupied (the full-block encoding omits it).  Shared by
    :func:`build_hybrid` and the incremental merge
    (:func:`repro.olap.hybrid.merge_hybrid`) so both produce
    bit-identical payloads for the same rows.
    """
    local = (keys - block_id * block_cells).astype(np.intp)
    vals = np.zeros(cells, dtype=np.float64)
    vals[local] = measure
    if keys.shape[0] == cells:
        return vals, None
    occ = np.zeros(cells, dtype=bool)
    occ[local] = True
    return vals, np.packbits(occ)


def build_hybrid(
    keys: np.ndarray,
    measure: np.ndarray,
    capacity: int,
    block_cells: int | None = None,
    threshold: float | None = None,
) -> HybridLayout:
    """Split sorted unique ``(keys, measure)`` columns into a hybrid layout.

    ``keys`` must be sorted ascending with no duplicates (the store's
    post-merge invariant) and every key must lie in ``[0, capacity)``.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    measure = np.ascontiguousarray(measure, dtype=np.float64)
    if keys.shape != measure.shape or keys.ndim != 1:
        raise ValueError("keys/measure must be matching 1-d columns")
    capacity = int(capacity)
    bc = DEFAULT_BLOCK_CELLS if block_cells is None else int(block_cells)
    if bc < 1:
        raise ValueError(f"block_cells must be >= 1, got {bc}")
    thr = density_threshold() if threshold is None else float(threshold)
    n = keys.shape[0]
    if n:
        if keys[0] < 0 or keys[-1] >= capacity:
            raise ValueError(
                f"keys outside [0, {capacity}): "
                f"[{int(keys[0])}, {int(keys[-1])}]"
            )

    empty = HybridLayout(
        block_cells=bc,
        capacity=capacity,
        nrows=n,
        dense_blocks=np.empty(0, dtype=np.int64),
        dense_rows=np.empty(0, dtype=np.int64),
        dense_full=np.empty(0, dtype=bool),
        sparse_before=np.empty(0, dtype=np.int64),
        dense_values=np.empty(0, dtype=np.float64),
        dense_mask=np.empty(0, dtype=np.uint8),
        sparse_keys=keys,
        sparse_measure=measure,
    )
    if n == 0:
        return empty

    bids = keys // bc
    starts = np.flatnonzero(np.r_[True, bids[1:] != bids[:-1]])
    ends = np.r_[starts[1:], n]
    run_blocks = bids[starts]                       # occupied block ids
    run_rows = ends - starts                        # rows per occupied block
    run_cells = np.minimum(bc, capacity - run_blocks * bc)
    dense_sel = run_rows >= thr * run_cells

    if not dense_sel.any():
        return empty

    # Sparse residue: rows of every non-dense run, order preserved.
    row_is_dense = np.repeat(dense_sel, run_rows)
    sparse_keys = keys[~row_is_dense]
    sparse_measure = measure[~row_is_dense]

    # Sparse rows preceding each run start (prefix over non-dense runs).
    sparse_run_rows = np.where(dense_sel, 0, run_rows)
    sparse_prefix = np.concatenate(
        ([0], np.cumsum(sparse_run_rows))
    )  # len == runs + 1; sparse_prefix[i] = sparse rows before run i

    d_idx = np.flatnonzero(dense_sel)
    dense_blocks = run_blocks[d_idx]
    dense_rows = run_rows[d_idx]
    dense_cells = run_cells[d_idx]
    dense_full = dense_rows == dense_cells
    sparse_before = sparse_prefix[d_idx]

    values_parts = []
    mask_parts = []
    for i, run in enumerate(d_idx):
        s, e = int(starts[run]), int(ends[run])
        cells = int(dense_cells[i])
        vals, mask = scatter_dense_block(
            keys[s:e], measure[s:e], int(dense_blocks[i]), bc, cells
        )
        values_parts.append(vals)
        if mask is not None:
            mask_parts.append(mask)
    dense_values = (
        np.concatenate(values_parts)
        if values_parts else np.empty(0, dtype=np.float64)
    )
    dense_mask = (
        np.concatenate(mask_parts)
        if mask_parts else np.empty(0, dtype=np.uint8)
    )

    return HybridLayout(
        block_cells=bc,
        capacity=capacity,
        nrows=n,
        dense_blocks=dense_blocks.astype(np.int64),
        dense_rows=dense_rows.astype(np.int64),
        dense_full=dense_full,
        sparse_before=sparse_before.astype(np.int64),
        dense_values=dense_values,
        dense_mask=dense_mask,
        sparse_keys=np.ascontiguousarray(sparse_keys),
        sparse_measure=np.ascontiguousarray(sparse_measure),
    )


def expand_hybrid(layout: HybridLayout) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the full sorted ``(keys, measure)`` columns.

    Bit-exact inverse of :func:`build_hybrid`: dense cells re-expand to
    exactly the rows they absorbed (the mask restores occupancy; zeros
    written by occupied cells survive).
    """
    bc = layout.block_cells
    keys_parts: list[np.ndarray] = []
    meas_parts: list[np.ndarray] = []
    spos = 0          # consumed sparse rows
    voff = 0          # consumed dense value cells
    moff = 0          # consumed mask bytes
    for i in range(layout.dense_blocks.shape[0]):
        bid = int(layout.dense_blocks[i])
        cells = layout.cells_of(bid)
        stop = int(layout.sparse_before[i])
        if stop > spos:
            keys_parts.append(layout.sparse_keys[spos:stop])
            meas_parts.append(layout.sparse_measure[spos:stop])
            spos = stop
        if layout.dense_full[i]:
            occ_idx = np.arange(cells, dtype=np.int64)
        else:
            nbytes = (cells + 7) // 8
            bits = np.unpackbits(
                layout.dense_mask[moff : moff + nbytes], count=cells
            )
            occ_idx = np.flatnonzero(bits).astype(np.int64)
            moff += nbytes
        keys_parts.append(bid * bc + occ_idx)
        meas_parts.append(layout.dense_values[voff : voff + cells][occ_idx])
        voff += cells
    if spos < layout.sparse_keys.shape[0]:
        keys_parts.append(layout.sparse_keys[spos:])
        meas_parts.append(layout.sparse_measure[spos:])
    if not keys_parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return (
        np.concatenate(keys_parts).astype(np.int64, copy=False),
        np.concatenate(meas_parts).astype(np.float64, copy=False),
    )
