"""Independent answers from the raw rows, and exact comparison.

The oracle is a plain numpy group-by: it packs the grouped columns into
one mixed-radix key, takes ``np.unique`` and sums with ``np.bincount``.
It shares no code with ``repro``.
"""

from __future__ import annotations

import numpy as np

from perfbench.inputs import Table


def group_by(
    table: Table,
    cards: tuple[int, ...],
    group: tuple[int, ...],
    filters: tuple = (),
    having: tuple[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``SELECT group, SUM(measure) WHERE filters GROUP BY group HAVING``
    over ``table``; rows sorted lexicographically by ``group``."""
    dims, measure = table.dims, table.measure
    if filters:
        mask = np.ones(dims.shape[0], dtype=bool)
        for dim, lo, hi in filters:
            mask &= (dims[:, dim] >= lo) & (dims[:, dim] <= hi)
        dims, measure = dims[mask], measure[mask]
    if not group:
        if measure.shape[0] == 0:
            out_d = np.empty((0, 0), dtype=np.int64)
            out_m = np.empty(0, dtype=np.float64)
        else:
            out_d = np.empty((1, 0), dtype=np.int64)
            out_m = np.array([measure.sum()], dtype=np.float64)
    else:
        key = np.zeros(dims.shape[0], dtype=np.int64)
        for dim in group:
            key = key * cards[dim] + dims[:, dim]
        uniq, inverse = np.unique(key, return_inverse=True)
        out_m = np.bincount(
            inverse.ravel(), weights=measure, minlength=uniq.shape[0]
        )
        out_d = np.empty((uniq.shape[0], len(group)), dtype=np.int64)
        rest = uniq.copy()
        for col in range(len(group) - 1, -1, -1):
            card = cards[group[col]]
            out_d[:, col] = rest % card
            rest //= card
    if having is not None:
        op, threshold = having
        keep = {
            ">=": out_m >= threshold,
            "<=": out_m <= threshold,
            ">": out_m > threshold,
            "<": out_m < threshold,
        }[op]
        out_d, out_m = out_d[keep], out_m[keep]
    return out_d, out_m


def canonical(dims: np.ndarray, measure: np.ndarray):
    """Rows sorted lexicographically by their dimension columns."""
    dims = np.asarray(dims, dtype=np.int64)
    measure = np.asarray(measure, dtype=np.float64)
    if dims.shape[0] == 0 or dims.shape[1] == 0:
        return dims.reshape(dims.shape[0], dims.shape[1]), measure
    order = np.lexsort(dims.T[::-1])
    return dims[order], measure[order]


def same(a_dims, a_measure, b_dims, b_measure, sort: bool = False) -> bool:
    """Bit-for-bit equality of two answers (optionally order-blind)."""
    if sort:
        a_dims, a_measure = canonical(a_dims, a_measure)
        b_dims, b_measure = canonical(b_dims, b_measure)
    a_dims = np.asarray(a_dims)
    b_dims = np.asarray(b_dims)
    if a_dims.shape[0] != b_dims.shape[0]:
        return False
    if a_dims.size and (
        a_dims.shape != b_dims.shape or not np.array_equal(a_dims, b_dims)
    ):
        return False
    a_measure = np.ascontiguousarray(a_measure, dtype=np.float64)
    b_measure = np.ascontiguousarray(b_measure, dtype=np.float64)
    return a_measure.tobytes() == b_measure.tobytes()
