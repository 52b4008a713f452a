"""Vectorised sorted-run aggregation kernels.

These implement the "linear scan" primitive of the paper: given rows sorted
by their group-by key, collapse equal-key runs while aggregating the measure.
Everything is boundary-vector based (``keys[1:] != keys[:-1]`` +
``np.ufunc.reduceat``) — no per-row Python.  :func:`merge_runs` is the
k-way merge of sorted runs that feeds it.
"""

from __future__ import annotations

import numpy as np

from repro.storage.sortkernels import sort_pairs

__all__ = [
    "aggregate_sorted_keys",
    "collapse_adjacent",
    "merge_runs",
    "merge_sorted",
]

_REDUCERS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


def aggregate_sorted_keys(
    keys: np.ndarray, measure: np.ndarray, agg: str = "sum"
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate a key-sorted run.

    Parameters
    ----------
    keys:
        ``(n,)`` int64 keys in non-decreasing order.
    measure:
        ``(n,)`` float64 measure values.
    agg:
        One of ``"sum"``, ``"count"``, ``"min"``, ``"max"``.

    Returns
    -------
    ``(unique_keys, aggregated_measure)`` with one row per distinct key,
    keys still sorted, as new arrays.
    """
    keys = np.asarray(keys)
    measure = np.asarray(measure)
    if keys.shape != measure.shape:
        raise ValueError(
            f"shape mismatch: keys {keys.shape} vs measure {measure.shape}"
        )
    if agg != "count" and agg not in _REDUCERS:
        raise ValueError(f"unsupported aggregate: {agg!r}")
    n = keys.shape[0]
    if n == 0:
        return keys[:0], measure[:0].astype(np.float64)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    if starts.all():  # every key distinct: one-row groups, nothing to fold
        if agg == "count":
            return keys.copy(), np.ones(n, dtype=np.float64)
        return keys.copy(), measure.copy()
    idx = np.flatnonzero(starts)
    out_keys = keys[idx]
    if agg == "count":
        lengths = np.diff(np.append(idx, n))
        return out_keys, lengths.astype(np.float64)
    return out_keys, _REDUCERS[agg].reduceat(measure, idx)


def collapse_adjacent(
    keys: np.ndarray, measure: np.ndarray, agg: str = "sum"
) -> tuple[np.ndarray, np.ndarray]:
    """Alias of :func:`aggregate_sorted_keys` kept for call-site clarity
    (used where the input is already aggregated per rank and only boundary
    duplicates can occur)."""
    return aggregate_sorted_keys(keys, measure, agg)


def merge_sorted(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable vectorised merge of two key-sorted runs.

    Equal keys keep run-``a`` rows first.  This is the classic
    ``searchsorted``-interleave trick: each element's output slot is its own
    rank plus the count of smaller elements in the other run.
    """
    na, nb = len(keys_a), len(keys_b)
    if na == 0:
        return keys_b, vals_b
    if nb == 0:
        return keys_a, vals_a
    out_keys = np.empty(na + nb, dtype=np.result_type(keys_a, keys_b))
    out_vals = np.empty(na + nb, dtype=np.result_type(vals_a, vals_b))
    pos_a = np.arange(na) + np.searchsorted(keys_b, keys_a, side="left")
    pos_b = np.arange(nb) + np.searchsorted(keys_a, keys_b, side="right")
    out_keys[pos_a] = keys_a
    out_keys[pos_b] = keys_b
    out_vals[pos_a] = vals_a
    out_vals[pos_b] = vals_b
    return out_keys, out_vals


def merge_runs(
    pieces: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """k-way merge of one or more key-sorted ``(keys, values)`` runs, as
    new arrays.

    One concatenation in run order plus one stable sort, so equal keys
    keep earlier runs first — the same rows, in the same order, as a
    left fold of :func:`merge_sorted`, without its ``k - 1`` passes.
    Runs that already follow each other in key order need no sort.
    Otherwise the sort is ``argsort``: NumPy's stable sort of int64 is
    a timsort, which finds the ``k`` input runs and gallops through
    their merges, so a run that dominates the input (a view's boundary
    slices around its owner's block) costs little more than the copy.
    """
    keys = np.concatenate([k for k, _ in pieces])
    values = np.concatenate([v for _, v in pieces])
    runs = [k for k, _ in pieces if k.shape[0]]
    if all(a[-1] <= b[0] for a, b in zip(runs, runs[1:])):
        return keys, values
    return sort_pairs(keys, values, "argsort")
