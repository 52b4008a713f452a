"""Tests for repro.storage.scan: sorted-run aggregation and merging."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.scan import aggregate_sorted_keys, merge_runs, merge_sorted


class TestAggregateSortedKeys:
    def test_sum(self):
        keys = np.array([1, 1, 2, 3, 3, 3], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert k.tolist() == [1, 2, 3]
        assert v.tolist() == [3.0, 3.0, 3.0]

    def test_count(self):
        keys = np.array([5, 5, 5, 9], dtype=np.int64)
        vals = np.array([1.0, 7.0, 3.0, 2.0])
        k, v = aggregate_sorted_keys(keys, vals, "count")
        assert k.tolist() == [5, 9]
        assert v.tolist() == [3.0, 1.0]

    def test_min_max(self):
        keys = np.array([1, 1, 2], dtype=np.int64)
        vals = np.array([3.0, -1.0, 5.0])
        _, vmin = aggregate_sorted_keys(keys, vals, "min")
        _, vmax = aggregate_sorted_keys(keys, vals, "max")
        assert vmin.tolist() == [-1.0, 5.0]
        assert vmax.tolist() == [3.0, 5.0]

    def test_empty(self):
        k, v = aggregate_sorted_keys(
            np.empty(0, dtype=np.int64), np.empty(0), "sum"
        )
        assert k.size == 0 and v.size == 0

    def test_all_distinct_unchanged(self):
        keys = np.arange(10, dtype=np.int64)
        vals = np.arange(10, dtype=np.float64)
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert np.array_equal(k, keys)
        assert np.array_equal(v, vals)

    def test_single_group(self):
        keys = np.zeros(5, dtype=np.int64)
        vals = np.ones(5)
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert k.tolist() == [0]
        assert v.tolist() == [5.0]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_sorted_keys(np.zeros(3, dtype=np.int64), np.zeros(2))

    def test_rejects_unknown_agg(self):
        with pytest.raises(ValueError, match="unsupported"):
            aggregate_sorted_keys(
                np.zeros(1, dtype=np.int64), np.zeros(1), "median"
            )

    @pytest.mark.parametrize("agg", ["sum", "min", "max", "count"])
    @given(st.sets(st.integers(-(1 << 40), 1 << 40), max_size=60))
    def test_all_distinct_fast_path_is_fresh(self, agg, raw):
        """Distinct keys skip ``reduceat`` but still return new arrays,
        equal to what the general path computes."""
        keys = np.array(sorted(raw), dtype=np.int64)
        vals = np.random.default_rng(len(raw)).random(len(raw))
        k, v = aggregate_sorted_keys(keys, vals, agg)
        want = np.ones(len(raw)) if agg == "count" else vals
        np.testing.assert_array_equal(k, keys)
        np.testing.assert_array_equal(v, want)
        assert v.dtype == np.float64
        if len(raw):
            assert not np.shares_memory(k, keys)
            assert not np.shares_memory(v, vals)

    @given(st.lists(st.integers(0, 10), max_size=60))
    def test_sum_preserved_property(self, raw):
        keys = np.sort(np.array(raw, dtype=np.int64))
        vals = np.ones(len(raw))
        k, v = aggregate_sorted_keys(keys, vals, "sum")
        assert v.sum() == pytest.approx(len(raw))
        assert np.all(np.diff(k) > 0)  # strictly increasing output keys


class TestMergeSorted:
    def test_interleave(self):
        ka = np.array([1, 3, 5], dtype=np.int64)
        kb = np.array([2, 4, 6], dtype=np.int64)
        k, v = merge_sorted(ka, ka * 10.0, kb, kb * 10.0)
        assert k.tolist() == [1, 2, 3, 4, 5, 6]
        assert v.tolist() == [10, 20, 30, 40, 50, 60]

    def test_stability_a_first_on_ties(self):
        ka = np.array([5], dtype=np.int64)
        kb = np.array([5], dtype=np.int64)
        k, v = merge_sorted(ka, np.array([1.0]), kb, np.array([2.0]))
        assert v.tolist() == [1.0, 2.0]

    def test_empty_sides(self):
        ka = np.array([1], dtype=np.int64)
        va = np.array([1.0])
        empty_k = np.empty(0, dtype=np.int64)
        empty_v = np.empty(0)
        k, v = merge_sorted(ka, va, empty_k, empty_v)
        assert k.tolist() == [1]
        k, v = merge_sorted(empty_k, empty_v, ka, va)
        assert k.tolist() == [1]

    @given(
        st.lists(st.integers(-50, 50), max_size=50),
        st.lists(st.integers(-50, 50), max_size=50),
    )
    def test_merge_equals_sorted_concat(self, a, b):
        ka = np.sort(np.array(a, dtype=np.int64))
        kb = np.sort(np.array(b, dtype=np.int64))
        va = np.arange(len(a), dtype=np.float64)
        vb = np.arange(len(b), dtype=np.float64) + 1000
        k, v = merge_sorted(ka, va, kb, vb)
        assert np.array_equal(k, np.sort(np.concatenate([ka, kb])))
        # multiset of (key, value) pairs preserved
        got = sorted(zip(k.tolist(), v.tolist()))
        want = sorted(
            zip(np.concatenate([ka, kb]).tolist(),
                np.concatenate([va, vb]).tolist())
        )
        assert got == want


def fold_merge_sorted(pieces):
    """The left fold of pairwise merges that :func:`merge_runs` replaces."""
    return reduce(
        lambda acc, piece: merge_sorted(acc[0], acc[1], piece[0], piece[1]),
        pieces[1:],
        pieces[0],
    )


RUN_KEYS = st.one_of(
    st.integers(0, 20),  # dense ties across runs
    st.integers(0, 1 << 45),  # wide keys
    st.integers(-(1 << 40), 1 << 40),  # negative keys
)


class TestMergeRuns:
    @given(st.lists(st.lists(RUN_KEYS, max_size=40), min_size=1,
                    max_size=6))
    def test_equals_left_fold(self, runs):
        """Same rows in the same order as the pairwise fold, including
        cross-run ties (earlier runs first), empty runs and one run."""
        pieces, offset = [], 0
        for run in runs:
            keys = np.sort(np.array(run, dtype=np.int64))
            vals = np.arange(offset, offset + len(run), dtype=np.float64)
            offset += len(run)
            pieces.append((keys, vals))
        want_k, want_v = fold_merge_sorted(pieces)
        got_k, got_v = merge_runs(pieces)
        np.testing.assert_array_equal(got_k, want_k)
        np.testing.assert_array_equal(got_v, want_v)
        assert got_k.dtype == want_k.dtype and got_v.dtype == want_v.dtype
        for keys, vals in pieces:
            assert not np.shares_memory(got_k, keys)
            assert not np.shares_memory(got_v, vals)

    def test_ties_keep_run_order(self):
        pieces = [
            (np.array([1, 5, 5], dtype=np.int64), np.array([0.0, 1.0, 2.0])),
            (np.array([5, 9], dtype=np.int64), np.array([3.0, 4.0])),
            (np.array([0, 5], dtype=np.int64), np.array([5.0, 6.0])),
        ]
        k, v = merge_runs(pieces)
        assert k.tolist() == [0, 1, 5, 5, 5, 5, 9]
        assert v.tolist() == [5.0, 0.0, 1.0, 2.0, 3.0, 6.0, 4.0]

    @given(st.lists(st.lists(st.integers(0, 5), max_size=8), min_size=1,
                    max_size=5))
    def test_lined_up_runs_skip_the_sort(self, runs):
        """Runs already in key order (ties at the seams included) come
        back as their concatenation."""
        pieces, base = [], 0
        for run in runs:
            keys = base + np.sort(np.array(run, dtype=np.int64))
            base = int(keys[-1]) if len(run) else base
            pieces.append((keys, np.arange(len(run), dtype=np.float64)))
        k, v = merge_runs(pieces)
        want_k, want_v = fold_merge_sorted(pieces)
        np.testing.assert_array_equal(k, np.concatenate([p[0] for p in pieces]))
        np.testing.assert_array_equal(k, want_k)
        np.testing.assert_array_equal(v, want_v)
