"""Tests for the adaptive sort-kernel engine (repro.storage.sortkernels).

The load-bearing contract: every kernel is stable, so every kernel
produces the **bit-identical** (keys, values) output — and a full cube
built under any forced kernel equals the auto-built cube bit for bit,
with identical simulated metering.
"""

import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.config import CubeConfig, MachineSpec
from repro.core.cube import build_data_cube
from repro.core.viewdata import codec_for_order
from repro.storage import sortkernels
from repro.storage.codec import KeyCodec
from repro.storage.scan import aggregate_sorted_keys
from repro.storage.sortkernels import (
    ENV_KERNEL,
    KERNEL_NAMES,
    force_kernel,
    get_default_kernel,
    is_sorted_int64,
    resolve_kernel,
    set_default_kernel,
    sort_pairs,
)
from tests.conftest import make_relation

REAL_KERNELS = tuple(k for k in KERNEL_NAMES if k != "auto")


def baseline(keys, values):
    """The reference output every kernel must match bit for bit."""
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


def check_kernel(kernel, keys, values, **hints):
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    want_k, want_v = baseline(keys, values)
    got_k, got_v = sort_pairs(keys, values, kernel, **hints)
    np.testing.assert_array_equal(got_k, want_k)
    np.testing.assert_array_equal(got_v, want_v)
    # Returned arrays are fresh — never aliases of the input.
    assert got_k.base is not keys and got_k is not keys
    return got_k, got_v


# ---------------------------------------------------------------------------
# kernel equivalence on the edge-case menagerie
# ---------------------------------------------------------------------------


EDGE_CASES = {
    "empty": np.empty(0, dtype=np.int64),
    "single": np.array([7], dtype=np.int64),
    "all_equal": np.full(600, 42, dtype=np.int64),
    "already_sorted": np.arange(600, dtype=np.int64) * 3,
    "reverse_sorted": np.arange(600, dtype=np.int64)[::-1].copy(),
    "duplicate_heavy": np.repeat(np.arange(12, dtype=np.int64), 50),
    # Keys at the top of the packable range (~2^62).
    "max_width": (np.int64(2) ** 62 - 1)
    - np.random.default_rng(3).integers(0, 5, 600, dtype=np.int64),
    "random": np.random.default_rng(4).integers(
        0, 1 << 40, 600, dtype=np.int64
    ),
}


@pytest.mark.parametrize("kernel", REAL_KERNELS + ("auto",))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_kernel_matches_argsort(kernel, case):
    keys = EDGE_CASES[case]
    values = np.arange(keys.shape[0], dtype=np.float64)
    check_kernel(kernel, keys, values)


@pytest.mark.parametrize("kernel", REAL_KERNELS + ("auto",))
def test_kernel_then_aggregate_matches(kernel):
    """Sorted output feeds aggregate_sorted_keys identically per kernel."""
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 50, 2000, dtype=np.int64)
    values = rng.random(2000)
    want = aggregate_sorted_keys(*baseline(keys, values), "sum")
    got = aggregate_sorted_keys(*sort_pairs(keys, values, kernel), "sum")
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("kernel", REAL_KERNELS + ("auto",))
def test_stability_of_pairing(kernel):
    """Equal keys keep their input order — per-kernel, bit-identical."""
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 7, 5000, dtype=np.int64)  # heavy duplication
    values = np.arange(5000, dtype=np.float64)  # input position as payload
    got_k, got_v = check_kernel(kernel, keys, values)
    # Within each equal-key block the payloads must ascend (stability).
    for key in np.unique(got_k):
        block = got_v[got_k == key]
        assert np.all(np.diff(block) > 0)


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 45), max_size=300),
    st.sampled_from(REAL_KERNELS),
)
def test_kernel_equivalence_randomized(key_list, kernel):
    keys = np.asarray(key_list, dtype=np.int64)
    values = np.arange(keys.shape[0], dtype=np.float64)
    check_kernel(kernel, keys, values)


def test_radix_with_key_bound_hint():
    rng = np.random.default_rng(6)
    keys = rng.integers(0, 1000, 3000, dtype=np.int64)
    values = rng.random(3000)
    check_kernel("radix", keys, values, key_bound=1000)


def test_radix_negative_keys_falls_back():
    keys = np.array([3, -1, 2, -5, 0] * 200, dtype=np.int64)
    values = np.arange(1000, dtype=np.float64)
    check_kernel("radix", keys, values)


# ---------------------------------------------------------------------------
# segmented kernel
# ---------------------------------------------------------------------------


def make_segmented_input(nseg=40, seg_rows=60, suffix_cap=1 << 20, seed=7):
    """Keys clustered by a non-decreasing prefix with shuffled suffixes —
    exactly what a shared-prefix remap of sorted data produces."""
    rng = np.random.default_rng(seed)
    prefixes = np.sort(rng.integers(0, 1 << 30, nseg, dtype=np.int64))
    keys = np.concatenate(
        [
            p * suffix_cap
            + rng.integers(0, suffix_cap, seg_rows, dtype=np.int64)
            for p in prefixes
        ]
    )
    return keys, suffix_cap


def test_segmented_sorts_clustered_input():
    keys, w = make_segmented_input()
    values = np.arange(keys.shape[0], dtype=np.float64)
    check_kernel("segmented", keys, values, seg_divisor=w)


def test_segmented_verifies_promise_and_falls_back():
    """A violated clustering promise must not corrupt the output."""
    keys, w = make_segmented_input()
    keys = keys[::-1].copy()  # prefix values now decreasing: promise broken
    values = np.arange(keys.shape[0], dtype=np.float64)
    check_kernel("segmented", keys, values, seg_divisor=w)


def test_segmented_without_divisor_falls_back():
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 1 << 30, 1000, dtype=np.int64)
    values = rng.random(1000)
    check_kernel("segmented", keys, values)  # no seg_divisor


def test_auto_uses_segment_hint_correctly():
    keys, w = make_segmented_input(nseg=200, seg_rows=20)
    values = np.arange(keys.shape[0], dtype=np.float64)
    check_kernel("auto", keys, values, seg_divisor=w, key_bound=1 << 51)


# ---------------------------------------------------------------------------
# presorted detection
# ---------------------------------------------------------------------------


class TestIsSorted:
    def test_trivial(self):
        assert is_sorted_int64(np.empty(0, dtype=np.int64))
        assert is_sorted_int64(np.array([5], dtype=np.int64))

    def test_sorted_with_ties(self):
        assert is_sorted_int64(np.array([1, 1, 2, 2, 3], dtype=np.int64))

    def test_unsorted(self):
        assert not is_sorted_int64(np.array([1, 3, 2], dtype=np.int64))

    def test_inversion_across_chunk_boundary(self):
        n = 5000
        keys = np.arange(n, dtype=np.int64)
        keys[4097] = 0  # violation right past a 4096-window edge
        assert not is_sorted_int64(keys, chunk=1 << 12)
        assert is_sorted_int64(np.arange(n, dtype=np.int64), chunk=1 << 12)

    def test_matches_two_temporary_check(self, rng):
        for _ in range(20):
            keys = rng.integers(0, 4, 50)
            want = bool(np.all(keys[1:] >= keys[:-1]))
            assert is_sorted_int64(keys, chunk=16) == want


def test_presorted_kernel_skips_and_falls_back():
    keys = np.arange(1000, dtype=np.int64)
    values = np.arange(1000, dtype=np.float64)
    check_kernel("presorted", keys, values)
    check_kernel("presorted", keys[::-1].copy(), values)


# ---------------------------------------------------------------------------
# the fixed ``auto`` rule: every branch equals stable argsort bit for bit
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def auto_spies():
    """Run ``auto`` unforced with its kernels spied: yields a function
    naming the kernel the rule took (``"copy"`` when none ran)."""
    names = ("_packed_pairs", "_radix_pairs", "_argsort_pairs")
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop(ENV_KERNEL, None)
        stack.enter_context(force_kernel("auto"))
        spies = {
            name: stack.enter_context(
                mock.patch.object(
                    sortkernels, name, wraps=getattr(sortkernels, name)
                )
            )
            for name in names
        }
        # The first spy in ``names`` order that ran is the rule's branch
        # (radix may fall back to argsort internally, packed never does).
        yield lambda: next(
            (name for name in names if spies[name].called), "copy"
        )


def check_auto(keys, values, branch, **hints):
    """``sort_pairs(auto)`` equals stable argsort, keeps dtypes, returns
    fresh arrays and takes ``branch`` of the rule."""
    want_k, want_v = baseline(keys, values)
    with auto_spies() as taken:
        got_k, got_v = sort_pairs(keys, values, **hints)
        assert taken() == branch
    assert got_k.dtype == keys.dtype and got_v.dtype == values.dtype
    np.testing.assert_array_equal(got_k, want_k)
    np.testing.assert_array_equal(got_v, want_v)
    for got in (got_k, got_v):
        assert not np.shares_memory(got, keys)
        assert not np.shares_memory(got, values)


KEY_DTYPES = st.sampled_from([np.int64, np.int32, np.uint32, np.uint64])
VALUE_DTYPES = st.sampled_from([np.float64, np.float32, np.int64])


def unsorted_pairs(draw, max_key, key_dtype=np.int64, min_size=2):
    keys = np.asarray(
        draw(st.lists(st.integers(0, max_key), min_size=min_size,
                      max_size=300)),
        dtype=key_dtype,
    )
    assume(not is_sorted_int64(keys))
    values = np.arange(keys.shape[0]).astype(draw(VALUE_DTYPES))
    return keys, values


@given(st.data(), st.lists(st.integers(0, 1 << 40), max_size=300),
       VALUE_DTYPES)
def test_auto_presorted_copies(data, key_list, value_dtype):
    keys = np.sort(np.asarray(key_list, dtype=np.int64))
    values = np.arange(keys.shape[0]).astype(value_dtype)
    check_auto(keys, values, "copy",
               key_bound=data.draw(st.sampled_from([None, 1 << 41])))


@given(st.data(), KEY_DTYPES)
def test_auto_narrow_keys_take_one_radix_pass(data, key_dtype):
    keys, values = unsorted_pairs(data.draw, (1 << 16) - 1, key_dtype)
    hint = data.draw(st.sampled_from([None, 1 << 16]))
    check_auto(keys, values, "_radix_pairs", key_bound=hint)


@given(st.data(), KEY_DTYPES, st.integers(17, 31))
def test_auto_wide_keys_take_packed_sort(data, key_dtype, bits):
    keys, values = unsorted_pairs(data.draw, (1 << bits) - 1, key_dtype)
    hint = data.draw(st.sampled_from([None, 1 << bits]))
    assume(hint is not None or int(keys.max()) >= 1 << 16)
    check_auto(keys, values, "_packed_pairs", key_bound=hint)


@pytest.mark.parametrize("hinted", [True, False])
@pytest.mark.parametrize("width, branch", [
    (62, "_packed_pairs"), (63, "_packed_pairs"), (64, "_radix_pairs"),
])
@given(data=st.data())
def test_auto_int64_width_boundary(data, width, branch, hinted):
    """``bits(max_key) + bits(n-1)`` at 62 and 63 packs; at 64 the word
    would overflow int64, so the rule falls through to radix."""
    n = data.draw(st.integers(2, 300))
    key_bits = width - (n - 1).bit_length()
    top = (1 << key_bits) - 1
    keys = np.asarray(
        data.draw(st.lists(
            st.one_of(st.integers(0, top), st.integers(top - 3, top)),
            min_size=n, max_size=n,
        )),
        dtype=np.int64,
    )
    keys[data.draw(st.integers(0, n - 1))] = top  # max key has key_bits
    assume(not is_sorted_int64(keys))
    values = np.arange(n, dtype=np.float64)
    hint = 1 << key_bits if hinted else None
    check_auto(keys, values, branch, key_bound=hint)


@given(st.data())
def test_auto_negative_keys_take_argsort(data):
    keys = np.asarray(
        data.draw(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=2,
                           max_size=300)),
        dtype=np.int64,
    )
    assume(not is_sorted_int64(keys) and int(keys.min()) < 0)
    check_auto(keys, np.arange(keys.shape[0], dtype=np.float64),
               "_argsort_pairs")


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("hint", [None, 1 << 40])
def test_auto_tiny_and_all_equal(n, hint):
    values = np.arange(n, dtype=np.float64)
    check_auto(np.full(n, 9, dtype=np.int64), values, "copy", key_bound=hint)
    if n == 2:
        check_auto(np.array([1 << 39, 5], dtype=np.int64), values,
                   "_packed_pairs", key_bound=hint)
    check_auto(np.full(600, 1 << 39, dtype=np.int64),
               np.arange(600, dtype=np.float64), "copy", key_bound=hint)


# ---------------------------------------------------------------------------
# selection plumbing
# ---------------------------------------------------------------------------


class TestResolution:
    def test_priority_env_beats_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "radix")
        with force_kernel("argsort"):
            assert resolve_kernel("segmented") == "radix"

    def test_forced_default_beats_hint(self, monkeypatch):
        # The CI kernel matrix exports ENV_KERNEL suite-wide; clear it so
        # this test observes the process-default tier, not the env tier.
        monkeypatch.delenv(ENV_KERNEL, raising=False)
        with force_kernel("argsort"):
            assert resolve_kernel("presorted") == "argsort"

    def test_hint_wins_when_default_auto(self, monkeypatch):
        monkeypatch.delenv(ENV_KERNEL, raising=False)
        assert get_default_kernel() == "auto"
        assert resolve_kernel("presorted") == "presorted"
        assert resolve_kernel(None) == "auto"

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            set_default_kernel("quicksort")
        with pytest.raises(ValueError):
            sort_pairs(
                np.zeros(3, dtype=np.int64), np.zeros(3), "quicksort"
            )

    def test_force_kernel_restores(self):
        before = get_default_kernel()
        with force_kernel("radix"):
            assert get_default_kernel() == "radix"
        assert get_default_kernel() == before

    def test_spec_validates_kernel(self):
        with pytest.raises(ValueError):
            MachineSpec(sort_kernel="bogus")
        assert MachineSpec(sort_kernel="radix").sort_kernel == "radix"


def test_sort_pairs_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        sort_pairs(np.zeros(3, dtype=np.int64), np.zeros(2))


# ---------------------------------------------------------------------------
# KeyCodec.remap
# ---------------------------------------------------------------------------


class TestRemap:
    def reference(self, codec, keys, src_order, dst_order):
        """unpack → select/permute → repack under the destination codec."""
        dims = codec.unpack(keys)
        col_of = {dim: pos for pos, dim in enumerate(src_order)}
        cols = [col_of[d] for d in dst_order]
        dst_codec = KeyCodec([codec.cardinalities[c] for c in cols])
        return dst_codec.pack(dims[:, cols])

    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_fixed_orders(self, seed):
        rng = np.random.default_rng(seed)
        cards = tuple(int(c) for c in rng.integers(2, 9, 5))
        src = tuple(rng.permutation(5).tolist())
        take = int(rng.integers(0, 6))
        dst = tuple(rng.permutation(5)[:take].tolist())
        codec = KeyCodec([cards[d] for d in src])
        dims = np.stack(
            [
                rng.integers(0, cards[d], 200, dtype=np.int64)
                for d in src
            ],
            axis=1,
        )
        keys = codec.pack(dims)
        got, shared = codec.remap(keys, src, dst)
        want = self.reference(codec, keys, src, dst)
        np.testing.assert_array_equal(got, want)
        k = 0
        while k < min(len(src), len(dst)) and src[k] == dst[k]:
            k += 1
        assert shared == k

    def test_shared_prefix_clustering(self):
        """Sorted source keys stay clustered by the shared prefix."""
        cards = (6, 5, 4, 3)
        src, dst = (0, 1, 2, 3), (0, 1, 3, 2)
        codec = codec_for_order(src, cards)
        rng = np.random.default_rng(9)
        dims = np.stack(
            [rng.integers(0, c, 500, dtype=np.int64) for c in cards],
            axis=1,
        )
        keys = np.sort(codec.pack(dims))
        new_keys, shared = codec.remap(keys, src, dst)
        assert shared == 2
        dst_codec = codec_for_order(dst, cards)
        w = int(dst_codec.weights[shared - 1])
        assert is_sorted_int64(new_keys // w)

    def test_identity_remap(self):
        codec = KeyCodec((4, 3))
        keys = np.array([0, 5, 11], dtype=np.int64)
        got, shared = codec.remap(keys, (0, 1), (0, 1))
        np.testing.assert_array_equal(got, keys)
        assert shared == 2
        assert got is not keys

    def test_projection_to_empty(self):
        codec = KeyCodec((4, 3))
        got, shared = codec.remap(
            np.array([3, 7], dtype=np.int64), (0, 1), ()
        )
        np.testing.assert_array_equal(got, [0, 0])
        assert shared == 0

    def test_rejects_bad_orders(self):
        codec = KeyCodec((4, 3))
        with pytest.raises(ValueError):
            codec.remap(np.zeros(1, dtype=np.int64), (0,), (0,))
        with pytest.raises(ValueError):
            codec.remap(np.zeros(1, dtype=np.int64), (0, 1), (2,))
        with pytest.raises(ValueError):
            codec.remap(np.zeros(1, dtype=np.int64), (0, 0), (0,))


def test_codec_cache_keys_on_selected_cards():
    """Orders selecting the same cardinality sequence share one codec."""
    assert codec_for_order((0,), (4, 5)) is codec_for_order((1,), (5, 4))
    assert codec_for_order((0, 1), (4, 5, 99)) is codec_for_order(
        (0, 1), (4, 5, 7)
    )
    assert codec_for_order((0,), (4, 5)) is not codec_for_order(
        (1,), (4, 5)
    )


# ---------------------------------------------------------------------------
# end-to-end: forced kernels produce the identical cube
# ---------------------------------------------------------------------------


CARDS = (10, 6, 4, 3)


@pytest.fixture(scope="module")
def dataset():
    return make_relation(3000, CARDS, seed=33)


@pytest.fixture(scope="module")
def auto_cube(dataset):
    return build_data_cube(
        dataset, CARDS, MachineSpec(p=4, compute_scale=0.0)
    )


def assert_same_cube(a, b):
    assert a.views == b.views
    for rank_a, rank_b in zip(a.rank_views, b.rank_views):
        for view in rank_a:
            np.testing.assert_array_equal(
                rank_a[view].keys, rank_b[view].keys
            )
            np.testing.assert_array_equal(
                rank_a[view].measure, rank_b[view].measure
            )
    # The simulated cost model must be kernel-independent.
    assert a.metrics.simulated_seconds == b.metrics.simulated_seconds
    assert a.metrics.disk_blocks == b.metrics.disk_blocks
    assert a.metrics.comm_bytes == b.metrics.comm_bytes


@pytest.mark.parametrize("kernel", REAL_KERNELS)
def test_forced_kernel_cube_bit_identical(dataset, auto_cube, kernel):
    cube = build_data_cube(
        dataset,
        CARDS,
        MachineSpec(p=4, compute_scale=0.0, sort_kernel=kernel),
    )
    assert_same_cube(cube, auto_cube)


def test_forced_kernel_external_memory_cube(dataset, auto_cube):
    """Tight memory forces spill paths; kernels still agree bit for bit."""
    tight = dict(p=4, compute_scale=0.0, memory_budget=1 << 9,
                 block_size=1 << 6)
    base = build_data_cube(dataset, CARDS, MachineSpec(**tight))
    for kernel in ("radix", "segmented"):
        cube = build_data_cube(
            dataset, CARDS, MachineSpec(sort_kernel=kernel, **tight)
        )
        assert_same_cube(cube, base)


def test_prefix_discount_flag_builds_valid_cube(dataset):
    """Paper-faithful cost model (discount off) must agree on content."""
    on = build_data_cube(
        dataset, CARDS,
        MachineSpec(p=2, compute_scale=0.0),
        CubeConfig(sort_prefix_discount=True),
    )
    off = build_data_cube(
        dataset, CARDS,
        MachineSpec(p=2, compute_scale=0.0),
        CubeConfig(sort_prefix_discount=False),
    )
    assert on.views == off.views
    for view in on.views:
        assert on.view_relation(view).same_content(off.view_relation(view))


def test_count_equals_sum_of_ones_bitwise(dataset):
    """COUNT must ride the exact float64-ones path SUM would see."""
    ones = dataset.__class__(
        dataset.dims, np.ones(dataset.nrows, dtype=np.float64)
    )
    spec = MachineSpec(p=4, compute_scale=0.0)
    count_cube = build_data_cube(
        dataset, CARDS, spec, CubeConfig(agg="count")
    )
    sum_cube = build_data_cube(ones, CARDS, spec, CubeConfig(agg="sum"))
    assert_same_cube(count_cube, sum_cube)
