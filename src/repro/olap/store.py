"""Persist a constructed cube to disk and reopen it for querying.

Procedure 1 leaves every view split by key range: the rank pieces of a
view share one sort order and concatenate (rank 0 first) into a
globally sorted, key-disjoint array.  The store is built on that
invariant.  It keeps each view's concatenation once, plus the rank
boundaries as offsets, in one of two layouts that share a manifest
schema.

**Format 2** (sorted, the default) stores each view as raw contiguous
``.npy`` columns of packed int64 keys plus the parallel measure::

    <path>/manifest.json          cardinalities, aggregate, p, and per
                                  view: order, rank offsets, fence
    <path>/views/v_<name>.keys.npy
    <path>/views/v_<name>.measure.npy

**Format 3** (hybrid) stores each view as dense blocks plus a sparse
residue (:mod:`repro.storage.dense`)::

    <path>/views/v_<name>.sparse.keys.npy     sorted sparse residue
    <path>/views/v_<name>.sparse.measure.npy
    <path>/views/v_<name>.dense.values.npy    concatenated dense cells
    <path>/views/v_<name>.dense.mask.npy      packed occupancy bits

The manifest lists only the dense blocks (id, rows, full-flag, sparse
rows before the block), so logical-row arithmetic is O(1) per block and
the fence index covers just the sparse residue.  Either file is omitted
when no block needs it.

:meth:`CubeStore.load` rebuilds the exact distributed cube: format-2
rank pieces are zero-copy slices of the memory-mapped columns, format-3
blocks are re-expanded.  :meth:`CubeStore.open` hands the serving tier
:class:`~repro.olap.index.SortedView` or
:class:`~repro.olap.hybrid.HybridView` handles whose fence index (every
Nth key, persisted in the manifest) lets a reader touch only the pages
a query needs.  Saving a cube that breaks the invariant raises
``ValueError``.  A store saved with an attribute-value reorder
(:mod:`repro.storage.reorder`) records the permutations under the
manifest's ``reorder`` key, and ``query_engine()`` translates queries
back to original attribute values.

**Generations** (incremental refresh).  A store directory may hold a
*sequence* of immutable snapshots instead of one flat layout::

    <path>/CURRENT                 name of the live generation, e.g.
                                   ``gen-000002`` (atomically swapped)
    <path>/gen-000001/manifest.json + views/ ...
    <path>/gen-000002/...

Each generation is a complete, self-contained format-2/3 store;
:func:`~repro.olap.refresh.refresh_store` creates the next one through a
:class:`GenerationWriter`, merging a delta into its predecessor and
hard-linking every untouched view file so a generation costs only the
bytes its delta touched.  A flat store (no ``CURRENT``) is implicitly
generation 0 and is never garbage-collected — the first refresh leaves
it in place as the seed snapshot and writes ``gen-000001`` next to it.
``CURRENT`` is swapped with ``os.replace`` (write temp + rename), so a
reader either sees the old pointer or the new one, never a torn state;
readers that already hold a generation open keep serving it (their
mmaps pin the inodes) even after :meth:`CubeStore.gc_generations`
unlinks the directory.

This module is the only one that names store files or writes them.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Callable, Sequence

import numpy as np

from repro.config import RunResult
from repro.core.cube import CubeResult
from repro.core.viewdata import ViewData, codec_for_order
from repro.core.views import View, canonical_view, view_name
from repro.olap.hybrid import HybridView
from repro.olap.index import DEFAULT_STRIDE, FenceIndex, SortedView
from repro.storage.dense import DEFAULT_BLOCK_CELLS, HybridLayout, build_hybrid
from repro.storage.mmapio import MappedColumn, MmapMeter, write_npy
from repro.storage.reorder import ValueReorder
from repro.storage.sortkernels import is_sorted_int64

__all__ = [
    "CubeStore",
    "GenerationWriter",
    "OpenCube",
    "StoreWriter",
    "rebase_offsets",
]

_MANIFEST = "manifest.json"
_CURRENT = "CURRENT"
_GEN_PREFIX = "gen-"
#: Column files of one view, by part: format 2 writes "sorted", format 3
#: "sparse" and "dense".
_PARTS = {
    "sorted": (".keys.npy", ".measure.npy"),
    "sparse": (".sparse.keys.npy", ".sparse.measure.npy"),
    "dense": (".dense.values.npy", ".dense.mask.npy"),
}


def _gen_name(generation: int) -> str:
    return f"{_GEN_PREFIX}{generation:06d}"


def _view_stem(view: View) -> str:
    return "v_" + ("_".join(str(i) for i in view) if view else "all")


def _zero_metrics(total_rows: int, view_count: int) -> RunResult:
    """Reopened cubes carry no construction cost (it was paid at build)."""
    return RunResult(
        simulated_seconds=0.0,
        host_seconds=0.0,
        output_rows=total_rows,
        view_count=view_count,
        comm_bytes=0,
        disk_blocks=0,
    )


def rebase_offsets(
    old: SortedView | HybridView,
    old_offsets: Sequence,
    nrows: int,
    locate: Callable[[int], int],
) -> list[int]:
    """Rank offsets for a view after a merge grew ``old`` to ``nrows``.

    Keeps the old rank boundary *keys*, so the reconstructed distributed
    cube keeps its key-range partitioning: delta rows land in the rank
    that owns their range.  ``locate(key)`` counts the merged view's
    rows with keys below ``key``.
    """
    offsets = [0]
    for o in old_offsets[1:-1]:
        o = int(o)
        if o >= old.nrows:
            offsets.append(int(nrows))
        else:
            offsets.append(int(locate(int(old.read(o, o + 1)[0][0]))))
    offsets.append(int(nrows))
    return offsets


class StoreWriter:
    """Writes the view files and manifest of one store directory.

    Each ``write_*`` method writes one view's columns and returns its
    manifest entry; :meth:`link` reuses a view's files from another
    store instead.  ``written`` and ``linked`` count files.
    """

    def __init__(self, path: str, fence_stride: int):
        self.path = path
        self.stride = int(fence_stride)
        self.written = 0
        self.linked = 0
        os.makedirs(path, exist_ok=True)

    @staticmethod
    def _file(store_dir: str, view: View, suffix: str) -> str:
        return os.path.join(store_dir, "views", _view_stem(view) + suffix)

    def _write(self, view: View, suffix: str, arr: np.ndarray) -> None:
        write_npy(self._file(self.path, view, suffix), arr)
        self.written += 1

    def link(
        self, src_dir: str, view: View, parts: Sequence[str] = tuple(_PARTS)
    ) -> None:
        """Hard-link the files of ``parts`` that the store at
        ``src_dir`` holds for ``view`` (copy where linking fails)."""
        for part in parts:
            for suffix in _PARTS[part]:
                src = self._file(src_dir, view, suffix)
                if not os.path.exists(src):
                    continue
                dst = self._file(self.path, view, suffix)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                try:
                    os.link(src, dst)
                except OSError:
                    shutil.copy2(src, dst)
                self.linked += 1

    def write_sorted(
        self,
        view: View,
        order: Sequence[int],
        keys: np.ndarray,
        measure: np.ndarray,
        offsets: Sequence,
    ) -> dict:
        """Write one format-2 view: a sorted key/measure column pair."""
        self._write(view, ".keys.npy", keys)
        self._write(view, ".measure.npy", measure)
        return {
            "dims": list(view),
            "name": view_name(view),
            "rows": int(keys.shape[0]),
            "layout": "sorted",
            "order": list(order),
            "rank_offsets": [int(o) for o in offsets],
            "fence": FenceIndex.build(keys, self.stride).to_manifest(),
        }

    def write_hybrid(
        self,
        view: View,
        order: Sequence[int],
        layout: HybridLayout,
        offsets: Sequence,
        keep: Sequence[str] = (),
        src_dir: str | None = None,
    ) -> dict:
        """Write one format-3 view: sparse residue + dense blocks.

        The parts named in ``keep`` ("sparse", "dense") are unchanged
        since the store at ``src_dir`` and are linked from it instead.
        """
        if keep:
            self.link(src_dir, view, keep)
        if "sparse" not in keep:
            self._write(view, ".sparse.keys.npy", layout.sparse_keys)
            self._write(view, ".sparse.measure.npy", layout.sparse_measure)
        if "dense" not in keep:
            # Mask/values files are omitted when no block needs them.
            if layout.dense_values.size:
                self._write(view, ".dense.values.npy", layout.dense_values)
            if layout.dense_mask.size:
                self._write(view, ".dense.mask.npy", layout.dense_mask)
        return {
            "dims": list(view),
            "name": view_name(view),
            "rows": int(layout.nrows),
            "layout": "hybrid",
            "order": list(order),
            "rank_offsets": [int(o) for o in offsets],
            "capacity": int(layout.capacity),
            "sparse_rows": layout.n_sparse_rows,
            "dense": [
                [
                    int(layout.dense_blocks[i]),
                    int(layout.dense_rows[i]),
                    int(layout.dense_full[i]),
                    int(layout.sparse_before[i]),
                ]
                for i in range(layout.dense_blocks.shape[0])
            ],
            "fence": FenceIndex.build(
                layout.sparse_keys, self.stride
            ).to_manifest(),
        }

    def write_manifest(self, manifest: dict) -> None:
        with open(os.path.join(self.path, _MANIFEST), "w") as fh:
            json.dump(manifest, fh, indent=1)
        self.written += 1


class GenerationWriter(StoreWriter):
    """Stages the generation after ``src`` in a temp directory.

    Use as a context manager: :meth:`commit` publishes the staged
    generation; leaving the block with an exception removes the temp
    directory and leaves ``CURRENT`` untouched.
    """

    def __init__(self, src: "OpenCube"):
        self.root = src.root
        self.parent = src.generation
        self.generation = src.generation + 1
        self.base_manifest = src.manifest
        name = _gen_name(self.generation)
        #: Where :meth:`commit` publishes the generation.
        self.final_path = os.path.join(self.root, name)
        tmp = os.path.join(self.root, f".{name}.tmp-{os.getpid()}")
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        super().__init__(
            tmp, src.manifest.get("fence_stride") or DEFAULT_STRIDE
        )

    def __enter__(self) -> "GenerationWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            shutil.rmtree(self.path, ignore_errors=True)

    def commit(
        self, views: list[dict], delta_rows: int, gc: bool = False
    ) -> None:
        """Write the manifest, publish the directory, swap ``CURRENT``.

        ``gc=True`` then deletes superseded generations.
        """
        manifest = {
            k: v for k, v in self.base_manifest.items() if k != "views"
        }
        manifest["views"] = views
        manifest["generation"] = self.generation
        manifest["parent"] = self.parent
        manifest["refresh"] = {"delta_rows": int(delta_rows)}
        self.write_manifest(manifest)
        if os.path.exists(self.final_path):
            shutil.rmtree(self.final_path)  # orphan of a crashed refresh
        os.rename(self.path, self.final_path)
        CubeStore.set_current(self.root, self.generation)
        if gc:
            CubeStore.gc_generations(self.root)


class CubeStore:
    """Directory-backed cube persistence (formats 2 and 3)."""

    @staticmethod
    def save(
        cube: CubeResult,
        path: str,
        format: int = 2,
        fence_stride: int | None = None,
        reorder: ValueReorder | None = None,
        block_cells: int | None = None,
        density_threshold: float | None = None,
    ) -> str:
        """Write ``cube`` under ``path`` (created if needed).

        ``reorder`` records the attribute-value permutations the cube
        was built under; ``block_cells`` and ``density_threshold`` tune
        the format-3 hybrid layout.  Raises ``ValueError`` when a view's
        rank pieces are not one sorted column in rank order, or when
        ``path`` is a generational root (refresh those instead).
        """
        if format not in (2, 3):
            raise ValueError(f"unknown cube store format: {format!r}")
        if os.path.exists(os.path.join(path, _CURRENT)):
            raise ValueError(
                f"{path} holds store generations (CURRENT exists); a "
                "flat save there would never be served"
            )
        out = StoreWriter(path, fence_stride or DEFAULT_STRIDE)
        bc = int(block_cells or DEFAULT_BLOCK_CELLS)
        entries = []
        for view in cube.views:
            pieces = [rv[view] for rv in cube.rank_views]
            order = pieces[0].order
            keys = np.concatenate([piece.keys for piece in pieces])
            if any(piece.order != order for piece in pieces) or not (
                is_sorted_int64(keys)
            ):
                raise ValueError(
                    f"view {view_name(view)}: rank pieces in orders "
                    f"{[piece.order for piece in pieces]} do not "
                    "concatenate into one sorted column"
                )
            measure = np.concatenate([piece.measure for piece in pieces])
            offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
            np.cumsum([piece.nrows for piece in pieces], out=offsets[1:])
            if format == 2:
                entries.append(
                    out.write_sorted(view, order, keys, measure, offsets)
                )
            else:
                capacity = codec_for_order(order, cube.cardinalities).capacity
                layout = build_hybrid(
                    keys, measure, int(capacity),
                    block_cells=bc, threshold=density_threshold,
                )
                entries.append(out.write_hybrid(view, order, layout, offsets))
        manifest = {
            "format": int(format),
            "cardinalities": list(cube.cardinalities),
            "agg": cube.agg,
            "p": len(cube.rank_views),
            "fence_stride": out.stride,
        }
        if format == 3:
            manifest["block_cells"] = bc
            manifest["density_threshold"] = density_threshold
        manifest["views"] = entries
        if reorder is not None and not reorder.is_identity:
            manifest["reorder"] = reorder.to_manifest()
        out.write_manifest(manifest)
        return path

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _read_manifest(path: str) -> dict:
        manifest_path = os.path.join(path, _MANIFEST)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"no cube manifest at {manifest_path}")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("format") not in (2, 3):
            raise ValueError(
                f"unsupported cube store format: {manifest.get('format')!r}"
            )
        return manifest

    @staticmethod
    def load(path: str, generation: int | None = None) -> CubeResult:
        """Reopen a saved cube as a :class:`CubeResult`.

        The distributed layout (per-rank rows and orders) is exactly
        what was saved; format-2 pieces are zero-copy slices of the
        memory-mapped view columns.
        """
        return CubeStore.open(path, generation=generation).cube

    @staticmethod
    def open(path: str, generation: int | None = None) -> "OpenCube":
        """Open a store for serving: mmap-backed cube + sorted views.

        ``path`` may be a flat store or a generational root; by default
        the live generation (``CURRENT``, else the flat layout) is
        opened.  Pass ``generation`` to pin a specific snapshot.
        """
        gen_dir, gen = CubeStore.resolve(path, generation)
        manifest = CubeStore._read_manifest(gen_dir)
        cube = OpenCube(gen_dir, manifest)
        cube.root = path
        cube.generation = gen
        return cube

    @staticmethod
    def exists(path: str) -> bool:
        if os.path.exists(os.path.join(path, _MANIFEST)):
            return True
        try:
            gen_dir, _ = CubeStore.resolve(path)
        except FileNotFoundError:
            return False
        return os.path.exists(os.path.join(gen_dir, _MANIFEST))

    # -- generations -------------------------------------------------------

    @staticmethod
    def resolve(path: str, generation: int | None = None) -> tuple[str, int]:
        """Map a store root to the directory holding one generation.

        Returns ``(manifest_dir, generation)``.  Generation 0 is the
        flat root itself; generation N >= 1 lives in ``gen-NNNNNN``.
        With ``generation=None`` the live generation is chosen: the one
        named by ``CURRENT`` when the pointer file exists, else the
        flat layout (generation 0).
        """
        if generation is None:
            generation = CubeStore.current_generation(path)
        generation = int(generation)
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        gen_dir = (
            path if generation == 0 else os.path.join(path, _gen_name(generation))
        )
        return gen_dir, generation

    @staticmethod
    def current_generation(path: str) -> int:
        """The live generation of a store root (0 for a flat store)."""
        current = os.path.join(path, _CURRENT)
        try:
            with open(current) as fh:
                name = fh.read().strip()
        except FileNotFoundError:
            return 0
        if not name.startswith(_GEN_PREFIX):
            raise ValueError(f"malformed CURRENT pointer at {current}: {name!r}")
        return int(name[len(_GEN_PREFIX):])

    @staticmethod
    def set_current(path: str, generation: int) -> None:
        """Atomically point ``CURRENT`` at ``generation``.

        Written to a temp file, fsynced, then ``os.replace``d — a
        concurrent reader sees either the old pointer or the new one,
        never a torn write.
        """
        generation = int(generation)
        if generation < 1:
            raise ValueError(
                f"CURRENT can only name generation >= 1, got {generation}"
            )
        target = os.path.join(path, _CURRENT)
        tmp = target + f".tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(_gen_name(generation) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    @staticmethod
    def generations(path: str) -> list[int]:
        """All generations present under a store root, ascending.

        Includes 0 when the flat layout exists and every complete
        ``gen-NNNNNN`` directory (one with a manifest inside).
        """
        gens = []
        if os.path.exists(os.path.join(path, _MANIFEST)):
            gens.append(0)
        try:
            names = os.listdir(path)
        except FileNotFoundError:
            return gens
        for name in names:
            if not name.startswith(_GEN_PREFIX):
                continue
            suffix = name[len(_GEN_PREFIX):]
            if not suffix.isdigit():
                continue  # temp dirs of an in-flight refresh
            if os.path.exists(os.path.join(path, name, _MANIFEST)):
                gens.append(int(suffix))
        return sorted(gens)

    @staticmethod
    def gc_generations(
        path: str, keep: Sequence[int] = ()
    ) -> list[int]:
        """Delete superseded generation directories under ``path``.

        Removes every generation strictly below the current one except
        generation 0 (the flat seed layout is never touched) and any
        listed in ``keep`` (e.g. generations a reader still has pinned).
        Never removes generations >= current — a concurrent refresh may
        have created its directory but not yet swapped ``CURRENT``.
        Readers that already mmap'd a removed generation keep working:
        POSIX keeps the inodes alive until their maps close.

        Returns the generations removed, ascending.
        """
        current = CubeStore.current_generation(path)
        protected = {0, current, *(int(g) for g in keep)}
        removed = []
        for gen in CubeStore.generations(path):
            if gen >= current or gen in protected:
                continue
            shutil.rmtree(
                os.path.join(path, _gen_name(gen)), ignore_errors=True
            )
            removed.append(gen)
        return removed




class OpenCube:
    """A read-only handle on one stored cube.

    * :attr:`cube` — the faithful distributed :class:`CubeResult`,
      backed by the memory-mapped view columns.
    * :attr:`sorted_views` — per-view serving handles:
      :class:`SortedView` for format-2 ``sorted`` views,
      :class:`~repro.olap.hybrid.HybridView` for format-3 ``hybrid``
      views.
    * :attr:`reorder` — the attribute-value permutations the cube was
      built under, or ``None`` (original labels).
    * :attr:`meter` — mmap read accounting shared by every column.

    Handles are safe to open in many processes at once: each worker of
    the query service opens its own and the OS page cache shares the
    underlying bytes.
    """

    def __init__(self, path: str, manifest: dict):
        self.path = path
        #: Store root and pinned snapshot (set by :meth:`CubeStore.open`;
        #: a directly-constructed handle is its own root at generation 0).
        self.root = path
        self.generation = 0
        self.manifest = manifest
        self.format = int(manifest["format"])
        self.cardinalities = tuple(
            int(c) for c in manifest["cardinalities"]
        )
        self.agg = manifest.get("agg", "sum")
        self.p = int(manifest["p"])
        self.block_cells = int(
            manifest.get("block_cells") or DEFAULT_BLOCK_CELLS
        )
        self.reorder = (
            ValueReorder.from_manifest(manifest["reorder"])
            if "reorder" in manifest
            else None
        )
        self.meter = MmapMeter()
        self._cube: CubeResult | None = None
        self._sorted: dict[View, SortedView | HybridView] | None = None

    # -- sorted serving views ---------------------------------------------

    def _column(self, view: View, suffix: str, dtype=None):
        """One mmap'd view column; with ``dtype``, an empty array of
        that type when the file was omitted."""
        path = StoreWriter._file(self.path, view, suffix)
        if dtype is not None and not os.path.exists(path):
            return np.empty(0, dtype=dtype)
        return MappedColumn(path, self.meter)

    def _hybrid_view(self, entry: dict, view: View) -> HybridView:
        dense = entry.get("dense") or []
        cols = np.asarray(dense, dtype=np.int64).reshape(len(dense), 4)
        # Mask/values files are omitted when no block needs them.
        values = self._column(view, ".dense.values.npy", np.float64)
        mask = self._column(view, ".dense.mask.npy", np.uint8)
        return HybridView(
            tuple(entry["order"]),
            block_cells=self.block_cells,
            capacity=int(entry["capacity"]),
            nrows=int(entry["rows"]),
            blocks=cols[:, 0],
            rows=cols[:, 1],
            full=cols[:, 2].astype(bool),
            sparse_before=cols[:, 3],
            values=values,
            mask=mask,
            sparse_keys=self._column(view, ".sparse.keys.npy"),
            sparse_measure=self._column(view, ".sparse.measure.npy"),
            fence=FenceIndex.from_manifest(entry["fence"]),
        )

    @property
    def sorted_views(self) -> dict[View, SortedView | HybridView]:
        if self._sorted is None:
            views: dict[View, SortedView | HybridView] = {}
            for entry in self.manifest["views"]:
                layout = entry.get("layout")
                view = canonical_view(entry["dims"])
                if layout == "sorted":
                    views[view] = SortedView(
                        tuple(entry["order"]),
                        self._column(view, ".keys.npy"),
                        self._column(view, ".measure.npy"),
                        FenceIndex.from_manifest(entry["fence"]),
                    )
                elif layout == "hybrid":
                    views[view] = self._hybrid_view(entry, view)
                else:
                    raise ValueError(
                        f"view {entry['name']}: unsupported layout "
                        f"{layout!r}"
                    )
            self._sorted = views
        return self._sorted

    def view_index(self, view: View) -> FenceIndex | None:
        """The manifest-persisted fence index of one view (for a hybrid
        view it covers the sparse residue), or ``None`` when the store
        does not hold ``view``."""
        sv = self.sorted_views.get(canonical_view(view))
        return sv.fence if sv is not None else None

    # -- the distributed cube ---------------------------------------------

    @property
    def cube(self) -> CubeResult:
        if self._cube is None:
            self._cube = self._load()
        return self._cube

    def _load(self) -> CubeResult:
        manifest = self.manifest
        rank_views: list[dict[View, ViewData]] = [
            dict() for _ in range(self.p)
        ]
        total_rows = 0
        for entry in manifest["views"]:
            view = canonical_view(entry["dims"])
            total_rows += int(entry["rows"])
            sv = self.sorted_views[view]
            if isinstance(sv, SortedView):
                # Slices of the shared mapping: no copy.
                keys, measure = sv._keys.array, sv._measure.array
            else:
                keys, measure = sv.read(0, sv.nrows)
            offsets = entry["rank_offsets"]
            order = tuple(entry["order"])
            for rank in range(self.p):
                lo, hi = int(offsets[rank]), int(offsets[rank + 1])
                rank_views[rank][view] = ViewData(
                    order, keys[lo:hi], measure[lo:hi]
                )
        return CubeResult(
            rank_views=rank_views,
            cardinalities=self.cardinalities,
            metrics=_zero_metrics(total_rows, len(manifest["views"])),
            agg=self.agg,
        )

    # -- convenience -------------------------------------------------------

    def query_engine(self, index: bool = True):
        """A query engine over this store, index-accelerated unless
        ``index=False``.

        When the manifest records an attribute-value reorder the engine
        is wrapped in a :class:`~repro.olap.query.ReorderedQueryEngine`,
        so callers always query in original attribute values no matter
        how the store is labelled.
        """
        from repro.olap.query import QueryEngine, ReorderedQueryEngine

        engine = QueryEngine(
            self.cube, sorted_views=self.sorted_views, index=index
        )
        if self.reorder is not None and not self.reorder.is_identity:
            return ReorderedQueryEngine(engine, self.reorder)
        return engine
