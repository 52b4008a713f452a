"""Seeded inputs: relations, deltas and query streams, from numpy alone.

Nothing here calls ``repro.data`` or ``repro.olap.servebench``, so no
change under ``src/`` can shift a workload.  Every measure is an
integer-valued float, which makes every sum exact in float64 whatever
order it is taken in; answers can then be compared bit for bit with an
independent numpy group-by.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: The paper's P8 cardinality vector (mix B).
P8 = (256, 128, 64, 32, 16, 8, 6, 6)

#: Timed streams only use HAVING floors >= 0; the warm-up set uses
#: negative floors (which keep every group, as measures are >= 1), so its
#: queries are disjoint from every timed stream and from each other.
def warm_having(copy: int) -> tuple[str, float]:
    return (">=", -1.0 - copy)


@dataclass(frozen=True)
class Table:
    """A raw relation as plain arrays (dims ``(n, d)`` int64, measure)."""

    dims: np.ndarray
    measure: np.ndarray

    @property
    def nrows(self) -> int:
        return int(self.dims.shape[0])

    def concat(self, other: "Table") -> "Table":
        return Table(
            np.concatenate([self.dims, other.dims]),
            np.concatenate([self.measure, other.measure]),
        )


def zipf_codes(
    card: int, alpha: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` codes in ``[0, card)`` with ``P(k) ∝ (k + 1) ** -alpha``."""
    if alpha == 0.0:
        return rng.integers(0, card, size=n, dtype=np.int64)
    weights = np.arange(1, card + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights / weights.sum())
    codes = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(codes, card - 1).astype(np.int64)


def relation(
    rng: np.random.Generator,
    n: int,
    cards: tuple[int, ...],
    alphas: tuple[float, ...],
) -> Table:
    """Independent per-dimension Zipf columns, measures in ``1..100``."""
    dims = np.empty((n, len(cards)), dtype=np.int64)
    for col, (card, alpha) in enumerate(zip(cards, alphas)):
        dims[:, col] = zipf_codes(card, alpha, n, rng)
    measure = rng.integers(1, 101, size=n).astype(np.float64)
    return Table(dims, measure)


def delta_like(
    rng: np.random.Generator,
    base: Table,
    rows: int,
    cards: tuple[int, ...],
    col: int,
) -> Table:
    """An insert-only delta drawn from the base's own value distribution
    (resampled rows, with fresh measures), with column ``col`` re-drawn
    uniformly so the delta also adds new keys."""
    pick = rng.integers(0, base.nrows, size=rows)
    dims = base.dims[pick].copy()
    dims[:, col] = rng.integers(0, cards[col], size=rows)
    measure = rng.integers(1, 101, size=rows).astype(np.float64)
    return Table(dims, measure)


# -- query streams ----------------------------------------------------------
#
# A query is a plain tuple ``(kind, group_by, filters, having)`` here;
# the workload turns it into a ``repro.olap.query.Query``.  Keeping the
# generator free of repro types keeps it free of repro behaviour.


def _point(rng, table: Table, dims: int):
    row = table.dims[int(rng.integers(0, table.nrows)), :dims]
    filters = tuple((d, int(v), int(v)) for d, v in enumerate(row))
    return ("point", (), filters, None)


def cheap_groups(dims: int) -> list[tuple[int, ...]]:
    """Group-bys a stored view answers directly: the single dimensions
    and the adjacent pairs."""
    return [(a,) for a in range(dims)] + [(a, a + 1) for a in range(dims - 1)]


def heavy_groups(dims: int) -> list[tuple[int, ...]]:
    """The other pairs: only the largest stored view covers them."""
    return [(a, b) for a in range(dims) for b in range(a + 2, dims)]


def _rollup(rng, dims: int, floors: tuple[float | None, ...]):
    groups = cheap_groups(dims)
    group = groups[int(rng.integers(0, len(groups)))]
    floor = floors[int(rng.integers(0, len(floors)))]
    having = None if floor is None else (">=", float(floor))
    return ("rollup", group, (), having)


def _slice(rng, cards: tuple[int, ...], dims: int):
    lo = int(rng.integers(0, cards[0] - 1))
    hi = int(rng.integers(lo, min(lo + cards[0] // 4, cards[0])))
    gdim = int(rng.integers(1, dims))
    return ("slice", (gdim,), ((0, lo, hi),), None)


def query_universe(
    rng: np.random.Generator,
    table: Table,
    cards: tuple[int, ...],
    dims: int,
    sizes: dict[str, int],
    rollup_floors: tuple[float | None, ...],
) -> dict[str, list[tuple]]:
    """Distinct candidate queries per kind, in popularity-rank order.

    Points pick an existing row, so they hit; rollups group by one of
    :func:`cheap_groups`, unfiltered, with an optional HAVING floor;
    slices range-filter the leading dimension and group by one other.
    """
    out: dict[str, list[tuple]] = {}
    makers = {
        "point": lambda: _point(rng, table, dims),
        "rollup": lambda: _rollup(rng, dims, rollup_floors),
        "slice": lambda: _slice(rng, cards, dims),
    }
    for kind, size in sizes.items():
        seen: dict[tuple, None] = {}
        for _ in range(size * 20):
            if len(seen) >= size:
                break
            seen.setdefault(makers[kind](), None)
        out[kind] = list(seen)
    return out


#: Queries per stream round, and the base-view rollups sent back to back
#: in each (see :func:`stream`).
ROUND_LEN = 100
HEAVY_PER_ROUND = 2


def stream(
    rng: np.random.Generator,
    universe: dict[str, list[tuple]],
    mix: dict[str, float],
    n: int,
    dims: int,
    s: float,
) -> list[tuple]:
    """``n`` queries in rounds of :data:`ROUND_LEN`.

    Each round holds the kinds in exact ``mix`` proportions, in shuffled
    order, and each query is a Zipf(``s``)-ranked pick from its kind's
    universe, so popular queries repeat (``s=0`` picks uniformly).  When
    the mix has rollups, :data:`HEAVY_PER_ROUND` of a round's rollups group
    by one of :func:`heavy_groups` and are sent back to back in the middle
    of the round, each with a HAVING floor no other query uses, so each
    one runs: with two workers, a pair holds the whole pool for one
    base-view scan, and what arrives meanwhile queues behind it.  Pairs
    a whole round apart never stack their scans, which keeps that
    head-of-line blocking the same from seed to seed.
    """
    kinds = [k for k in mix if mix[k] > 0]
    counts = {k: int(round(mix[k] * ROUND_LEN)) for k in kinds}
    heavy = 0
    if counts.get("rollup", 0) >= HEAVY_PER_ROUND:
        heavy = HEAVY_PER_ROUND
    if "rollup" in counts:
        counts["rollup"] -= heavy
    cdfs = {}
    for kind in kinds:
        w = np.arange(1, len(universe[kind]) + 1, dtype=np.float64) ** -s
        cdfs[kind] = np.cumsum(w / w.sum())
    heavy_pool = heavy_groups(dims)
    out: list[tuple] = []
    serial = 0
    while len(out) < n:
        slots = [k for k in kinds for _ in range(counts[k])]
        slots = [slots[int(i)] for i in rng.permutation(len(slots))]
        picks = []
        for kind in slots:
            pool = universe[kind]
            rank = int(np.searchsorted(cdfs[kind], rng.random(), side="right"))
            picks.append(pool[min(rank, len(pool) - 1)])
        if heavy:
            at = len(picks) // 2
            pair = []
            for _ in range(heavy):
                group = heavy_pool[int(rng.integers(0, len(heavy_pool)))]
                pair.append(("rollup", group, (), (">=", 0.5 + serial)))
                serial += 1
            picks[at:at] = pair
        out.extend(picks)
    return out[:n]


def warm_set(dims: int, views: list[tuple[int, ...]], cards, copies: int):
    """Warm-up queries disjoint from every timed stream: a full rollup of
    each stored view (touching every mapped page) plus one point and one
    slice per copy, each under its own :func:`warm_having` floor."""
    out = []
    for c in range(copies):
        having = warm_having(c)
        for view in views:
            out.append(("rollup", tuple(view), (), having))
        out.append(
            ("point", (), tuple((d, c % cards[d], c % cards[d])
                                for d in range(dims)), having)
        )
        out.append(("slice", (1,), ((0, 0, c % cards[0]),), having))
    return out


def digest(*parts) -> str:
    """A short SHA-256 over arrays and plain values, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, Table):
            h.update(np.ascontiguousarray(part.dims).tobytes())
            h.update(np.ascontiguousarray(part.measure).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]
