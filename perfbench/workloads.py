"""The three workloads and the one lifecycle they share.

Every workload walks the path a user of this system walks: generate the
relation, build the cube, save it as a store, serve a query stream from
a ``QueryService`` pool, and refresh the store with insert-only deltas.
What differs is which step the run's measured seconds go to
(``Workload.focus``) and the shape of the data, the build and the
stream.  See README.md for
why each workload exists and which layer each one exercises.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

import numpy as np

from perfbench import build, inputs, serve, spans
from perfbench.common import SERVE_VIEWS, Run, median, to_relation
from perfbench.inputs import P8

#: Distinct candidate queries per kind, per query in the stream.  With
#: Zipf(:data:`ZIPF_S`) popularity this keeps the cache hit rate near 40%
#: whatever the stream length, so the median query is one that runs.
UNIVERSE_PER_QUERY = {"point": 4.0, "rollup": 1 / 8, "slice": 1.0}
ZIPF_S = 0.8
#: Set-ups per run (the median of their times is ``setup_s``; the
#: counters of their builds must agree exactly).
SETUP_REPEATS = 7
#: Capacity passes, and the queries in each pass's own list (three
#: whole stream rounds, so every list holds the same kinds and heavy
#: pairs).
CAPACITY_PASSES = 5
CAPACITY_QUERIES = 300
#: Queries the build workloads replay against the cube they built, in a
#: closed loop (enough for 20 points beyond the point p99).
CLOSED_LOOP_QUERIES = 4000


#: The kind mix of every stream.
MIX = {"point": 0.5, "rollup": 0.3, "slice": 0.2}
#: Refreshes after the stream, each with a delta of this share of rows.
REFRESHES = 16
DELTA_SHARE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cards: tuple[int, ...]
    alphas: tuple[float, ...]
    p: int
    backend: str
    checkpoint: bool
    full_cube: bool
    rate_qps: float | None  # open-loop rate; None: a closed loop instead

    @property
    def focus(self) -> str:
        """What fills the run's seconds: repeated builds, or (with an
        open-loop rate) the stream."""
        return "build" if self.rate_qps is None else "serve"


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="build-uniform",
            rows=200_000, cards=P8, alphas=(0.0,) * 8,
            p=4, backend="thread", checkpoint=False, full_cube=True,
            rate_qps=None,
        ),
        Workload(
            name="build-skewed-proc",
            rows=200_000, cards=P8, alphas=(3.0,) + (0.0,) * 7,
            p=2, backend="process", checkpoint=True, full_cube=True,
            rate_qps=None,
        ),
        Workload(
            name="serve-mixed",
            rows=1_200_000, cards=(128, 64, 32, 16), alphas=(0.0,) * 4,
            p=4, backend="thread", checkpoint=False, full_cube=False,
            rate_qps=175.0,
        ),
    ]
}


class Inputs:
    """All seeded inputs of one run (regenerated identically on demand)."""

    def __init__(self, w: Workload, seed: int, n_queries: int):
        self.w = w
        self.seed = seed
        self.n_queries = n_queries
        seq = np.random.SeedSequence([seed, len(w.name)] + list(
            w.name.encode()))
        (self._data_seq, q_seq, d_seq, c_seq, s_seq) = seq.spawn(5)
        self.table = self.make_table()
        dims = 4
        self.qcards = w.cards[:dims]
        sizes = {k: max(int(v * n_queries), 1)
                 for k, v in UNIVERSE_PER_QUERY.items()}
        # HAVING floors keep (nearly) every group; they make rollups of
        # one view distinct queries, so the cache absorbs only the popular.
        groups = len(inputs.cheap_groups(dims))
        floors = (None,) + tuple(
            float(x) for x in range(-(-sizes["rollup"] // groups)))
        universe = inputs.query_universe(
            np.random.default_rng(q_seq), self.table, w.cards, dims,
            sizes, floors,
        )
        self._stream_seq = q_seq.spawn(1)[0]
        self.universe = universe
        # Delta i re-draws column i mod d: which column a delta re-draws
        # sets how many new keys it adds, so no seed gets a cheaper set.
        drng = np.random.default_rng(d_seq)
        self.deltas = [
            inputs.delta_like(
                drng, self.table, int(w.rows * DELTA_SHARE), w.cards,
                i % len(w.cards),
            )
            for i in range(REFRESHES)
        ]
        self._capacity_seq = c_seq
        self.sample_rng = np.random.default_rng(s_seq)

    def make_table(self) -> inputs.Table:
        w = self.w
        return inputs.relation(
            np.random.default_rng(self._data_seq), w.rows, w.cards,
            w.alphas,
        )

    def stream(self) -> list[tuple]:
        rng = np.random.default_rng(self._stream_seq)
        return inputs.stream(
            rng, self.universe, MIX, self.n_queries, 4, ZIPF_S)

    def capacity_lists(self) -> list[list[tuple]]:
        """One list per capacity pass, with the stream's mix and heavy
        pairs, picked uniformly (the pool measured has no cache, so
        repeats would not matter).  A list of its own per pass averages
        out which slice widths and heavy groups a seed happens to draw;
        the median pass resists a slow moment of the host."""
        listed = inputs.stream(
            np.random.default_rng(self._capacity_seq), self.universe,
            MIX, CAPACITY_PASSES * CAPACITY_QUERIES, 4, s=0.0,
        )
        return [listed[k:k + CAPACITY_QUERIES]
                for k in range(0, len(listed), CAPACITY_QUERIES)]


def execute(run: Run) -> None:
    w = run.workload
    if w.rate_qps is None:
        n_queries = CLOSED_LOOP_QUERIES
    else:
        n_queries = max(int(w.rate_qps * run.seconds), 1)
    inp = Inputs(w, run.seed, n_queries)
    stream = inp.stream()
    run.digest = inputs.digest(inp.table, *inp.deltas, inp.universe, stream)
    store = os.path.join(run.workdir, "store")
    with contextlib.ExitStack() as stack:
        pool = []  # the live QueryService, closed on the way out
        stack.callback(lambda: pool and pool.pop().close())
        setup_builds = set_up(run, inp, store, pool)
        if w.focus == "build":
            cube = build.build_phase(run, inp, to_relation(inp.table))
            run.mark("builds")
            build.check_cube(run, inp, cube, inp.table)
            run.mark("build checks")
            # Fork the pool only once the full cube is gone.
            del cube
            serve.release_heap()
            pool.append(serve.start_service(store)[0])
        else:
            cubes = [c for c, _ in setup_builds]
            run.metrics["build_host_s"] = median(s for _, s in setup_builds)
            build.record_build_layers(run, cubes, [])
            if run.tracer is not None:
                build.layer_from_spans(run, run.tracer, None)
            build.check_cube(run, inp, cubes[-1], inp.table)
            del cubes, setup_builds
            run.mark("build checks")
        run.metrics["store_bytes_per_row"] = serve.store_bytes_per_row(store)
        run.layer["olap.store.open_s"] = serve.open_seconds(store)
        serve.serve_phase(run, inp, store, pool[0], stream)
        pool.pop().close()
    serve.capacity(run, inp, store)
    run.mark("capacity")


def set_up(run: Run, inp: Inputs, store: str, pool: list):
    """Repeat the set-up :data:`SETUP_REPEATS` times; ``setup_s`` is the
    median.  A set-up is everything a run does before it measures: data
    generation, the build (for a serve workload; a build workload times
    its builds after this), saving the store and starting the pool.  A
    serve workload's set-up builds are its timed builds, and it keeps the
    last pool running in ``pool``; a build workload stops its pools, so
    none runs beside its timed builds.  Returns [(cube, build seconds)]
    for a serve workload, else []."""
    w = run.workload
    serving = w.focus == "serve"
    # One untimed build first: lazy imports and the sort kernels'
    # calibration are paid once per process, not per set-up.  A build
    # workload saves the serve views of this cube in each set-up.
    cube = build.warm_up(run, inp, to_relation(inp.table))
    stored = None if serving else build.subset_cube(cube, SERVE_VIEWS)
    del cube
    serve.release_heap()
    # A traced serve run attributes its set-up builds' layers.
    if serving and run.trace:
        run.tracer = spans.Tracer()
    setup, save_s, start_s, setup_builds = [], [], [], []
    for rep in range(SETUP_REPEATS):
        if pool:
            pool.pop().close()
        t0 = time.perf_counter()
        inp.table = inp.make_table()
        if serving:
            with contextlib.ExitStack() as stack:
                if run.tracer is not None:
                    run.tracer.epoch = rep
                    stack.enter_context(spans.instrument(run.tracer))
                stored, secs = build.build_once(
                    run, inp, to_relation(inp.table))
            setup_builds.append((stored, secs))
        save_s.append(serve.save_store(run, stored, store))
        service, secs = serve.start_service(store)
        start_s.append(secs)
        pool.append(service)
        setup.append(time.perf_counter() - t0)
    if not serving:
        pool.pop().close()
    run.metrics["setup_s"] = median(setup)
    run.notes.append(f"set-up s {[round(x, 3) for x in setup]}, build s "
                     f"{[round(b, 3) for _, b in setup_builds]}")
    run.layer["olap.store.save_s"] = median(save_s)
    run.layer["olap.service.start_s"] = median(start_s)
    run.mark("setup")
    return setup_builds
