"""The serve phase: store, pool, stream, refreshes, capacity, checks."""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import time
from typing import TYPE_CHECKING

from perfbench import inputs, oracle
from perfbench.common import (
    SERVE_VIEWS, Run, dir_bytes, median, pct, to_query, to_relation,
)
from perfbench.driver import OpenLoop, OpenLoopReport, closed_loop

if TYPE_CHECKING:
    from perfbench.workloads import Inputs

#: Each capacity pass cycles its list, in whole cycles, for at least
#: this long.
CAPACITY_PASS_S = 0.75
#: Callers in the build workloads' closed loop (two per worker).
CLOSED_LOOP_CALLERS = 4
#: Probe cadence while waiting for a refresh to become visible, and how
#: long it may take.
PROBE_EVERY_S = 0.005
VISIBLE_WITHIN_S = 30.0
#: How often workers re-read ``CURRENT`` (the service default is 0.25 s).
#: The pool's workers start together and poll in step, so at the default
#: ``freshness_ms`` locks onto that timer's phase, which differs from run
#: to run (~160 ms in one run, ~250 ms in the next, same seed).  At 50 ms
#: it measures the refresh and the rotation; it does not see the default.
CURRENT_POLL_S = 0.05


def save_store(run: Run, cube, path: str) -> float:
    """Seconds to save ``cube`` as a format-2 store at ``path``."""
    from repro.olap.store import CubeStore

    shutil.rmtree(path, ignore_errors=True)
    t0 = time.perf_counter()
    CubeStore.save(cube, path, format=2)
    return time.perf_counter() - t0


def store_bytes_per_row(path: str) -> float:
    from repro.olap.store import CubeStore

    gen_dir, _ = CubeStore.resolve(path)
    manifest = CubeStore._read_manifest(gen_dir)
    rows = sum(int(e["rows"]) for e in manifest["views"])
    nbytes = 0
    for root, dirs, files in os.walk(gen_dir):
        dirs[:] = [d for d in dirs if not d.startswith("gen-")]
        for name in files:
            nbytes += os.stat(os.path.join(root, name)).st_size
    return nbytes / max(rows, 1)


def open_seconds(store: str) -> float:
    """Wall seconds to open a store and build its query engine."""
    from repro.olap.store import CubeStore

    t0 = time.perf_counter()
    CubeStore.open(store).query_engine()
    return time.perf_counter() - t0


def release_heap() -> None:
    """Collect garbage and hand freed heap back to the OS, so the forked
    pool does not inherit the build's peak.  (glibc only; else a no-op.)"""
    gc.collect()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def start_service(path: str, cache: bool = True):
    """Pool start: until every worker has opened the store;
    ``cache=False`` turns the result cache off."""
    from repro.olap.service import QueryService
    from repro.olap.supervise import ServicePolicy

    policy = ServicePolicy(
        deadline_s=10.0, current_poll_interval=CURRENT_POLL_S)
    kwargs = {} if cache else {"byte_budget": None}
    t0 = time.perf_counter()
    service = QueryService(path, workers=2, policy=policy, **kwargs)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if min(service.stats()["worker_store_generations"]) >= 0:
            break
        service.poll()
        time.sleep(0.001)
    return service, time.perf_counter() - t0


def warm(service, inp: Inputs) -> None:
    """Fork-warm both workers and fault in every stored view's pages."""
    queries = [to_query(q) for q in inputs.warm_set(
        4, SERVE_VIEWS, inp.qcards, copies=2)]
    service.answer_many(queries, timeout=60.0)


# -- serving -----------------------------------------------------------------


def serve_phase(run: Run, inp: Inputs, store: str, service,
                stream: list[tuple]) -> None:
    """Warm, drive the stream (open loop at the workload's rate, else a
    closed loop) and check every answer; then refresh the store and
    check what the refreshes left."""
    w = run.workload
    warm(service, inp)
    queries = [to_query(q) for q in stream]
    run.mark("warm-up")
    if w.rate_qps is not None:
        report = OpenLoop(service, queries, w.rate_qps).run()
    else:
        # The build workloads check that the cube they built serves:
        # callers that each wait for their reply, two per worker, so a
        # query can queue behind another caller's base-view scan.
        elapsed, outcomes = closed_loop(
            service, queries, CLOSED_LOOP_CALLERS)
        report = OpenLoopReport(outcomes, [], CLOSED_LOOP_CALLERS, elapsed)
    run.mark("stream")
    score_stream(run, inp, store, service.stats(), stream, report)
    run.mark("answer checks")
    refresh_phase(run, inp, store, service)
    run.mark("refreshes")
    check_refreshed(run, inp, store)
    run.mark("refresh check")


def score_stream(run: Run, inp: Inputs, store: str, stats: dict,
                 stream: list[tuple], report: OpenLoopReport) -> None:
    """Untimed: every served answer against the inline answer of the
    (still unrefreshed) store, latencies, and the pool's counters."""
    outcomes = report.outcomes
    if not report.valid:
        run.fail(
            f"generator fell behind: {report.late_share:.1%} of sends "
            f"later than 50 ms, max {max(report.lateness) * 1e3:.0f} ms"
        )
    inline = InlineAnswers(store)
    ok_lat, point_lat, overhead = [], [], []
    correct = 0
    for out in outcomes:
        if out.status != "ok":
            continue
        q = stream[out.index]
        if not inline.matches(q, out.result):
            run.fail(f"served answer differs from inline: {q}")
            continue
        correct += 1
        lat = (out.done - out.scheduled) * 1e3
        ok_lat.append(lat)
        if q[0] == "point":
            point_lat.append(lat)
        if not out.hit:
            overhead.append((out.done - out.sent) * 1e3
                            - inline.answer_ms(q))
    attempted = len(outcomes)
    run.attempted += attempted
    run.failed += attempted - correct
    m = run.metrics
    m["query_p50_ms"] = pct(ok_lat, 50)
    m["query_p99_ms"] = pct(ok_lat, 99)
    m["point_p99_ms"] = pct(point_lat, 99)
    m["availability"] = correct / max(attempted, 1)
    run.notes.append(
        f"stream {attempted} queries in {report.elapsed_s:.1f}s, "
        f"late>{50}ms {report.late_share:.2%}, max lateness "
        f"{max(report.lateness, default=0) * 1e3:.1f} ms, "
        f"statuses {count_statuses(outcomes)}"
    )

    layer = run.layer
    cache = stats.get("cache", {})
    layer["olap.service.outstanding_max"] = report.outstanding_max
    layer["olap.service.executed_per_submitted"] = (
        stats["executed"] / max(stats["submitted"], 1))
    layer["olap.service.retries"] = stats["retries"]
    layer["olap.service.shed"] = stats["shed"]
    layer["olap.service.timeouts"] = stats["timeouts"]
    layer["olap.cache.hit_rate"] = float(cache.get("hit_rate", 0.0))
    layer["olap.cache.evictions"] = int(cache.get("evictions", 0))
    layer["olap.service.overhead_ms.p50"] = pct(overhead, 50)
    layer["olap.service.overhead_ms.p99"] = pct(overhead, 99)
    layer["olap.driver.lateness_ms.max"] = (
        max(report.lateness, default=0.0) * 1e3)
    inline.replay_metrics(run, stream)
    inline.check_oracle(run, inp, stream)


def count_statuses(outcomes) -> dict:
    out: dict[str, int] = {}
    for o in outcomes:
        out[o.status] = out.get(o.status, 0) + 1
    return out


# -- refreshes ---------------------------------------------------------------


def refresh_phase(run: Run, inp: Inputs, store: str, service) -> None:
    """Apply each delta with ``refresh_store`` in this process, the pool
    idle, and watch the pool pick up each new generation: rotation (every
    worker on it) and freshness (a served probe reflects it)."""
    from repro.olap.refresh import refresh_store

    probe = to_query(("rollup", (), (), None))
    total = float(inp.table.measure.sum())
    reports, refresh_s, fresh_ms, rotation_ms, written = [], [], [], [], []
    for delta in inp.deltas:
        before, total = total, total + float(delta.measure.sum())
        called = time.monotonic()
        report = refresh_store(store, to_relation(delta))
        published = time.monotonic()
        refresh_s.append(published - called)
        reports.append(report)
        # Before the pool can collect the parent generation: files still
        # hard-linked to it are the ones this refresh reused.
        written.append(dir_bytes(report.path, only_unlinked=True))
        # What a refresher beside the coordinator does: the coordinator
        # picks the generation up now; the workers on their own timer.
        service.check_generation()
        fresh = rotated = None
        deadline = published + VISIBLE_WITHIN_S
        while fresh is None or rotated is None:
            now = time.monotonic()
            if now > deadline:
                run.fail(f"refresh to generation {report.generation} not "
                         f"visible within {VISIBLE_WITHIN_S:.0f} s")
                break
            if rotated is None and min(
                service.stats()["worker_store_generations"]
            ) >= report.generation:
                rotated = now - published
            if fresh is None:
                try:
                    got = float(service.answer(probe, timeout=10.0)
                                .measure.sum())
                except Exception as exc:  # noqa: BLE001 - a failed probe
                    run.fail(f"probe failed: {type(exc).__name__}: {exc}")
                    break
                if got == total:
                    fresh = time.monotonic() - called
                elif got != before:
                    run.fail(f"probe total {got} is neither {before} nor "
                             f"{total}")
                    break
            time.sleep(PROBE_EVERY_S)
        fresh_ms.append((fresh or 0.0) * 1e3)
        rotation_ms.append((rotated or 0.0) * 1e3)
    run.attempted += len(reports)
    run.metrics["refresh_s"] = median(refresh_s)
    run.metrics["freshness_ms"] = median(fresh_ms)
    run.notes.append(
        f"refresh s {[round(x, 3) for x in refresh_s]}, freshness ms "
        f"{[round(x) for x in fresh_ms]}")
    run.exact["refresh_views_merged"] = [r.views_merged for r in reports]
    run.exact["refresh_files_linked"] = [r.files_linked for r in reports]

    layer = run.layer
    layer["olap.service.rotation_ms"] = median(rotation_ms)
    layer["olap.refresh.delta_build_s"] = median(
        r.delta_build_seconds for r in reports)
    layer["olap.refresh.merge_s"] = median(r.merge_seconds for r in reports)
    delta_bytes = sum(d.dims.nbytes + d.measure.nbytes for d in inp.deltas)
    layer["olap.refresh.bytes_written_per_delta_byte"] = (
        sum(written) / max(delta_bytes, 1))
    layer["olap.refresh.views_merged"] = sum(r.views_merged for r in reports)
    layer["olap.refresh.files_linked"] = sum(r.files_linked for r in reports)


class InlineAnswers:
    """Inline ``QueryEngine`` answers from the store's current
    generation, computed once per query, with their explain/answer times
    and mmap meter deltas."""

    def __init__(self, store: str):
        from repro.olap.store import CubeStore

        self.handle = CubeStore.open(store)
        self.engine = self.handle.query_engine()
        self._answers = {}
        self._times = {}

    def answer(self, q):
        if q not in self._answers:
            query = to_query(q)
            before = self.handle.meter.snapshot()["rows_touched"]
            t0 = time.perf_counter()
            plan = self.engine.explain(query)
            t1 = time.perf_counter()
            result = self.engine.answer(query)
            t2 = time.perf_counter()
            touched = self.handle.meter.snapshot()["rows_touched"] - before
            self._answers[q] = result
            self._times[q] = ((t1 - t0) * 1e3, (t2 - t1) * 1e3,
                              plan.access_path, touched,
                              result.dims.shape[0])
        return self._answers[q]

    def answer_ms(self, q) -> float:
        self.answer(q)
        return self._times[q][1]

    def matches(self, q, served) -> bool:
        want = self.answer(q)
        return oracle.same(served.dims, served.measure, want.dims,
                           want.measure)

    def replay_metrics(self, run: Run, stream) -> None:
        layer = run.layer
        distinct = list(dict.fromkeys(stream))
        for q in distinct:
            self.answer(q)
        layer["olap.query.plan_ms"] = median(
            self._times[q][0] for q in distinct)
        for kind in ("point", "rollup", "slice"):
            ms = [self._times[q][1] for q in distinct if q[0] == kind]
            layer[f"olap.query.answer_ms.{kind}.p50"] = pct(ms, 50)
            layer[f"olap.query.answer_ms.{kind}.p99"] = pct(ms, 99)
        paths = {"scan": 0, "index": 0}
        for q in stream:
            path = self._times[q][2]
            key = "index" if path.startswith("index") else path
            paths[key] = paths.get(key, 0) + 1
        for key in ("scan", "index"):
            layer[f"olap.query.path.{key}"] = paths[key]
        touched = sum(self._times[q][3] for q in distinct)
        returned = sum(self._times[q][4] for q in distinct)
        layer["olap.index.rows_touched_per_row_returned"] = (
            touched / max(returned, 1))

    def check_oracle(self, run: Run, inp: Inputs, stream) -> None:
        distinct = list(dict.fromkeys(stream))
        rng = inp.sample_rng
        pick = rng.choice(len(distinct), size=min(25, len(distinct)),
                          replace=False)
        for i in sorted(int(x) for x in pick):
            kind, group, filters, having = distinct[i]
            want = oracle.group_by(inp.table, inp.w.cards, group, filters,
                                   having)
            got = self.answer(distinct[i])
            run.attempted += 1
            if not oracle.same(got.dims, got.measure, *want, sort=True):
                run.failed += 1
                run.fail(f"inline answer differs from raw-row oracle: "
                         f"{distinct[i]}")


def check_refreshed(run: Run, inp: Inputs, store: str) -> None:
    """The live generation must hold exactly what a fresh build over the
    base plus every delta holds, view by view."""
    from repro import MachineSpec, build_data_cube
    from repro.olap.store import CubeStore

    handle = CubeStore.open(store)
    table = inp.table
    for delta in inp.deltas:
        table = table.concat(delta)
    relation = to_relation(table)
    views = [tuple(v) for v in handle.cube.views]
    fresh = build_data_cube(relation, run.workload.cards,
                            MachineSpec(p=handle.p), selected=views)
    for view in views:
        live = handle.cube.view_relation(view)
        want = fresh.view_relation(view)
        run.attempted += 1
        if not oracle.same(live.dims, live.measure, want.dims,
                           want.measure, sort=True):
            run.failed += 1
            run.fail(f"refreshed view {view} differs from a fresh build")


def capacity(run: Run, inp: Inputs, store: str) -> None:
    """Closed loop on a cacheless pool: what the two workers execute.
    Only answers that match the inline answer count as completions."""
    lists = inp.capacity_lists()
    service, _ = start_service(store, cache=False)
    try:
        warm(service, inp)
        passes = [
            closed_loop(service, [to_query(q) for q in listed], 2,
                        CAPACITY_PASS_S)
            for listed in lists
        ]
    finally:
        service.close()
    inline = InlineAnswers(store)
    rates = []
    for listed, (elapsed, outcomes) in zip(lists, passes):
        good = sum(
            1 for o in outcomes
            if o.status == "ok"
            and inline.matches(listed[o.index % len(listed)], o.result)
        )
        run.attempted += len(outcomes)
        run.failed += len(outcomes) - good
        if good < len(outcomes):
            run.fail(f"capacity pass: {len(outcomes) - good} of "
                     f"{len(outcomes)} answers failed or differ from inline "
                     f"(statuses {count_statuses(outcomes)})")
        rates.append(good / elapsed)
    run.metrics["capacity_qps"] = median(rates)
    run.notes.append(f"capacity passes q/s {[round(r) for r in rates]}, "
                     f"{[len(o) for _, o in passes]} queries")
