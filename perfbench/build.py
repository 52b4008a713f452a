"""The build phase: repeated timed builds, their checks and counters."""

from __future__ import annotations

import os
import shutil
import time
from typing import TYPE_CHECKING

from perfbench import oracle, spans
from perfbench.common import SERVE_VIEWS, Run, dir_bytes, median, to_relation
from perfbench.inputs import Table

if TYPE_CHECKING:
    from perfbench.workloads import Inputs


def build_once(run: Run, inp: Inputs, relation, backend: str | None = None,
               ckpt_dir: str | None = None):
    """One ``build_data_cube`` call; returns (cube, wall seconds)."""
    from repro import MachineSpec, build_data_cube

    w = run.workload
    spec = MachineSpec(p=w.p, backend=backend or w.backend)
    selected = None if w.full_cube else SERVE_VIEWS
    t0 = time.perf_counter()
    cube = build_data_cube(
        relation, w.cards, spec, selected=selected, checkpoint_dir=ckpt_dir
    )
    return cube, time.perf_counter() - t0


def counters(cube) -> dict:
    m = cube.metrics
    cases = {
        c: sum(r.count(c) for r in cube.merge_reports)
        for c in ("case1", "case2", "case3")
    }
    return {
        "comm_bytes": int(m.comm_bytes),
        "disk_blocks": int(m.disk_blocks),
        "output_rows": int(m.output_rows),
        "merge_cases": cases,
        "shm_leases": int(m.shm_pool.get("leases", 0)),
        "shm_segments_created": int(m.shm_pool.get("segments_created", 0)),
    }


def fresh_ckpt(run: Run, tag: str) -> str | None:
    if not run.workload.checkpoint:
        return None
    path = os.path.join(run.workdir, f"ckpt-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def sim_groups(cube) -> dict:
    """Simulated seconds grouped by phase family (``merge[3]`` ->
    ``merge``), plus communication seconds across all phases."""
    m = cube.metrics
    out: dict[str, float] = {}
    for phase, secs in m.phase_seconds.items():
        fam = phase.split("[", 1)[0]
        out[fam] = out.get(fam, 0.0) + float(secs)
    out["comm"] = float(sum(m.phase_comm_seconds.values()))
    return out


def check_cube(run: Run, inp: Inputs, cube, table: Table) -> None:
    """Outside any timed region: structural validation of every view,
    then ``validate_cube(deep=True)``, ``audit_cube`` and the numpy
    oracle over ``table`` (the rows the cube was built from) on a seeded
    sample of views.  (Deep validation and the audit of all 256 views
    of a full cube take ~20 s; the sample keeps a run short.)"""
    from repro.core.audit import audit_cube
    from repro.core.validate import validate_cube

    views = cube.views
    rng = inp.sample_rng
    pick = {views[0], views[-1]}
    for i in rng.choice(len(views), size=min(10, len(views)), replace=False):
        pick.add(views[int(i)])
    sample = subset_cube(cube, pick)
    for name, report in (("validate_cube", validate_cube(cube, deep=False)),
                         ("validate_cube(deep)", validate_cube(sample))):
        if not report.ok:
            run.fail(f"{name}: {report.describe()[:300]}")
    audit = audit_cube(sample, relation=to_relation(table))
    if not audit.ok:
        run.fail(f"audit_cube: {audit.issues[:3]}")
    for view in sorted(pick, key=lambda v: (len(v), v)):
        want = oracle.group_by(table, inp.w.cards, tuple(view))
        rel = cube.view_relation(view)
        run.attempted += 1
        if not oracle.same(rel.dims, rel.measure, *want, sort=True):
            run.failed += 1
            run.fail(f"view {view} differs from the raw-row oracle")


def warm_up(run: Run, inp: Inputs, relation):
    """One untimed build, checkpoints included if the workload writes
    them; returns its cube."""
    ckpt = fresh_ckpt(run, "warm")
    cube, _ = build_once(run, inp, relation, ckpt_dir=ckpt)
    if ckpt is not None:
        shutil.rmtree(ckpt, ignore_errors=True)
    return cube


def build_phase(run: Run, inp: Inputs, relation):
    """Repeated timed builds filling ``seconds``; returns the last cube.

    With tracing on, untraced and traced builds alternate so the run
    reports the tracing overhead; on the process backend the traced
    builds run the same input on the thread backend (spans cannot cross
    the fork) and the process builds supply the ``RunResult`` fields.
    """
    w = run.workload
    host: list[float] = []
    traced_host: list[float] = []
    ckpt_bytes: list[int] = []
    cubes = []
    tracer = spans.Tracer() if run.trace else None
    start = time.perf_counter()
    i = 0
    while i < 3 or time.perf_counter() - start < run.seconds:
        if i >= 60:
            break
        if tracer is not None:
            tracer.epoch = i
            ckpt = fresh_ckpt(run, f"t{i}")
            with spans.instrument(tracer):
                _, tsecs = build_once(
                    run, inp, relation, backend="thread", ckpt_dir=ckpt
                )
            traced_host.append(tsecs)
            if ckpt is not None:
                shutil.rmtree(ckpt, ignore_errors=True)
        ckpt = fresh_ckpt(run, f"b{i}")
        # Only the last cube keeps its views; the rest keep metering.
        cubes = [_metered(c) for c in cubes]
        cube, secs = build_once(run, inp, relation, ckpt_dir=ckpt)
        host.append(secs)
        cubes.append(cube)
        if ckpt is not None:
            ckpt_bytes.append(dir_bytes(ckpt))
            shutil.rmtree(ckpt, ignore_errors=True)
        i += 1
    run.attempted += i
    run.metrics["build_host_s"] = median(host)
    run.notes.append(f"{i} builds, host s {[round(h, 3) for h in host]}")
    record_build_layers(run, cubes, ckpt_bytes)
    if tracer is not None:
        run.tracer = tracer
        overhead = None
        if w.backend == "thread":
            overhead = (median(traced_host), median(host))
        layer_from_spans(run, tracer, overhead)
    return cubes[-1]


def _metered(cube):
    """A cube stripped of its views, keeping metering and merge reports."""
    from dataclasses import replace

    return replace(cube, rank_views=[{} for _ in cube.rank_views])


def record_build_layers(run: Run, cubes, ckpt_bytes) -> None:
    """End-to-end build metrics and the per-layer numbers that public
    ``RunResult`` / ``CubeResult`` fields carry (these cross the fork)."""
    ctr = [counters(c) for c in cubes]
    run.metrics["build_sim_s"] = median(
        c.metrics.simulated_seconds for c in cubes)
    for key in ("comm_bytes", "disk_blocks", "output_rows", "merge_cases",
                "shm_leases", "shm_segments_created"):
        run.agree(key, [c[key] for c in ctr])
    run.metrics["comm_bytes"] = ctr[0]["comm_bytes"]
    run.metrics["disk_blocks"] = ctr[0]["disk_blocks"]
    groups = [sim_groups(c) for c in cubes]
    shm = cubes[0].metrics.shm_pool
    busy_spread = []
    for c in cubes:
        busy = [b for b in c.metrics.rank_busy_seconds if b > 0]
        busy_spread.append(max(busy) / min(busy) if busy else 1.0)

    layer = run.layer
    cases = ctr[0]["merge_cases"]
    for c in ("case1", "case2", "case3"):
        layer[f"core.merge.{c}"] = cases[c]
    layer["core.checkpoint.bytes"] = median(ckpt_bytes)
    layer["mpi.shm.leases"] = ctr[0]["shm_leases"]
    layer["mpi.shm.segments_created"] = ctr[0]["shm_segments_created"]
    leases = shm.get("leases", 0)
    layer["mpi.shm.reuse_ratio"] = (
        shm.get("segments_reused", 0) / leases if leases else 0.0
    )
    layer["mpi.shm.bytes_created"] = int(shm.get("bytes_created", 0))
    layer["mpi.clock.busy_spread"] = median(busy_spread)
    for fam, name in (("partition-sort", "partition_sort"),
                      ("compute", "compute"), ("merge", "merge"),
                      ("checkpoint", "checkpoint"), ("comm", "comm")):
        layer[f"sim.{name}_s"] = median(g.get(fam, 0.0) for g in groups)


def layer_from_spans(run: Run, tracer: spans.Tracer, overhead) -> None:
    """Per-build medians of each layer's self time, from the spans;
    ``overhead`` is (traced, untraced) median build seconds, or None."""
    layer = run.layer
    per_build = []
    coverage = []
    for epoch, group in sorted(spans.by_epoch(tracer.spans).items()):
        per_build.append(spans.layer_totals(group))
        coverage.extend(spans.rank_coverage(group))

    def med_self(*names):
        return median(
            sum(t.get(n, {}).get("self_s", 0.0) for n in names)
            for t in per_build
        )

    def med_count(name, key):
        return median(
            t.get(name, {}).get("counts", {}).get(key, 0) for t in per_build
        )

    layer["core.sample_sort.self_s"] = med_self("core.sample_sort")
    layer["core.pipesort.self_s"] = med_self("core.pipesort")
    layer["core.estimate.self_s"] = med_self("core.estimate")
    layer["core.merge.self_s"] = med_self("core.merge")
    layer["core.checkpoint.save_s"] = med_self("core.checkpoint.save")
    layer["storage.sortkernels.self_s"] = med_self("storage.sortkernels")
    layer["storage.sortkernels.rows"] = med_count(
        "storage.sortkernels", "rows")
    layer["storage.external_sort.self_s"] = med_self("storage.external_sort")
    layer["storage.scan.aggregate_s"] = med_self("storage.scan.aggregate")
    layer["storage.scan.merge_s"] = med_self("storage.scan.merge")
    rows_in = med_count("storage.scan.aggregate", "rows_in")
    rows_out = med_count("storage.scan.aggregate", "rows_out")
    layer["storage.scan.rows_out_per_in"] = (
        rows_out / rows_in if rows_in else 0.0
    )
    layer["storage.codec.remap_s"] = med_self("storage.codec.remap")
    layer["storage.codec.pack_s"] = med_self(
        "storage.codec.pack", "storage.codec.unpack")
    layer["mpi.comm.wait_s"] = med_self("mpi.comm")
    layer["mpi.comm.collectives"] = median(
        t.get("mpi.comm", {}).get("calls", 0) for t in per_build
    )
    layer["core.cube.rank_unattributed_s"] = med_self("core.cube.rank")
    layer["trace.coverage_min"] = min(coverage) if coverage else 0.0
    if overhead is not None:
        traced, untraced = overhead
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.overhead_ratio"] = traced / untraced
    last = max(spans.by_epoch(tracer.spans))
    run.trace_table = spans.table(
        spans.layer_totals(tracer.spans), len(per_build)
    )
    run.notes.append(
        f"traced build {last}: rank coverage min "
        f"{layer['trace.coverage_min']:.3f}"
    )


def subset_cube(cube, views):
    """The stored part of a full cube: only the serve views."""
    from dataclasses import replace

    keep = [tuple(v) for v in views]
    return replace(
        cube,
        rank_views=[{v: rv[v] for v in keep} for rv in cube.rank_views],
        merge_reports=[],
        schedule_trees=[],
    )
