#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload build-uniform --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps the layer functions, prints a
per-layer table, writes ``perfbench/out/trace-<workload>-<seed>.json``
(Chrome trace-event format) and reports the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  Every run appends
its metrics and host fingerprint (including the share of CPU time the
hypervisor stole during the run) to ``perfbench/out/history.jsonl``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so a terminated
    run still closes its pools and reaps its children on the way out.
    Forked children inherit the handler; in them SIGTERM keeps its
    default action."""
    parent = os.getpid()

    def handler(signum, frame):
        if os.getpid() != parent:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    args = parse(argv)
    exit_on_sigterm()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to the benchmark; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import host, spans, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.time()
    ticks = host.cpu_ticks()
    finger = host.fingerprint(ROOT)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = workloads.Run(
        workload=workloads.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
    )
    try:
        workloads.execute(run)
    finally:
        host.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    finger["cpu_steal_share"] = host.steal_share(ticks, host.cpu_ticks())
    own, kids = host.peak_rss_mb()
    run.metrics["peak_rss_mb"] = own + kids
    run.notes.append(f"peak rss {own:.0f} MB self, {kids:.0f} MB child")

    history_path = os.path.join(OUT, "history.jsonl")
    key = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": run.digest,
        "src_digest": finger["src_digest"],
        "bench_digest": finger["bench_digest"],
    }
    for drift in host.exact_drift(host.read_history(history_path), key,
                                  run.exact):
        run.fail(f"exact counter changed between runs of one seed: {drift}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = run.layer if args.trace else run.metrics
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    if args.trace and run.tracer is not None:
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json")
        spans.write_chrome_trace(run.tracer.spans, trace_path)
        print(run.trace_table)
        print(f"trace: {len(run.tracer.spans)} spans -> {trace_path}")
    steal = finger["cpu_steal_share"]
    print(f"input digest {run.digest}; load avg at start "
          f"{finger['loadavg_1m']:.2f}; nproc {finger['nproc']}; cpu steal "
          f"{'n/a' if steal is None else f'{steal:.1%}'}")
    for note in run.notes:
        print(f"note: {note}")
    for failure in run.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    correct = not run.failures
    host.append_history(history_path, {
        **key,
        "started": started,
        "host": finger,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {**run.metrics, **run.layer},
        "exact": run.exact,
        "failures": run.failures,
    })
    # A run-level failure (an invalid open loop, drifting counters) that
    # no single operation carries still counts as one failed operation.
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed + (0 if correct or run.failed else 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
