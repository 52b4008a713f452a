"""Host fingerprint, peak memory and the run history file."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys

import numpy as np


def tree_digest(root: str, sub: str) -> str:
    """SHA-256 over every ``.py`` file under ``root/sub`` (path + bytes)."""
    h = hashlib.sha256()
    base = os.path.join(root, sub)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def fingerprint(root: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_digest": tree_digest(root, "src"),
        "bench_digest": tree_digest(root, "perfbench"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "argv": sys.argv[1:],
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``, or None
    where there is none.  Steal is time a hypervisor ran something else
    on this machine's virtual CPUs; it inflates every wall time."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start, end) -> float | None:
    """Share of CPU time stolen between two :func:`cpu_ticks` readings."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MB
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end:
    join (else terminate) any ``multiprocessing`` child still alive, then
    stop and reap the resource tracker that the serving pool and the shm
    data plane start.  Left alone, the tracker outlives this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def read_history(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    return out


def append_history(path: str, entry: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def exact_drift(history: list[dict], key: dict, exact: dict) -> list[str]:
    """Exact counters that differ from an earlier run with the same
    workload, seed, inputs and code."""
    drift = []
    for entry in history:
        if any(entry.get(k) != v for k, v in key.items()):
            continue
        for name, value in exact.items():
            old = entry.get("exact", {}).get(name)
            if old is not None and old != value:
                drift.append(f"{name}: {old} earlier, {value} now")
    return drift
