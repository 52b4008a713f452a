"""Worker supervision for the fault-tolerant serving runtime.

The build engine learnt to survive node loss in two steps: fault
injection with checkpointed recovery, then elastic degraded-mode
execution with a heartbeat :class:`~repro.mpi.backends.Supervisor`.
This module gives the *serving* tier the same failure taxonomy.  A
:class:`ServiceSupervisor` owns the pool of
:class:`~repro.olap.service.QueryService` worker processes:

* **Heartbeats via a shared array** — every worker stamps
  ``time.monotonic()`` into its slot of a lock-free shared double array
  each time it passes through its task loop (Linux's
  ``CLOCK_MONOTONIC`` is system-wide, so coordinator and workers read
  the same clock).  An idle worker beats every queue-poll slice; a
  worker stuck inside a query goes silent — which is exactly the signal
  the straggler policy needs.
* **Dead vs hung** — a worker whose process exited (or was SIGKILLed)
  is reported as :class:`~repro.mpi.errors.RankDead` with its exit
  cause; a worker still alive but silent past ``suspect_after`` while
  holding work is declared :class:`~repro.mpi.errors.RankHung`.  Both
  feed :func:`~repro.mpi.errors.classify_failure`, the same taxonomy
  degraded-mode recovery uses — slow workers are first-class failures,
  not a special case.
* **Restart budget** — replacements are spawned into the dead worker's
  slot (generation + 1) until ``max_restarts`` is exhausted; after that
  the pool shrinks, and when the last worker is gone the service fails
  queries instead of stalling them.

The coordinator-side *policy* knobs — deadlines, retry/backoff bounds,
queue depth, poison threshold — live in :class:`ServicePolicy` so one
object configures a service's whole failure posture.
"""

from __future__ import annotations

import os
import signal as _signal
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.mpi.errors import RankDead, RankHung
from repro.mpi.shm import share_resource_tracker

__all__ = [
    "PoisonQuery",
    "QueryTimeout",
    "ServiceOverloaded",
    "ServicePolicy",
    "ServiceSupervisor",
    "WorkerHandle",
]


# ---------------------------------------------------------------------------
# serving-side failure surface
# ---------------------------------------------------------------------------


class QueryTimeout(TimeoutError):
    """A query missed its deadline.

    Raised to every waiter of the query: either the coordinator's hard
    per-query deadline passed with the result still outstanding, or a
    worker shed the task because the deadline had already expired when
    it was dequeued.  The ticket bookkeeping stays consistent — a late
    result arriving afterwards is discarded and its segments recycled.
    """


class ServiceOverloaded(RuntimeError):
    """``submit`` refused a query because the service is at its
    configured queue depth (:attr:`ServicePolicy.max_queue_depth`).
    Explicit load shedding: the caller should back off and retry, and
    the shed count is surfaced in ``stats()``."""


class PoisonQuery(RuntimeError):
    """A query was quarantined by the poison circuit breaker.

    After :attr:`ServicePolicy.poison_threshold` worker deaths
    attributable to the same query, retrying it would only keep killing
    replacements — the query is failed to all its waiters and every
    later submission fails fast with this exception."""


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServicePolicy:
    """Failure posture of one :class:`~repro.olap.service.QueryService`.

    Parameters
    ----------
    heartbeat_interval:
        Supervision slice: how often the coordinator checks worker
        liveness, and the worker-side queue-poll period (workers beat at
        half this interval while idle).
    suspect_after:
        A worker holding in-flight work whose heartbeat is older than
        this is declared hung (:class:`~repro.mpi.errors.RankHung`),
        SIGKILLed, and replaced.  Must comfortably exceed the longest
        legitimate query.
    deadline_s:
        Default per-query deadline (``None`` = no deadline).  Enforced
        on both sides: workers shed tasks that are already expired when
        dequeued, the coordinator hard-fails waiters with
        :class:`QueryTimeout` once the deadline passes.
    max_retries:
        Re-executions allowed per query after worker failures (death,
        hang, corrupt or lost result).  Query *errors* relayed from a
        healthy worker are deterministic and never retried.
    backoff_base / backoff_growth:
        Exponential backoff before re-dispatching a failed query:
        attempt ``n`` waits ``backoff_base * backoff_growth**(n-1)``.
    max_queue_depth:
        In-flight query cap; ``submit`` past it raises
        :class:`ServiceOverloaded`.
    poison_threshold:
        Worker deaths attributable to one query before the circuit
        breaker quarantines it.
    max_restarts:
        Total replacement workers the supervisor may spawn over the
        service lifetime.
    current_poll_interval:
        How often workers (between queries) and the coordinator
        (between supervision slices) re-read the store's ``CURRENT``
        pointer to pick up a freshly refreshed generation.  Workers
        never switch mid-query — each query is answered entirely by the
        generation its worker had open when it dequeued the task.
    gc_generations:
        When True the coordinator deletes superseded generation
        directories once no live worker still has them open (pinned
        generations are never removed; the flat generation-0 layout is
        never removed either).
    """

    heartbeat_interval: float = 0.05
    suspect_after: float = 5.0
    deadline_s: float | None = None
    max_retries: int = 3
    backoff_base: float = 0.02
    backoff_growth: float = 2.0
    max_queue_depth: int = 1024
    poison_threshold: int = 3
    max_restarts: int = 16
    current_poll_interval: float = 0.25
    gc_generations: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.current_poll_interval <= 0:
            raise ValueError("current_poll_interval must be > 0")
        if self.suspect_after <= self.heartbeat_interval:
            raise ValueError(
                "suspect_after must exceed heartbeat_interval"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None)")
        if self.max_retries < 0 or self.max_restarts < 0:
            raise ValueError("retry/restart budgets must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before dispatching retry ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_growth ** max(
            attempt - 1, 0
        )


# ---------------------------------------------------------------------------
# worker handles
# ---------------------------------------------------------------------------


@dataclass
class WorkerHandle:
    """One worker process generation occupying a pool slot.

    ``outstanding`` maps dispatched sequence numbers to their attempt
    index — the reassignment set when this worker fails.  A respawned
    replacement reuses the slot with ``generation + 1`` and fresh
    queues, so stale traffic from an earlier generation can never be
    confused with the replacement's.
    """

    slot: int
    generation: int
    proc: object
    task_q: object
    ack_q: object
    #: Per generation, never shared: a worker SIGKILLed while its feeder
    #: thread holds a queue's write lock wedges only this queue, which
    #: is retired with it.
    result_q: object
    pid: int | None = None
    outstanding: dict[int, int] = field(default_factory=dict)
    retired: bool = False

    def alive(self) -> bool:
        return not self.retired and self.proc.is_alive()


class ServiceSupervisor:
    """Spawns, watches, kills, and replaces serving workers.

    ``start_worker(slot, generation, task_q, ack_q, result_q,
    heartbeats)`` must return an *unstarted* process object; the
    supervisor starts it and tracks its pid (every pid ever spawned is
    kept for the final shm orphan sweep).  Detection (:meth:`check`)
    only *reports* failures — acting on them (reassignment, retry,
    poison accounting) is the service's job, so the supervisor stays
    reusable.
    """

    def __init__(
        self,
        ctx,
        workers: int,
        policy: ServicePolicy,
        start_worker: Callable,
    ):
        self.policy = policy
        self.workers = int(workers)
        self._ctx = ctx
        self._start_worker = start_worker
        #: Lock-free shared heartbeat array, one slot per worker; single
        #: writer per slot so torn reads are not a concern in practice.
        self.heartbeats = ctx.Array("d", self.workers, lock=False)
        self.slots: list[WorkerHandle | None] = [None] * self.workers
        self._generation = [0] * self.workers
        self.all_pids: list[int] = []
        self.restarts = 0
        #: One entry per replacement spawned: slot, failure kind, and
        #: detection -> ready timestamps (recovery-time measurement).
        self.restart_log: list[dict] = []
        # Start the resource tracker before the first fork so every
        # worker inherits it; a worker that lazily spawns its own
        # tracker strands segment registrations the coordinator's
        # post-SIGKILL sweep can never unregister.
        share_resource_tracker()
        for slot in range(self.workers):
            self._spawn(slot)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, slot: int) -> WorkerHandle:
        generation = self._generation[slot]
        self._generation[slot] += 1
        task_q = self._ctx.Queue()
        ack_q = self._ctx.Queue()
        result_q = self._ctx.Queue()
        # A fresh worker gets a fresh heartbeat: it must not be born
        # already-suspect because the slot's previous tenant went silent.
        self.heartbeats[slot] = time.monotonic()
        proc = self._start_worker(
            slot, generation, task_q, ack_q, result_q, self.heartbeats
        )
        proc.start()
        handle = WorkerHandle(
            slot=slot,
            generation=generation,
            proc=proc,
            task_q=task_q,
            ack_q=ack_q,
            result_q=result_q,
            pid=proc.pid,
        )
        if proc.pid is not None:
            self.all_pids.append(proc.pid)
        self.slots[slot] = handle
        return handle

    def respawn(self, slot: int, cause: str) -> WorkerHandle | None:
        """Replace a failed slot within the restart budget.

        Returns the replacement handle, or ``None`` when the budget is
        exhausted (the pool shrinks).
        """
        if self.restarts >= self.policy.max_restarts:
            return None
        self.restarts += 1
        detected = time.monotonic()
        handle = self._spawn(slot)
        self.restart_log.append(
            {
                "slot": slot,
                "generation": handle.generation,
                "cause": cause,
                "detected_at": detected,
                "ready_at": time.monotonic(),
            }
        )
        return handle

    def retire(self, handle: WorkerHandle) -> None:
        """Drop a failed worker: free its slot and its queues.

        The queues may still hold undelivered tasks/acks; nothing will
        ever read them, so the feeder threads must not block close."""
        handle.retired = True
        if self.slots[handle.slot] is handle:
            self.slots[handle.slot] = None
        for q in (handle.task_q, handle.ack_q, handle.result_q):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - teardown best-effort
                pass

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL a hung worker (it is about to be replaced)."""
        try:
            if handle.pid is not None and handle.proc.is_alive():
                os.kill(handle.pid, _signal.SIGKILL)
            handle.proc.join(0.5)
        except Exception:  # pragma: no cover - already-dead race
            pass

    # -- observation --------------------------------------------------------

    def live(self) -> list[WorkerHandle]:
        return [h for h in self.slots if h is not None and h.alive()]

    def beat_age(self, slot: int, now: float) -> float:
        return now - self.heartbeats[slot]

    def check(self, now: float) -> list[tuple[WorkerHandle, Exception]]:
        """Detect failed workers; returns ``(handle, failure)`` pairs.

        Death is unconditional (an exited process serves nothing); a
        hung verdict additionally requires in-flight work, so an idle
        worker starved of CPU on a loaded host is never killed for it.
        """
        events: list[tuple[WorkerHandle, Exception]] = []
        for handle in self.slots:
            if handle is None or handle.retired:
                continue
            if not handle.proc.is_alive():
                events.append((handle, self.post_mortem(handle)))
            elif (
                handle.outstanding
                and self.beat_age(handle.slot, now)
                > self.policy.suspect_after
            ):
                events.append(
                    (
                        handle,
                        RankHung(
                            f"serving worker {handle.slot} (generation "
                            f"{handle.generation}) silent for "
                            f"{self.beat_age(handle.slot, now):.2f}s with "
                            f"{len(handle.outstanding)} queries in flight "
                            f"(suspect_after="
                            f"{self.policy.suspect_after:.2f}s)",
                            rank=handle.slot,
                        ),
                    )
                )
        return events

    def post_mortem(self, handle: WorkerHandle) -> RankDead:
        """Describe a dead worker with its exit code / fatal signal."""
        try:
            handle.proc.join(timeout=0.5)  # let the exit code settle
            code = handle.proc.exitcode
        except Exception:  # pragma: no cover - defensive
            code = None
        if code is None:
            cause = "exit status unknown"
        elif code < 0:
            try:
                cause = f"killed by {_signal.Signals(-code).name}"
            except ValueError:  # pragma: no cover - exotic signal
                cause = f"killed by signal {-code}"
        else:
            cause = f"exit code {code}"
        return RankDead(
            f"serving worker {handle.slot} (generation "
            f"{handle.generation}, pid {handle.pid}) died with "
            f"{len(handle.outstanding)} queries in flight ({cause})",
            rank=handle.slot,
        )
