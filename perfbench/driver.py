"""Load drivers for a ``QueryService``: open loop and closed loop.

:class:`OpenLoop` sends query ``i`` at ``t0 + i / rate`` whether or not
earlier queries finished (independent users), and times every query
from its *scheduled* send, so a stall is charged to every query queued
behind it.  It records how late the generator itself ran; a run whose
generator fell behind is invalid, because its offered rate was not the
one claimed.  Refusals, timeouts and errors count against the queries
attempted.

:func:`closed_loop` keeps a fixed number of queries outstanding: callers
that each wait for their reply.  With one per worker on a pool without a
cache, its correct completions per second are the pool's capacity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: A run is invalid when more than this share of sends left later than
#: :data:`LATE_S` after their scheduled time, or any left later than
#: :data:`BEHIND_S`.
LATE_SHARE = 0.02
LATE_S = 0.050
BEHIND_S = 0.5
#: The generator sleeps until this close to a send, then spins, so the
#: send leaves on time without depending on the OS timer slack.
SPIN_S = 0.0002


@dataclass
class Outcome:
    index: int
    scheduled: float
    sent: float
    done: float | None = None
    hit: bool = False
    status: str = "pending"  # ok | shed | timeout | error | undrained
    result: object = None


@dataclass
class OpenLoopReport:
    outcomes: list[Outcome]
    lateness: list[float]
    outstanding_max: int
    elapsed_s: float

    @property
    def late_share(self) -> float:
        if not self.lateness:
            return 0.0
        return sum(1 for x in self.lateness if x > LATE_S) / len(
            self.lateness
        )

    @property
    def valid(self) -> bool:
        return self.late_share <= LATE_SHARE and (
            max(self.lateness, default=0.0) <= BEHIND_S
        )


class Client:
    """Submits to ``service``; :meth:`harvest` collects every result
    available now into the pending :class:`Outcome`."""

    def __init__(self, service):
        self.service = service
        self.pending: dict[int, Outcome] = {}

    def harvest(self) -> None:
        from repro.olap.supervise import QueryTimeout

        service = self.service
        for ticket in service.poll():
            outcome = self.pending.pop(ticket, None)
            if outcome is None:
                continue
            outcome.done = service.completed_at.get(ticket, time.monotonic())
            try:
                outcome.result = service.wait(ticket)
                outcome.status = "ok"
            except QueryTimeout:
                outcome.status = "timeout"
            except Exception as exc:  # noqa: BLE001 - scored as an error
                outcome.status = "error"
                outcome.result = f"{type(exc).__name__}: {exc}"

    def wait_any(self, budget: float) -> None:
        """Block until a worker's result arrives or ``budget`` seconds
        pass, so the caller waits without spinning beside the workers.
        This is the service's own event-loop slice: ``QueryService`` has
        no public blocking poll."""
        self.service._pump(budget)


class OpenLoop(Client):
    """Drive ``service`` with ``queries`` at ``rate`` per second."""

    def __init__(self, service, queries, rate: float):
        super().__init__(service)
        self.queries = queries
        self.interval = 1.0 / float(rate)

    def run(self, drain_timeout_s: float = 60.0) -> OpenLoopReport:
        from repro.olap.supervise import ServiceOverloaded

        service = self.service
        outcomes: list[Outcome] = []
        lateness: list[float] = []
        outstanding_max = 0
        n = len(self.queries)
        t0 = time.monotonic() + 0.01
        i = 0
        while i < n:
            now = time.monotonic()
            scheduled = t0 + i * self.interval
            if now < scheduled:
                self.harvest()
                wait = scheduled - time.monotonic()
                if wait > SPIN_S:
                    time.sleep(min(wait - SPIN_S, 0.001))
                continue
            lateness.append(now - scheduled)
            outcome = Outcome(i, scheduled, now)
            outcomes.append(outcome)
            try:
                ticket = service.submit(self.queries[i])
            except ServiceOverloaded:
                outcome.status = "shed"
            else:
                if ticket in service.completed_at:
                    outcome.hit = True
                self.pending[ticket] = outcome
            i += 1
            outstanding_max = max(outstanding_max, len(self.pending))
            self.harvest()
        deadline = time.monotonic() + drain_timeout_s
        while self.pending and time.monotonic() < deadline:
            self.harvest()
            time.sleep(0.0005)
        for outcome in self.pending.values():
            outcome.status = "undrained"
        self.pending.clear()
        return OpenLoopReport(
            outcomes, lateness, outstanding_max, time.monotonic() - t0
        )


def closed_loop(service, queries, workers: int,
                min_seconds: float = 0.0) -> tuple[float, list[Outcome]]:
    """Keep ``workers`` queries outstanding, each completion releasing the
    next send, through ``queries``, cycled in whole passes until
    ``min_seconds`` passed (``Outcome.index`` counts sends, so it can
    exceed ``len(queries)``).  Whole passes give every run the same mix
    of queries, however many fit in ``min_seconds``.

    Returns the elapsed seconds and one :class:`Outcome` per query, timed
    from its send.  A stall here delays only the queries already
    outstanding, which is how callers that wait for each reply see it.
    """
    client = Client(service)
    pending = client.pending
    outcomes: list[Outcome] = []
    n = len(queries)
    i = 0
    t0 = time.monotonic()

    def more() -> bool:
        return i < n or i % n != 0 or time.monotonic() - t0 < min_seconds

    while True:
        while len(pending) < workers and more():
            now = time.monotonic()
            outcome = Outcome(i, now, now)
            outcomes.append(outcome)
            ticket = service.submit(queries[i % n])
            outcome.hit = ticket in service.completed_at
            pending[ticket] = outcome
            i += 1
        if not pending:
            break
        waiting = len(pending)
        client.harvest()
        if len(pending) == waiting:
            client.wait_any(0.005)
    return time.monotonic() - t0, outcomes
