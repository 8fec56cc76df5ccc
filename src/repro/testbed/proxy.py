"""Per-service proxy: queue, SLO warning tracking and boost refcounting.

Mirrors the proxy services of Section 4: queries queue at the proxy
waiting for CPU resources; the proxy monitors each outstanding query's
response time and, when the STAP timeout fires, switches the whole
service's class of service (all outstanding queries gain access to the
short-term cache).  The service reverts to its default class only when
no overdue query remains outstanding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class QueryRecord:
    """One query's lifecycle, tracked by the proxy."""

    qid: int
    arrival: float
    work: float  # seconds of execution at the baseline rate
    start: float = -1.0
    completion: float = -1.0
    remaining: float = 0.0
    last_update: float = 0.0
    overdue: bool = False
    boosted_time: float = 0.0
    completion_token: int = 0  # invalidates stale completion events

    @property
    def completed(self) -> bool:
        return self.completion >= 0.0


class ProxyService:
    """Queue + boost state machine for one collocated service."""

    def __init__(self, name: str, n_servers: int, warning_delay: float):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if warning_delay < 0:
            raise ValueError("warning_delay must be >= 0")
        self.name = name
        self.n_servers = n_servers
        self.warning_delay = warning_delay
        self.queue: deque[QueryRecord] = deque()
        self.in_service: dict[int, QueryRecord] = {}
        self.completed: list[QueryRecord] = []
        self._overdue_outstanding = 0

    # -- queue/server management ------------------------------------------

    @property
    def servers_free(self) -> int:
        return self.n_servers - len(self.in_service)

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def enqueue(self, q: QueryRecord) -> None:
        self.queue.append(q)

    def next_dispatch(self) -> QueryRecord | None:
        """Pop the next query to start, if a server is free (FCFS)."""
        if self.queue and self.servers_free > 0:
            return self.queue.popleft()
        return None

    def start_query(self, q: QueryRecord, now: float) -> None:
        q.start = now
        q.remaining = q.work
        q.last_update = now
        self.in_service[q.qid] = q

    def finish_query(self, q: QueryRecord, now: float) -> None:
        q.completion = now
        q.remaining = 0.0
        del self.in_service[q.qid]
        self.completed.append(q)
        if q.overdue:
            self._overdue_outstanding -= 1

    # -- boost state machine -----------------------------------------------

    @property
    def boosted(self) -> bool:
        """The service holds its short-term allocation while any overdue
        query is outstanding."""
        return self._overdue_outstanding > 0

    def mark_overdue(self, q: QueryRecord) -> bool:
        """Record that ``q`` crossed the response-time warning.

        Returns True when this flips the service's boost state on.
        """
        if q.completed or q.overdue:
            return False
        q.overdue = True
        was = self.boosted
        self._overdue_outstanding += 1
        return not was

    def warning_time(self, q: QueryRecord) -> float:
        """Absolute time at which ``q`` triggers the SLO warning."""
        return q.arrival + self.warning_delay
