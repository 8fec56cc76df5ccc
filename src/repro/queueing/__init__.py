"""Discrete-event queueing substrate.

Contains the Stage 3 first-principles simulator of Section 3.3: a G/G/k
queue whose service rate switches to a boosted rate when a query's time
in system exceeds the short-term allocation timeout.
"""

from repro.queueing.events import EventLoop
from repro.queueing.ggk import (
    StapQueueConfig,
    QueueResult,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)
from repro.queueing.metrics import (
    ResponseTimeSummary,
    summarize_response_times,
    absolute_percentage_error,
)

__all__ = [
    "EventLoop",
    "StapQueueConfig",
    "QueueResult",
    "simulate_stap_queue",
    "simulate_stap_queue_batch",
    "ResponseTimeSummary",
    "summarize_response_times",
    "absolute_percentage_error",
]
