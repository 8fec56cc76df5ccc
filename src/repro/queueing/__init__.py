"""Discrete-event queueing substrate.

Contains the Stage 3 first-principles simulator of Section 3.3: a G/G/k
queue whose service rate switches to a boosted rate when a query's time
in system exceeds the short-term allocation timeout.
"""

from repro.queueing.events import EventLoop
from repro.queueing.ggk import (
    BatchQueueResult,
    StapQueueConfig,
    QueueResult,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)
from repro.queueing.mmk import (
    erlang_c,
    ggk_mean_response_approx,
    ggk_mean_wait_approx,
    mmk_mean_wait,
    mmk_mean_response,
)
from repro.queueing.metrics import (
    ResponseTimeSummary,
    summarize_response_times,
    absolute_percentage_error,
)

__all__ = [
    "EventLoop",
    "BatchQueueResult",
    "StapQueueConfig",
    "QueueResult",
    "simulate_stap_queue",
    "simulate_stap_queue_batch",
    "erlang_c",
    "ggk_mean_response_approx",
    "ggk_mean_wait_approx",
    "mmk_mean_wait",
    "mmk_mean_response",
    "ResponseTimeSummary",
    "summarize_response_times",
    "absolute_percentage_error",
]
