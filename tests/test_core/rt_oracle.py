"""Reference single-condition simulation for equivalence tests.

This is the per-condition body :meth:`ResponseTimeModel.simulate` had
before it delegated to :meth:`ResponseTimeModel.simulate_many`: rescale
the model's cached unit-scale sample for one condition, run the serial
heap kernel (``ggk_oracle.simulate_heap_queue``, the loop the shipped
scalar kernel replaced) and summarize.  ``simulate_many`` must reproduce
it bit for bit, whichever kernel it picks.
"""

import numpy as np

from repro.core.rt_model import WARMUP_FRACTION, QueueFeedback
from repro.queueing.ggk import StapQueueConfig
from repro.queueing.metrics import summarize_response_times

from ..test_queueing.ggk_oracle import simulate_heap_queue


def simulate_oracle(
    model,
    utilization,
    timeout,
    gross_increase,
    effective_allocation,
    service_cv=0.35,
    mean_service_time=1.0,
) -> QueueFeedback:
    gaps, normals = model._base()
    rate = utilization * model.n_servers / mean_service_time
    arrivals = np.cumsum((1.0 / rate) * gaps)
    if service_cv > 0:
        sigma2 = np.log1p(service_cv**2)
        demands = np.exp(-0.5 * sigma2 + np.sqrt(sigma2) * normals)
    else:
        demands = np.ones(model.n_queries)
    cfg = StapQueueConfig(
        n_servers=model.n_servers,
        mean_service_time=mean_service_time,
        timeout=timeout / mean_service_time,
        boost_speedup=max(effective_allocation * gross_increase, 0.1),
    )
    res = simulate_heap_queue(arrivals, demands, cfg).drop_warmup(WARMUP_FRACTION)
    waits = res.start_times - res.arrival_times
    return QueueFeedback(
        summary=summarize_response_times(res.response_times),
        mean_wait=float(waits.mean()),
        boost_fraction=res.boost_fraction,
    )
