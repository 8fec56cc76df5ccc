#!/usr/bin/env python3
"""The paper's motivating scenario: a social-networking site under SLO.

A user query fans out across 36 microservices in 30 Docker containers
(baseline response 7.5 ms).  If a query is still outstanding past the
SLO warning, short-term cache allocation grants the whole service extra
LLC ways.  But the collocated Redis session store wants those same
shared ways.  This example sweeps Social's timeout and shows the
three-way interaction between arrival rate, timeout and the partner's
response time that Section 5.2 describes.

Run:  python examples/social_network_slo.py
"""

import numpy as np

from repro.analysis import format_table
from repro.baselines import RuntimeEvaluator
from repro.core import ProfileDataset
from repro.workloads import SocialGraph, get_workload


def main() -> None:
    social = get_workload("social")
    redis = get_workload("redis")

    # --- the microservice DAG behind Social -----------------------------
    graph = SocialGraph(rng=0)
    lat = graph.sample_latency(5000, mean_total=social.baseline_service_time, rng=1)
    print(
        f"Social: {graph.n_services} microservices in {graph.n_containers} "
        f"containers; baseline p50 {np.median(lat) * 1e3:.1f} ms, "
        f"p95 {np.percentile(lat, 95) * 1e3:.1f} ms, "
        f"p99 {np.percentile(lat, 99) * 1e3:.1f} ms"
    )

    # --- sweep Social's timeout with Redis boosting aggressively --------
    # No profile here: ProfileDataset() carries the default testbed layout.
    evaluator = RuntimeEvaluator(
        ProfileDataset(), ("social", "redis"), n_queries=2500, rng=7
    )
    redis_timeout = 0.5  # Redis is latency-critical: boost early
    rows = []
    for social_timeout in (0.0, 0.5, 1.0, 2.0, 4.0, np.inf):
        p95 = evaluator.p95((social_timeout, redis_timeout))
        label = "never" if np.isinf(social_timeout) else f"{social_timeout:.1f}"
        rows.append(
            [
                label,
                p95[0] * social.baseline_service_time * 1e3,
                p95[1] * redis.baseline_service_time * 1e3,
            ]
        )
    print(
        format_table(
            ["social timeout (x svc time)", "social p95 (ms)", "redis p95 (ms)"],
            rows,
            title="\nTimeout sweep at 90% load (redis timeout fixed at 0.5)",
        )
    )

    # --- the same sweep at low load: the interaction disappears ---------
    rows_low = []
    for social_timeout in (0.0, 1.0, np.inf):
        p95 = evaluator.p95((social_timeout, redis_timeout), utilization=0.4)
        label = "never" if np.isinf(social_timeout) else f"{social_timeout:.1f}"
        rows_low.append(
            [
                label,
                p95[0] * social.baseline_service_time * 1e3,
                p95[1] * redis.baseline_service_time * 1e3,
            ]
        )
    print(
        format_table(
            ["social timeout (x svc time)", "social p95 (ms)", "redis p95 (ms)"],
            rows_low,
            title="\nSame sweep at 40% load — queueing delay out of the picture",
        )
    )
    print(
        "\nNote how Social's best timeout depends on the arrival rate — the\n"
        "arrival x service-time x timeout interaction that dynaSprint's\n"
        "low-rate calibration misses (Section 5.2)."
    )


if __name__ == "__main__":
    main()
