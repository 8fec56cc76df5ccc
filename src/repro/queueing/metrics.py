"""Response-time statistics and model-error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ResponseTimeSummary:
    """The statistics the paper reports: mean, median, p95 (and p99)."""

    mean: float
    p50: float
    p95: float
    p99: float
    n: int


def summarize_response_times(
    response_times,
) -> ResponseTimeSummary | list[ResponseTimeSummary]:
    """Summarize a vector of response times, or each row of a matrix.

    A 1-D vector gives one summary.  A ``(C, n)`` matrix gives a list of
    ``C`` summaries from one percentile and one mean reduction along
    ``axis=1``; each equals the summary of its row on its own.
    """
    rt = np.atleast_1d(np.asarray(response_times, dtype=float))
    if rt.ndim > 2:
        raise ValueError(f"response_times must be 1-D or 2-D, got ndim={rt.ndim}")
    if rt.shape[-1] == 0:
        raise ValueError("response_times is empty")
    if np.any(rt < 0):
        raise ValueError("response times must be non-negative")
    # One percentile call sorts each row once for all three quantiles.
    p50, p95, p99 = np.percentile(rt, (50, 95, 99), axis=-1)
    mean = rt.mean(axis=-1)
    if rt.ndim == 1:
        return ResponseTimeSummary(
            mean=float(mean), p50=float(p50), p95=float(p95), p99=float(p99),
            n=int(rt.size),
        )
    n = rt.shape[1]
    return [
        ResponseTimeSummary(mean=m, p50=a, p95=b, p99=c, n=n)
        for m, a, b, c in zip(
            mean.tolist(), p50.tolist(), p95.tolist(), p99.tolist()
        )
    ]


def absolute_percentage_error(predicted, actual) -> np.ndarray:
    """|predicted - actual| / actual, elementwise (the paper's accuracy metric)."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {act.shape}")
    if np.any(act <= 0):
        raise ValueError("actual values must be positive")
    return np.abs(pred - act) / act
