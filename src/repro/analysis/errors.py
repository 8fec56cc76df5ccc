"""Absolute-percentage-error statistics (the paper's accuracy metric)."""

from __future__ import annotations

import numpy as np

from repro.queueing.metrics import absolute_percentage_error


def median_ape(predicted, actual) -> float:
    """Median absolute percentage error."""
    return float(np.median(absolute_percentage_error(predicted, actual)))


def ape_summary(predicted, actual) -> dict[str, float]:
    """Median / p95 / mean APE in one dict (what Figure 6 reports)."""
    ape = absolute_percentage_error(predicted, actual)
    return {
        "median": float(np.median(ape)),
        "p95": float(np.percentile(ape, 95)),
        "mean": float(ape.mean()),
        "n": int(ape.size),
    }
