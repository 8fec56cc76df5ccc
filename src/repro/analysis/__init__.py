"""Analysis utilities: clustering, error statistics, concept insight and
report formatting for the benchmark harness."""

from repro.analysis.clustering import KMeans
from repro.analysis.errors import ape_summary, median_ape
from repro.analysis.concepts import cluster_workloads_by_concepts
from repro.analysis.reporting import format_table

__all__ = [
    "KMeans",
    "ape_summary",
    "median_ape",
    "cluster_workloads_by_concepts",
    "format_table",
]
