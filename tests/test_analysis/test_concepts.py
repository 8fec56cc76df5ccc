"""Tests for concept-based workload clustering."""

import pytest

from repro.analysis import cluster_workloads_by_concepts
from repro.analysis.concepts import cluster_workloads_by_counters
from repro.core import EAModel, ProfileDataset


@pytest.fixture(scope="module")
def concept_model(mixed_pair_dataset):
    model = EAModel(
        learner="cascade", rng=0, n_levels=1, forests_per_level=2, n_estimators=8
    )
    return model.fit(mixed_pair_dataset)


class TestConceptClustering:
    def test_assigns_every_workload(self, concept_model, mixed_pair_dataset):
        clusters = cluster_workloads_by_concepts(
            concept_model, mixed_pair_dataset, k=2, rng=0
        )
        assert set(clusters) == {"jacobi", "bfs", "redis", "knn"}
        assert set(clusters.values()) <= {0, 1}

    def test_counter_clustering_control(self, mixed_pair_dataset):
        clusters = cluster_workloads_by_counters(mixed_pair_dataset, k=2, rng=0)
        assert set(clusters) == {"jacobi", "bfs", "redis", "knn"}

    def test_too_many_clusters_rejected(self, concept_model, mixed_pair_dataset):
        with pytest.raises(ValueError):
            cluster_workloads_by_concepts(
                concept_model, mixed_pair_dataset, k=10, rng=0
            )

    def test_empty_dataset_rejected(self, concept_model):
        with pytest.raises(ValueError):
            cluster_workloads_by_concepts(concept_model, ProfileDataset(), k=2)
        with pytest.raises(ValueError):
            cluster_workloads_by_counters(ProfileDataset(), k=2)


def test_counter_clustering_needs_k_workloads(mixed_pair_dataset):
    with pytest.raises(ValueError, match="distinct workloads"):
        cluster_workloads_by_counters(mixed_pair_dataset, k=10, rng=0)
