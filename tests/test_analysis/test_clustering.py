"""Tests for seeded k-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import KMeans


def blobs(rng=0):
    r = np.random.default_rng(rng)
    a = r.normal([0, 0], 0.1, size=(30, 2))
    b = r.normal([5, 5], 0.1, size=(30, 2))
    c = r.normal([0, 5], 0.1, size=(30, 2))
    return np.vstack([a, b, c])


class TestKMeans:
    def test_recovers_separated_blobs(self):
        X = blobs()
        km = KMeans(k=3, rng=0).fit(X)
        labels = km.labels_
        # Each true blob maps to exactly one cluster.
        for start in (0, 30, 60):
            assert len(set(labels[start : start + 30].tolist())) == 1
        assert len(set(labels.tolist())) == 3

    def test_predict_matches_fit_labels(self):
        X = blobs(1)
        km = KMeans(k=3, rng=0).fit(X)
        assert np.array_equal(km.predict(X), km.labels_)

    def test_1d_input_accepted(self):
        x = np.concatenate([np.zeros(10), np.ones(10) * 9])
        km = KMeans(k=2, rng=0).fit(x)
        assert len(set(km.labels_.tolist())) == 2

    def test_predict_accepts_1d_input(self):
        x = np.concatenate([np.zeros(10), np.ones(10) * 9])
        km = KMeans(k=2, rng=0).fit(x)
        assert np.array_equal(km.predict(x), km.labels_)
        assert np.array_equal(km.predict(x), km.predict(x[:, None]))

    def test_k_equals_n(self):
        X = np.arange(4, dtype=float)[:, None]
        km = KMeans(k=4, rng=0).fit(X)
        assert len(set(km.labels_.tolist())) == 4
        assert km.inertia_ == pytest.approx(0.0)

    def test_reproducible(self):
        X = blobs(2)
        l1 = KMeans(k=3, rng=7).fit(X).labels_
        l2 = KMeans(k=3, rng=7).fit(X).labels_
        assert np.array_equal(l1, l2)

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(k=0)
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.zeros((3, 2)))
        with pytest.raises(RuntimeError):
            KMeans(k=2).predict(np.zeros((3, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10**6))
    def test_inertia_nonincreasing_in_k(self, k, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(40, 3))
        i1 = KMeans(k=k, rng=0).fit(X).inertia_
        i2 = KMeans(k=k + 1, rng=0).fit(X).inertia_
        # More clusters can only reduce (well-fitted) inertia; allow slack
        # for local optima.
        assert i2 <= i1 * 1.15


def test_max_iter_must_be_positive():
    with pytest.raises(ValueError, match="max_iter"):
        KMeans(k=2, max_iter=0)


def test_duplicate_points_still_seed_k_centroids():
    # Every squared distance to the first centroid is zero, so k-means++
    # falls back to a uniform draw instead of dividing by zero.
    X = np.ones((5, 2))
    km = KMeans(k=3, rng=0).fit(X)
    assert km.centroids_.shape == (3, 2)
    assert np.all(km.centroids_ == 1.0)
    assert km.inertia_ == 0.0
