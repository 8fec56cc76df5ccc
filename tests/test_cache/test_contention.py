"""Tests for the shared-way contention model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import SharedWayContention


class TestEffectiveSharedWays:
    def test_single_sharer_gets_everything(self):
        m = SharedWayContention()
        out = m.effective_shared_ways(4.0, [2.0, 0.0])
        assert out[0] == pytest.approx(4.0) and out[1] == 0.0

    def test_no_sharers(self):
        m = SharedWayContention()
        assert np.all(m.effective_shared_ways(4.0, [0.0, 0.0]) == 0.0)

    def test_occupancy_proportional(self):
        m = SharedWayContention(mode="occupancy", churn=0.0)
        out = m.effective_shared_ways(6.0, [1.0, 2.0])
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(4.0)

    def test_equal_split(self):
        m = SharedWayContention(mode="equal", churn=0.0)
        out = m.effective_shared_ways(6.0, [1.0, 5.0])
        assert out[0] == out[1] == pytest.approx(3.0)

    def test_churn_destroys_capacity(self):
        """Concurrent sharers keep less than the proportional split."""
        no_churn = SharedWayContention(churn=0.0).effective_shared_ways(
            6.0, [1.0, 1.0]
        )
        churned = SharedWayContention(churn=0.6).effective_shared_ways(
            6.0, [1.0, 1.0]
        )
        assert np.all(churned < no_churn)
        assert churned.sum() < 6.0

    def test_churn_only_applies_under_concurrency(self):
        m = SharedWayContention(churn=0.8)
        out = m.effective_shared_ways(6.0, [3.0, 0.0])
        assert out[0] == pytest.approx(6.0)  # lone sharer keeps everything

    def test_churn_hits_minority_sharer_harder(self):
        """Relative churn loss grows as a sharer's share shrinks."""
        m = SharedWayContention(churn=0.5)
        out = m.effective_shared_ways(6.0, [1.0, 3.0])
        base = SharedWayContention(churn=0.0).effective_shared_ways(6.0, [1.0, 3.0])
        kept = out / base
        assert kept[0] < kept[1]

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            SharedWayContention().effective_shared_ways(4.0, [-1.0, 2.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SharedWayContention(mode="weird")

    def test_bad_churn_rejected(self):
        with pytest.raises(ValueError):
            SharedWayContention(churn=1.5)

    @settings(max_examples=50)
    @given(
        st.floats(0.0, 32.0),
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
    )
    def test_conservation_without_churn(self, shared, lam):
        """With churn disabled, the split conserves the shared region."""
        for mode in ("occupancy", "equal"):
            out = SharedWayContention(mode=mode, churn=0.0).effective_shared_ways(
                shared, lam
            )
            if any(x > 0 for x in lam) and shared > 0:
                assert out.sum() == pytest.approx(shared, rel=1e-9)
            else:
                assert out.sum() == 0.0
            assert np.all(out >= 0)

    @settings(max_examples=50)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.1, 32.0),
        st.lists(st.floats(0.1, 100.0), min_size=2, max_size=5),
    )
    def test_churn_bounded(self, churn, shared, lam):
        """Churned shares stay within [0, proportional share]."""
        out = SharedWayContention(churn=churn).effective_shared_ways(shared, lam)
        base = SharedWayContention(churn=0.0).effective_shared_ways(shared, lam)
        assert np.all(out >= 0)
        assert np.all(out <= base + 1e-12)
