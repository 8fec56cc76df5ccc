"""Tests for the Stage 1 profiler."""

import numpy as np
import pytest

from repro.core import RuntimeCondition
from repro.core.profiler import Profiler, ProfilerSettings, _boost_overlap
from repro.core.sampling import (
    grid_anchor_conditions,
    stratified_conditions,
    uniform_conditions,
)
from repro.testbed import SegmentTable

PAIR = ("redis", "knn")


def _table(times, boosted):
    n = len(times)
    return SegmentTable.from_records(
        list(zip(times, [1.0] * n, [0] * n, [0] * n, boosted))
    )


class TestProfileCampaign:
    def test_rows_per_condition(self, small_dataset):
        """Each condition contributes up to n_windows rows per service."""
        conds = {id(r.condition) for r in small_dataset.rows}
        assert len(conds) == 8
        # 8 conditions x 2 services x 4 windows = 64 max (sparse windows skipped)
        assert 32 <= len(small_dataset) <= 64

    def test_ea_values_physical(self, small_dataset):
        ea = small_dataset.y_ea
        assert np.all(ea > 0)
        assert np.all(ea < 2.0)

    def test_both_services_represented(self, small_dataset):
        names = {r.service_name for r in small_dataset.rows}
        assert names == {"redis", "social"}

    def test_traces_padded_to_ticks(self, small_dataset):
        assert small_dataset.traces.shape[2] == 16

    def test_window_indices_assigned(self, small_dataset):
        idx = {r.window_idx for r in small_dataset.rows}
        assert idx <= {0, 1, 2, 3}
        assert len(idx) > 1


class TestProfilerApi:
    def test_empty_conditions_rejected(self):
        with pytest.raises(ValueError):
            Profiler(rng=0).profile([])

    def test_quick_ea_returns_per_service(self):
        p = Profiler(rng=3)
        cond = RuntimeCondition(("redis", "knn"), (0.8, 0.8), (0.5, 0.5))
        eas = p.quick_ea(cond, n_queries=150)
        assert eas.shape == (2,)
        assert np.all(np.isfinite(eas))

    def test_quick_ea_keeps_campaign_warmup(self, monkeypatch):
        from repro.core import profiler as profiler_module

        runtime = profiler_module.CollocationRuntime
        real_run = runtime.run
        warmups = []

        def spy(self, n_queries=600, warmup_fraction=0.1):
            warmups.append(warmup_fraction)
            return real_run(self, n_queries=n_queries, warmup_fraction=warmup_fraction)

        monkeypatch.setattr(runtime, "run", spy)
        p = Profiler(settings=ProfilerSettings(warmup_fraction=0.4), rng=3)
        cond = RuntimeCondition(("redis", "knn"), (0.8, 0.8), (0.5, 0.5))
        p.quick_ea(cond, n_queries=150)
        assert warmups == [0.4]

    def test_deterministic_given_seed(self):
        settings = ProfilerSettings(n_queries=150, n_windows=2, trace_ticks=8)
        cond = [RuntimeCondition(("redis", "knn"), (0.8, 0.8), (0.5, 0.5))]
        a = Profiler(settings=settings, rng=5).profile(cond)
        b = Profiler(settings=settings, rng=5).profile(cond)
        assert np.allclose(a.y_ea, b.y_ea)
        assert np.allclose(a.traces, b.traces)


class TestBoostOverlap:
    def test_partial_overlap(self):
        own = _table([0.0, 2.0, 6.0], [False, True, False])
        partner = _table([0.0, 4.0], [False, True])
        assert _boost_overlap(own, partner, 0.0, 8.0) == 0.25
        assert _boost_overlap(partner, own, 0.0, 8.0) == 0.25

    def test_whole_window_capped_at_one(self):
        # Summing the two pieces of [0.8, 9.4) gives 1 + 1 ulp.
        both = _table([3.0, 10.0], [True, True])
        assert _boost_overlap(both, both, 0.8, 9.4) == 1.0

    def test_bad_window_rejected(self):
        seg = _table([0.0], [True])
        for t0, t1 in [(1.0, 1.0), (float("nan"), 1.0), (0.0, float("nan"))]:
            with pytest.raises(ValueError):
                _boost_overlap(seg, seg, t0, t1)


class TestSettingsValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"counter_noise": float("nan")},
            {"counter_noise": float("inf")},
            {"counter_noise": -0.1},
            {"warmup_fraction": 1.5},
            {"warmup_fraction": 1.0},
            {"warmup_fraction": float("nan")},
            {"trace_ticks": 0},
            {"n_windows": 0},
            {"n_queries": 0},
            {"private_mb": float("nan")},
            {"private_mb": float("inf")},
            {"private_mb": 0.0},
            {"private_mb": -1.0},
            {"private_mb": [2.0, 3.0]},
            {"private_mb": [2.0, float("inf")]},
            {"sampling_hz": float("nan")},
            {"sampling_hz": float("inf")},
            {"sampling_hz": 0.0},
            {"sampling_hz": -1.0},
            {"shared_mb": float("nan")},
            {"shared_mb": float("inf")},
            {"shared_mb": -1.0},
        ],
        ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_bad_settings_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ProfilerSettings(**bad)

    def test_boundary_settings_accepted(self):
        ProfilerSettings(
            counter_noise=0.0, warmup_fraction=0.0, private_mb=0.5, shared_mb=0.0
        )
        ProfilerSettings(trace_ticks=1, sampling_hz=1e-3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RuntimeCondition(PAIR, (0.8, 0.8), (0.5, 0.5), sampling_hz=1.0),
            lambda: uniform_conditions(PAIR, 2, sampling_hz=1.0),
            lambda: grid_anchor_conditions(PAIR, 0.9, sampling_hz=1.0),
            lambda: stratified_conditions(
                PAIR, 2, measure_ea=lambda c: np.ones(2), sampling_hz=1.0
            ),
        ],
        ids=["RuntimeCondition", "uniform", "grid_anchor", "stratified"],
    )
    def test_sampling_rate_is_not_a_condition_option(self, make):
        """The rate is one value per campaign, a ProfilerSettings field."""
        with pytest.raises(TypeError, match="sampling_hz"):
            make()

    def test_nan_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeouts"):
            RuntimeCondition(("redis", "knn"), (0.8, 0.8), (0.5, float("nan")))


class TestSignalPresence:
    def test_timeout_affects_ea(self):
        """Tight timeouts should produce different EA than no STA at all —
        the signal Stage 2 must learn."""
        p = Profiler(rng=11)
        tight = p.quick_ea(
            RuntimeCondition(("redis", "social"), (0.9, 0.9), (0.2, 0.2)),
            n_queries=400,
        )
        never = p.quick_ea(
            RuntimeCondition(("redis", "social"), (0.9, 0.9), (6.0, 6.0)),
            n_queries=400,
        )
        assert tight[0] > never[0]  # redis boosts often -> higher measured EA


@pytest.mark.parametrize("n_windows, rows", [(2, 4), (12, 0)])
def test_windows_under_three_queries_yield_no_rows(n_windows, rows):
    # 24 queries minus 10% warm-up leave 22 per service: two windows hold
    # 11 each, twelve windows hold one or two and are all skipped.
    condition = RuntimeCondition(("redis", "social"), (0.7, 0.7), (1.0, 1.0))
    settings = ProfilerSettings(n_queries=24, n_windows=n_windows, trace_ticks=4)
    data = Profiler(settings=settings, rng=0).profile([condition])
    assert len(data) == rows
