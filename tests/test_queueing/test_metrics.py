"""Tests for response-time metrics and the M/M/k closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing import (
    absolute_percentage_error,
    summarize_response_times,
)

from .mmk_oracle import (
    erlang_c,
    ggk_mean_response_approx,
    ggk_mean_wait_approx,
    mmk_mean_response,
    mmk_mean_wait,
)


class TestSummary:
    def test_basic_statistics(self):
        s = summarize_response_times(np.arange(1, 101, dtype=float))
        assert s.mean == pytest.approx(50.5)
        assert s.p50 == pytest.approx(50.5)
        assert s.p95 == pytest.approx(95.05)
        assert s.n == 100

    def test_fused_percentiles_exactly_match_separate_calls(self):
        # The summary computes all three quantiles from one
        # np.percentile call (one sort); this must be exact-equal to
        # the three-call formulation it replaced.
        rng = np.random.default_rng(17)
        for rt in (
            rng.lognormal(0.0, 0.8, size=999),
            np.arange(1.0, 42.0),
            np.array([3.0]),
        ):
            s = summarize_response_times(rt)
            assert s.p50 == float(np.percentile(rt, 50))
            assert s.p95 == float(np.percentile(rt, 95))
            assert s.p99 == float(np.percentile(rt, 99))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_response_times([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            summarize_response_times([-1.0])


class TestSummaryMatrix:
    """A ``(C, n)`` matrix gives one summary per row, each equal to the
    1-D summary of that row on its own."""

    @pytest.mark.parametrize(
        "rows",
        [
            # Ties, zeros and a single query per row.
            [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 2.0, 5.0]],
            [[3.0], [0.0], [7.5]],
            [[0.0, 1.0]],
        ],
    )
    def test_rows_match_vectors(self, rows):
        matrix = np.array(rows)
        assert summarize_response_times(matrix) == [
            summarize_response_times(row) for row in rows
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 300),
        st.integers(0, 10**6),
        st.sampled_from(["lognormal", "ties", "zeros"]),
    )
    def test_random_matrices(self, n_rows, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "lognormal":
            matrix = rng.lognormal(0.0, 0.8, size=(n_rows, n))
        elif kind == "ties":
            matrix = rng.integers(0, 4, size=(n_rows, n)).astype(float)
        else:
            matrix = np.where(rng.random((n_rows, n)) < 0.7, 0.0, rng.random((n_rows, n)))
        summaries = summarize_response_times(matrix)
        assert isinstance(summaries, list) and len(summaries) == n_rows
        for summary, row in zip(summaries, matrix):
            assert summary == summarize_response_times(row.copy())

    def test_matrix_bad_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize_response_times(np.empty((3, 0)))
        with pytest.raises(ValueError, match="non-negative"):
            summarize_response_times(np.array([[1.0, 2.0], [0.5, -1.0]]))
        with pytest.raises(ValueError, match="1-D or 2-D"):
            summarize_response_times(np.ones((2, 2, 2)))


class TestApe:
    def test_values(self):
        ape = absolute_percentage_error([1.1, 0.9], [1.0, 1.0])
        assert np.allclose(ape, [0.1, 0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            absolute_percentage_error([1.0], [1.0, 2.0])

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            absolute_percentage_error([1.0], [0.0])


class TestErlangC:
    def test_single_server_equals_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.6) == pytest.approx(0.6)

    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_probability_bounds(self):
        for k in (1, 2, 5):
            for a in (0.1 * k, 0.5 * k, 0.9 * k):
                assert 0 <= erlang_c(k, a) <= 1

    def test_mm1_wait_formula(self):
        # E[W] for M/M/1 = rho / (mu - lambda).
        lam, mu = 0.7, 1.0
        assert mmk_mean_wait(lam, mu, 1) == pytest.approx(lam / (mu * (mu - lam)))

    def test_response_is_wait_plus_service(self):
        assert mmk_mean_response(0.5, 1.0, 2) == pytest.approx(
            mmk_mean_wait(0.5, 1.0, 2) + 1.0
        )

    def test_overload_rejected(self):
        with pytest.raises(ValueError):
            erlang_c(2, 2.0)

    def test_bad_servers_rejected(self):
        with pytest.raises(ValueError):
            erlang_c(0, 0.5)


class TestAllenCunneen:
    def test_reduces_to_mmk(self):
        assert ggk_mean_wait_approx(0.7, 1.0, 1, ca2=1.0, cs2=1.0) == pytest.approx(
            mmk_mean_wait(0.7, 1.0, 1)
        )

    def test_deterministic_service_halves_wait(self):
        md1 = ggk_mean_wait_approx(0.7, 1.0, 1, ca2=1.0, cs2=0.0)
        mm1 = ggk_mean_wait_approx(0.7, 1.0, 1, ca2=1.0, cs2=1.0)
        assert md1 == pytest.approx(mm1 / 2)  # the classic M/D/1 result

    def test_matches_simulation_for_lognormal_service(self):
        from repro.queueing import StapQueueConfig
        from repro.queueing.ggk import simulate_stap_queue
        from repro.workloads import PoissonArrivals

        rng = np.random.default_rng(5)
        cv = 0.5
        n = 40000
        arrivals = PoissonArrivals(1.6).sample(n, rng=rng)
        sigma2 = np.log1p(cv**2)
        demands = rng.lognormal(-0.5 * sigma2, np.sqrt(sigma2), n)
        res = simulate_stap_queue(
            arrivals, demands, StapQueueConfig(n_servers=2)
        ).drop_warmup(0.1)
        approx = ggk_mean_response_approx(1.6, 1.0, 2, ca2=1.0, cs2=cv**2)
        assert res.response_times.mean() == pytest.approx(approx, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ggk_mean_wait_approx(0.5, 1.0, 1, ca2=-1.0)
